"""Command-line surface tests; everything runs main() in-process."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import LONG_WAVEFORM, SR, SRC, make_wav, sine, white_noise
from cloneval import cli, pipeline
from cloneval.cli import _cmd_prompts, main
from cloneval.errors import ParseError
from cloneval.features import FEATURE_IDS, extract_summaries


@pytest.fixture
def corpus(tmp_path):
    files = {
        "spk1_happy_01": sine(220, 0.3),
        "spk1_sad_02": sine(330, 0.3),
        "spk2_ANG_03": white_noise(0.3, seed=2),
    }
    ref = tmp_path / "ref"
    gen = tmp_path / "gen"
    ref.mkdir()
    gen.mkdir()
    for stem, samples in files.items():
        blob = make_wav(samples)
        (ref / f"{stem}.wav").write_bytes(blob)
        (gen / f"{stem}.wav").write_bytes(blob)
    rng = np.random.default_rng(0)
    manifest = {stem: list(rng.standard_normal(8)) for stem in files}
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    return {"ref": ref, "gen": gen, "emb": emb, "out": out}


def _evaluate_args(corpus, *extra):
    return [
        "evaluate",
        "--reference-dir", str(corpus["ref"]),
        "--generated-dir", str(corpus["gen"]),
        "--output-dir", str(corpus["out"]),
        *extra,
    ]


def _running(pid):
    """Whether process ``pid`` exists and has not exited (a zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


class TestEvaluate:
    def test_identity_smoke(self, corpus, capsys):
        rc = main(_evaluate_args(
            corpus,
            "--embeddings-ref", str(corpus["emb"]),
            "--embeddings-gen", str(corpus["emb"]),
        ))
        captured = capsys.readouterr()
        assert rc == 0
        assert "embedding 1.000000" in captured.out
        assert (corpus["out"] / "details.csv").exists()
        assert (corpus["out"] / "summary.json").exists()

    def test_mutually_exclusive_embedding_flags(self, corpus):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(
                corpus,
                "--embedding-model", "m.onnx",
                "--embeddings-ref", str(corpus["emb"]),
                "--embeddings-gen", str(corpus["emb"]),
            ))
        assert excinfo.value.code == 2

    def test_embedding_mode_required(self, corpus):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus))
        assert excinfo.value.code == 2

    def test_report_columns(self, corpus):
        rc = main(_evaluate_args(
            corpus,
            "--embeddings-ref", str(corpus["emb"]),
            "--embeddings-gen", str(corpus["emb"]),
        ))
        assert rc == 0
        header = (corpus["out"] / "details.csv").read_text().splitlines()[0]
        assert header == ",".join(
            ["pair_id", "reference_file", "generated_file", "emotion", "embedding",
             *FEATURE_IDS, "flags"])

    def test_report_columns_without_embedding(self, corpus):
        rc = main(_evaluate_args(corpus, "--no-embedding"))
        assert rc == 0
        header = (corpus["out"] / "details.csv").read_text().splitlines()[0]
        assert header == ",".join(
            ["pair_id", "reference_file", "generated_file", "emotion", *FEATURE_IDS, "flags"])

    def test_bad_alias_table_is_usage_error(self, corpus, tmp_path):
        table = tmp_path / "aliases.json"
        table.write_text(json.dumps({"x": "not-an-emotion"}))
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, "--no-embedding", "--emotions", str(table)))
        assert excinfo.value.code == 2

    def test_unknown_flag_rejected(self, corpus):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, "--no-embedding", "--frobnicate"))
        assert excinfo.value.code == 2

    def test_emotions_off(self, corpus):
        rc = main(_evaluate_args(corpus, "--no-embedding", "--emotions", "off"))
        assert rc == 0
        rows = (corpus["out"] / "details.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "unknown" for row in rows)

    def test_emotions_table_file(self, corpus, tmp_path):
        table = tmp_path / "aliases.json"
        table.write_text(json.dumps({"spk1": "fear"}))
        rc = main(_evaluate_args(corpus, "--no-embedding", "--emotions", str(table)))
        assert rc == 0
        rows = (corpus["out"] / "details.csv").read_text().splitlines()[1:]
        emotions = [row.split(",")[3] for row in rows]
        assert emotions == ["fear", "fear", "unknown"]

    def test_dump_features(self, corpus, tmp_path):
        dump = tmp_path / "features.jsonl"
        rc = main(_evaluate_args(
            corpus, "--no-embedding", "--dump-features", str(dump)
        ))
        assert rc == 0
        lines = [json.loads(line) for line in dump.read_text().splitlines()]
        assert len(lines) == 60  # 3 pairs x 2 sides x 10 features
        dirs = {"reference": corpus["ref"], "generated": corpus["gen"]}
        summaries = {(stem, side): extract_summaries(pipeline.load_mono_16k(d / f"{stem}.wav"))
                     for stem in ("spk1_happy_01", "spk1_sad_02", "spk2_ANG_03")
                     for side, d in dirs.items()}
        assert sorted((e["pair_id"], e["side"], e["feature_id"]) for e in lines) == sorted(
            (*key, fid) for key in summaries for fid in FEATURE_IDS)
        assert all(e["vector"] == summaries[e["pair_id"], e["side"]][e["feature_id"]].tolist()
                   for e in lines)

    def test_dump_holds_pairs_whose_embedding_fails(self, corpus, tmp_path):
        manifest = json.loads(corpus["emb"].read_text())
        del manifest["spk1_sad_02"]
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(manifest))
        dump = tmp_path / "features.jsonl"
        rc = main(_evaluate_args(
            corpus, "--embeddings-ref", str(partial), "--embeddings-gen", str(partial),
            "--dump-features", str(dump),
        ))
        assert rc == 0
        summary = json.loads((corpus["out"] / "summary.json").read_text())
        assert list(summary["errors"]) == ["spk1_sad_02"]
        lines = [json.loads(line) for line in dump.read_text().splitlines()]
        assert sorted(e["side"] for e in lines if e["pair_id"] == "spk1_sad_02") == [
            "generated"] * 10 + ["reference"] * 10
        assert len(lines) == 60  # 3 pairs x 2 sides x 10 features

    def test_dump_bytes_independent_of_workers(self, corpus, tmp_path):
        dumps = {}
        for workers in (1, 2):
            dumps[workers] = tmp_path / f"features_w{workers}.jsonl"
            rc = main(_evaluate_args(
                corpus, "--no-embedding", "--workers", str(workers),
                "--dump-features", str(dumps[workers]),
            ))
            assert rc == 0
        assert dumps[1].read_bytes() == dumps[2].read_bytes()

    @pytest.mark.parametrize("mode", ["precomputed", "model"])
    def test_outputs_independent_of_worker_processes(self, corpus, tmp_path, fake_onnx_model,
                                                     mode):
        # a model backend is reopened in each worker: FakeSession refuses to
        # run in a process that did not open it
        embedding = {"precomputed": ["--embeddings-ref", str(corpus["emb"]),
                                     "--embeddings-gen", str(corpus["emb"])],
                     "model": ["--embedding-model", str(fake_onnx_model)]}[mode]
        outputs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"out_w{workers}"
            dump = tmp_path / f"features_w{workers}.jsonl"
            rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                       "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                       "--workers", str(workers), "--dump-features", str(dump), *embedding])
            assert rc == 0
            outputs[workers] = [p.read_bytes() for p in (
                out / "details.csv", out / "summary.json", dump)]
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]
        summary = json.loads(outputs[1][1])
        assert summary["errors"] == {}
        assert summary["config"]["embedding_dim"] == {"precomputed": 8, "model": 4}[mode]

    def test_model_dimension_mismatch_fails_the_same_pair(self, corpus, tmp_path,
                                                          fake_onnx_model):
        # the model declares dimension 4 when it loads; this generated file gives 5
        long_tone = sine(330, (LONG_WAVEFORM + 1000) / SR)
        (corpus["gen"] / "spk1_sad_02.wav").write_bytes(make_wav(long_tone))
        for workers in (1, 2, 3):
            out = tmp_path / f"out_w{workers}"
            rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                       "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                       "--workers", str(workers), "--embedding-model", str(fake_onnx_model)])
            assert rc == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["errors"] == {
                "spk1_sad_02": "DimensionMismatch: model produced dimension 5, expected 4"}
            assert summary["config"]["embedding_dim"] == 4

    def test_first_pair_does_not_set_the_model_dimension(self, corpus, tmp_path,
                                                         fake_onnx_model):
        # the first stem embeds to 5 entries on both sides, the others to the
        # declared 4: the odd pair fails, not the two that conform
        long_tone = make_wav(sine(330, (LONG_WAVEFORM + 1000) / SR))
        for side in ("ref", "gen"):
            (corpus[side] / "spk1_happy_01.wav").write_bytes(long_tone)
        reports = {}
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                       "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                       "--workers", str(workers), "--embedding-model", str(fake_onnx_model)])
            assert rc == 0
            reports[workers] = [(out / name).read_bytes() for name in pipeline.REPORT_NAMES]
        assert reports[2] == reports[1]
        summary = json.loads(reports[1][1])
        assert summary["errors"] == {
            "spk1_happy_01": "DimensionMismatch: model produced dimension 5, expected 4"}
        assert summary["counts"] == {"anger": 1, "sadness": 1}
        assert summary["config"]["embedding_dim"] == 4

    def test_reference_error_wins_over_the_generated_one(self, corpus, tmp_path):
        # the reference fails at extraction, a stage after the generated
        # file's failed decode; each file is a step of its own
        (corpus["ref"] / "spk1_sad_02.wav").write_bytes(make_wav([0.25]))
        (corpus["gen"] / "spk1_sad_02.wav").write_bytes(b"RIFF, but not a WAV file")
        reports = {}
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                       "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                       "--workers", str(workers), "--no-embedding"])
            assert rc == 0
            reports[workers] = [(out / name).read_bytes() for name in pipeline.REPORT_NAMES]
        assert reports[2] == reports[1]
        assert json.loads(reports[1][1])["errors"] == {
            "spk1_sad_02": "InputTooShort: need at least 513 samples, got 1"}

    def test_one_pair_with_two_workers_runs_its_files_in_the_pool(self, corpus, tmp_path,
                                                                  monkeypatch):
        for stem in ("spk1_sad_02", "spk2_ANG_03"):
            (corpus["gen"] / f"{stem}.wav").unlink()
        extracted_in = tmp_path / "extracted_in.txt"

        def noting_pid(buf, extract=pipeline.extract_summaries):
            with open(extracted_in, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return extract(buf)

        outputs = {}
        for workers in (1, 2):
            out = tmp_path / f"out_w{workers}"
            dump = tmp_path / f"features_w{workers}.jsonl"
            if workers == 2:  # forked workers inherit the patch
                monkeypatch.setattr(pipeline, "extract_summaries", noting_pid)
            rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                       "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                       "--workers", str(workers), "--dump-features", str(dump),
                       "--embeddings-ref", str(corpus["emb"]),
                       "--embeddings-gen", str(corpus["emb"])])
            assert rc == 0
            outputs[workers] = [p.read_bytes() for p in (
                out / "details.csv", out / "summary.json", dump)]
        assert outputs[2] == outputs[1]
        assert json.loads(outputs[1][1])["counts"] == {"happiness": 1}
        pids = [int(pid) for pid in extracted_in.read_text().split()]
        assert len(pids) == 2 and os.getpid() not in pids

    def test_manifest_mapping_no_stem_fails_before_any_decode(self, corpus, monkeypatch,
                                                               capsys):
        empty = corpus["emb"].with_name("empty.json")
        empty.write_text("{}")
        decoded = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda data: decoded.append(data))
        rc = main(_evaluate_args(corpus, "--embeddings-ref", str(corpus["emb"]),
                                 "--embeddings-gen", str(empty)))
        assert rc == 1
        assert capsys.readouterr().err == f"error: embedding manifest {empty} maps no stem\n"
        assert decoded == []
        assert not corpus["out"].exists()

    def test_expected_dim_is_not_an_option(self, corpus, capsys):
        # every backend knows its dimension when it loads
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, "--no-embedding", "--expected-dim", "8"))
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --expected-dim 8" in capsys.readouterr().err
        assert not corpus["out"].exists()

    def test_dead_worker_process_fails_the_run(self, corpus, monkeypatch, capsys):
        # forked workers inherit the patch; the calling process never extracts
        monkeypatch.setattr(pipeline, "extract_summaries", lambda buf: os._exit(3))
        rc = main(_evaluate_args(corpus, "--no-embedding", "--workers", "2"))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: a worker process died: ")
        assert not corpus["out"].exists()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states")
    def test_killed_run_leaves_no_worker(self, corpus, tmp_path):
        started = tmp_path / "started"
        started.mkdir()
        script = (
            "import os, time\n"
            "from cloneval import cli, pipeline\n"
            "def stall(buf):\n"
            f"    open(os.path.join({str(started)!r}, str(os.getpid())), 'w').close()\n"
            "    time.sleep(120)\n"
            "pipeline.extract_summaries = stall\n"
            f"cli.main({_evaluate_args(corpus, '--no-embedding', '--workers', '2')!r})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        run = subprocess.Popen([sys.executable, "-c", script], env=env,
                               stdout=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline and run.poll() is None:
                time.sleep(0.05)
                workers = [int(p.name) for p in started.iterdir()]
            assert len(workers) == 2
            run.send_signal(signal.SIGKILL)
            run.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            run.kill()
            run.wait(timeout=10)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("where", ["missing/features.jsonl", ".", "missing/"])
    def test_unwritable_dump_path_is_usage_error(self, corpus, tmp_path, where, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(
                corpus, "--no-embedding", "--dump-features", f"{tmp_path}/{where}"
            ))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cloneval evaluate ")
        assert not corpus["out"].exists()

    @pytest.mark.parametrize("name", ["details.csv", "summary.json"])
    def test_dump_path_naming_a_report_is_usage_error(self, corpus, name, capsys):
        assert main(_evaluate_args(corpus, "--no-embedding")) == 0
        previous = {p.name: p.read_bytes() for p in corpus["out"].iterdir()}
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(
                corpus, "--no-embedding", "--dump-features", f"{corpus['out']}/../out/{name}"
            ))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval evaluate ")
        assert "--dump-features must not name a report file" in err
        assert {p.name: p.read_bytes() for p in corpus["out"].iterdir()} == previous

    def test_failed_write_keeps_previous_dump(self, corpus, tmp_path, monkeypatch, capsys):
        dump = tmp_path / "features.jsonl"
        args = _evaluate_args(corpus, "--no-embedding", "--dump-features", str(dump))
        assert main(args) == 0
        previous = dump.read_bytes()
        (corpus["gen"] / "spk2_ANG_03.wav").unlink()  # the next run has one pair less

        def broken_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.json, "dump", broken_dump)
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: disk full"
        assert dump.read_bytes() == previous
        assert not any(p.name.startswith(".") for p in tmp_path.iterdir())

    def test_dump_into_a_new_output_dir(self, corpus, tmp_path):
        out = tmp_path / "fresh" / "results"
        rc = main(["evaluate", "--reference-dir", str(corpus["ref"]),
                   "--generated-dir", str(corpus["gen"]), "--output-dir", str(out),
                   "--no-embedding",
                   "--dump-features", str(out / "features.jsonl")])
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "details.csv", "features.jsonl", "summary.json"]

    @pytest.mark.parametrize("read", ["--embeddings-ref", "--embeddings-gen", "--emotions",
                                      "--reference-dir"])
    def test_dump_path_naming_an_input_is_usage_error(self, corpus, tmp_path, read,
                                                      monkeypatch, capsys):
        gen_emb = tmp_path / "gen_emb.json"
        gen_emb.write_text(corpus["emb"].read_text())
        table = tmp_path / "aliases.json"
        table.write_text(json.dumps({"spk1": "fear"}))
        inputs = {"--embeddings-ref": corpus["emb"], "--embeddings-gen": gen_emb,
                  "--emotions": table, "--reference-dir": corpus["ref"] / "spk1_sad_02.wav"}
        previous = {flag: path.read_bytes() for flag, path in inputs.items()}
        evaluated = []
        monkeypatch.setattr(cli, "evaluate_corpus",
                            lambda *args, **kwargs: evaluated.append(args))
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(
                corpus, "--embeddings-ref", str(corpus["emb"]), "--embeddings-gen", str(gen_emb),
                "--emotions", str(table), "--dump-features", str(inputs[read]),
            ))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval evaluate ")
        what = "a WAV in --reference-dir" if read == "--reference-dir" else f"the {read} file"
        assert f"--dump-features must not name {what}" in err
        assert evaluated == []
        assert {flag: path.read_bytes() for flag, path in inputs.items()} == previous

    def test_report_naming_a_manifest_is_usage_error(self, corpus, capsys):
        corpus["out"].mkdir()
        manifest = corpus["out"] / "details.csv"
        manifest.write_text(corpus["emb"].read_text())
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(
                corpus, "--embeddings-ref", str(manifest), "--embeddings-gen", str(corpus["emb"])
            ))
        assert excinfo.value.code == 2
        assert ("details.csv in --output-dir must not name the --embeddings-ref file"
                in capsys.readouterr().err)
        assert manifest.read_text() == corpus["emb"].read_text()

    def test_report_reached_through_a_symlinked_wav_is_usage_error(self, corpus, capsys):
        assert main(_evaluate_args(corpus, "--no-embedding")) == 0
        previous = {p.name: p.read_bytes() for p in corpus["out"].iterdir()}
        (corpus["ref"] / "zz_link.wav").symlink_to(corpus["out"] / "details.csv")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, "--no-embedding"))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval evaluate ")
        assert err.endswith("error: details.csv in --output-dir must not name a WAV in "
                            "--reference-dir\n")
        assert {p.name: p.read_bytes() for p in corpus["out"].iterdir()} == previous

    def test_manifest_listing_a_stem_twice_fails_the_run(self, corpus, capsys):
        text = corpus["emb"].read_text()
        assert text.endswith("]}")
        corpus["emb"].write_text(text[:-1] + ', "spk1_sad_02": [' + "0.5, " * 7 + "0.5]}")
        rc = main(_evaluate_args(
            corpus, "--embeddings-ref", str(corpus["emb"]), "--embeddings-gen", str(corpus["emb"])
        ))
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: embedding manifest lists the stem 'spk1_sad_02' more than once\n")
        assert not corpus["out"].exists()

    @pytest.mark.parametrize("where", ["file", "file/out"])
    def test_output_dir_under_a_file_is_usage_error(self, corpus, tmp_path, where,
                                                     monkeypatch, capsys):
        (tmp_path / "file").write_text("keep me")
        evaluated = []
        monkeypatch.setattr(cli, "evaluate_corpus",
                            lambda *args, **kwargs: evaluated.append(args))
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--reference-dir", str(corpus["ref"]),
                  "--generated-dir", str(corpus["gen"]),
                  "--output-dir", str(tmp_path / where), "--no-embedding"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval evaluate ")
        assert f"--output-dir cannot be a directory: {tmp_path / 'file'} is a file" in err
        assert evaluated == []
        assert (tmp_path / "file").read_text() == "keep me"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, corpus, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, "--no-embedding", "--workers", workers))
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cloneval evaluate ")
        assert not corpus["out"].exists()

    def test_missing_dir_is_usage_error(self, corpus, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "evaluate",
                "--reference-dir", str(corpus["ref"] / "nope"),
                "--generated-dir", str(corpus["gen"]),
                "--output-dir", str(corpus["out"]),
                "--no-embedding",
            ])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cloneval evaluate ")

    def test_non_finite_sample_fails_its_pair(self, corpus):
        # at 44.1 kHz, so that the count is the file's, not the resampled buffer's
        x = sine(220, 0.3, sr=44100)
        x[100] = np.nan
        (corpus["gen"] / "spk1_sad_02.wav").write_bytes(make_wav(x, sr=44100, fmt="float32"))
        rc = main(_evaluate_args(corpus, "--no-embedding"))
        assert rc == 0
        summary = json.loads((corpus["out"] / "summary.json").read_text())
        assert list(summary["errors"]) == ["spk1_sad_02"]
        assert "1 non-finite" in summary["errors"]["spk1_sad_02"]
        rows = (corpus["out"] / "details.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["spk1_happy_01", "spk2_ANG_03"]

    def test_every_pair_failing_writes_no_reports(self, corpus, capsys):
        assert main(_evaluate_args(corpus, "--no-embedding")) == 0
        previous = {p.name: p.read_bytes() for p in corpus["out"].iterdir()}
        for wav in corpus["gen"].iterdir():
            wav.write_bytes(b"RIFF, but not a WAV file")
        capsys.readouterr()
        rc = main(_evaluate_args(corpus, "--no-embedding"))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": FormatError: ")[0] for line in err] == [
            "warning: pair spk1_happy_01 failed", "warning: pair spk1_sad_02 failed",
            "warning: pair spk2_ANG_03 failed", "error: all 3 pairs failed; first error"]
        assert {p.name: p.read_bytes() for p in corpus["out"].iterdir()} == previous

    def test_number_too_large_for_float64_in_manifest(self, corpus, capsys):
        manifest = corpus["emb"].read_text().replace("[", "[1" + "0" * 400 + ", ", 1)
        corpus["emb"].write_text(manifest)
        rc = main(_evaluate_args(
            corpus, "--embeddings-ref", str(corpus["emb"]), "--embeddings-gen", str(corpus["emb"])
        ))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: entry ")
        assert err[0].endswith("holds a number too large for float64")

    def test_manifest_dimensions_differ_before_any_extraction(self, corpus, monkeypatch, capsys):
        gen_manifest = {stem: [0.5] * 5 for stem in json.loads(corpus["emb"].read_text())}
        gen_emb = corpus["emb"].with_name("gen_emb.json")
        gen_emb.write_text(json.dumps(gen_manifest))
        scored = []
        monkeypatch.setattr(pipeline, "_pair_outcomes",
                            lambda pairs, config: scored.append(pairs) or iter(()))
        rc = main(_evaluate_args(
            corpus, "--embeddings-ref", str(corpus["emb"]), "--embeddings-gen", str(gen_emb)
        ))
        assert rc == 1
        assert scored == []
        assert capsys.readouterr().err.splitlines() == [
            "error: reference embeddings have 8 dimensions but "
            "generated embeddings have 5"]
        assert not corpus["out"].exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_model_embedding_fails_its_pairs(self, corpus, nan_onnx_model, workers,
                                                       capsys):
        rc = main(_evaluate_args(corpus, "--workers", str(workers),
                                 "--embedding-model", str(nan_onnx_model)))
        assert rc == 1
        reason = "NonFiniteEmbedding: embedding of {!r} holds non-finite (NaN or Inf) values"
        stems = ("spk1_happy_01", "spk1_sad_02", "spk2_ANG_03")
        assert capsys.readouterr().err.splitlines() == [
            *(f"warning: pair {stem} failed: {reason.format(stem)}" for stem in stems),
            f"error: all 3 pairs failed; first error: {reason.format(stems[0])}"]
        assert not corpus["out"].exists()

    @pytest.mark.parametrize("flags", [["--embeddings-ref"],
                                       ["--no-embedding", "--embeddings-gen"]],
                             ids=["ref_only", "gen_only"])
    def test_one_embedding_manifest_is_usage_error(self, corpus, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(_evaluate_args(corpus, *flags, str(corpus["emb"])))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval evaluate ")
        assert "--embeddings-ref and --embeddings-gen must be given together" in err
        assert not corpus["out"].exists()

    def test_unmatched_files_are_warned_about(self, corpus, capsys):
        (corpus["ref"] / "only_ref.wav").write_bytes(make_wav(sine(220, 0.1)))
        (corpus["gen"] / "only_gen.wav").write_bytes(make_wav(sine(220, 0.1)))
        assert main(_evaluate_args(corpus, "--no-embedding")) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: unmatched reference file only_ref.wav",
            "warning: unmatched generated file only_gen.wav"]
        rows = (corpus["out"] / "details.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["spk1_happy_01", "spk1_sad_02",
                                                       "spk2_ANG_03"]

    def test_help_available(self, capsys):
        for sub in ("evaluate", "prompts", "embed"):
            with pytest.raises(SystemExit) as excinfo:
                main([sub, "--help"])
            assert excinfo.value.code == 0
            assert "usage" in capsys.readouterr().out


class TestPrompts:
    def _manifest(self, tmp_path, rows):
        path = tmp_path / "manifest.tsv"
        path.write_text("".join(f"{sid}\t{text}\n" for sid, text in rows))
        return path

    def test_two_row_swap(self, tmp_path):
        manifest = self._manifest(tmp_path, [("A", "alpha"), ("B", "beta")])
        out = tmp_path / "assignments.tsv"
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "A\tB\tbeta\nB\tA\talpha\n"

    def test_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        rows = [(f"s{i}", f"text {i}") for i in range(5)]
        plain = self._manifest(tmp_path, rows)
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outs = [tmp_path / "plain.out.tsv", tmp_path / "marked.out.tsv"]
        for manifest, out in zip((plain, marked), outs):
            assert main(["prompts", "--manifest", str(manifest), "--seed", "3",
                         "--out", str(out)]) == 0
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_deterministic_per_seed(self, tmp_path):
        rows = [(f"s{i}", f"text {i}") for i in range(20)]
        manifest = self._manifest(tmp_path, rows)
        out1 = tmp_path / "a.tsv"
        out2 = tmp_path / "b.tsv"
        assert main(["prompts", "--manifest", str(manifest), "--seed", "9", "--out", str(out1)]) == 0
        assert main(["prompts", "--manifest", str(manifest), "--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_row_fails(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [("A", "alpha")])
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "1",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_duplicate_sample_id_fails(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [("a", "one"), ("a", "two"), ("b", "three")])
        out = tmp_path / "x.tsv"
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert "'a'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        manifest = tmp_path / "absent.tsv"
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "1",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read manifest {manifest}: ")

    @pytest.mark.parametrize("where", ["missing/o.tsv", ".", "missing/"])
    def test_unwritable_out_is_usage_error(self, tmp_path, where, capsys):
        # checked before the manifest is read: this one does not exist
        with pytest.raises(SystemExit) as excinfo:
            main(["prompts", "--manifest", str(tmp_path / "absent.tsv"), "--seed", "1",
                  "--out", f"{tmp_path}/{where}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval prompts ")
        assert "--out must name a file in an existing directory" in err

    def test_failed_write_keeps_previous_out(self, tmp_path, monkeypatch, capsys):
        manifest = self._manifest(tmp_path, [("A", "alpha"), ("B", "beta")])
        out = tmp_path / "assignments.tsv"
        out.write_text("previous\n")

        def broken_replace(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.os, "replace", broken_replace)
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "5", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["assignments.tsv", "manifest.tsv"]

    def test_out_naming_the_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [("A", "alpha"), ("B", "beta")])
        with pytest.raises(SystemExit) as excinfo:
            main(["prompts", "--manifest", str(manifest), "--seed", "5",
                  "--out", f"{tmp_path}/../{tmp_path.name}/manifest.tsv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval prompts ")
        assert "--out must not name the --manifest file" in err
        assert manifest.read_text() == "A\talpha\nB\tbeta\n"

    def test_malformed_line_is_a_parse_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("A\talpha\nB beta\n")
        with pytest.raises(ParseError, match=r"manifest.tsv:2: expected sample_id<TAB>text"):
            _cmd_prompts(argparse.Namespace(manifest=str(manifest), seed=1,
                                            out=str(tmp_path / "x.tsv")),
                         argparse.ArgumentParser())
        rc = main(["prompts", "--manifest", str(manifest), "--seed", "1",
                   "--out", str(tmp_path / "x.tsv")])
        assert rc == 1
        assert ":2: expected sample_id<TAB>text" in capsys.readouterr().err


class TestEmbedCommand:
    def test_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main(["embed", "--input-dir", str(empty), "--model", "m.onnx",
                   "--out", str(tmp_path / "e.json")])
        assert rc == 1
        assert "no audio files" in capsys.readouterr().err

    def test_bad_model_fails(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a.wav").write_bytes(make_wav(sine(220, 0.05)))
        bad = tmp_path / "bad.onnx"
        bad.write_bytes(b"definitely not a model")
        rc = main(["embed", "--input-dir", str(wav_dir), "--model", str(bad),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 1

    def test_stem_collision_rejected_before_model_loads(self, tmp_path, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a.wav").write_bytes(make_wav(sine(220, 0.05)))
        (wav_dir / "a.WAV").write_bytes(make_wav(sine(330, 0.05)))
        rc = main(["embed", "--input-dir", str(wav_dir), "--model", str(tmp_path / "missing.onnx"),
                   "--out", str(tmp_path / "e.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "a.wav" in err and "a.WAV" in err

    def test_missing_input_dir_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["embed", "--input-dir", str(tmp_path / "missing"), "--model", "m.onnx",
                  "--out", str(tmp_path / "e.json")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval embed ")
        assert "--input-dir is not a directory" in err

    @pytest.mark.parametrize("where", ["missing/e.json", ".", "missing/"])
    def test_unwritable_out_is_usage_error(self, tmp_path, where, capsys):
        # checked before the model is loaded: this one does not exist
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a.wav").write_bytes(make_wav(sine(220, 0.05)))
        with pytest.raises(SystemExit) as excinfo:
            main(["embed", "--input-dir", str(wav_dir), "--model", str(tmp_path / "m.onnx"),
                  "--out", f"{tmp_path}/{where}"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval embed ")
        assert "--out must name a file in an existing directory" in err

    def test_manifest_of_every_file_then_evaluate_from_it(self, tmp_path, symbolic_onnx_model,
                                                           capsys):
        # 8000 samples each, longer than LONG_WAVEFORM: five entries per vector,
        # as many as the model gives 1 s of silence, so its symbolic axis allows
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        for stem, freq in (("b_sad", 330), ("a_happy", 220)):
            (wav_dir / f"{stem}.wav").write_bytes(make_wav(sine(freq, 0.5)))
        manifest = tmp_path / "e.json"
        rc = main(["embed", "--input-dir", str(wav_dir), "--model", str(symbolic_onnx_model),
                   "--out", str(manifest)])
        assert rc == 0
        assert capsys.readouterr().out == f"wrote 2 embeddings to {manifest}\n"
        text = manifest.read_text()
        assert text.endswith("]\n}\n")
        vectors = json.loads(text)
        assert list(vectors) == ["a_happy", "b_sad"]
        assert all(len(v) == 5 and v[4] == 8000 / LONG_WAVEFORM for v in vectors.values())

        out = tmp_path / "out"
        rc = main(["evaluate", "--reference-dir", str(wav_dir), "--generated-dir", str(wav_dir),
                   "--output-dir", str(out), "--embeddings-ref", str(manifest),
                   "--embeddings-gen", str(manifest)])
        assert rc == 0
        rows = (out / "details.csv").read_text().splitlines()
        embedding = rows[0].split(",").index("embedding")
        assert [row.split(",")[embedding] for row in rows[1:]] == ["1.000000"] * 2
        assert json.loads((out / "summary.json").read_text())["config"]["embedding_dim"] == 5

    def test_evaluate_and_embed_agree_on_a_symbolic_dimension(self, tmp_path,
                                                              symbolic_onnx_model):
        # the model's embedding of 1 s of silence has five entries, and so
        # do those of these 8000-sample files, longer than LONG_WAVEFORM
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        for stem, freq in (("a_happy", 220), ("b_sad", 330)):
            (wav_dir / f"{stem}.wav").write_bytes(make_wav(sine(freq, 0.5)))
        manifest = tmp_path / "e.json"
        assert main(["embed", "--input-dir", str(wav_dir), "--model", str(symbolic_onnx_model),
                     "--out", str(manifest)]) == 0
        assert [len(v) for v in json.loads(manifest.read_text()).values()] == [5, 5]
        reports = []
        for name, flags in (("model", ["--embedding-model", str(symbolic_onnx_model)]),
                            ("manifest", ["--embeddings-ref", str(manifest),
                                          "--embeddings-gen", str(manifest)])):
            out = tmp_path / name
            assert main(["evaluate", "--reference-dir", str(wav_dir), "--generated-dir",
                         str(wav_dir), "--output-dir", str(out), *flags]) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary["config"].pop("embedding_backend")
            reports.append(((out / "details.csv").read_bytes(), summary))
        assert reports[0] == reports[1]
        assert reports[0][1]["config"]["embedding_dim"] == 5
        assert reports[0][1]["errors"] == {}

    @pytest.mark.parametrize("model, got, want", [("fake_onnx_model", 5, 4),
                                                  ("symbolic_onnx_model", 4, 5)])
    def test_dimension_mismatch_writes_no_manifest(self, tmp_path, request, model, got, want,
                                                   capsys):
        # the static model declares 4; a symbolic one holds every vector to the
        # length of its embedding of 1 s of silence, the 5 entries of a_long
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a_long.wav").write_bytes(make_wav(sine(220, (LONG_WAVEFORM + 1000) / SR)))
        (wav_dir / "b_short.wav").write_bytes(make_wav(sine(220, 0.05)))
        out = tmp_path / "e.json"
        rc = main(["embed", "--input-dir", str(wav_dir),
                   "--model", str(request.getfixturevalue(model)), "--out", str(out)])
        assert rc == 1
        stem = {5: "a_long", 4: "b_short"}[got]  # the file whose vector has the odd length
        assert capsys.readouterr().err == (
            f"error: {wav_dir / stem}.wav: model produced dimension {got}, expected {want}\n")
        assert not out.exists()

    @pytest.mark.parametrize("blob, reason", [
        (b"garbage", "not a RIFF/WAVE file"),
        (make_wav(np.full(100, np.nan), fmt="float32"),
         "data chunk holds 100 non-finite (NaN or Inf) samples"),
    ], ids=["garbage", "nan_samples"])
    def test_error_names_the_file_that_stopped_it(self, tmp_path, fake_onnx_model, blob,
                                                  reason, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a_bad.wav").write_bytes(blob)
        (wav_dir / "b_good.wav").write_bytes(make_wav(sine(220, 0.05)))
        out = tmp_path / "e.json"
        rc = main(["embed", "--input-dir", str(wav_dir), "--model", str(fake_onnx_model),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {wav_dir / 'a_bad.wav'}: {reason}\n"
        assert not out.exists()

    def test_non_finite_embedding_writes_no_manifest(self, tmp_path, nan_onnx_model, capsys):
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "a.wav").write_bytes(make_wav(sine(220, 0.05)))
        out = tmp_path / "e.json"
        rc = main(["embed", "--input-dir", str(wav_dir), "--model", str(nan_onnx_model),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {wav_dir / 'a.wav'}: embedding of 'a' holds non-finite (NaN or Inf) "
            "values\n")
        assert not out.exists()

    def test_out_naming_an_input_wav_is_usage_error(self, tmp_path, capsys):
        # checked before the model is loaded: this one does not exist
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        wav = make_wav(sine(220, 0.05))
        (wav_dir / "a.WAV").write_bytes(wav)
        with pytest.raises(SystemExit) as excinfo:
            main(["embed", "--input-dir", str(wav_dir), "--model", str(tmp_path / "m.onnx"),
                  "--out", str(wav_dir / "a.WAV")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cloneval embed ")
        assert "--out must not name a WAV in --input-dir" in err
        assert (wav_dir / "a.WAV").read_bytes() == wav

    def test_silent_file_scores_the_same_from_its_manifest(self, tmp_path, fake_onnx_model,
                                                           capsys):
        # the model embeds a silent file as a zero vector, which embed writes
        # to the manifest and evaluate must take back as it is
        wav_dir = tmp_path / "wavs"
        wav_dir.mkdir()
        (wav_dir / "quiet.wav").write_bytes(make_wav(np.zeros(SR // 4)))
        (wav_dir / "tone.wav").write_bytes(make_wav(sine(220, 0.25)))
        manifest = tmp_path / "e.json"
        assert main(["embed", "--input-dir", str(wav_dir), "--model", str(fake_onnx_model),
                     "--out", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["quiet"] == [0.0] * 4

        reports = []
        for name, flags in (("model", ["--embedding-model", str(fake_onnx_model)]),
                            ("manifest", ["--embeddings-ref", str(manifest),
                                          "--embeddings-gen", str(manifest)])):
            out = tmp_path / name
            assert main(["evaluate", "--reference-dir", str(wav_dir), "--generated-dir",
                         str(wav_dir), "--output-dir", str(out), "--workers", "1", *flags]) == 0
            summary = json.loads((out / "summary.json").read_text())
            # the one field that names the backend
            assert summary["config"].pop("embedding_backend") == (
                "model:fake.onnx" if name == "model" else "precomputed")
            reports.append(((out / "details.csv").read_bytes(), summary))
        assert reports[0] == reports[1]
        quiet = reports[0][0].decode().splitlines()[1]
        assert quiet.startswith("quiet,") and "embedding=both_zero" in quiet
