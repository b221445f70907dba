"""Pair discovery, emotion parsing, corpus evaluation, aggregation, reports."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_wav, sine, white_noise
from cloneval import pipeline
from cloneval.embeddings import load_backend
from cloneval.errors import DimensionMismatch, EmptyInput, NoPairs, ParseError, TooFewSamples
from cloneval.features import FEATURE_IDS
from cloneval.pipeline import (
    EvalConfig,
    aggregate,
    discover_pairs,
    evaluate_corpus,
    load_alias_table,
    make_prompt_assignments,
    parse_emotion,
    write_reports,
)
from cloneval.similarity import PairRecord


class TestDiscoverPairs:
    def test_intersection_and_unmatched(self, wav_dir_factory):
        tone = sine(220, 0.05)
        ref = wav_dir_factory({"a": tone, "b": tone})
        gen = wav_dir_factory({"a": tone, "b": tone, "c": tone})
        pairs, unmatched_ref, unmatched_gen = discover_pairs(ref, gen)
        assert [p[0] for p in pairs] == ["a", "b"]
        assert unmatched_ref == []
        assert unmatched_gen == ["c.wav"]

    def test_case_sensitive_stems(self, wav_dir_factory):
        tone = sine(220, 0.05)
        ref = wav_dir_factory({"a": tone})
        gen = wav_dir_factory({"A": tone})
        with pytest.raises(NoPairs):
            discover_pairs(ref, gen)

    def test_extension_case_collision_rejected(self, wav_dir_factory):
        tone = sine(220, 0.05)
        ref = wav_dir_factory({"a": tone, "b": tone})
        (ref / "a.WAV").write_bytes(make_wav(tone))
        gen = wav_dir_factory({"a": tone, "b": tone})
        with pytest.raises(ParseError, match=r"a\.WAV and a\.wav"):
            discover_pairs(ref, gen)
        with pytest.raises(ParseError, match=r"a\.WAV and a\.wav"):
            discover_pairs(gen, ref)

    def test_non_recursive(self, wav_dir_factory):
        tone = sine(220, 0.05)
        ref = wav_dir_factory({"x": tone})
        gen = wav_dir_factory({"x": tone})
        nested = gen / "nested"
        nested.mkdir()
        (nested / "y.wav").write_bytes(make_wav(tone))
        (ref / "y_ref_only").mkdir()
        pairs, _, unmatched_gen = discover_pairs(ref, gen)
        assert [p[0] for p in pairs] == ["x"]
        assert unmatched_gen == []


class TestParseEmotion:
    @pytest.mark.parametrize(
        "stem,expected",
        [
            ("1001_DFA_ANG_XX", "anger"),
            ("speaker3_happy_12", "happiness"),
            ("utt0042", "unknown"),
            ("OAF_back_disgust", "disgust"),
            ("sad-take.2", "sadness"),
            ("x_NEU_y", "neutral"),
            ("fearful_clip", "fear"),
        ],
    )
    def test_default_aliases(self, stem, expected):
        assert parse_emotion(stem) == expected

    def test_first_token_wins(self):
        assert parse_emotion("happy_sad") == "happiness"

    def test_custom_table(self, tmp_path):
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps({"03": "happiness", "wut": "fear"}))
        table = load_alias_table(path)
        assert parse_emotion("03-01-03-01", table) == "happiness"
        assert parse_emotion("happy_01", table) == "unknown"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "aliases.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"03": "happiness"}).encode())
        assert load_alias_table(path) == {"03": "happiness"}

    def test_table_tokens_are_lowercased(self, tmp_path):
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps({"SPK1": "fear"}))
        table = load_alias_table(path)
        assert table == {"spk1": "fear"}
        assert parse_emotion("Spk1_01", table) == "fear"

    def test_bad_table_label(self, tmp_path):
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps({"x": "joy"}))
        with pytest.raises(ParseError):
            load_alias_table(path)

    @pytest.mark.parametrize("text, first, second", [
        ('{"Ang": "anger", "ang": "fear"}', "'Ang': 'anger'", "'ang': 'fear'"),
        ('{"ang": "anger", "ang": "fear"}', "'ang': 'anger'", "'ang': 'fear'"),
    ], ids=["case_collision", "listed_twice"])
    def test_colliding_tokens_rejected(self, tmp_path, text, first, second):
        path = tmp_path / "aliases.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"entries {first} and {second} name the same token"):
            load_alias_table(path)

    @pytest.mark.parametrize("blob, message", [
        (None, "cannot read alias table"),
        (b'{"sp\xffk": "fear"}', "cannot read alias table"),
        (b'[["spk1", "fear"]]', "alias table must be a JSON object"),
    ], ids=["missing_file", "not_utf8", "top_level_array"])
    def test_unreadable_table_rejected(self, tmp_path, blob, message):
        path = tmp_path / "aliases.json"
        if blob is not None:
            path.write_bytes(blob)
        with pytest.raises(ParseError, match=message):
            load_alias_table(path)

    def test_table_mapping_no_token(self, tmp_path):
        # {} would label every pair unknown while the fingerprint says "auto"
        path = tmp_path / "aliases.json"
        path.write_text("{}")
        with pytest.raises(ParseError, match="use --emotions off"):
            load_alias_table(path)


def _identity_run(wav_dir_factory, files, **config_kwargs):
    ref = wav_dir_factory(files)
    gen = wav_dir_factory(files)
    pairs, _, _ = discover_pairs(ref, gen)
    config = EvalConfig(**config_kwargs)
    return evaluate_corpus(pairs, config)


class TestEvaluateCorpus:
    def test_identity_dirs_score_one(self, wav_dir_factory):
        files = {
            "a_happy": sine(220, 0.3),
            "b_sad": sine(440, 0.3),
            "c_ang": white_noise(0.3, seed=4),
        }
        records, errors = _identity_run(wav_dir_factory, files)
        assert errors == {}
        assert [r.pair_id for r in records] == ["a_happy", "b_sad", "c_ang"]
        assert [r.emotion for r in records] == ["happiness", "sadness", "anger"]
        for record in records:
            for value in record.scores.values():
                assert abs(value - 1.0) <= 1e-6

    def test_corrupt_file_isolated(self, wav_dir_factory):
        files = {"a": sine(220, 0.2), "b": sine(330, 0.2), "c": sine(440, 0.2)}
        ref = wav_dir_factory(files)
        gen = wav_dir_factory(files)
        (gen / "b.wav").write_bytes(b"RIFF etc, not really")
        pairs, _, _ = discover_pairs(ref, gen)
        records, errors = evaluate_corpus(pairs, EvalConfig())
        assert [r.pair_id for r in records] == ["a", "c"]
        assert set(errors) == {"b"}
        assert "FormatError" in errors["b"]

    def test_worker_count_invariant(self, wav_dir_factory):
        files = {f"s{i}": sine(200 + 40 * i, 0.25) for i in range(6)}
        serial, _ = _identity_run(wav_dir_factory, files, workers=1)
        threaded, _ = _identity_run(wav_dir_factory, files, workers=8)
        assert [r.pair_id for r in serial] == [r.pair_id for r in threaded]
        for a, b in zip(serial, threaded):
            assert a.scores == b.scores

    def test_every_pair_failing_returns_every_reason(self, wav_dir_factory):
        files = {"a": sine(220, 0.2), "b": sine(330, 0.2)}
        ref = wav_dir_factory(files)
        gen = wav_dir_factory(files)
        for wav in gen.iterdir():
            wav.write_bytes(b"RIFF, but not a WAV file")
        pairs, _, _ = discover_pairs(ref, gen)
        records, errors = evaluate_corpus(pairs, EvalConfig(workers=2))
        assert records == []
        assert sorted(errors) == ["a", "b"]
        assert all(error.startswith("FormatError: ") for error in errors.values())

    # an EvalConfig is checked when it is made, before any pair can be read
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            EvalConfig(workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 1.0, True, "2", None])
    def test_workers_that_is_not_an_int_rejected(self, workers):
        # a float would pass the range check and reach ProcessPoolExecutor
        with pytest.raises(ValueError, match=f"workers must be an int, got {workers!r}"):
            EvalConfig(workers=workers)

    @pytest.mark.parametrize("field", ["one_backend", "bare_backend", "half_pair",
                                       "unknown_emotion", "uppercase_token"])
    def test_malformed_config_rejected_before_decoding(self, tmp_path, field):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1, 0.2, 0.3], "b": [0.3, 0.2, 0.1]}))
        backend = load_backend(precomputed_path=str(path))
        kwargs = {"one_backend": {"backends": (backend,)},
                  "bare_backend": {"backends": backend},
                  "half_pair": {"backends": (backend, None)},
                  # parse_emotion lowercases every stem token, so SPK1 never matches
                  "unknown_emotion": {"aliases": {"spk1": "joy"}},
                  "uppercase_token": {"aliases": {"SPK1": "fear"}}}[field]
        with pytest.raises(ValueError):
            EvalConfig(**kwargs)

    def test_backend_dimensions_differ_before_decoding(self, tmp_path):
        backends = []
        for side, dim in (("ref", 192), ("gen", 100)):
            path = tmp_path / f"{side}.json"
            path.write_text(json.dumps({"a": [0.5] * dim}))
            backends.append(load_backend(precomputed_path=str(path)))
        with pytest.raises(DimensionMismatch, match="^reference embeddings have 192 "
                           "dimensions but generated embeddings have 100$"):
            EvalConfig(backends=tuple(backends))

    def test_made_config_cannot_be_reassigned(self):
        config = EvalConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 0
        assert config.workers == 1

    def test_alias_table_changed_after_construction_moves_nothing(self):
        table = {"spk1": "fear"}
        config = EvalConfig(aliases=table)
        table["spk1"] = "joy"
        assert parse_emotion("spk1_x", config.aliases) == "fear"
        table.clear()
        assert config.fingerprint()["emotions"] == "auto"
        with pytest.raises(TypeError):
            config.aliases["spk2"] = "anger"
        assert EvalConfig(aliases={}).fingerprint()["emotions"] == "off"

    def test_emotions_off(self, wav_dir_factory):
        records, _ = _identity_run(
            wav_dir_factory, {"a_happy": sine(220, 0.2)}, aliases={}
        )
        assert records[0].emotion == "unknown"


@pytest.fixture(scope="module")
def mixed_corpus(tmp_path_factory):
    """Ten pairs of tones, noise, silence and clicks, one with a corrupt file."""
    root = tmp_path_factory.mktemp("mixed")
    clicks = np.zeros(6000)
    clicks[::1500] = 0.9
    ref_files = {
        "a_happy": sine(220, 0.4), "b_sad": white_noise(0.3, seed=1),
        "c_ang": np.zeros(4000), "d_neu": clicks, "e": sine(900, 0.25, amp=0.2),
        "f_happy": white_noise(0.5, seed=2), "g_sad": sine(130, 0.35, amp=0.7),
        "h": np.zeros(3000), "i_ang": sine(440, 0.3) + white_noise(0.3, seed=3),
        "j_neu": sine(300, 0.2),
    }
    gen_files = dict(ref_files)
    gen_files.update({"a_happy": sine(230, 0.45), "c_ang": white_noise(0.25, seed=4),
                      "e": np.zeros(3500), "g_sad": sine(260, 0.3), "j_neu": clicks})
    dirs = {}
    for side, files in (("ref", ref_files), ("gen", gen_files)):
        dirs[side] = root / side
        dirs[side].mkdir()
        for stem, samples in files.items():
            (dirs[side] / f"{stem}.wav").write_bytes(make_wav(samples))
    (dirs["gen"] / "d_neu.wav").write_bytes(b"RIFF, but not a WAV file")
    pairs, _, _ = discover_pairs(dirs["ref"], dirs["gen"])
    return pairs


def _report_bytes(pairs, workers):
    config = EvalConfig(workers=workers)
    records, errors = evaluate_corpus(pairs, config)
    with tempfile.TemporaryDirectory() as out:
        paths = write_reports(records, aggregate(records, config.fingerprint()), out, errors)
        return records, tuple(Path(p).read_bytes() for p in paths)


@pytest.fixture(scope="module")
def serial_reports(mixed_corpus):
    return _report_bytes(mixed_corpus, 1)[1]


class TestReportDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(order=st.permutations(range(10)), workers=st.sampled_from([1, 2, 4]))
    def test_bytes_independent_of_workers_and_pair_order(
        self, mixed_corpus, serial_reports, order, workers
    ):
        records, got = _report_bytes([mixed_corpus[i] for i in order], workers)
        assert got == serial_reports
        assert len(records) == 9
        for record in records:
            assert all(-1.0 <= v <= 1.0 for v in record.scores.values())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_worker_count_gives_the_same_bytes(self, mixed_corpus, serial_reports, workers):
        assert _report_bytes(mixed_corpus[::-1], workers)[1] == serial_reports
        assert b'"d_neu": "FormatError' in serial_reports[1]


def _record(pair_id, emotion, value):
    return PairRecord(pair_id=pair_id, emotion=emotion, scores={"embedding": value})


class TestFingerprint:
    """The config block of summary.json, pinned key by key."""

    ANALYSIS = {"version": "0.1.0", "sample_rate": 16000, "n_fft": 1024, "hop": 256,
                "window": "hann"}

    def test_default_config(self):
        assert EvalConfig().fingerprint() == {
            **self.ANALYSIS,
            "metrics": ["pitch", "mel_spectrogram", "rms", "spectral_centroid",
                        "spectral_flatness", "spectral_rolloff", "tempogram", "chromagram",
                        "pseudo_cqt", "chroma_cqt"],
            "embedding_backend": "disabled",
            "embedding_dim": None,
            "emotions": "auto",
        }

    def test_precomputed_backend(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1, 0.2, 0.3]}))
        backend = load_backend(precomputed_path=str(path))
        config = EvalConfig(backends=(backend, backend), aliases={})
        assert config.fingerprint() == {
            **self.ANALYSIS,
            "metrics": ["embedding", *FEATURE_IDS],
            "embedding_backend": "precomputed",
            "embedding_dim": 3,
            "emotions": "off",
        }


class TestAggregate:
    def test_two_anger_records(self):
        report = aggregate([_record("a", "anger", 0.8), _record("b", "anger", 0.6)])
        assert abs(report["by_emotion"]["anger"]["embedding"] - 0.7) < 1e-12
        assert abs(report["overall"]["embedding"] - 0.7) < 1e-12

    def test_emotion_average_row(self):
        report = aggregate([_record("a", "anger", 0.7), _record("b", "neutral", 0.9)])
        assert abs(report["emotion_average"]["embedding"] - 0.8) < 1e-12
        assert abs(report["overall"]["embedding"] - 0.8) < 1e-12
        assert report["counts"] == {"anger": 1, "neutral": 1}

    def test_emotion_average_weighs_each_label_once(self):
        # three anger pairs, one neutral and one unknown: the mean of the two
        # known labels' means, not of their four pairs
        report = aggregate([_record("a", "anger", 0.5), _record("b", "anger", 0.5),
                            _record("c", "anger", 0.5), _record("d", "neutral", 0.9),
                            _record("e", "unknown", 0.1)])
        assert abs(report["emotion_average"]["embedding"] - 0.7) < 1e-12
        assert abs(report["overall"]["embedding"] - 0.5) < 1e-12

    def test_all_unknown(self):
        report = aggregate([_record("a", "unknown", 0.5), _record("b", "unknown", 0.7)])
        assert set(report["by_emotion"]) == {"unknown"}
        assert report["emotion_average"] is None

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_counts_conservation(self):
        records = [
            _record("a", "anger", 0.5),
            _record("b", "unknown", 0.6),
            _record("c", "anger", 0.7),
        ]
        report = aggregate(records)
        assert sum(report["counts"].values()) == len(records)


class TestWriteReports:
    def _records(self):
        r1 = PairRecord("a", "anger", {"embedding": 0.8, "rms": 0.5},
                        reference_file="r/a.wav", generated_file="g/a.wav")
        r2 = PairRecord("b", "neutral", {"embedding": 0.641234567, "rms": 1.0},
                        flags={"rms": "both_zero"},
                        reference_file="r/b.wav", generated_file="g/b.wav")
        return [r1, r2]

    def test_csv_layout(self, tmp_path):
        records = self._records()
        summary = aggregate(records, {"metrics": ["embedding", "rms"]})
        details, _ = write_reports(records, summary, tmp_path)
        lines = details.read_text().splitlines()
        assert lines[0] == "pair_id,reference_file,generated_file,emotion,embedding,rms,flags"
        assert len(lines) == 3
        assert lines[1].startswith("a,r/a.wav,g/a.wav,anger,0.800000,0.500000")
        assert "0.641235" in lines[2]
        assert lines[2].endswith("rms=both_zero")

    def test_summary_round_trip(self, tmp_path):
        records = self._records()
        summary = aggregate(records, {"n_fft": 1024})
        _, summary_path = write_reports(records, summary, tmp_path, errors={"c": "boom"})
        loaded = json.loads(summary_path.read_text())
        expected = dict(summary)
        expected["errors"] = {"c": "boom"}
        assert loaded == expected

    def test_summary_keys_are_sorted_at_every_level(self, tmp_path):
        # the bytes pinned without the golden numpy: summary.json's layout
        records = self._records()
        summary = aggregate(records, {"n_fft": 1024, "hop": 256})
        _, summary_path = write_reports(records, summary, tmp_path, errors={"c": "boom"})
        text = summary_path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_byte_identical_rewrites(self, tmp_path):
        records = self._records()
        summary = aggregate(records)
        d1, s1 = write_reports(records, summary, tmp_path / "one")
        d2, s2 = write_reports(records, summary, tmp_path / "two")
        assert d1.read_bytes() == d2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()
        assert b"\r" not in d1.read_bytes()

    def test_failed_write_keeps_previous_reports(self, tmp_path, monkeypatch):
        records = self._records()
        summary = aggregate(records)
        details, summary_path = write_reports(records, summary, tmp_path)
        old_details = details.read_bytes()
        old_summary = summary_path.read_bytes()

        def broken_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            write_reports(records[:1], aggregate(records[:1]), tmp_path)
        assert details.read_bytes() == old_details
        assert summary_path.read_bytes() == old_summary
        assert sorted(p.name for p in tmp_path.iterdir()) == ["details.csv", "summary.json"]

    def test_every_staged_file_is_synced_before_any_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = pipeline.os.fsync, pipeline.os.replace

        def fsync(fd):
            events.append(("fsync", pipeline.os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", pipeline.os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(pipeline.os, "fsync", fsync)
        monkeypatch.setattr(pipeline.os, "replace", replace)
        records = self._records()
        write_reports(records, aggregate(records), tmp_path,
                      extra={tmp_path / "dump.jsonl": lambda fh: fh.write("{}\n")})
        kinds = [kind for kind, _ in events]
        assert kinds == ["fsync"] * 3 + ["replace"] * 3
        assert {ino for kind, ino in events if kind == "fsync"} == {
            ino for kind, ino in events if kind == "replace"}


class TestPromptAssignments:
    def test_two_samples_forced_swap(self):
        manifest = [("A", "text a"), ("B", "text b")]
        out = make_prompt_assignments(manifest, seed=123)
        assert out[0].source_sample_id == "B"
        assert out[0].assigned_text == "text b"
        assert out[1].source_sample_id == "A"

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            make_prompt_assignments([("A", "only")], seed=1)

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            make_prompt_assignments([("A", ""), ("B", "x")], seed=1)

    def test_duplicate_sample_id_rejected(self):
        # "a" listed twice could draw the other "a" entry, i.e. its own text
        with pytest.raises(ParseError, match="'a'"):
            make_prompt_assignments([("a", "one"), ("a", "two"), ("b", "three")], seed=1)

    def test_seed_stability_and_no_self_assignment(self):
        manifest = [(f"s{i}", f"text {i}") for i in range(1000)]
        first = make_prompt_assignments(manifest, seed=17)
        second = make_prompt_assignments(manifest, seed=17)
        assert first == second
        for i, assignment in enumerate(first):
            assert assignment.source_sample_id != manifest[i][0]

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=40))
    def test_never_self_assigns(self, seed, count):
        manifest = [(f"s{i}", f"t{i}") for i in range(count)]
        for i, assignment in enumerate(make_prompt_assignments(manifest, seed)):
            assert assignment.source_sample_id != f"s{i}"
