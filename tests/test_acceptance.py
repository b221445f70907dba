"""Acceptance criteria, one test per criterion.

Each test prints "ACCEPTANCE <name>: PASS|FAIL" so a run with -s (or the
captured output on failure) reads as a checklist. Tolerances are fixed here
and nowhere else.
"""

import csv
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from conftest import (SR, centered, click_train, make_wav, mel_of, mono_buffer,
                      silence_then_tone, sine, stft_of, white_noise)
from cloneval import features as F
from cloneval.audio_io import decode_wav, resample
from cloneval.embeddings import embed, load_backend
from cloneval.pipeline import (
    EvalConfig,
    aggregate,
    discover_pairs,
    evaluate_corpus,
    make_prompt_assignments,
    write_reports,
)
from cloneval.similarity import cosine


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _write_corpus(root, files, embeddings=None):
    root.mkdir(parents=True, exist_ok=True)
    for stem, samples in files.items():
        (root / f"{stem}.wav").write_bytes(make_wav(samples))
    if embeddings is not None:
        path = root.parent / f"{root.name}_embeddings.json"
        path.write_text(json.dumps(embeddings))
        return path
    return None


def test_identity_corpus(tmp_path):
    files = {
        f"tone{freq}": sine(freq, 1.0, amp=0.6)
        for freq in (110, 165, 220, 330, 440, 550, 660, 880)
    }
    files["noise"] = white_noise(1.0, seed=1)
    files["clicks"] = click_train(dur=1.0)
    files["mix_silence_tone"] = silence_then_tone(330.0)
    del files["tone550"]  # keep exactly 10 files
    assert len(files) == 10

    rng = np.random.default_rng(21)
    embeddings = {stem: list(rng.standard_normal(16)) for stem in files}
    ref = tmp_path / "ref"
    gen = tmp_path / "gen"
    emb_path = _write_corpus(ref, files, embeddings)
    _write_corpus(gen, files)

    with criterion("identity_corpus"):
        start = time.perf_counter()
        backend = load_backend(precomputed_path=str(emb_path))
        pairs, _, _ = discover_pairs(ref, gen)
        config = EvalConfig(backends=(backend, backend), workers=4)
        records, errors = evaluate_corpus(pairs, config)
        summary = aggregate(records, config.fingerprint())
        details_path, _ = write_reports(records, summary, tmp_path / "out", errors)
        elapsed = time.perf_counter() - start

        assert errors == {}
        assert len(records) == 10
        with open(details_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        metrics = list(summary["overall"])
        for row in rows:
            for metric in metrics:
                assert abs(float(row[metric]) - 1.0) <= 1e-6, (row["pair_id"], metric)
        for metric, value in summary["overall"].items():
            assert abs(value - 1.0) <= 1e-6, metric
        assert elapsed < 30.0, f"run took {elapsed:.1f}s"


def _parity_signals():
    pulse = np.zeros(int(0.8 * SR))
    pulse[::160] = 1.0
    t = np.arange(int(0.8 * SR)) / SR
    return {
        "tone220": sine(220.0, 0.8, amp=0.7),
        "harmonic": 0.5 * sine(440.0, 0.8) + 0.3 * sine(1320.0, 0.8),
        "am_tone": (0.6 + 0.4 * np.sin(2 * np.pi * 3.0 * t)) * np.sin(2 * np.pi * 330.0 * t),
        "noise": white_noise(0.8, seed=13),
        "pulse_train": pulse,
    }


def _oracle_summaries(x):
    mag = oracles.stft_mag(x)
    power = mag**2
    mel = oracles.mel_filter_weights() @ power
    pcqt = oracles.pcqt_weights() @ power
    raw = {
        "pitch": oracles.yin_f0(x),
        "mel_spectrogram": mel,
        "rms": oracles.rms_envelope(x),
        "spectral_centroid": oracles.spectral_centroid(mag),
        "spectral_flatness": oracles.spectral_flatness(power),
        "spectral_rolloff": oracles.spectral_rolloff(mag),
        "tempogram": oracles.tempogram(oracles.onset_strength(mel)),
        "chromagram": oracles.chroma_weights() @ power,
        "pseudo_cqt": pcqt,
        "chroma_cqt": oracles.chroma_from_cqt(pcqt),
    }
    return {fid: oracles.summarize_any(fid, values) for fid, values in raw.items()}


def test_feature_oracle_parity():
    with criterion("feature_oracle_parity"):
        for name, signal in _parity_signals().items():
            lib = F.extract_summaries(mono_buffer(signal))
            ref = _oracle_summaries(signal)
            for fid in F.FEATURE_IDS:
                tolerance = 0.05 if fid == "pitch" and name == "pulse_train" else 0.02
                error = oracles.rel_l2_error(lib[fid], ref[fid])
                assert error <= tolerance, (name, fid, error)


def test_analytic_spot_checks():
    with criterion("analytic_spot_checks"):
        rms = F.rms_envelope(*centered(sine(220.0)))
        assert np.all(np.abs(rms[3:-3] - 0.7071) <= 0.01)

        flat_spec = np.ones((513, 4))
        assert np.all(np.abs(F.spectral_flatness(flat_spec) - 1.0) <= 1e-6)

        mag = stft_of(sine(440.0))
        chroma = F.chroma_stft(mag**2)
        assert int(np.argmax(chroma.mean(axis=1))) == 9  # class A

        assert abs(F.cqt_center_frequencies()[12] - 65.406) <= 0.001

        env = F.onset_strength(mel_of(click_train()))
        profile = F.tempogram(env)
        lag = int(np.argmax(profile[10:100])) + 10
        assert abs(lag - 31) <= 1


def test_cosine_properties():
    with criterion("cosine_properties"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            dim = int(rng.integers(2, 64))
            u = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            v = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            forward = cosine(u, v)
            assert forward == cosine(v, u)
            assert -1.0 <= forward <= 1.0
            scale = float(rng.uniform(0.1, 100.0))
            assert abs(cosine(u, scale * v) - forward) < 1e-9
            assert cosine(u, u) == 1.0
        zero = np.zeros(5)
        assert cosine(zero, zero) == 1.0
        assert cosine(zero, np.ones(5)) == 0.0
        assert cosine(np.ones(5), zero) == 0.0


def test_aggregation_fidelity(tmp_path):
    from cloneval.similarity import PairRecord

    fixture = [
        ("p1", "anger", 0.81, 0.5),
        ("p2", "disgust", 0.72, 0.6),
        ("p3", "fear", 0.66, 0.7),
        ("p4", "happiness", 0.78, 0.8),
        ("p5", "neutral", 0.90, 0.9),
        ("p6", "sadness", 0.75, 1.0),
    ]
    records = [
        PairRecord(pid, emo, {"embedding": e, "rms": r},
                   reference_file=f"r/{pid}.wav", generated_file=f"g/{pid}.wav")
        for pid, emo, e, r in fixture
    ]

    with criterion("aggregation_fidelity"):
        summary = aggregate(records, {"metrics": ["embedding", "rms"]})
        hand_overall_emb = (0.81 + 0.72 + 0.66 + 0.78 + 0.90 + 0.75) / 6
        hand_overall_rms = (0.5 + 0.6 + 0.7 + 0.8 + 0.9 + 1.0) / 6
        assert abs(summary["overall"]["embedding"] - hand_overall_emb) <= 1e-12
        assert abs(summary["overall"]["rms"] - hand_overall_rms) <= 1e-12
        for pid, emo, e, r in fixture:
            assert abs(summary["by_emotion"][emo]["embedding"] - e) <= 1e-12
            assert abs(summary["by_emotion"][emo]["rms"] - r) <= 1e-12
        assert abs(summary["emotion_average"]["embedding"] - hand_overall_emb) <= 1e-12

        details_path, summary_path = write_reports(records, summary, tmp_path)
        with open(details_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        loaded = json.loads(summary_path.read_text())
        for metric in ("embedding", "rms"):
            recomputed = np.mean([float(row[metric]) for row in rows])
            assert abs(recomputed - loaded["overall"][metric]) <= 1e-9


def test_worker_determinism(tmp_path):
    emotions = ("anger", "disgust", "fear", "happiness", "neutral", "sadness")
    rng = np.random.default_rng(5)
    ref_files, gen_files = {}, {}
    for i in range(50):
        stem = f"s{i:02d}_{emotions[i % 6]}"
        freq = 120.0 + 15.0 * i
        ref_files[stem] = sine(freq, 0.3, amp=0.5)
        gen_files[stem] = sine(freq * 1.02, 0.3, amp=0.45) + 0.02 * rng.standard_normal(
            int(0.3 * SR)
        )
    ref = tmp_path / "ref"
    gen = tmp_path / "gen"
    ref_emb = {s: list(rng.standard_normal(12)) for s in ref_files}
    gen_emb = {s: list(np.asarray(ref_emb[s]) + rng.normal(0, 0.3, 12)) for s in ref_files}
    ref_emb_path = _write_corpus(ref, ref_files, ref_emb)
    gen_emb_path = _write_corpus(gen, gen_files, gen_emb)

    with criterion("worker_determinism"):
        outputs = {}
        for workers in (1, 8):
            pairs, _, _ = discover_pairs(ref, gen)
            config = EvalConfig(
                backends=(load_backend(precomputed_path=str(ref_emb_path)),
                          load_backend(precomputed_path=str(gen_emb_path))),
                workers=workers,
            )
            records, errors = evaluate_corpus(pairs, config)
            assert len(records) == 50
            summary = aggregate(records, config.fingerprint())
            out_dir = tmp_path / f"out_w{workers}"
            details_path, summary_path = write_reports(records, summary, out_dir, errors)
            outputs[workers] = (details_path.read_bytes(), summary_path.read_bytes())
        assert outputs[1][0] == outputs[8][0]
        assert outputs[1][1] == outputs[8][1]
        # sanity: the corpus is not degenerate, scores spread below 1
        text = outputs[1][0].decode()
        assert "0.9" in text and "1.000000" not in text.split("\n")[1].split(",")[4]


def test_resampler():
    with criterion("resampler"):
        t = np.arange(48000) / 48000.0
        out = resample(mono_buffer(np.sin(2 * np.pi * 1000.0 * t), sr=48000), 16000)
        peak = oracles.dft_peak_hz(out.samples[4096:4096 + 2048])
        assert abs(peak - 1000.0) <= 7.8125

        x = sine(1000.0, 0.5)
        back = resample(resample(mono_buffer(x), 2 * SR), SR)
        n = min(len(x), len(back.samples))
        assert np.corrcoef(x[:n], back.samples[:n])[0, 1] >= 0.99


def test_prompt_assignments():
    with criterion("prompt_assignments"):
        manifest = [(f"s{i}", f"text {i}") for i in range(1000)]
        first = make_prompt_assignments(manifest, seed=17)
        second = make_prompt_assignments(manifest, seed=17)
        assert first == second
        for i, assignment in enumerate(first):
            assert assignment.source_sample_id != manifest[i][0]

        pair = make_prompt_assignments([("A", "ta"), ("B", "tb")], seed=3)
        assert pair[0].source_sample_id == "B"
        assert pair[1].source_sample_id == "A"


def test_real_model_speaker_discrimination():
    """Optional, hardware-dependent: needs an exported 16 kHz speaker model.

    Set CLONEVAL_ACCEPTANCE_MODEL to the ONNX path and
    CLONEVAL_ACCEPTANCE_CLIPS to a directory holding spk1_a.wav, spk1_b.wav
    (same speaker) and spk2_a.wav (different speaker).
    """
    model_path = os.environ.get("CLONEVAL_ACCEPTANCE_MODEL")
    clips_dir = os.environ.get("CLONEVAL_ACCEPTANCE_CLIPS")
    if not model_path or not clips_dir:
        pytest.skip("real-model criterion needs CLONEVAL_ACCEPTANCE_MODEL and _CLIPS")
    pytest.importorskip("onnxruntime")

    with criterion("real_model_speaker_discrimination"):
        backend = load_backend(model_path=model_path)

        def embed_clip(name):
            data = open(os.path.join(clips_dir, name), "rb").read()
            buf = resample(decode_wav(data), 16000)
            return embed(backend, buf, key=name)

        same_a = embed_clip("spk1_a.wav")
        same_b = embed_clip("spk1_b.wav")
        other = embed_clip("spk2_a.wav")
        assert cosine(same_a, same_b) > cosine(same_a, other)
