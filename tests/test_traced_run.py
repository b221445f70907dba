"""The benchmark's tracer sees every layer of an in-process evaluation.

``pipebench/spans.py`` times cloneval by wrapping its functions by name, so
a layer whose work runs outside the wrapped names reads 0. A 1-worker run
over a small corpus, with one stereo 44.1 kHz file and embedding manifests,
runs every layer that the tracer reports per 10 s of audio.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from conftest import make_wav, sine, white_noise
from cloneval import _kernels, cli, features, pipeline

SPANS = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_layer_reads_above_zero_on_a_one_worker_run(tmp_path):
    spans = _load_spans()
    hires = 44100
    stereo = np.stack([sine(220.0, 1.0, amp=0.5, sr=hires),
                       white_noise(1.0, amp=0.1, seed=1, sr=hires)], axis=1)
    files = {  # stem: (samples, rate)
        "a_stereo": (stereo, hires),
        "b_tone": (sine(330.0, 0.8, amp=0.5) + white_noise(0.8, amp=0.05, seed=2), 16000),
        "c_noise": (white_noise(0.6, seed=3), 16000),
    }
    manifest = tmp_path / "emb.json"
    rng = np.random.default_rng(0)
    manifest.write_text(json.dumps({stem: list(rng.standard_normal(8)) for stem in files}))
    for side in ("ref", "gen"):
        (tmp_path / side).mkdir()
        for stem, (samples, rate) in files.items():
            (tmp_path / side / f"{stem}.wav").write_bytes(make_wav(samples, sr=rate))
    argv = ["evaluate", "--reference-dir", str(tmp_path / "ref"),
            "--generated-dir", str(tmp_path / "gen"), "--output-dir", str(tmp_path / "out"),
            "--workers", "1", "--embeddings-ref", str(manifest),
            "--embeddings-gen", str(manifest)]

    tracer = spans.Tracer({"cli": cli, "pipeline": pipeline, "features": features,
                           "_kernels": _kernels})
    with tracer.installed():
        assert tracer.root(cli.main, argv) == 0
    audio_seconds = 2 * sum(len(samples) / rate for samples, rate in files.values())
    layers = tracer.layer_metrics(len(files), audio_seconds)

    zero = [name for name in (*spans.MS_PER_10S, *spans.SELF_MS_PER_10S)
            if not layers[name] > 0.0]
    assert zero == []
    assert layers["features.frame_signal.calls_per_file"] == 1
    assert layers["features.filterbank_builds_per_file"] == 0
