"""Golden reports: ``details.csv`` and ``summary.json`` of a small fixed corpus.

The corpus is written to a temporary directory. It has mono and stereo
files at 16, 44.1 and 48 kHz in PCM16, PCM24 and float32, with precomputed
embedding manifests. One pair carries an emotion label. One pair is noise
on both sides, so its pitch contours are unvoiced. One generated file is
corrupt, so its pair lands in ``errors``. One 44.1 kHz file resamples to a
length that ends on a frame boundary, so the resampler's output length
shows in its row. One pair is longer than 8.18 s, so its contour
summaries read only some of its frames. The noise, the tones and the embeddings come from
``random.Random.random`` and ``math``, not from numpy, whose ``Generator``
streams may change between versions (NEP 19); ``random()`` is the one
``Random`` method whose stream Python keeps.

``evaluate`` runs from inside the corpus directory on relative paths, with
``--workers 1`` and with ``--workers 2``, and also writes the feature dump.
When numpy's version equals the one recorded in
``tests/golden/numpy_version.txt``, both runs must give the committed
report bytes. The dump holds every summary's last bit, which the reports'
six decimals hide, and those bits move with numpy's SIMD code paths. So
``tests/golden/features.sha256`` holds the dump's SHA-256 and, on its
second line, the dispatch levels numpy had enabled when it was made; where
numpy's version and those levels both match, both runs' dumps must have
that digest. Under another numpy version the reports are parsed and every
score must match at 1e-6, the report precision; every other field must
match exactly. The test prints which checks ran.

A change that moves a report or dump byte on purpose regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

and says in its change log which rows or summaries moved and why.

The reports must also not depend on which SIMD code paths numpy picks for
the CPU. The same corpus is evaluated in a child process at each dispatch
level the CPU has: every higher level is switched off through
``NPY_DISABLE_CPU_FEATURES``, which acts only on that process. Each
level's reports must be the bytes of this process's run. A two-worker run
whose pool cannot fork, and spawns its workers instead, must give the
bytes of a one-worker run.
"""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SRC, make_wav
from cloneval import cli

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy before 2.0
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = ("details.csv", "summary.json")
DUMP = "features.jsonl"
NUMPY_VERSION_FILE = GOLDEN / "numpy_version.txt"
DUMP_DIGEST_FILE = GOLDEN / "features.sha256"
SCORE_TOLERANCE = 1e-6
EMBED_DIM = 8

# stem: ((rate, format, channels) of the reference, of the generated file,
#        seconds, content)
PAIRS = {
    "spk1_happy_01": ((16000, "pcm16", 1), (44100, "pcm24", 2), 0.9, "voiced"),
    "spk2_02": ((48000, "float32", 2), (16000, "pcm16", 1), 0.7, "voiced"),
    "noise_03": ((16000, "pcm16", 1), (16000, "pcm24", 1), 0.6, "noise"),
    "spk3_04": ((44100, "float32", 1), (48000, "pcm24", 2), 0.8, "voiced"),
    "broken_05": ((16000, "pcm16", 1), (16000, "pcm16", 1), 0.5, "corrupt"),
    # 70 558 samples at 44.1 kHz resample to ceil(25 599.27) = 25 600, which
    # frame to 101 frames; the floor, 25 599, would frame to 100
    "spk4_06": ((44100, "pcm16", 1), (16000, "pcm16", 1), 70558 / 44100, "voiced"),
    # 9 s frame to 563 frames, of which the contour summaries read 511
    "long_07": ((16000, "pcm16", 1), (16000, "pcm24", 1), 9.0, "voiced"),
}


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def _voiced(rng, seconds, rate):
    """A harmonic tone with vibrato under a syllable envelope, plus light noise."""
    f0 = _uniform(rng, 110.0, 240.0)
    rate_hz, depth = _uniform(rng, 3.0, 6.0), _uniform(rng, 0.01, 0.03)
    amps = [_uniform(rng, 0.2, 1.0) / k for k in range(1, 6)]
    phase, out = 0.0, []
    for n in range(int(seconds * rate)):
        t = n / rate
        phase += 2.0 * math.pi * f0 * (1.0 + depth * math.sin(2.0 * math.pi * rate_hz * t)) / rate
        envelope = 0.5 - 0.5 * math.cos(2.0 * math.pi * t / seconds)
        tone = sum(a * math.sin(k * phase) for k, a in enumerate(amps, start=1))
        out.append(0.3 * envelope * tone + _uniform(rng, -0.02, 0.02))
    return out


def _noise(rng, seconds, rate):
    return [_uniform(rng, -0.4, 0.4) for _ in range(int(seconds * rate))]


def _render(rng, layout, seconds, content):
    rate, fmt, channels = layout
    mono = (_noise if content == "noise" else _voiced)(rng, seconds, rate)
    samples = np.asarray(mono) if channels == 1 else np.asarray(
        [(s, 0.8 * s) for s in mono])
    return make_wav(samples, sr=rate, fmt=fmt)


def write_corpus(root, pairs=PAIRS, seed=19):
    """Write ``ref/``, ``gen/``, ``ref.json`` and ``gen.json`` of ``pairs`` under ``root``."""
    rng = random.Random(seed)
    root = Path(root)
    for side in ("ref", "gen"):
        (root / side).mkdir()
    manifests = {"ref": {}, "gen": {}}
    for stem, (ref_layout, gen_layout, seconds, content) in pairs.items():
        (root / "ref" / f"{stem}.wav").write_bytes(_render(rng, ref_layout, seconds, content))
        gen = (b"RIFF\x24\x00\x00\x00WAVEjunk" if content == "corrupt"
               else _render(rng, gen_layout, seconds, content))
        (root / "gen" / f"{stem}.wav").write_bytes(gen)
        vector = [_uniform(rng, -1.0, 1.0) for _ in range(EMBED_DIM)]
        manifests["ref"][stem] = vector
        manifests["gen"][stem] = [v + _uniform(rng, -0.5, 0.5) for v in vector]
    for side, manifest in manifests.items():
        (root / f"{side}.json").write_text(json.dumps(manifest, sort_keys=True))


def evaluate_argv(out, workers):
    """``evaluate`` of the corpus on relative paths, into ``out``, with its feature dump."""
    return ["evaluate", "--reference-dir", "ref", "--generated-dir", "gen",
            "--output-dir", out, "--embeddings-ref", "ref.json",
            "--embeddings-gen", "gen.json", "--workers", str(workers),
            "--dump-features", f"{out}/{DUMP}"]


def run_reports(root, workers):
    """Run ``evaluate`` in ``root`` on relative paths; the two reports' and the dump's bytes."""
    out = f"out_w{workers}"
    cwd = os.getcwd()
    os.chdir(root)
    try:
        rc = cli.main(evaluate_argv(out, workers))
    finally:
        os.chdir(cwd)
    assert rc == 0
    return {name: (Path(root) / out / name).read_bytes() for name in (*REPORTS, DUMP)}


def dump_digest(reports):
    return hashlib.sha256(reports[DUMP]).hexdigest()


def enabled_dispatch():
    """The SIMD dispatch levels numpy has enabled in this process, space-separated."""
    return " ".join(level for level in __cpu_dispatch__ if __cpu_features__[level])


def _first_difference(name, got, want, source="golden"):
    for line_no, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        if a != b:
            return f"{name}:{line_no}: got {a!r}, {source} {b!r}"
    return f"{name}: {len(got.splitlines())} lines, {source} {len(want.splitlines())}"


def _close(got, want, where):
    """Assert that parsed report values match: numbers at the tolerance, the rest exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _close(a, b, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert abs(got - want) <= SCORE_TOLERANCE * (1 + 1e-9), f"{where}: {got} vs {want}"
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _parsed(name, data):
    text = data.decode("utf-8")
    if name == "summary.json":
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    scores = slice(4, len(rows[0]) - 1)  # between the emotion and the flags columns
    return [row[: scores.start] + [float(v) for v in row[scores]] + row[scores.stop :]
            if i else row for i, row in enumerate(rows)]


def test_reports_match_golden(tmp_path):
    write_corpus(tmp_path)
    golden = {name: (GOLDEN / name).read_bytes() for name in REPORTS}
    exact = np.__version__ == NUMPY_VERSION_FILE.read_text().strip()
    digest, dispatch = DUMP_DIGEST_FILE.read_text().splitlines()
    pin_dump = exact and dispatch == enabled_dispatch()
    print(f"golden check: {'bytes' if exact else f'scores at {SCORE_TOLERANCE}'}"
          f" (numpy {np.__version__}); dump digest {'compared' if pin_dump else 'not compared'}"
          f" (SIMD dispatch {enabled_dispatch()!r}, golden {dispatch!r})")
    for workers in (1, 2):
        reports = run_reports(tmp_path, workers)
        for name in REPORTS:
            if exact:
                assert reports[name] == golden[name], _first_difference(
                    name, reports[name], golden[name])
            else:
                _close(_parsed(name, reports[name]), _parsed(name, golden[name]), name)
        if pin_dump:
            assert dump_digest(reports) == digest, f"{DUMP} of --workers {workers}"


def test_golden_corpus_covers_its_cases():
    summary = json.loads((GOLDEN / "summary.json").read_text())
    assert sorted(summary["errors"]) == ["broken_05"]
    assert summary["counts"] == {"happiness": 1, "unknown": 5}
    details = (GOLDEN / "details.csv").read_text().splitlines()
    assert details[1].startswith("long_07,ref/long_07.wav,gen/long_07.wav,unknown,")
    assert details[2].startswith("noise_03,ref/noise_03.wav,gen/noise_03.wav,unknown,")
    assert "pitch=both_zero" in details[2]


# Prints the dispatch levels that numpy enabled, then runs ``evaluate``.
_EVALUATE_AT_LEVEL = """
import sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy before 2.0
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from cloneval import cli
print(" ".join(level for level in __cpu_dispatch__ if __cpu_features__[level]), flush=True)
sys.exit(cli.main(sys.argv[1:]))
"""
SIMD_LEVELS = ("baseline", *__cpu_dispatch__)


@pytest.fixture(scope="module")
def simd_corpus(tmp_path_factory):
    """The golden corpus, and its reports from this process."""
    root = tmp_path_factory.mktemp("simd")
    write_corpus(root)
    return root, run_reports(root, 1)


@pytest.mark.parametrize("level", SIMD_LEVELS)
def test_reports_do_not_depend_on_simd_dispatch(simd_corpus, level):
    if level != "baseline" and not __cpu_features__.get(level):
        pytest.skip(f"this CPU lacks {level}")
    root, expected = simd_corpus
    higher = SIMD_LEVELS[SIMD_LEVELS.index(level) + 1 :]
    disabled = [name for name in higher if __cpu_features__.get(name)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    out = f"out_{level}"
    proc = subprocess.run([sys.executable, "-c", _EVALUATE_AT_LEVEL, *evaluate_argv(out, 1)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    enabled = proc.stdout.splitlines()[0].split()
    assert enabled == [name for name in __cpu_dispatch__
                       if __cpu_features__[name] and name not in disabled]
    for name in REPORTS:
        got = (root / out / name).read_bytes()
        assert got == expected[name], _first_difference(name, got, expected[name],
                                                        "this process")


def test_pool_without_fork_gives_the_same_bytes(tmp_path, monkeypatch):
    # where fork is missing, as on Windows, the pool takes the platform's
    # default start method, spawn, whose workers import everything anew
    write_corpus(tmp_path, {stem: PAIRS[stem] for stem in ("spk1_happy_01", "broken_05")})
    serial = run_reports(tmp_path, 1)
    methods = [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    contexts = []
    get_context = multiprocessing.get_context

    def recorded(method=None):
        contexts.append(get_context(method))
        return contexts[-1]

    monkeypatch.setattr(multiprocessing, "get_context", recorded)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert run_reports(tmp_path, 2) == serial
    finally:
        multiprocessing.set_start_method(default, force=True)
    assert {context.get_start_method() for context in contexts} == {"spawn"}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(tmp)
        reports = run_reports(tmp, 1)
    GOLDEN.mkdir(exist_ok=True)
    for name in REPORTS:
        (GOLDEN / name).write_bytes(reports[name])
    DUMP_DIGEST_FILE.write_text(f"{dump_digest(reports)}\n{enabled_dispatch()}\n")
    NUMPY_VERSION_FILE.write_text(np.__version__ + "\n")
    print(f"wrote {', '.join(REPORTS)}, {DUMP_DIGEST_FILE.name} and {NUMPY_VERSION_FILE.name}"
          f" to {GOLDEN}")
