"""Shared fixtures: synthetic signals, a WAV encoder independent of the decoder,
and a stand-in onnxruntime with the model files it reads."""

import json
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

SR = 16000
SRC = Path(__file__).resolve().parent.parent / "src"


def output_per_blas_thread_count(script):
    """Standard output of ``script`` run under ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    return outputs


def sine(freq, dur=1.0, amp=1.0, sr=SR):
    t = np.arange(int(dur * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def white_noise(dur=1.0, amp=0.3, seed=0, sr=SR):
    rng = np.random.default_rng(seed)
    return amp * rng.standard_normal(int(dur * sr))


def click_train(period=8000, dur=4.0, amp=1.0, sr=SR):
    x = np.zeros(int(dur * sr))
    x[::period] = amp
    return x


def silence_then_tone(freq=330.0, dur=1.0, split=0.4, amp=0.6, sr=SR):
    n = int(dur * sr)
    x = np.zeros(n)
    start = int(split * n)
    t = np.arange(n - start) / sr
    x[start:] = amp * np.sin(2 * np.pi * freq * t)
    return x


def make_wav(samples, sr=SR, fmt="pcm16", channels=None):
    """Encode float samples in [-1, 1] (or raw ints for pcm16_raw) as WAV bytes.

    Hand-rolled with struct.pack so decoder tests do not depend on the code
    they are checking.
    """
    x = np.asarray(samples)
    if x.ndim == 1:
        x = x[:, None]
    if channels is None:
        channels = x.shape[1]

    if fmt == "pcm16_raw":
        data = x.astype("<i2").tobytes()
        tag, bits = 1, 16
    elif fmt == "pcm16":
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        tag, bits = 1, 16
    elif fmt == "pcm24":
        ints = np.clip(np.round(x * (1 << 23)), -(1 << 23), (1 << 23) - 1).astype(np.int64)
        flat = ints.reshape(-1)
        raw = np.empty(3 * len(flat), dtype=np.uint8)
        raw[0::3] = flat & 0xFF
        raw[1::3] = (flat >> 8) & 0xFF
        raw[2::3] = (flat >> 16) & 0xFF
        data = raw.tobytes()
        tag, bits = 1, 24
    elif fmt == "pcm32":
        data = np.clip(np.round(x * (1 << 31)), -(1 << 31), (1 << 31) - 1).astype("<i4").tobytes()
        tag, bits = 1, 32
    elif fmt == "float32":
        data = x.astype("<f4").tobytes()
        tag, bits = 3, 32
    elif fmt == "float64":
        data = x.astype("<f8").tobytes()
        tag, bits = 3, 64
    else:
        raise ValueError(fmt)

    bytes_per_frame = (bits // 8) * channels
    body = struct.pack("<HHIIHH", tag, channels, sr, sr * bytes_per_frame, bytes_per_frame, bits)
    blob = b"WAVE"
    blob += b"fmt " + struct.pack("<I", len(body)) + body
    blob += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(blob)) + blob


# 0.3 s of 48 kHz float64 samples at 1.7e308: every sample is finite, but
# the filter's partial sums pass the float64 range, and so 4768 of the 4800
# samples resampled to 16 kHz are not.
OVERFLOWING_48K = make_wav(np.full(14400, 1.7e308), sr=48000, fmt="float64")
OVERFLOWING_48K_BAD = 4768


@pytest.fixture
def wav_dir_factory(tmp_path):
    """Write {stem: samples} dicts into numbered WAV directories."""
    counter = {"n": 0}

    def build(files, sr=SR):
        counter["n"] += 1
        directory = tmp_path / f"wavs{counter['n']}"
        directory.mkdir()
        for stem, samples in files.items():
            (directory / f"{stem}.wav").write_bytes(make_wav(samples, sr=sr))
        return directory

    return build


def mono_buffer(samples, sr=SR):
    from cloneval.audio_io import AudioBuffer

    return AudioBuffer(np.asarray(samples, dtype=np.float64), sr)


# Whole-file features from the feature pass's own steps, evaluated at every
# frame: F.f0_contour(*centered(x)) is the pitch of every frame of x.

def centered(x, rows=None):
    """``x`` reflect-padded as the feature pass pads it, and the indices of its
    first ``rows`` frames, by default all of them."""
    from cloneval import features as F

    padded, n_frames = F._reflect_pad(np.asarray(x, dtype=np.float64))
    return padded, np.arange(n_frames if rows is None else rows)


def stft_of(x, rows=None):
    """Magnitude STFT ``(bins, frames)`` of the ``centered`` frames of ``x``:
    ``stft`` per block, as in the pass."""
    from cloneval import features as F

    padded, every = centered(x, rows)
    frames = F.frame_signal(padded, len(every))
    blocks = [F.stft(frames[block[0] : block[-1] + 1]) for block in F._row_blocks(every)]
    return np.concatenate(blocks).T


def mel_of(x):
    """Mel power frames ``(N_MELS, frames)`` of every frame, from the pass's banded products."""
    from cloneval import features as F

    power = (stft_of(x) ** 2).T
    return F._mel_frames(power, np.empty((F.N_MELS, len(power))))


def tempogram_of(onset):
    """Each frame's local autocorrelation, ``(TEMPOGRAM_WIN, frames)``; ``tempogram`` is the mean.

    The kernel runs once per block, as in the pass; an empty envelope gives
    ``(TEMPOGRAM_WIN, 0)`` from one call on no frames.
    """
    from cloneval import _kernels
    from cloneval import features as F

    frames = np.arange(len(onset))
    windows = _kernels._windows(onset, -(F.TEMPOGRAM_WIN // 2), len(onset), 1, F.TEMPOGRAM_WIN)
    blocks = [_kernels.local_autocorr(_kernels._take(windows, block), F._TEMPOGRAM_WINDOW)
              for block in F._row_blocks(frames)]
    return F._autocorr(np.concatenate(blocks or [
        _kernels.local_autocorr(windows, F._TEMPOGRAM_WINDOW)])).T


def write_fake_model(path, inputs=(("wave", [1, "samples"]),), outputs=(("emb", [1, 4]),)):
    """Write a model file for ``FakeSession``: the JSON ``{"inputs": [[name, shape], ...],
    "outputs": [...]}`` that its ``get_inputs`` and ``get_outputs`` declare.

    A shape entry that is a string is a symbolic axis, as onnxruntime reports it.
    """
    path.write_text(json.dumps({"inputs": inputs, "outputs": outputs}))
    return path


# Waveforms longer than this get one more embedding entry from FakeSession.
LONG_WAVEFORM = 6000


class FakeSession:
    """Stands in for ``onnxruntime.InferenceSession``: a waveform's four statistics.

    It declares the inputs and outputs that ``write_fake_model`` wrote, and
    raises, as onnxruntime does, for a file it cannot read. A waveform longer
    than ``LONG_WAVEFORM`` samples gets a fifth entry, so a test can plant a
    dimension mismatch. A session refuses to run in any process but the one
    that opened it.
    """

    def __init__(self, path, providers):
        contract = json.loads(Path(path).read_text(encoding="utf-8"))
        self._inputs, self._outputs = (
            [types.SimpleNamespace(name=name, shape=shape) for name, shape in contract[key]]
            for key in ("inputs", "outputs"))
        self._pid = os.getpid()

    def get_inputs(self):
        return self._inputs

    def get_outputs(self):
        return self._outputs

    def run(self, output_names, feeds):
        if os.getpid() != self._pid:
            raise RuntimeError("session used in a process that did not open it")
        (waveform,) = feeds.values()
        w = waveform[0].astype(np.float64)
        stats = [w.mean(), w.std(), w.max(), w.min()]
        if len(w) > LONG_WAVEFORM:
            stats.append(len(w) / LONG_WAVEFORM)
        return [np.asarray([stats])]


class NanSession(FakeSession):
    """A ``FakeSession`` whose embedding is ``[nan, 1, 2, 3]`` for every waveform."""

    def run(self, output_names, feeds):
        return [np.asarray([[np.nan, 1.0, 2.0, 3.0]])]


@pytest.fixture
def fake_runtime(monkeypatch):
    """A stand-in onnxruntime module whose sessions are ``FakeSession``s."""
    runtime = types.ModuleType("onnxruntime")
    runtime.InferenceSession = FakeSession
    monkeypatch.setitem(sys.modules, "onnxruntime", runtime)
    return runtime


@pytest.fixture
def fake_onnx_model(tmp_path, fake_runtime):
    """A model file with a static ``[1, 4]`` output, run by the stand-in onnxruntime."""
    return write_fake_model(tmp_path / "fake.onnx")


@pytest.fixture
def symbolic_onnx_model(tmp_path, fake_runtime):
    """``fake_onnx_model`` with a symbolic ``[1, "dim"]`` output."""
    return write_fake_model(tmp_path / "symbolic.onnx", outputs=[["emb", [1, "dim"]]])


@pytest.fixture
def nan_onnx_model(fake_onnx_model, fake_runtime):
    """``fake_onnx_model``, run by ``NanSession``."""
    fake_runtime.InferenceSession = NanSession
    return fake_onnx_model
