"""Shared fixtures: synthetic signals, a WAV encoder independent of the decoder,
ONNX-shaped model files and a stand-in onnxruntime."""

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
    else:
        raise ValueError(fmt)

    bytes_per_frame = (bits // 8) * channels
    body = struct.pack("<HHIIHH", tag, channels, sr, sr * bytes_per_frame, bytes_per_frame, bits)
    blob = b"WAVE"
    blob += b"fmt " + struct.pack("<I", len(body)) + body
    blob += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(blob)) + blob


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


# A minimal protobuf wire-format encoder for ONNX-shaped model files.


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _field(number: int, payload: bytes) -> bytes:
    return _varint((number << 3) | 2) + _varint(len(payload)) + payload


def _value_info(name: str) -> bytes:
    return _field(1, name.encode())


def _tensor_initializer(name: str) -> bytes:
    return _field(8, name.encode())  # TensorProto.name


def make_model_bytes(inputs, outputs, initializers=()) -> bytes:
    graph = b"".join(_field(11, _value_info(n)) for n in inputs)
    graph += b"".join(_field(12, _value_info(n)) for n in outputs)
    graph += b"".join(_field(5, _tensor_initializer(n)) for n in initializers)
    return _field(7, graph)  # ModelProto.graph


# Waveforms longer than this get one more embedding entry from FakeSession.
LONG_WAVEFORM = 6000


class FakeSession:
    """Stands in for ``onnxruntime.InferenceSession``: a waveform's four statistics.

    A waveform longer than ``LONG_WAVEFORM`` samples gets a fifth entry, so a
    test can plant a dimension mismatch. A session refuses to run in any
    process but the one that opened it.
    """

    def __init__(self, data, providers):
        self._pid = os.getpid()

    def run(self, output_names, feeds):
        if os.getpid() != self._pid:
            raise RuntimeError("session used in a process that did not open it")
        (waveform,) = feeds.values()
        w = waveform[0].astype(np.float64)
        stats = [w.mean(), w.std(), w.max(), w.min()]
        if len(w) > LONG_WAVEFORM:
            stats.append(len(w) / LONG_WAVEFORM)
        return [np.asarray([stats])]


@pytest.fixture
def fake_onnx_model(tmp_path, monkeypatch):
    """A model file that ``load_backend`` accepts, run by a stand-in onnxruntime module."""
    runtime = types.ModuleType("onnxruntime")
    runtime.InferenceSession = FakeSession
    monkeypatch.setitem(sys.modules, "onnxruntime", runtime)
    path = tmp_path / "fake.onnx"
    path.write_bytes(make_model_bytes(["wave"], ["emb"]))
    return path
