"""WAV decoding, mono downmix, and band-limited resampling.

The pipeline normalizes every input to mono 16 kHz before feature extraction
and embedding, so the three operations here are the front of every run.
"""

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import FormatError, RateError

PIPELINE_RATE = 16000

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

_INT_SCALES = {8: 1 << 7, 16: 1 << 15, 24: 1 << 23, 32: 1 << 31}
_FLOAT_TYPES = {32: "<f4", 64: "<f8"}

# streaming writers cannot seek back to fill in the data size
_UNKNOWN_SIZE = 0xFFFFFFFF


@dataclass(eq=False)
class AudioBuffer:
    """Decoded waveform: 1-D for mono, (frames, channels) otherwise."""

    samples: np.ndarray
    sample_rate: int

    @property
    def channel_count(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]


def pipeline_samples(buf: AudioBuffer, consumer: str) -> np.ndarray:
    """The samples of a mono ``PIPELINE_RATE`` buffer as float64, for ``consumer``.

    Any other rate or a non-1-D array raises ``RateError``; a NaN or
    infinite sample, which no score may absorb, raises ``ValueError``.
    """
    if buf.sample_rate != PIPELINE_RATE:
        raise RateError(
            f"{consumer} needs {PIPELINE_RATE} Hz audio, got {buf.sample_rate} Hz")
    if buf.samples.ndim != 1:
        raise RateError(f"{consumer} needs mono audio as a 1-D array, "
                        f"got shape {buf.samples.shape}; downmix first")
    x = np.asarray(buf.samples, dtype=np.float64)
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise ValueError(f"audio holds {bad} non-finite (NaN or Inf) samples")
    return x


def _iter_chunks(data: bytes):
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if chunk_id == b"data" and size == _UNKNOWN_SIZE:
            size = len(data) - body_start
        if body_start + size > len(data):
            raise FormatError(f"chunk {chunk_id!r} extends past end of file")
        yield chunk_id, body_start, size
        pos = body_start + size + (size & 1)  # chunks are word-aligned


def _parse_fmt(data: bytes, start: int, size: int):
    if size < 16:
        raise FormatError("fmt chunk too small")
    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", data, start
    )
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if size < 40:
            raise FormatError("extensible fmt chunk too small")
        # actual codec is the first two bytes of the SubFormat GUID
        (tag,) = struct.unpack_from("<H", data, start + 24)
    return tag, channels, rate, bits


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte string into an AudioBuffer.

    Supports PCM 8-bit unsigned and 16/24/32-bit little-endian signed integers,
    and IEEE float32 and float64. Integer samples are scaled by 1/2^(bits-1) into
    [-1, 1], unsigned 8-bit ones once 128 is subtracted; float samples pass through
    unchanged, and a NaN or infinite one is a ``FormatError`` that names how many
    the file holds. Each payload is converted once, with no copy of its bytes:
    24-bit PCM is read in place. Unknown chunks are skipped, and nothing after the
    first ``fmt `` and ``data`` chunks is read, so a truncated trailing chunk such
    as ``LIST`` is harmless. A ``data`` size of 0xFFFFFFFF, which streaming writers
    leave in place, means the data runs to the end of the file.
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("not a RIFF/WAVE file")

    fmt = None
    payload = None
    for chunk_id, start, size in _iter_chunks(data):
        if chunk_id == b"fmt " and fmt is None:
            fmt = _parse_fmt(data, start, size)
        elif chunk_id == b"data" and payload is None:
            payload = start, size
        if fmt is not None and payload is not None:
            break
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if payload is None:
        raise FormatError("missing data chunk")

    tag, channels, rate, bits = fmt
    if channels < 1 or rate < 1:
        raise FormatError(f"invalid fmt fields: channels={channels}, rate={rate}")
    if tag == _WAVE_FORMAT_PCM:
        if bits not in _INT_SCALES:
            raise FormatError(f"unsupported PCM bit depth: {bits}")
    elif tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits not in _FLOAT_TYPES:
            raise FormatError(f"unsupported float bit depth: {bits}")
    else:
        raise FormatError(f"unsupported codec tag: 0x{tag:04X}")

    bytes_per_sample = bits // 8
    start, size = payload
    if size == 0:
        raise FormatError("empty data chunk")
    if size % (bytes_per_sample * channels) != 0:
        raise FormatError("data chunk does not hold a whole number of frames")

    count = size // bytes_per_sample
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        raw = np.frombuffer(data, _FLOAT_TYPES[bits], count, start)
        bad = count - np.count_nonzero(np.isfinite(raw))
        if bad:
            raise FormatError(f"data chunk holds {bad} non-finite (NaN or Inf) samples")
        samples = raw.astype(np.float64)
    elif bits == 24:
        # A little-endian int32 word ending at a sample's last byte holds the
        # sample in its high bytes, and ">> 8" sign-extends it. The first word
        # starts on the last byte of the data chunk's header, before the payload.
        words = np.ndarray((count,), "<i4", buffer=data, offset=start - 1, strides=(3,))
        samples = (words >> 8) / _INT_SCALES[24]
    elif bits == 8:
        samples = (np.frombuffer(data, np.uint8, count, start) - 128.0) / _INT_SCALES[8]
    else:
        samples = np.frombuffer(data, f"<i{bytes_per_sample}", count, start) / _INT_SCALES[bits]

    if channels > 1:
        samples = samples.reshape(-1, channels)
    return AudioBuffer(samples, rate)


def downmix_mono(buf: AudioBuffer) -> AudioBuffer:
    """Average channels; a mono (1-D) buffer is returned unchanged."""
    if buf.samples.ndim == 1:
        return buf
    # A column loop, not mean(axis=1), which reduces each short row on its
    # own and is ~10x slower. The sums match mean's up to 7 channels; from 8
    # on, numpy's pairwise sum groups them differently (last-ulp drift).
    mono = buf.samples[:, 0].copy()
    for channel in range(1, buf.channel_count):
        mono += buf.samples[:, channel]
    mono /= buf.channel_count
    return AudioBuffer(mono, buf.sample_rate)


_TAPS_PER_PHASE = 64
_KAISER_BETA = 8.6


def _design_lowpass(up: int, down: int) -> np.ndarray:
    """Windowed-sinc anti-alias filter for an up/down polyphase stage.

    Odd length keeps the group delay at an integer number of upsampled
    samples, so outputs stay aligned with inputs.
    """
    n_taps = _TAPS_PER_PHASE * up + 1
    center = (n_taps - 1) // 2
    cutoff = 1.0 / max(up, down)
    m = np.arange(n_taps) - center
    return up * cutoff * np.sinc(cutoff * m) * np.kaiser(n_taps, _KAISER_BETA)


@lru_cache(maxsize=32)
def _resample_plan(up: int, down: int) -> _kernels.ResamplePlan:
    """The read-only tap matrices for one rate pair, built at its first use."""
    return _kernels.resample_plan(_design_lowpass(up, down), up, down, _TAPS_PER_PHASE)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Polyphase windowed-sinc rate conversion of a mono buffer."""
    if buf.samples.ndim != 1:
        raise ValueError("resample expects a mono (1-D) buffer; downmix first")
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if buf.sample_rate <= 0:
        raise ValueError(f"source sample_rate must be positive, got {buf.sample_rate}")
    if target_rate == buf.sample_rate:
        return buf

    g = math.gcd(target_rate, buf.sample_rate)
    up = target_rate // g
    down = buf.sample_rate // g
    x = np.ascontiguousarray(buf.samples, dtype=np.float64)
    return AudioBuffer(_kernels.polyphase_resample(x, _resample_plan(up, down)), target_rate)
