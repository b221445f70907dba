"""WAV decoding to mono, and band-limited resampling: the front of every run.

The pipeline normalizes every input to mono 16 kHz before feature extraction
and embedding. ``decode_wav`` averages a file's channels as it converts them,
so no ``(frames, channels)`` array is built. Resampling reduces the ratio of
the two rates; ``_kernels.polyphase_resample`` owns the filter that converts by it.
"""

import math
import struct
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono waveform: finite, contiguous float64 samples and a positive rate.

    Samples not 1-D, or a rate below 1, raise ``ValueError``; a NaN or infinite
    sample, which no score may absorb, raises ``FormatError``. Contiguous float64
    samples are stored as they are, uncopied, and nothing writes to them.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        # before the conversion, which would make a 0-d array 1-D
        if np.ndim(self.samples) != 1:
            raise ValueError("AudioBuffer holds mono samples as a 1-D array, "
                             f"got shape {np.shape(self.samples)}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", np.ascontiguousarray(self.samples, dtype=np.float64))
        bad = self.samples.size - np.count_nonzero(np.isfinite(self.samples))
        if bad:
            raise FormatError(f"audio holds {bad} non-finite (NaN or Inf) samples")


def pipeline_samples(buf: AudioBuffer, consumer: str) -> np.ndarray:
    """A ``PIPELINE_RATE`` buffer's samples for ``consumer``; another rate raises ``RateError``."""
    if buf.sample_rate != PIPELINE_RATE:
        raise RateError(
            f"{consumer} needs {PIPELINE_RATE} Hz audio, got {buf.sample_rate} Hz")
    return buf.samples


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
    """Decode a RIFF/WAVE byte string into a mono AudioBuffer.

    Supports PCM 8-bit unsigned and 16/24/32-bit little-endian signed integers,
    and IEEE float32 and float64. Integer samples are scaled by 1/2^(bits-1) into
    [-1, 1], unsigned 8-bit ones once 128 is subtracted; float samples pass through
    unchanged. At any channel count a frame's channels are added in channel order in
    float64 and divided once by the count times the integer scale: the bits of
    converting each channel and averaging. A float file is a ``FormatError`` if it
    holds NaN or Inf codes, which the message counts, or if a channel sum overflows.
    The payload's bytes are never copied: 24-bit PCM is read in place. Unknown
    chunks are skipped, and nothing after the first ``fmt `` and ``data`` chunks is
    read, so a truncated trailing chunk such as ``LIST`` is harmless. A ``data``
    size of 0xFFFFFFFF, which streaming writers leave in place, means the data
    runs to the end of the file.
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
    is_float = tag == _WAVE_FORMAT_IEEE_FLOAT
    if is_float:
        codes = np.frombuffer(data, _FLOAT_TYPES[bits], count, start)
    elif bits == 24:
        # A little-endian int32 word ending at a sample's last byte holds the
        # sample in its high bytes, and ">> 8" sign-extends it. The first word
        # starts on the last byte of the data chunk's header, before the payload.
        codes = np.ndarray((count,), "<i4", buffer=data, offset=start - 1, strides=(3,)) >> 8
    elif bits == 8:
        # flipping the top bit of an unsigned byte read as int8 subtracts 128
        codes = np.frombuffer(data, np.int8, count, start) ^ np.int8(-128)
    else:
        codes = np.frombuffer(data, f"<i{bytes_per_sample}", count, start)

    # exact for integer codes: 65535 channels of 32-bit codes need 47 bits
    frames = codes.reshape(-1, channels)
    samples = frames[:, 0].astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # the buffer checks the sums
        for channel in range(1, channels):
            samples += frames[:, channel]
    samples /= channels * (1 if is_float else _INT_SCALES[bits])
    try:
        return AudioBuffer(samples, rate)
    except FormatError:
        # only float codes, or the sum of finite ones, can be non-finite
        bad = count - np.count_nonzero(np.isfinite(codes))
        if bad:
            raise FormatError(f"data chunk holds {bad} non-finite (NaN or Inf) samples") from None
        raise FormatError("data chunk's channel sum overflows the float64 range") from None


def downmix_mono(buf: AudioBuffer) -> AudioBuffer:
    """The buffer itself: every ``AudioBuffer`` is mono, as ``decode_wav`` averages channels."""
    return buf


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Polyphase windowed-sinc resampling; an overflowing output raises ``FormatError``."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == buf.sample_rate:
        return buf

    g = math.gcd(target_rate, buf.sample_rate)
    with np.errstate(over="ignore", invalid="ignore"):  # the buffer checks the output
        out = _kernels.polyphase_resample(buf.samples, target_rate // g, buf.sample_rate // g)
    return AudioBuffer(out, target_rate)
