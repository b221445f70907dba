"""Decoder, downmix, and resampler tests."""

import io
import math
import struct
import wave
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import SR, make_wav, mono_buffer, output_per_blas_thread_count, sine
from cloneval import audio_io
from cloneval.audio_io import AudioBuffer, decode_wav, downmix_mono, resample
from cloneval.errors import FormatError


def _riff(fmt_body, data):
    """A RIFF/WAVE file of one ``fmt `` chunk and one ``data`` chunk (None: no data chunk)."""
    blob = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    if data is not None:
        blob += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(blob)) + blob


def _extensible_fmt(tag, channels, bits):
    """A 40-byte WAVE_FORMAT_EXTENSIBLE ``fmt `` body whose SubFormat GUID carries ``tag``."""
    align = channels * bits // 8
    return (struct.pack("<HHIIHHHHIH", 0xFFFE, channels, SR, SR * align, align, bits,
                        22, bits, 0, tag)
            + bytes.fromhex("000000001000800000aa00389b71"))


_PCM16_MONO = struct.pack("<HHIIHH", 1, 1, SR, 2 * SR, 2, 16)


class TestDecodeWav:
    def test_pcm16_fixed_point_scaling(self):
        raw = np.array([0, 16384, -16384, -32768], dtype=np.int16)
        buf = decode_wav(make_wav(raw, sr=8000, fmt="pcm16_raw"))
        assert buf.sample_rate == 8000
        assert buf.channel_count == 1
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -0.5, -1.0])

    def test_wrong_magic_rejected(self):
        data = bytearray(make_wav(sine(440, 0.01)))
        data[:4] = b"RIFX"
        with pytest.raises(FormatError):
            decode_wav(bytes(data))

    def test_float32_stereo_passthrough(self):
        frames = np.stack([np.linspace(-1, 1, 100), np.linspace(1, -1, 100)], axis=1)
        buf = decode_wav(make_wav(frames, fmt="float32"))
        assert buf.channel_count == 2
        assert buf.samples.shape == (100, 2)
        np.testing.assert_allclose(buf.samples, frames, atol=1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples_rejected(self, bad):
        frames = np.zeros((50, 2))
        frames[3, 1] = frames[40, 0] = bad
        with pytest.raises(FormatError, match="holds 2 non-finite"):
            decode_wav(make_wav(frames, fmt="float32"))

    def test_float64_roundtrip_is_exact(self):
        wavfile = pytest.importorskip("scipy.io.wavfile")
        frames = np.random.default_rng(1).standard_normal((300, 2))
        out = io.BytesIO()
        wavfile.write(out, SR, frames)
        np.testing.assert_array_equal(decode_wav(out.getvalue()).samples, frames)

    def test_non_finite_float64_samples_rejected(self):
        frames = np.zeros(50)
        frames[[3, 7, 9]] = np.nan
        fmt = struct.pack("<HHIIHH", 3, 1, SR, 8 * SR, 8, 64)
        with pytest.raises(FormatError, match="holds 3 non-finite"):
            decode_wav(_riff(fmt, frames.astype("<f8").tobytes()))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_pcm8_is_unsigned(self, channels):
        codes = np.array([0, 64, 128, 192, 255, 128], dtype=np.uint8)
        out = io.BytesIO()
        with wave.open(out, "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(1)
            w.setframerate(SR)
            w.writeframes(codes.tobytes())
        buf = decode_wav(out.getvalue())
        expected = np.array([-1.0, -0.5, 0.0, 0.5, 127 / 128, 0.0])
        assert buf.channel_count == channels
        np.testing.assert_array_equal(buf.samples, expected.reshape(-1, channels).squeeze())

    def test_pcm24_and_pcm32_roundtrip(self):
        x = sine(200, 0.02, amp=0.8)
        for fmt, tol in (("pcm24", 2e-7), ("pcm32", 1e-9)):
            buf = decode_wav(make_wav(x, fmt=fmt))
            np.testing.assert_allclose(buf.samples, x, atol=tol)

    def test_pcm24_sign_extension_at_the_extremes(self):
        # 0x7FFFFF, 0x800000, 0xFFFFFF, 0x000001, 0x800000: each sample's
        # word starts on the last byte of the sample before it
        codes = np.array([0x7FFFFF, -0x800000, -1, 1, -0x800000])
        data = make_wav(codes / 2.0**23, fmt="pcm24")
        assert data.endswith(bytes.fromhex("ffff7f" "000080" "ffffff" "010000" "000080"))
        buf = decode_wav(data)
        np.testing.assert_array_equal(buf.samples, codes / 2.0**23)
        stereo = decode_wav(make_wav(np.stack([codes, codes[::-1]], axis=1) / 2.0**23,
                                     fmt="pcm24"))
        np.testing.assert_array_equal(stereo.samples[:, 0], codes / 2.0**23)
        np.testing.assert_array_equal(stereo.samples[:, 1], codes[::-1] / 2.0**23)

    @pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "pcm32", "float32"])
    @pytest.mark.parametrize("junk_size", [1, 2, 3, 4])
    def test_data_chunk_after_odd_sized_chunk(self, fmt, junk_size):
        # An odd-sized chunk is followed by its pad byte, so the data body
        # starts 54, 54, 58 or 56 bytes in: unaligned for 4-byte samples.
        x = np.random.default_rng(junk_size).uniform(-1.0, 1.0, (33, 2))
        data = make_wav(x, fmt=fmt)
        junk = b"junk" + struct.pack("<I", junk_size) + b"\x7f" * junk_size
        junk += b"\0" * (junk_size & 1)
        at = data.index(b"data")
        patched = data[:at] + junk + data[at:]
        patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
        assert patched.index(b"data") + 8 == 44 + len(junk)
        buf = decode_wav(patched)
        np.testing.assert_array_equal(buf.samples, decode_wav(data).samples)

    def test_truncated_data_chunk(self):
        data = make_wav(sine(440, 0.05))
        with pytest.raises(FormatError):
            decode_wav(data[:-100])

    def test_unsupported_codec(self):
        data = bytearray(make_wav(sine(440, 0.01)))
        # format tag lives right after "fmt " + size
        pos = data.index(b"fmt ") + 8
        data[pos:pos + 2] = struct.pack("<H", 0x0055)  # MP3
        with pytest.raises(FormatError):
            decode_wav(bytes(data))

    @pytest.mark.parametrize("fmt, tag, bits", [("pcm16", 1, 16), ("float32", 3, 32)])
    def test_extensible_format_decodes_like_the_plain_one(self, fmt, tag, bits):
        plain = make_wav(np.random.default_rng(bits).uniform(-1.0, 1.0, (40, 2)), fmt=fmt)
        data = plain[plain.index(b"data") + 8:]
        buf = decode_wav(_riff(_extensible_fmt(tag, 2, bits), data))
        assert (buf.sample_rate, buf.channel_count) == (SR, 2)
        np.testing.assert_array_equal(buf.samples, decode_wav(plain).samples)

    @pytest.mark.parametrize("fmt_body, data, message", [
        (_extensible_fmt(1, 1, 16)[:38], b"\0\0", "extensible fmt chunk too small"),
        (_PCM16_MONO[:14], b"\0\0", "fmt chunk too small"),
        (_PCM16_MONO, None, "missing data chunk"),
        (struct.pack("<HHIIHH", 1, 0, SR, 0, 0, 16), b"\0\0", "channels=0"),
        (struct.pack("<HHIIHH", 1, 1, SR, 2 * SR, 2, 12), b"\0\0", "PCM bit depth: 12"),
        (struct.pack("<HHIIHH", 3, 1, SR, 2 * SR, 2, 16), bytes(2), "float bit depth: 16"),
        (_PCM16_MONO, b"", "empty data chunk"),
        (_PCM16_MONO, b"\0\0\0", "whole number of frames"),
    ], ids=["short_extensible_fmt", "short_fmt", "no_data_chunk", "no_channels", "pcm12",
            "float16", "empty_data", "partial_frame"])
    def test_malformed_file_rejected(self, fmt_body, data, message):
        with pytest.raises(FormatError, match=message):
            decode_wav(_riff(fmt_body, data))

    def test_extra_chunks_skipped(self):
        data = make_wav(sine(440, 0.01))
        junk = b"LIST" + struct.pack("<I", 4) + b"info"
        patched = data[:12] + junk + data[12:]
        patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
        buf = decode_wav(patched)
        assert len(buf.samples) == len(sine(440, 0.01))

    def test_truncated_trailing_chunk_after_data_ignored(self):
        x = sine(440, 0.01)
        data = make_wav(x) + b"LIST" + struct.pack("<I", 64) + b"INFOIS"
        buf = decode_wav(data)
        np.testing.assert_array_equal(buf.samples, decode_wav(make_wav(x)).samples)

    def test_truncated_chunk_before_data_rejected(self):
        data = make_wav(sine(440, 0.01))
        at = data.index(b"data")
        patched = data[:at] + b"LIST" + struct.pack("<I", len(data)) + data[at:]
        with pytest.raises(FormatError, match="past end of file"):
            decode_wav(patched)

    def test_streaming_data_size_runs_to_end_of_file(self):
        x = sine(440, 0.01)
        data = bytearray(make_wav(x))
        at = data.index(b"data") + 4
        data[at : at + 4] = struct.pack("<I", 0xFFFFFFFF)
        data[4:8] = struct.pack("<I", 0xFFFFFFFF)
        buf = decode_wav(bytes(data))
        np.testing.assert_array_equal(buf.samples, decode_wav(make_wav(x)).samples)

    def test_pcm24_first_word_starts_on_the_header(self):
        # a streaming writer's data size puts 0xFF in the byte before the
        # payload, which the first sample's word starts on
        codes = np.array([1, -1, 0x7FFFFF])
        data = bytearray(make_wav(codes / 2.0**23, fmt="pcm24"))
        at = data.index(b"data") + 4
        data[at : at + 4] = struct.pack("<I", 0xFFFFFFFF)
        np.testing.assert_array_equal(decode_wav(bytes(data)).samples, codes / 2.0**23)

    def test_decode_deterministic(self):
        data = make_wav(sine(333, 0.1))
        a = decode_wav(data)
        b = decode_wav(data)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert (a.sample_rate, a.channel_count) == (b.sample_rate, b.channel_count)

    def test_integer_samples_within_unit_range(self):
        buf = decode_wav(make_wav(np.full(64, -32768, dtype=np.int16), fmt="pcm16_raw"))
        assert np.max(np.abs(buf.samples)) <= 1.0 + 1e-6


class TestAudioBuffer:
    def test_channel_count_follows_the_array(self):
        assert AudioBuffer(np.zeros(10), SR).channel_count == 1
        assert AudioBuffer(np.zeros((10, 3)), SR).channel_count == 3


class TestDownmix:
    def test_stereo_mean(self):
        buf = decode_wav(make_wav(np.array([[1.0, 0.0]]), fmt="float32"))
        mono = downmix_mono(buf)
        assert mono.channel_count == 1
        np.testing.assert_allclose(mono.samples, [0.5])

    def test_mono_identity(self):
        buf = mono_buffer(sine(100, 0.01))
        out = downmix_mono(buf)
        np.testing.assert_array_equal(out.samples, buf.samples)

    @pytest.mark.parametrize("channels", range(1, 8))
    def test_equals_mean_bit_for_bit(self, channels):
        rng = np.random.default_rng(channels)
        frames = rng.uniform(-1.0, 1.0, size=(1000, channels))
        buf = decode_wav(make_wav(frames, fmt="float32"))
        expected = buf.samples.mean(axis=1) if channels > 1 else buf.samples
        np.testing.assert_array_equal(downmix_mono(buf).samples, expected)

    def test_cancellation(self):
        buf = decode_wav(make_wav(np.array([[0.8, -0.8]]), fmt="float32"))
        np.testing.assert_allclose(downmix_mono(buf).samples, [0.0], atol=1e-7)


# sha256 of resampled 44.1, 48, 22.05 and 192 kHz noise from 0.05 s to 8 s
_RESAMPLE_DIGEST = """
import hashlib
import numpy as np
from cloneval.audio_io import AudioBuffer, resample
digest = hashlib.sha256()
for rate in (44100, 48000, 22050, 192000):
    for seconds in (0.05, 0.3, 1.0, 2.5, 8.0):
        x = np.random.default_rng(int(seconds * 100)).uniform(-1.0, 1.0, int(seconds * rate))
        digest.update(resample(AudioBuffer(x, rate), 16000).samples.tobytes())
print(digest.hexdigest())
"""


_RATE_PAIRS = [
    (44100, 16000), (48000, 16000), (22050, 16000), (8000, 16000), (16000, 44100),
    (11025, 16000), (32000, 16000), (96000, 16000), (44056, 16000), (192000, 16000),
]
_LENGTHS = [1, 2, 7, 440, 442, 883, 1000, 5607]


class TestResample:
    @pytest.mark.parametrize("src, dst", _RATE_PAIRS)
    @pytest.mark.parametrize("length", _LENGTHS)
    def test_matches_reference_fir(self, src, dst, length):
        # At 44.1 kHz one period of 160 outputs takes 441 inputs, split into
        # groups of 32 outputs: 440, 442 and 883 (441 * 2 + 1) end mid-period,
        # 1000 and 5607 mid-group. 5607 (5507 + 100) is one period and a
        # partial group at 44 056 Hz, whose period is 2000 outputs. At 192 kHz
        # a group of 32 outputs would span more than _MAX_SPAN inputs, so
        # its groups are 16 outputs wide.
        x = np.random.default_rng(length).uniform(-1.0, 1.0, length)
        g = math.gcd(src, dst)
        expected = oracles.polyphase_resample_reference(x, dst // g, src // g)
        out = resample(mono_buffer(x, sr=src), dst)
        assert out.samples.shape == expected.shape
        np.testing.assert_allclose(out.samples, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("src, dst", _RATE_PAIRS)
    @pytest.mark.parametrize("length", _LENGTHS)
    def test_matches_scipy_resample_poly(self, src, dst, length):
        # scipy's polyphase resampler, given the same filter, is an oracle
        # written apart from this package: same length, same values
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(length).uniform(-1.0, 1.0, length)
        g = math.gcd(src, dst)
        up, down = dst // g, src // g
        expected = signal.resample_poly(x, up, down, window=audio_io._design_lowpass(up, down) / up)
        out = resample(mono_buffer(x, sr=src), dst)
        assert out.samples.shape == expected.shape
        np.testing.assert_allclose(out.samples, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("src, dst", _RATE_PAIRS)
    def test_length_is_the_ceiling(self, src, dst):
        # every length up to two periods of the reduced ratio; at 44 056 Hz,
        # whose period is 5507 inputs, a fixed spread of them
        down = src // math.gcd(src, dst)
        lengths = range(1, 2 * down + 1, 97 if down > 1000 else 1)
        got = [len(resample(mono_buffer(np.ones(n), sr=src), dst).samples) for n in lengths]
        assert got == [math.ceil(Fraction(n * dst, src)) for n in lengths]

    @pytest.mark.parametrize("length", [1, 2])
    def test_one_or_two_samples_at_44k1_give_one(self, length):
        assert len(resample(mono_buffer(np.ones(length), sr=44100), 16000).samples) == 1

    def test_plan_is_cached_and_bounded(self):
        # 44 056 Hz -> 16 kHz is up 2000, down 5507: a dense up x down matrix
        # would be 89 MB, the grouped plan is about 2.4 MB
        audio_io._resample_plan.cache_clear()
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 44056)
        first = resample(mono_buffer(x, sr=44056), 16000)
        second = resample(mono_buffer(x, sr=44056), 16000)
        info = audio_io._resample_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        np.testing.assert_array_equal(first.samples, second.samples)
        for up, down, limit in ((2000, 5507, 4e6), (160, 441, 0.5e6)):
            groups = audio_io._resample_plan(up, down).groups
            assert sum(taps.nbytes for _, _, taps in groups) < limit
            assert not any(taps.flags.writeable for _, _, taps in groups)

    def test_bits_do_not_depend_on_blas_threads(self):
        one, two = output_per_blas_thread_count(_RESAMPLE_DIGEST)
        assert one == two

    @pytest.mark.parametrize("rate", [16000, 44100])
    def test_two_dimensional_buffer_is_rejected(self, rate):
        x = sine(220.0, 0.1, sr=rate)
        with pytest.raises(ValueError, match="mono"):
            resample(AudioBuffer(np.stack([x, -x], axis=1), rate), 16000)

    @pytest.mark.parametrize("rate", [0, -16000])
    def test_rate_below_one_is_rejected(self, rate):
        with pytest.raises(ValueError, match="target_rate must be positive"):
            resample(mono_buffer(sine(220.0, 0.01)), rate)

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_source_rate_below_one_is_rejected(self, rate):
        with pytest.raises(ValueError, match=f"source sample_rate must be positive, got {rate}"):
            resample(AudioBuffer(np.ones(100), rate), 16000)

    def test_same_rate_is_identity(self):
        buf = mono_buffer(sine(440, 0.1))
        out = resample(buf, SR)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_tone_peak_preserved_48k_to_16k(self):
        t = np.arange(48000) / 48000.0
        buf = mono_buffer(np.sin(2 * np.pi * 1000.0 * t), sr=48000)
        out = resample(buf, 16000)
        peak = oracles.dft_peak_hz(out.samples[4096:4096 + 2048])
        assert abs(peak - 1000.0) <= 16000 / 2048  # one 2048-point bin

    def test_output_length_ratio(self):
        buf = mono_buffer(np.zeros(48000) + 0.1, sr=48000)
        out = resample(buf, 16000)
        assert len(out.samples) == 16000
        assert out.sample_rate == 16000

    @pytest.mark.parametrize("freq", [1000.0, 3500.0])
    def test_round_trip_correlation(self, freq):
        x = sine(freq, 0.5)
        back = resample(resample(mono_buffer(x), 2 * SR), SR)
        n = min(len(x), len(back.samples))
        corr = np.corrcoef(x[:n], back.samples[:n])[0, 1]
        assert corr >= 0.99

    def test_passband_energy_within_half_db(self):
        x = sine(1000.0, 0.5)
        out = resample(mono_buffer(x), 32000)
        db = 10 * np.log10(np.mean(out.samples**2) / np.mean(x**2))
        assert abs(db) < 0.5

    def test_irrational_style_ratio(self):
        t = np.arange(22050) / 22050.0
        out = resample(mono_buffer(np.sin(2 * np.pi * 500.0 * t), sr=22050), 16000)
        assert len(out.samples) == 16000
        peak = oracles.dft_peak_hz(out.samples[2048:2048 + 2048])
        assert abs(peak - 500.0) <= 16000 / 2048
