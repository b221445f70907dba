"""Feature extractor tests: frozen oracle values, spec examples, invariants."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (SR, centered, click_train, mel_of, mono_buffer,
                      output_per_blas_thread_count, silence_then_tone, sine, stft_of,
                      tempogram_of, white_noise)
from cloneval import _kernels
from cloneval import features as F
from cloneval.audio_io import AudioBuffer
from cloneval.errors import EmptyFeature, InputTooShort, RateError

BIN_HZ = SR / F.N_FFT  # 15.625


def spec_of(x, kind="magnitude"):
    s = stft_of(x)
    return s if kind == "magnitude" else s**2


class TestStft:
    def test_zero_signal_zero_matrix(self):
        s = stft_of(np.zeros(4096))
        assert s.shape == (513, 17)
        assert np.all(s == 0.0)

    def test_tone_at_bin_center_dominates(self):
        # bin 64 center = 64 * 15.625 = 1000 Hz; oracle shows edge frames
        # are smeared by the reflected padding, interior frames are clean
        s = stft_of(sine(1000.0))
        argmax = np.argmax(s, axis=0)
        assert np.all(argmax[1:-1] == 64)
        assert np.all(np.abs(argmax - 64) <= 1)

    def test_frame_count_formula(self):
        s = stft_of(np.ones(4096) * 0.1)
        assert s.shape[1] == 17

    def test_input_too_short(self):
        # one sample cannot be reflect-padded into a frame
        with pytest.raises(InputTooShort):
            F.extract_summaries(mono_buffer(np.array([0.5])))

    def test_clips_too_short_to_reflect_are_rejected(self):
        # np.pad would reflect a clip of fewer than 513 samples again and
        # again, into a period that YIN reads as a voiced pitch
        x = white_noise(seed=3)
        for n in range(2, 513):
            with pytest.raises(InputTooShort, match=f"^need at least 513 samples, got {n}$"):
                F.extract_summaries(mono_buffer(x[:n]))
        padded, n_frames = F._reflect_pad(x[:513])
        np.testing.assert_array_equal(F.frame_signal(padded, n_frames),
                                      oracles.frames_centered(x[:513], F.N_FFT, F.HOP))
        assert F.extract_summaries(mono_buffer(x[:513]))["pitch"].shape == (256,)

    def test_parseval_interior_frames(self):
        x = sine(1000.0, 0.5, amp=0.7)
        window = F.hann_window(F.N_FFT)
        power = spec_of(x, "power")
        padded, every = centered(x)
        frames = F.frame_signal(padded, len(every))
        for t in range(4, 12):
            spectral = (power[0, t] + 2 * power[1:-1, t].sum() + power[-1, t]) / F.N_FFT
            spectral /= np.sum(window**2)
            time_energy = np.mean(frames[t] ** 2)
            assert abs(spectral - time_energy) / time_energy < 0.01


class TestMelSpectrogram:
    def test_silence_all_zero(self):
        mel = mel_of(np.zeros(2048))
        assert mel.shape[0] == 128
        assert np.all(mel == 0.0)

    def test_tone_argmax_is_nearest_center_band(self):
        mel = mel_of(sine(1000.0))
        centers = F.mel_frequencies()[1:-1]
        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        assert nearest == 42  # frozen from the filterbank construction
        assert int(np.argmax(mel.mean(axis=1))) == nearest

    def test_every_bin_in_band_has_weight(self):
        bank = F.mel_filterbank()
        freqs = F.fft_frequencies()
        covered = (freqs > 0.0) & (freqs < 8000.0)
        assert np.all(bank.sum(axis=0)[covered] > 0.0)

    def test_groups_cover_every_nonzero_of_the_bank(self):
        bank = F._mel_bank()
        banded = np.zeros_like(bank)
        for first, lo, weights in F._mel_groups():
            assert not weights.flags.writeable
            banded[first : first + len(weights), lo : lo + weights.shape[1]] = weights
        np.testing.assert_array_equal(banded, bank)
        assert F._mel_groups() is F._mel_groups()

    @pytest.mark.parametrize("seconds", [0.1, 2.5])
    def test_grouped_frames_match_dense_product(self, seconds):
        x = white_noise(seconds, seed=8) + sine(700.0, seconds, amp=0.5)
        dense = F._mel_bank() @ stft_of(x) ** 2
        np.testing.assert_allclose(mel_of(x), dense, rtol=1e-12, atol=0.0)

    def test_filterbank_nonnegative_finite(self):
        bank = F.mel_filterbank()
        assert np.all(bank >= 0.0)
        assert np.all(np.isfinite(bank))


class TestFilterbankCache:
    def test_public_builders_return_fresh_writable_copies(self):
        for build in (F.mel_filterbank, F.chroma_filterbank):
            first = build()
            expected = first.copy()
            assert first.flags.writeable
            first[:] = -1.0
            np.testing.assert_array_equal(build(), expected)

    def test_shared_banks_are_read_only(self):
        banks = (
            F._mel_bank(),
            F._chroma_bank(),
            F._cqt_bank(),
        )
        for bank in banks:
            assert not bank.flags.writeable
            with pytest.raises(ValueError):
                bank[0, 0] = 1.0
        assert F._mel_bank() is banks[0]

    def test_extract_summaries_builds_no_public_bank(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("filterbank rebuilt")

        monkeypatch.setattr(F, "mel_filterbank", refuse)
        monkeypatch.setattr(F, "chroma_filterbank", refuse)
        summaries = F.extract_summaries(mono_buffer(sine(440.0, 0.3)))
        assert set(summaries) == set(F.FEATURE_IDS)


class TestPitch:
    def test_sine_220(self):
        f0 = F.f0_contour(*centered(sine(220.0)))
        voiced = f0[f0 > 0]
        assert abs(np.median(voiced) - 220.0) <= 2.0

    def test_silence_unvoiced(self):
        f0 = F.f0_contour(*centered(np.zeros(SR // 2)))
        assert np.all(f0 == 0.0)

    def test_pulse_train_100(self):
        x = np.zeros(SR)
        x[::160] = 1.0
        f0 = F.f0_contour(*centered(x))
        voiced = f0[f0 > 0]
        assert abs(np.median(voiced) - 100.0) <= 2.0


class TestRms:
    def test_constant_signal(self):
        env = F.rms_envelope(*centered(np.full(4096, 0.3)))
        np.testing.assert_allclose(env, 0.3, rtol=1e-12)

    def test_silence(self):
        env = F.rms_envelope(*centered(np.zeros(4096)))
        assert np.all(env == 0.0)

    def test_unit_sine_interior(self):
        env = F.rms_envelope(*centered(sine(220.0)))
        np.testing.assert_allclose(env[3:-3], 2 ** -0.5, atol=0.01)


class TestSpectralScalars:
    def test_centroid_pure_tone(self):
        cen = F.spectral_centroid(spec_of(sine(1000.0)))
        assert np.all(np.abs(cen[2:-2] - 1000.0) <= BIN_HZ)

    def test_centroid_silence_zero(self):
        cen = F.spectral_centroid(spec_of(np.zeros(2048)))
        assert np.all(cen == 0.0)

    def test_centroid_flat_spectrum(self):
        flat = np.ones((513, 3))
        np.testing.assert_allclose(F.spectral_centroid(flat), 4000.0, atol=1e-9)

    def test_flatness_flat_spectrum_is_one(self):
        flat = np.ones((513, 3))
        np.testing.assert_allclose(F.spectral_flatness(flat), 1.0, atol=1e-6)

    def test_flatness_tone_low_noise_higher(self):
        tone = np.median(F.spectral_flatness(spec_of(sine(1000.0, amp=0.8), "power")))
        noise = np.median(F.spectral_flatness(spec_of(white_noise(seed=42), "power")))
        assert tone < 0.1
        assert noise > tone

    def test_rolloff_pure_tone(self):
        roll = F.spectral_rolloff(spec_of(sine(1000.0)))
        assert np.all(np.abs(roll[2:-2] - 1000.0) <= BIN_HZ)

    def test_rolloff_flat_spectrum(self):
        flat = np.ones((513, 2))
        roll = F.spectral_rolloff(flat)
        np.testing.assert_allclose(roll, 6812.5)  # frozen cumulative-sum oracle
        assert np.all(np.abs(roll - 0.85 * 8000.0) <= BIN_HZ)

    def test_rolloff_silence_zero(self):
        assert np.all(F.spectral_rolloff(spec_of(np.zeros(2048))) == 0.0)


class TestOnsetStrength:
    def test_silence_zero(self):
        mel = mel_of(np.zeros(4096))
        assert np.all(F.onset_strength(mel) == 0.0)

    def test_steady_tone_quiet_after_attack(self):
        # tapered end keeps the reflected-edge discontinuity out of the frame
        x = silence_then_tone(500.0, dur=1.0, split=0.4)
        fade = np.ones(len(x))
        fade[-800:] = np.linspace(1.0, 0.0, 800)
        env = F.onset_strength(mel_of(x * fade))
        attack = int(np.argmax(env))
        peak = env[attack]
        rest = np.concatenate([env[:attack - 1], env[attack + 2:]])
        assert np.all(rest < 0.05 * peak)

    def test_click_train_maxima_at_click_frames(self):
        env = F.onset_strength(mel_of(click_train()))
        maxima = [
            i for i in range(1, len(env) - 1)
            if env[i] > env[i - 1] and env[i] >= env[i + 1] and env[i] > 0.2 * env.max()
        ]
        clicks = [8000 * k / F.HOP for k in range(1, 8)]
        for frame in clicks:
            assert any(abs(m - frame) <= 1 for m in maxima)


class TestTempogram:
    def test_zero_envelope_zero_matrix(self):
        out = F.tempogram(np.zeros(50))
        assert out.shape == (384,)
        assert np.all(out == 0.0)
        assert np.all(tempogram_of(np.zeros(50)) == 0.0)

    def test_click_train_120_bpm_lag_peak(self):
        env = F.onset_strength(mel_of(click_train()))
        profile = F.tempogram(env)
        lag = int(np.argmax(profile[10:100])) + 10
        assert abs(lag - 31) <= 1  # 0.5 s period = 31.25 frames
        assert profile[lag] >= profile[lag - 1] and profile[lag] >= profile[lag + 1]

    @pytest.mark.parametrize("length", [0, 1, 5, 384, 500])
    def test_row_count_fixed(self, length):
        env = np.abs(np.sin(np.arange(length)))
        matrix = tempogram_of(env)
        assert matrix.shape == (384, length)
        if length:
            np.testing.assert_allclose(F.tempogram(env), matrix.mean(axis=1),
                                       rtol=0.0, atol=1e-12)


class TestChroma:
    def test_a440_maps_to_class_9(self):
        chroma = F.chroma_stft(spec_of(sine(440.0), "power"))
        assert int(np.argmax(chroma.mean(axis=1))) == 9

    def test_silence_zero(self):
        chroma = F.chroma_stft(spec_of(np.zeros(2048), "power"))
        assert np.all(chroma == 0.0)

    def test_octave_equivalence(self):
        low = F.chroma_stft(spec_of(sine(440.0), "power"))
        high = F.chroma_stft(spec_of(sine(880.0), "power"))
        assert np.argmax(low.mean(axis=1)) == np.argmax(high.mean(axis=1))


class TestPseudoCqt:
    def test_center_frequencies(self):
        centers = F.cqt_center_frequencies()
        assert abs(centers[0] - 32.703) < 1e-9
        assert abs(centers[12] - 65.406) < 0.001

    def test_a440_maps_to_bin_45(self):
        pcqt = F.pseudo_cqt(spec_of(sine(440.0), "power"))
        assert int(np.argmax(pcqt.mean(axis=1))) == 45

    def test_silence_zero(self):
        assert np.all(F.pseudo_cqt(spec_of(np.zeros(2048), "power")) == 0.0)


class TestChromaCqt:
    def test_fold_two_octaves_of_class_9(self):
        pcqt = np.zeros((84, 3))
        pcqt[9] = 1.0
        pcqt[21] = 2.0
        folded = F.chroma_cqt(pcqt)
        np.testing.assert_allclose(folded[9], 3.0)
        assert np.all(folded[np.arange(12) != 9] == 0.0)

    def test_a440_argmax_class_9(self):
        folded = F.chroma_cqt(F.pseudo_cqt(spec_of(sine(440.0), "power")))
        assert int(np.argmax(folded.mean(axis=1))) == 9

    def test_zero_matrix(self):
        assert np.all(F.chroma_cqt(np.zeros((84, 4))) == 0.0)

    def test_fold_conserves_mass(self):
        pcqt = F.pseudo_cqt(spec_of(sine(440.0), "power"))
        folded = F.chroma_cqt(pcqt)
        np.testing.assert_allclose(folded.sum(axis=0), pcqt.sum(axis=0), rtol=1e-12)


class TestSummarize:
    def test_constant_scalar_sequence(self):
        for length in (1, 2, 17, 500):
            out = F.summarize("rms", np.full(length, 0.25), np.arange(length))
            assert out.shape == (256,)
            np.testing.assert_allclose(out, 0.25)

    def test_matrix_per_bin_mean(self):
        raw = np.arange(128 * 7, dtype=float).reshape(128, 7)
        out = F.summarize("mel_spectrogram", raw.mean(axis=1))
        np.testing.assert_allclose(out, raw.mean(axis=1))

    def test_ramp_endpoints_exact(self):
        out = F.summarize("pitch", np.array([0.0, 1.0]), np.arange(2))
        assert out[0] == 0.0
        assert out[-1] == 1.0
        np.testing.assert_allclose(np.diff(out), 1.0 / 255.0)

    def test_empty_feature(self):
        with pytest.raises(EmptyFeature):
            F.summarize("rms", np.array([]), np.array([], dtype=np.intp))
        with pytest.raises(EmptyFeature):
            F.summarize("mel_spectrogram", np.zeros(0))

    @pytest.mark.parametrize("shape", [(128, 5), (256, 1), ()])
    def test_values_that_are_not_one_dimensional_are_rejected(self, shape):
        # a caller that passes the matrix instead of its time mean would
        # otherwise get the matrix back as the summary
        with pytest.raises(ValueError, match=rf"mel_spectrogram: .*shape {re.escape(str(shape))}"):
            F.summarize("mel_spectrogram", np.ones(shape))
        with pytest.raises(ValueError, match=rf"rms: .*shape {re.escape(str(shape))}"):
            F.summarize("rms", np.ones(shape), np.arange(5))

    def test_summary_lengths(self):
        # the protocol's lengths: contours resampled to 256 points, 128 mel
        # bands, a 384-frame tempogram window, 12 chroma and 84 CQT bins
        summaries = F.extract_summaries(mono_buffer(sine(220.0, 0.5)))
        assert {fid: summary.shape for fid, summary in summaries.items()} == {
            "pitch": (256,), "mel_spectrogram": (128,), "rms": (256,),
            "spectral_centroid": (256,), "spectral_flatness": (256,),
            "spectral_rolloff": (256,), "tempogram": (384,), "chromagram": (12,),
            "pseudo_cqt": (84,), "chroma_cqt": (12,)}
        assert list(summaries) == list(F.FEATURE_IDS)
        for summary in summaries.values():
            assert np.all(np.isfinite(summary))


def _whole_contours(x):
    """The five contours over every frame, from the pass's steps."""
    mag = stft_of(x)
    return {
        "pitch": F.f0_contour(*centered(x)),
        "rms": F.rms_envelope(*centered(x)),
        "spectral_centroid": F.spectral_centroid(mag),
        "spectral_flatness": F.spectral_flatness(mag**2),
        "spectral_rolloff": F.spectral_rolloff(mag),
    }


def _speech_like(n_samples, seed):
    """A gliding harmonic tone in light noise, with 0.6 s of silence at both ends."""
    t = np.arange(n_samples) / SR
    x = 0.5 * np.sin(2 * np.pi * (150.0 + 40.0 * np.sin(1.3 * t)) * t)
    x += 0.02 * np.random.default_rng(seed).standard_normal(n_samples)
    edge = min(int(0.6 * SR), n_samples // 3)
    x[:edge] = 0.0
    x[n_samples - edge :] = 0.0
    return x


class TestContourFrames:
    @given(st.integers(min_value=1, max_value=200_000))
    def test_frames_hold_what_the_grid_reads(self, n_frames):
        frames = F._contour_frames(n_frames)
        floors = np.linspace(0.0, n_frames - 1.0, F.CONTOUR_POINTS).astype(int)
        assert set(floors) <= set(frames)
        assert set(np.minimum(floors + 1, n_frames - 1)) <= set(frames)
        assert np.all(np.diff(frames) > 0)
        assert len(frames) <= 2 * F.CONTOUR_POINTS - 1
        if n_frames <= 2 * F.CONTOUR_POINTS - 1:
            np.testing.assert_array_equal(frames, np.arange(n_frames))

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=20_000), st.integers(0, 2**32 - 1))
    def test_summary_reads_no_other_frame(self, n_frames, seed):
        contour = np.random.default_rng(seed).uniform(0.0, 500.0, n_frames)
        frames = F._contour_frames(n_frames)
        np.testing.assert_array_equal(F.summarize("pitch", contour[frames], frames),
                                      F.summarize("pitch", contour, np.arange(n_frames)))

    @pytest.mark.parametrize("n_samples", [
        513, 767, 768, 4_000, 16_000, 130_815, 130_816, 131_072, 131_328, 144_000,
        200_000, 480_000, 640_000,
    ])
    def test_summaries_equal_whole_contours_bit_for_bit(self, n_samples):
        # 513, 767 and 768 samples, the shortest clips, frame to 3, 3 and 4
        # frames; 130 815 and 130 816 samples frame to 511 and 512 frames,
        # where the contour frames first skip one; 480 000 is 30 s, 640 000 is 40 s
        x = _speech_like(n_samples, seed=n_samples)
        summaries = F.extract_summaries(mono_buffer(x))
        whole = _whole_contours(x)
        for fid, contour in whole.items():
            np.testing.assert_array_equal(
                summaries[fid], F.summarize(fid, contour, np.arange(len(contour))), err_msg=fid)
        if n_samples >= 144_000:
            pitch = whole["pitch"]
            assert np.any(pitch > 0.0) and np.any(pitch == 0.0)
            assert np.any(whole["rms"] == 0.0)

    def test_long_file_computes_only_the_contour_frames(self, monkeypatch):
        # the saving, counted: a 30 s clip has 1876 frames, of which the
        # summaries read 511; every contour step must see no more than that
        counts = {}

        def counted(name, fn, rows):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + rows(*args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(_kernels, "yin_cmnd", counted(
            "yin_cmnd", _kernels.yin_cmnd, lambda padded, frames, *rest: len(frames)))
        # the frames handed to rms_envelope, one call per STFT block
        monkeypatch.setattr(F, "rms_envelope", counted(
            "rms", F.rms_envelope, lambda padded, frames: len(frames)))
        for name in ("spectral_centroid", "spectral_flatness", "spectral_rolloff"):
            monkeypatch.setattr(F, name, counted(
                name, getattr(F, name), lambda spectrum: spectrum.shape[1]))
        F.extract_summaries(mono_buffer(white_noise(30.0, seed=4)))
        assert sorted(counts) == ["rms", "spectral_centroid", "spectral_flatness",
                                  "spectral_rolloff", "yin_cmnd"]
        for name, count in counts.items():
            assert count <= 2 * F.CONTOUR_POINTS, f"{name}: {count} frames"


class TestSampleRate:
    @pytest.mark.parametrize("rate", [8000, 22050, 44100])
    def test_other_rates_are_rejected(self, rate):
        buf = mono_buffer(sine(220.0, 0.5, sr=rate), sr=rate)
        with pytest.raises(RateError, match=f"got {rate} Hz"):
            F.extract_summaries(buf)

    def test_multichannel_is_rejected(self):
        x = sine(220.0, 0.5)
        buf = AudioBuffer(np.stack([x, -x], axis=1), SR)
        with pytest.raises(RateError, match=r"mono audio as a 1-D array, got shape \(8000, 2\)"):
            F.extract_summaries(buf)

    def test_one_column_buffer_names_its_shape(self):
        buf = AudioBuffer(np.zeros((16000, 1)), SR)
        with pytest.raises(RateError, match=r"got shape \(16000, 1\); downmix first"):
            F.extract_summaries(buf)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_are_rejected(bad):
    # YIN's threshold, the silence masks and the tempogram's lag-0 mask
    # would each turn a NaN into a finite score
    x = sine(220.0, 0.5)
    x[1000] = bad
    x[3000] = bad
    with pytest.raises(ValueError, match="holds 2 non-finite"):
        F.extract_summaries(mono_buffer(x))


def test_overflowing_power_is_rejected():
    # the power spectrum of noise at 1e200 overflows to inf, and the mel
    # summary is the first to hold it
    x = white_noise(1.0) * 1e200
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="mel_spectrogram: summary contains non-finite values"):
        F.extract_summaries(mono_buffer(x))


@pytest.mark.parametrize("step", [F.f0_contour, F.rms_envelope])
def test_no_frames_give_an_empty_contour(step):
    padded, _ = centered(sine(220.0, 0.5))
    out = step(padded, np.array([], dtype=np.intp))
    assert out.shape == (0,) and out.dtype == np.float64


# sha256 of the tempogram summaries and the per-block mel frames of noise
# 129 frames, 257 frames and 30 s long
_MEL_DIGEST = """
import hashlib
import numpy as np
from cloneval import features as F
from cloneval.audio_io import AudioBuffer
digest = hashlib.sha256()
for n_samples in (128 * F.HOP, 256 * F.HOP, 30 * 16000):
    x = np.random.default_rng(n_samples).uniform(-1.0, 1.0, n_samples)
    digest.update(F.extract_summaries(AudioBuffer(x, 16000))["tempogram"].tobytes())
    padded, n_frames = F._reflect_pad(x)
    frames = F.frame_signal(padded, n_frames)
    for block in F._row_blocks(np.arange(n_frames)):
        power = F.stft(frames[block[0] : block[-1] + 1]) ** 2
        digest.update(F._mel_frames(power, np.empty((F.N_MELS, len(block)))).tobytes())
print(digest.hexdigest())
"""


class TestInvariants:
    def test_tempogram_bits_do_not_depend_on_blas_threads(self):
        # the banded mel products feed the onset envelope; a product whose
        # inner dimension exceeds OpenBLAS's GEMM_Q, such as one over all
        # 513 bins, rounds differently under one and two threads
        one, two = output_per_blas_thread_count(_MEL_DIGEST)
        assert one == two

    def test_determinism_bit_identical(self):
        x = white_noise(0.5, seed=3)
        a = F.extract_summaries(mono_buffer(x))
        b = F.extract_summaries(mono_buffer(x.copy()))
        for fid in F.FEATURE_IDS:
            np.testing.assert_array_equal(a[fid], b[fid])

    def test_scale_covariance(self):
        x = sine(330.0, 0.5, amp=0.25) + 0.05 * white_noise(0.5, seed=9)
        s = 3.0
        base = F.extract_summaries(mono_buffer(x))
        scaled = F.extract_summaries(mono_buffer(s * x))

        np.testing.assert_allclose(scaled["rms"], s * base["rms"], rtol=1e-6)
        for fid in ("mel_spectrogram", "pseudo_cqt", "chromagram", "chroma_cqt"):
            np.testing.assert_allclose(
                scaled[fid], s**2 * base[fid], rtol=1e-6
            )
        for fid in ("spectral_flatness", "spectral_centroid", "spectral_rolloff", "pitch"):
            np.testing.assert_allclose(
                scaled[fid], base[fid], rtol=1e-6, atol=1e-9
            )

    def test_self_cosine_is_one(self):
        from cloneval.similarity import cosine

        summaries = F.extract_summaries(mono_buffer(sine(250.0, 0.5)))
        for summary in summaries.values():
            if np.linalg.norm(summary) > 0:
                assert cosine(summary, summary) == 1.0


class TestMemory:
    def test_extract_summaries_peak_stays_block_sized(self):
        # 30 s frame to 1876 rows. Block by block, the peak is one 3.9 MB
        # reflect-padded copy of the signal plus the STFT block buffers,
        # about 7.6 MB in all. Any whole-file array on top of that crosses
        # 12 MB: a (bins, frames) float64 matrix is 7.7 MB, the (frames,
        # lags) YIN matrix 4.8 MB and the (lags, frames) tempogram 5.8 MB.
        buf = mono_buffer(white_noise(30.0, seed=11))
        F.extract_summaries(mono_buffer(white_noise(0.5, seed=11)))  # build the cached banks
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            F.extract_summaries(buf)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 12e6, f"extract_summaries peaked at {peak / 1e6:.1f} MB"
