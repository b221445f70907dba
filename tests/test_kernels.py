"""The YIN and tempogram kernels and the frame-level features built on them,
checked against the oracles across block edges."""

import numpy as np
import pytest

import oracles
from conftest import mono_buffer
from cloneval import _kernels
from cloneval import features as F


def onset_windows(env, rows):
    """The centered 384-frame windows of ``env``'s first ``rows`` frames, zeros outside."""
    return _kernels._windows(env, -192, rows, 1, 384)


def local_autocorr_power(env):
    """The kernel's rows for ``env``, one call per block, as one (frames, bins) matrix."""
    return np.concatenate([power for _, _, power in F._autocorr_blocks(env)])


def local_autocorr(env):
    """The autocorrelations that the kernel's rows invert to, as one (384, frames) matrix."""
    power = local_autocorr_power(env)
    return np.fft.irfft(power, n=2 * (power.shape[1] - 1), axis=1)[:, :384].T


def yin_cmnd(padded, n_frames, hop, win, tau_max):
    """The kernel's rows for frames 0..n_frames - 1, one call per block."""
    return np.concatenate([_kernels.yin_cmnd(padded, start, stop, hop, win, tau_max)
                           for start, stop in F._row_blocks(n_frames)])


def test_kernel_output_shapes():
    env = np.abs(np.sin(np.arange(100.0)))
    windows = onset_windows(env, 100)
    assert windows.shape == (100, 384)
    zero_padded = np.concatenate([np.zeros(192), env, np.zeros(192)])
    np.testing.assert_array_equal(windows, [zero_padded[t : t + 384] for t in range(100)])
    power = _kernels.local_autocorr(windows, F.hann_window(384))
    assert power.shape == (100, _kernels._fft_size(767) // 2 + 1)
    assert local_autocorr(env).shape == (384, 100)
    padded = np.random.default_rng(3).standard_normal(4 * 256 + 1024)
    cmnd = _kernels.yin_cmnd(padded, 2, 5, 256, 512, 320)
    assert cmnd.shape == (3, 321)
    assert np.all(cmnd[:, 0] == 1.0)


# Row counts on both sides of the kernels' 128-row block edges.
ROW_COUNTS = [1, 2, 127, 128, 129, 255, 256, 257, 300]


def _pitch_test_signal(rows):
    """A 400 Hz cosine framed into exactly ``rows`` rows, then noise and silence.

    The clip starts and ends on a cosine peak, so its reflect-padded edge
    frames stay periodic and voiced; clips of one or two rows are all tone.
    """
    n = (rows - 1) * oracles.HOP + 201 - (rows - 1) * oracles.HOP % 20
    x = 0.6 * np.cos(2 * np.pi * 400.0 * np.arange(n) / oracles.SR)
    if rows > 2:
        x[n // 3 :] = 0.3 * np.random.default_rng(rows).standard_normal(n - n // 3)
        x[2 * n // 3 :] = 0.0
    return x


def _onset_test_envelope(rows):
    """Non-negative envelope whose tail is zero for longer than the tempogram window."""
    env = np.abs(np.random.default_rng(rows).standard_normal(rows))
    env[20:] = 0.0
    return env


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_f0_contour_matches_oracle_across_block_edges(rows):
    x = _pitch_test_signal(rows)
    f0 = F.f0_contour(mono_buffer(x))
    assert f0.shape == (rows,)
    np.testing.assert_allclose(f0, oracles.yin_f0(x), rtol=1e-9, atol=0.0)
    assert f0[0] > 0.0
    if rows > 2:
        assert np.any(f0 == 0.0)


def test_f0_trough_search_matches_oracle_on_crafted_cmnd():
    """Ties, plateaus, troughs at tau_min and tau_max, flat and steep parabolas, NaN."""
    tau_min, tau_max = 32, 320
    rng = np.random.default_rng(7)
    cmnd = rng.integers(0, 5, size=(300, tau_max + 1)) / 20.0
    cmnd[::4, : tau_min + 40] = 1.0
    cmnd[1:3] = 1.0
    cmnd[2, tau_max - 5 :] = [0.5, 0.09, 0.08, 0.07, 0.06, 0.05]
    cmnd[3, tau_min - 1 : tau_min + 2] = [0.0, 0.05, 0.2]
    cmnd[5, tau_min - 1 : tau_min + 3] = [0.3, 0.05, 0.05, 0.05]
    cmnd[6, tau_min - 1 : tau_min + 2] = [0.2, 0.05, np.nan]
    cmnd[7, tau_min : tau_min + 2] = [np.nan, 0.01]
    cmnd[:, 0] = 1.0

    f0 = np.concatenate([F._yin_troughs(cmnd[start:stop])
                         for start, stop in F._row_blocks(len(cmnd))])
    expected = [oracles.yin_trough_f0(row, tau_min, tau_max) for row in cmnd]
    np.testing.assert_array_equal(f0, expected)
    assert f0[1] == 0.0 and f0[2] == oracles.SR / tau_max


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_local_autocorr_matches_oracle_across_block_edges(rows):
    env = _onset_test_envelope(rows)
    out = local_autocorr(env)
    np.testing.assert_allclose(out, oracles.tempogram(env), rtol=0.0, atol=1e-12)
    assert np.all(local_autocorr(np.zeros(rows)) == 0.0)
    if rows > 20 + 384 // 2:
        assert np.all(out[:, 20 + 384 // 2 :] == 0.0)


def _plant_onset(monkeypatch, env):
    """Make the STFT pass take ``env`` as its onset envelope, block by block."""
    taken = 0

    def onset_strength(mel_power):
        nonlocal taken
        count = mel_power.shape[1] - 1  # column 0 is the frame before the block
        out = np.concatenate([[0.0], env[taken : taken + count]])
        taken += count
        return out

    monkeypatch.setattr(F, "onset_strength", onset_strength)


@pytest.mark.parametrize("rows", ROW_COUNTS + [700])
def test_tempogram_summary_matches_oracle_mean(rows, monkeypatch):
    # one inverse FFT of the summed power rows against the mean of the
    # oracle's per-frame autocorrelations; 700 frames hold a silent stretch
    # longer than the window between two active ones
    env = _onset_test_envelope(rows)
    if rows > 20 + 384 + 20:
        env[-20:] = np.abs(np.random.default_rng(rows + 1).standard_normal(20))
    _plant_onset(monkeypatch, env)
    buf = mono_buffer(_block_edge_clip(rows, 0, "silent"))
    summary = F.extract_summaries(buf)["tempogram"]
    np.testing.assert_allclose(summary, oracles.tempogram(env).mean(axis=1), rtol=0.0, atol=1e-12)

    _plant_onset(monkeypatch, np.zeros(rows))
    assert np.all(F.extract_summaries(buf)["tempogram"] == 0.0)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_kernels_independent_of_block_size(rows):
    # the blocks of one range, concatenated, are the rows of one call over it
    hop = oracles.HOP
    padded = np.random.default_rng(rows).standard_normal((rows - 1) * hop + 1024)
    padded[(rows // 2) * hop :][: 1024 + 3 * hop] = 0.0
    env = _onset_test_envelope(rows)

    blocked = yin_cmnd(padded, rows, hop, 512, 320)
    np.testing.assert_array_equal(blocked, _kernels.yin_cmnd(padded, 0, rows, hop, 512, 320))
    silent = [t for t in range(rows) if not padded[t * hop :][:1024].any()]
    assert silent
    assert np.all(blocked[silent] == 1.0)
    whole = _kernels.local_autocorr(onset_windows(env, rows), F.hann_window(384))
    np.testing.assert_array_equal(local_autocorr_power(env), whole)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_per_frame_features_independent_of_block_size(rows, monkeypatch):
    # Per-frame values only: the summaries' running sums over blocks, such
    # as the mean power spectrum, add in block order.
    buf = mono_buffer(_pitch_test_signal(rows))
    env = _onset_test_envelope(rows)

    def run():
        return F.f0_contour(buf), F.tempogram(env), F.stft(buf), F.rms_envelope(buf)

    blocked = run()
    monkeypatch.setattr(F, "_BLOCK_ROWS", rows + 1)
    whole = run()
    for a, b in zip(blocked, whole):
        np.testing.assert_array_equal(a, b)


def _mixed_test_signal():
    """Glide, noise, silence, a loud burst, then silence again: 1.2 s at 16 kHz."""
    n = int(1.2 * oracles.SR)
    t = np.arange(n) / oracles.SR
    x = 0.6 * np.sin(2 * np.pi * (150.0 + 100.0 * t) * t)
    x[n // 4 : n // 2] = 0.2 * np.random.default_rng(5).standard_normal(n // 2 - n // 4)
    x[n // 2 :] = 0.0
    x[3 * n // 4 : 3 * n // 4 + 2000] = 0.9 * np.sin(2 * np.pi * 220.0 * t[:2000])
    return x


def test_f0_contour_matches_oracle_on_mixed_signal():
    x = _mixed_test_signal()
    f0 = F.f0_contour(mono_buffer(x))
    np.testing.assert_allclose(f0, oracles.yin_f0(x), rtol=1e-9, atol=0.0)
    assert np.any(f0 > 0.0) and np.any(f0 == 0.0)


def test_frame_signal_matches_oracle():
    x = np.random.default_rng(5).standard_normal(10240)
    np.testing.assert_array_equal(F.frame_signal(x), oracles.frames_centered(x, 1024, 256))


def test_rms_envelope_matches_oracle_on_mixed_signal():
    x = _mixed_test_signal()
    rms = F.rms_envelope(mono_buffer(x))
    np.testing.assert_allclose(rms, oracles.rms_envelope(x), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_rms_envelope_matches_whole_signal_block_sums(rows):
    # The blocked sums of squares give the bits of squaring the whole padded
    # signal at once and adding each frame's four 256-sample block sums.
    x = _block_edge_clip(rows, 1, "voiced")
    u = np.pad(x, 512, mode="reflect")[: (rows + 3) * 256]
    sums = (u * u).reshape(-1, 256).sum(axis=1)
    expected = np.sqrt((sums[:-3] + sums[1:-2] + sums[2:-1] + sums[3:]) / 1024)
    np.testing.assert_array_equal(F.rms_envelope(mono_buffer(x)), expected)


def test_silence_after_loud_frames_is_exact():
    hop = oracles.HOP
    x = np.zeros(3 * oracles.SR)
    x[: oracles.SR] = 0.9 * np.sin(2 * np.pi * 200.0 * np.arange(oracles.SR) / oracles.SR)
    buf = mono_buffer(x)
    n_frames = 1 + len(x) // hop
    silent = np.array([t * hop - 512 >= oracles.SR for t in range(n_frames)])
    padded = np.pad(x, 512, mode="reflect")
    cmnd = yin_cmnd(padded, n_frames, hop, 512, 320)
    assert np.all(cmnd[silent] == 1.0)
    assert np.all(F.rms_envelope(buf)[silent] == 0.0)
    assert np.all(F.f0_contour(buf)[silent] == 0.0)
    assert not np.all(cmnd[~silent] == 1.0)


def test_silent_gap_between_loud_stretches_is_exact():
    # The gap starts mid-chunk, after loud noise in the same block: the
    # running sums of squares stay constant over it, so the frames that see
    # only the gap read exact silence, in blocks and in one call.
    hop = oracles.HOP
    x = np.random.default_rng(7).standard_normal(oracles.SR)
    gap = slice(4000 + 37, 12000 + 37)
    x[gap] = 0.0
    padded = np.pad(x, 512, mode="reflect")
    n_frames = 1 + len(x) // hop
    silent = [t for t in range(n_frames)
              if t * hop - 512 >= gap.start and t * hop - 512 + 1024 <= gap.stop]
    assert len(silent) > 20
    blocked = yin_cmnd(padded, n_frames, hop, 512, 320)
    one_call = _kernels.yin_cmnd(padded, 0, n_frames, hop, 512, 320)
    assert np.all(blocked[silent] == 1.0)
    assert np.all(one_call[silent] == 1.0)
    assert np.all(F.f0_contour(mono_buffer(x))[silent] == 0.0)


def test_quiet_frames_after_loud_ones_scale_exactly():
    # Scaling by a power of two is exact, so frames that see only the quiet
    # tone must give the bits of the same frames at full scale. Sums carried
    # over from the loud noise before them would cost those bits.
    sr, hop = oracles.SR, oracles.HOP
    tone = np.sin(2 * np.pi * 200.0 * np.arange(sr) / sr)
    loud, plain = np.zeros(3 * sr), np.zeros(3 * sr)
    loud[:sr] = np.random.default_rng(2).standard_normal(sr)
    loud[2 * sr :] = 2.0**-12 * tone
    plain[2 * sr :] = tone
    n_frames = 1 + len(loud) // hop
    quiet = np.array([t * hop - 512 >= 2 * sr for t in range(n_frames)])

    def features(x):
        padded = np.pad(x, 512, mode="reflect")
        cmnd = yin_cmnd(padded, n_frames, hop, 512, 320)
        return cmnd[quiet], F.rms_envelope(mono_buffer(x))[quiet]

    (cmnd_loud, rms_loud), (cmnd_plain, rms_plain) = features(loud), features(plain)
    np.testing.assert_array_equal(cmnd_loud, cmnd_plain)
    np.testing.assert_array_equal(rms_loud, 2.0**-12 * rms_plain)
    assert np.all(rms_plain > 0.5)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_stft_blocks_match_one_batch(rows):
    x = _pitch_test_signal(rows)
    frames = F.frame_signal(x)
    expected = np.abs(np.fft.rfft(frames * F.hann_window(1024), axis=1)).T
    np.testing.assert_array_equal(F.stft(mono_buffer(x)), expected)


def test_fft_size_is_smooth_and_minimal():
    smooth = [k << a for k in (1, 3, 9) for a in range(12)]
    for n in range(1, 2000):
        size = _kernels._fft_size(n)
        assert size == min(m for m in smooth if m >= n)
    assert _kernels._fft_size(576) == 576 and _kernels._fft_size(767) == 768


def _block_edge_clip(rows, odd, content):
    """A clip of ``rows`` frames: silent, or a tone with noise then silence."""
    n = (rows - 1) * oracles.HOP + 100 + odd
    if content == "silent":
        return np.zeros(n)
    x = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(n) / oracles.SR)
    x += 0.05 * np.random.default_rng(rows).standard_normal(n)
    x[2 * n // 3 :] = 0.0
    return x


@pytest.mark.parametrize("content", ["silent", "voiced"])
@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_streamed_summaries_match_whole_file_features(rows, odd, content):
    x = _block_edge_clip(rows, odd, content)
    buf = mono_buffer(x)
    streamed = {fid: s for fid, s in F.extract_summaries(buf).items()}

    mag = F.stft(buf)
    assert mag.shape[1] == rows
    power = mag**2
    exact = {
        "pitch": F.f0_contour(buf),
        "rms": F.rms_envelope(buf),
        "spectral_centroid": F.spectral_centroid(mag),
        "spectral_flatness": F.spectral_flatness(power),
        "spectral_rolloff": F.spectral_rolloff(mag),
    }
    for fid, raw in exact.items():
        np.testing.assert_array_equal(streamed[fid], F.summarize(fid, raw), err_msg=fid)

    pcqt = F.pseudo_cqt(power)
    banks = {
        "mel_spectrogram": F.mel_spectrogram(buf),
        "chromagram": F.chroma_stft(power),
        "pseudo_cqt": pcqt,
        "chroma_cqt": F.chroma_cqt(pcqt),
    }
    for fid, matrix in banks.items():
        np.testing.assert_allclose(streamed[fid], matrix.mean(axis=1), rtol=1e-12, atol=0.0,
                                   err_msg=fid)

    onset = F.onset_strength(F.mel_spectrogram(buf))
    np.testing.assert_allclose(streamed["tempogram"], F.tempogram(onset).mean(axis=1),
                               rtol=0.0, atol=1e-12)
    if content == "silent":
        assert not np.any(streamed["tempogram"])
