"""The YIN and tempogram kernels: numba/numpy parity, oracles, block edges."""

import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import mono_buffer
from cloneval import _kernels
from cloneval import features as F

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")


@needs_numba
def test_yin_cmnd_paths_agree():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((40, 1024))
    a = _kernels._yin_cmnd_numba(frames, 512, 320)
    b = _kernels._yin_cmnd_numpy(frames, 512, 320)
    np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)


@needs_numba
def test_local_autocorr_paths_agree():
    rng = np.random.default_rng(1)
    env = np.abs(rng.standard_normal(200))
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(384) / 384)
    a = _kernels._local_autocorr_numba(env, window)
    b = _kernels._local_autocorr_numpy(env, window)
    np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-12)


def test_env_flag_disables_numba():
    code = (
        "import os; os.environ['CLONEVAL_DISABLE_NUMBA'] = '1'; "
        "from cloneval import _kernels; "
        "assert not _kernels.USE_NUMBA"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_dispatchers_run_on_selected_path():
    env = np.abs(np.sin(np.arange(100.0)))
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(384) / 384)
    out = _kernels.local_autocorr(env, window)
    assert out.shape == (384, 100)
    frames = np.random.default_rng(3).standard_normal((5, 1024))
    cmnd = _kernels.yin_cmnd(frames, 512, 320)
    assert cmnd.shape == (5, 321)
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


def test_f0_trough_search_matches_oracle_on_crafted_cmnd(monkeypatch):
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
    monkeypatch.setattr(_kernels, "yin_cmnd", lambda frames, win, tau_max: cmnd)
    f0 = F.f0_contour(mono_buffer(np.zeros(299 * oracles.HOP)))
    expected = [oracles.yin_trough_f0(row, tau_min, tau_max) for row in cmnd]
    np.testing.assert_array_equal(f0, expected)
    assert f0[1] == 0.0 and f0[2] == oracles.SR / tau_max


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_local_autocorr_matches_oracle_across_block_edges(rows):
    window = F.hann_window(384)
    env = _onset_test_envelope(rows)
    out = _kernels.local_autocorr(env, window)
    np.testing.assert_allclose(out, oracles.tempogram(env), rtol=0.0, atol=1e-12)
    assert np.all(_kernels.local_autocorr(np.zeros(rows), window) == 0.0)
    if rows > 20 + 384 // 2:
        assert np.all(out[:, 20 + 384 // 2 :] == 0.0)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_kernels_independent_of_block_size(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    frames = rng.standard_normal((rows, 1024))
    frames[::3] = 0.0
    window = F.hann_window(384)
    env = _onset_test_envelope(rows)
    blocked = (_kernels.yin_cmnd(frames, 512, 320), _kernels.local_autocorr(env, window))
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", rows + 1)
    whole = (_kernels.yin_cmnd(frames, 512, 320), _kernels.local_autocorr(env, window))
    np.testing.assert_array_equal(blocked[0], whole[0])
    np.testing.assert_array_equal(blocked[1], whole[1])
    assert np.all(blocked[0][::3] == 1.0)
