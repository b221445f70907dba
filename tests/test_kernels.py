"""Parity between the numba kernels and their pure-numpy fallbacks."""

import subprocess
import sys

import numpy as np
import pytest

from cloneval import _kernels

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
