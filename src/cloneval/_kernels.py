"""Hot numeric inner loops.

The polyphase resampler is pure numpy and has one implementation. The YIN
and tempogram kernels each have two: a numba ``@njit`` version and a pure
numpy fallback that leans on FFT identities. The numba path is used when
numba imports successfully and CLONEVAL_DISABLE_NUMBA is not set to
1/true/yes; the fallback is selected otherwise. Both paths compute the same
quantities and agree to floating-point round-off, but are not guaranteed
bit-identical to each other.

The numpy YIN and tempogram kernels work on blocks of at most
``_BLOCK_ROWS`` frames, so their FFT temporaries stay a few MB whatever the
clip length, and write each block into one preallocated output. The rows
are split into ``count = ceil(n / _BLOCK_ROWS)`` balanced blocks with edges
at ``n * k // count``. numpy's batched FFT can round a lone row differently
from the same row in a larger batch (a 1-ulp drift), so an unbalanced split
such as 128 + 1 rows would change results; balanced blocks are never that
small and give the same bits as one unblocked batch.
"""

import os

import numpy as np


def numba_disabled_by_env() -> bool:
    return os.environ.get("CLONEVAL_DISABLE_NUMBA", "").strip().lower() in {"1", "true", "yes"}


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and not numba_disabled_by_env()


_BLOCK_ROWS = 128


def _row_blocks(n):
    """Balanced ``(start, stop)`` row ranges of at most ``_BLOCK_ROWS`` rows."""
    count = -(-n // _BLOCK_ROWS)
    edges = [n * k // count for k in range(count + 1)] if count else []
    return zip(edges[:-1], edges[1:])


def _yin_cmnd_numpy(frames, win, tau_max):
    n_frames, frame_len = frames.shape
    lags = tau_max + 1
    taus = np.arange(lags)
    out = np.ones((n_frames, lags))
    prefix = np.zeros((min(n_frames, _BLOCK_ROWS), frame_len + 1))
    for start, stop in _row_blocks(n_frames):
        block = frames[start:stop]
        spec = np.fft.rfft(block, n=frame_len, axis=1)
        head_spec = np.fft.rfft(block[:, :win], n=frame_len, axis=1)
        corr = np.fft.irfft(np.conj(head_spec) * spec, n=frame_len, axis=1)[:, :lags]

        pre = prefix[: stop - start]
        np.cumsum(block * block, axis=1, out=pre[:, 1:])
        tail_energy = pre[:, win : win + lags] - pre[:, :lags]
        head_energy = tail_energy[:, :1]

        diff = np.maximum(head_energy + tail_energy - 2.0 * corr, 0.0)
        diff[:, 0] = 0.0

        running = np.cumsum(diff[:, 1:], axis=1)
        np.divide(diff[:, 1:] * taus[1:], running, out=out[start:stop, 1:], where=running > 0.0)
    return out


def _local_autocorr_numpy(env, window):
    win_length = len(window)
    half = win_length // 2
    n = len(env)
    padded = np.zeros(n + 2 * half)
    padded[half : half + n] = env
    windows = np.lib.stride_tricks.sliding_window_view(padded, win_length)

    n_fft = 1 << (2 * win_length - 1).bit_length()
    out = np.zeros((win_length, n))
    for start, stop in _row_blocks(n):
        segments = windows[start:stop] * window
        spec = np.fft.rfft(segments, n=n_fft, axis=1)
        corr = np.fft.irfft(spec * np.conj(spec), n=n_fft, axis=1)[:, :win_length]
        lag0 = corr[:, :1]
        np.divide(corr, lag0, out=out[:, start:stop].T, where=lag0 > 0.0)
    return out


if HAVE_NUMBA:

    # fastmath lets LLVM vectorize the accumulation loops; the reassociated
    # sums differ from the numpy path only at the last few ulps
    @njit(cache=True, fastmath=True)
    def _yin_cmnd_numba(frames, win, tau_max):
        n_frames = frames.shape[0]
        out = np.ones((n_frames, tau_max + 1))
        diff = np.empty(tau_max + 1)
        for t in range(n_frames):
            for tau in range(tau_max + 1):
                acc = 0.0
                for i in range(win):
                    d = frames[t, i] - frames[t, i + tau]
                    acc += d * d
                diff[tau] = acc
            running = 0.0
            for tau in range(1, tau_max + 1):
                running += diff[tau]
                if running > 0.0:
                    out[t, tau] = diff[tau] * tau / running
        return out

    @njit(cache=True, fastmath=True)
    def _local_autocorr_numba(env, window):
        win_length = window.shape[0]
        half = win_length // 2
        n = env.shape[0]
        padded = np.zeros(n + 2 * half)
        padded[half : half + n] = env
        out = np.zeros((win_length, n))
        seg = np.empty(win_length)
        for t in range(n):
            for i in range(win_length):
                seg[i] = padded[t + i] * window[i]
            lag0 = 0.0
            for i in range(win_length):
                lag0 += seg[i] * seg[i]
            if lag0 <= 0.0:
                continue
            out[0, t] = 1.0
            for lag in range(1, win_length):
                acc = 0.0
                for i in range(win_length - lag):
                    acc += seg[i] * seg[i + lag]
                out[lag, t] = acc / lag0
        return out


def polyphase_resample(xp, h, up, down, n_out, taps_per_phase, pad):
    """Apply a polyphase FIR to zero-padded input ``xp``; returns ``n_out`` samples.

    Output ``n`` is ``sum_k h[p + k*up] * xp[q - k + pad]`` over
    ``k = 0..taps_per_phase`` with ``p + k*up < len(h)``, where ``p, q`` are
    the remainder and quotient of ``n*down + center`` by ``up``.
    Every output ``n = m*up + r`` uses the same phase ``p``, and its input
    window starts ``down`` samples after that of ``n - up``. So each branch
    ``out[r::up]`` is a stride-``down`` run of input windows times one
    reversed tap vector (Crochiere & Rabiner, Multirate Digital Signal
    Processing, 1983).
    """
    width = taps_per_phase + 1
    center = (len(h) - 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(xp, width)
    out = np.empty(n_out)
    for r in range(min(up, n_out)):
        s = r * down + center
        taps = np.zeros(width)
        branch = h[s % up :: up][:width]
        taps[: len(branch)] = branch
        first = s // up + pad - taps_per_phase
        last = first + (len(range(r, n_out, up)) - 1) * down
        out[r::up] = windows[first : last + 1 : down] @ taps[::-1]
    return out


def yin_cmnd(frames, win, tau_max):
    """Cumulative-mean-normalized difference per frame, lags 0..tau_max."""
    if USE_NUMBA:
        return _yin_cmnd_numba(frames, win, tau_max)
    return _yin_cmnd_numpy(frames, win, tau_max)


def local_autocorr(env, window):
    """Lag-normalized windowed local autocorrelation, shape (win_length, len(env))."""
    if USE_NUMBA:
        return _local_autocorr_numba(env, window)
    return _local_autocorr_numpy(env, window)
