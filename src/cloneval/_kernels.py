"""Hot numeric inner loops.

Each kernel has one implementation, in numpy: the polyphase resampler, the
YIN difference function and the tempogram's local autocorrelation.

The YIN and tempogram kernels work on blocks of at most ``_BLOCK_ROWS``
frames, so their FFT temporaries stay a few MB whatever the clip length.
They fill no whole-clip output: each block of rows goes, as soon as it is
computed, to a ``reduce(start, stop, rows)`` callable that the caller
supplies, in one buffer that the next block overwrites. The rows are split
into ``count = ceil(n / _BLOCK_ROWS)`` balanced blocks with edges at
``n * k // count``. numpy's batched FFT can round a lone row differently
from the same row in a larger batch (a 1-ulp drift), so an unbalanced split
such as 128 + 1 rows would change results; balanced blocks are never that
small and give the same bits as one unblocked batch. Each FFT is only as
long as its correlation needs, rounded up by ``_fft_size``.
"""

import numpy as np

# One kernel path; pipebench/evaluate.py records this flag in its BENCH files.
USE_NUMBA = False


_BLOCK_ROWS = 128


def _row_blocks(n):
    """Balanced ``(start, stop)`` row ranges of at most ``_BLOCK_ROWS`` rows."""
    count = -(-n // _BLOCK_ROWS)
    edges = [n * k // count for k in range(count + 1)] if count else []
    return zip(edges[:-1], edges[1:])


def _frame_sums(rows, n_frames, per_frame):
    """Row ``t`` of the result adds ``rows[t : t + per_frame]``.

    A frame made of ``per_frame`` consecutive chunks, one chunk after the
    previous frame, sums its chunks' rows; ``rows`` holds one per chunk.
    """
    total = rows[:n_frames]
    for k in range(1, per_frame):
        total = total + rows[k : k + n_frames]
    return total


def _fft_size(n):
    """Smallest ``2**a``, ``3 * 2**a`` or ``9 * 2**a`` at or above ``n``.

    numpy's pocketfft spends more per sample on a radix-3 pass than on a
    radix-4 one, so sizes with three or more factors of 3 (486, 864) are no
    faster than the next power of two, while 576 and 768 are 40% and 25%
    cheaper than 1024.
    """
    return min(k << max(-(-n // k) - 1, 0).bit_length() for k in (1, 3, 9))


def local_autocorr(env, window, reduce):
    """Lag-normalized windowed local autocorrelation of ``env``.

    Calls ``reduce(start, stop, rows)`` once per block, where row ``i`` of
    the ``(stop - start, len(window))`` array is frame ``start + i``: its
    autocorrelation over lags ``0..len(window) - 1`` divided by the lag-0
    value, or all zeros where the window holds no energy.
    """
    win_length = len(window)
    half = win_length // 2
    n = len(env)
    padded = np.zeros(n + 2 * half)
    padded[half : half + n] = env
    windows = np.lib.stride_tricks.sliding_window_view(padded, win_length)

    n_fft = _fft_size(2 * win_length - 1)
    block = np.empty((min(n, _BLOCK_ROWS), win_length))
    for start, stop in _row_blocks(n):
        segments = windows[start:stop] * window
        spec = np.fft.rfft(segments, n=n_fft, axis=1)
        corr = np.fft.irfft(spec * np.conj(spec), n=n_fft, axis=1)[:, :win_length]
        lag0 = corr[:, :1]
        rows = block[: stop - start]
        rows.fill(0.0)
        np.divide(corr, lag0, out=rows, where=lag0 > 0.0)
        reduce(start, stop, rows)


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


def yin_cmnd(padded, n_frames, hop, win, tau_max, reduce):
    """Cumulative-mean-normalized difference per frame, lags 0..tau_max.

    Calls ``reduce(start, stop, rows)`` once per block, where row ``i`` of
    the ``(stop - start, tau_max + 1)`` array holds frame ``start + i``.

    Frame ``t`` compares its head ``padded[t*hop : t*hop + win]`` with the
    head shifted by each lag: ``d(tau) = e(0) + e(tau) - 2 r(tau)``, where
    ``r`` correlates the head with the shifted span and ``e`` is the shifted
    span's energy (de Cheveigne & Kawahara, JASA 2002, eq. 7).

    Both sums run over the head's samples, so they split into chunks. The
    kernel serves one geometry, ``win % hop == 0``: a head is ``win / hop``
    consecutive ``hop``-sample chunks, shared with the neighbouring frames.
    Each chunk's correlation (one FFT of ``n_fft = _fft_size(hop + tau_max)``
    samples) and energy (its own prefix sums, so silence reads exactly 0) is
    computed once, and a frame adds up its chunks' rows. The last chunk's
    transform reads ``n_fft - hop`` samples past the last head, so
    ``padded`` must hold them. Frames are processed in ``_row_blocks``.
    """
    lags = tau_max + 1
    per_frame = win // hop
    seg_len = hop + tau_max
    n_fft = _fft_size(seg_len)
    # Each chunk's spectrum is taken over n_fft signal samples rather than
    # seg_len zero-padded ones: samples past seg_len reach no lag <= tau_max,
    # and a row that needs no padding transforms faster.
    segments = np.lib.stride_tricks.sliding_window_view(padded, n_fft)[::hop]
    taus = np.arange(lags)
    block = np.empty((min(n_frames, _BLOCK_ROWS), lags))
    prefix = np.zeros((min(n_frames, _BLOCK_ROWS) + per_frame - 1, seg_len + 1))
    for start, stop in _row_blocks(n_frames):
        seg = segments[start : stop + per_frame - 1]
        spec = np.fft.rfft(seg, n=n_fft, axis=1)
        head_spec = np.fft.rfft(seg[:, :hop], n=n_fft, axis=1)
        corr = np.fft.irfft(np.conj(head_spec) * spec, n=n_fft, axis=1)[:, :lags]

        pre = prefix[: len(seg)]
        tail = seg[:, :seg_len]
        np.cumsum(tail * tail, axis=1, out=pre[:, 1:])
        energy = pre[:, hop : hop + lags] - pre[:, :lags]

        r = _frame_sums(corr, stop - start, per_frame)
        e = _frame_sums(energy, stop - start, per_frame)

        diff = np.maximum(e[:, :1] + e - 2.0 * r, 0.0)
        diff[:, 0] = 0.0

        running = np.cumsum(diff[:, 1:], axis=1)
        rows = block[: stop - start]
        rows.fill(1.0)
        np.divide(diff[:, 1:] * taus[1:], running, out=rows[:, 1:], where=running > 0.0)
        reduce(start, stop, rows)
