"""Hot numeric inner loops.

Each kernel has one implementation, in numpy: the polyphase resampler, the
YIN difference function and the tempogram's local autocorrelation.

The YIN and tempogram kernels compute one block of frames per call and
return its rows; the caller, ``cloneval.features``, walks the blocks and
decides their size. YIN's rows are finished CMND values. The tempogram's
rows are lag-normalized power spectra, one inverse FFT short of
autocorrelations; the inverse is linear, so a caller that needs only their
time mean inverts their sum once. Each FFT is only as long as its
correlation needs, rounded up by ``_fft_size``, and its zero padding is
written into the block's own buffer.
"""

from typing import NamedTuple

import numpy as np

# One kernel path; pipebench/evaluate.py records this flag in its BENCH files.
USE_NUMBA = False


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


def local_autocorr(segments, window):
    """Lag-normalized power spectra of the windowed rows of ``segments``.

    Row ``i`` of the ``(len(segments), n_fft // 2 + 1)`` result is
    ``|rfft(window * segments[i], n_fft)|**2`` with ``n_fft =
    _fft_size(2 * len(window) - 1)``, divided by the windowed row's lag-0
    energy (its direct sum of squares), or all zeros where the window holds
    no energy. The first ``len(window)`` values of a row's ``irfft`` are the
    segment's autocorrelation over lags ``0..len(window) - 1`` divided by
    its lag-0 value.
    """
    count, win_length = segments.shape
    n_fft = _fft_size(2 * win_length - 1)
    padded = np.empty((count, n_fft))
    seg = padded[:, :win_length]
    np.multiply(segments, window, out=seg)
    padded[:, win_length:] = 0.0
    lag0 = np.einsum("ij,ij->i", seg, seg)
    spec = np.fft.rfft(padded, axis=1)
    rows = np.multiply(spec.real, spec.real)
    rows += spec.imag * spec.imag
    # a silent segment's spectrum is exactly zero, so dividing it by 1 keeps it so
    rows /= np.where(lag0 > 0.0, lag0, 1.0)[:, None]
    return rows


_GROUP = 32  # outputs per tap matrix, at most
# Input samples per window, at most. OpenBLAS splits a product's inner
# dimension into blocks above its GEMM_Q (256 or 384 on x86 cores), and
# then the block order, and with it the bits, can depend on the thread count.
_MAX_SPAN = 256
_WINDOW_BLOCK = 1 << 15  # input-window doubles copied per matrix product


class ResamplePlan(NamedTuple):
    """Tap matrices that resample by ``up/down``, built by ``resample_plan``.

    Output ``m * outputs + first + j`` is row ``m`` of the input windows
    ``x[start + m*step : start + m*step + span]`` times column ``j`` of
    ``taps``, for each ``(first, start, taps)`` in ``groups``.
    """

    outputs: int
    step: int
    groups: tuple


def resample_plan(h, up, down, taps_per_phase):
    """Group the polyphase FIR ``h`` into read-only ``(span, group)`` tap matrices.

    Output ``n`` is ``sum_k h[p + k*up] * x[q - k]`` over
    ``k = 0..taps_per_phase`` with ``p + k*up < len(h)``, where ``p, q`` are
    the remainder and quotient of ``n*down + center`` by ``up``. Output
    ``n + up`` uses the same taps as ``n`` on a window ``down`` samples later
    (Crochiere & Rabiner, Multirate Digital Signal Processing, 1983). So one
    period of ``up`` outputs, or ``ceil(group / up)`` periods when ``up`` is
    small, repeats every ``step`` input samples. It is split into groups of
    at most ``group`` consecutive outputs: ``_GROUP``, or fewer when the
    window they span, about ``group * down / up + taps_per_phase`` samples,
    would exceed ``_MAX_SPAN``. A group's matrix holds, in column ``j``,
    output ``j``'s reversed taps at that output's offset in the window. The
    plan holds about ``up * (group * down / up + taps_per_phase)`` doubles,
    never a dense ``up x down`` matrix.
    """
    group = min(_GROUP, (_MAX_SPAN - taps_per_phase - 1) * up // down + 1)
    periods = -(-group // up)
    outputs = periods * up
    count = -(-outputs // group)
    edges = [outputs * k // count for k in range(count + 1)]
    center = (len(h) - 1) // 2
    k = np.arange(taps_per_phase + 1)[:, None]
    groups = []
    for first, stop in zip(edges[:-1], edges[1:]):
        q, p = np.divmod(np.arange(first, stop) * down + center, up)
        phases = p + k * up
        values = np.where(phases < len(h), h[np.minimum(phases, len(h) - 1)], 0.0)
        taps = np.zeros((q[-1] - q[0] + taps_per_phase + 1, stop - first))
        taps[q - q[0] + taps_per_phase - k, np.arange(stop - first)] = values
        taps.flags.writeable = False
        groups.append((first, int(q[0]) - taps_per_phase, taps))
    return ResamplePlan(outputs, periods * down, tuple(groups))


def _windows(x, start, rows, step, span):
    """``(rows, span)`` view of ``x[start + i*step :][:span]``, zeros outside ``x``.

    Windows that reach past an end of ``x`` are read from a zero-padded copy
    of just the samples they cover.
    """
    length = (rows - 1) * step + span
    if start < 0 or start + length > len(x):
        segment = np.zeros(length)
        lo, hi = max(start, 0), min(start + length, len(x))
        if hi > lo:
            segment[lo - start : hi - start] = x[lo:hi]
        x, start = segment, 0
    return np.lib.stride_tricks.as_strided(
        x[start:], (rows, span), (step * x.itemsize, x.itemsize), writeable=False)


def polyphase_resample(x, plan, n_out):
    """Resample the contiguous float64 signal ``x`` by ``plan``; returns ``n_out`` samples.

    Each group's windows, every ``plan.step`` samples, are copied contiguous
    in blocks of about ``_WINDOW_BLOCK`` doubles and multiplied by the
    group's tap matrix. Every output is the same sum of its taps as a direct FIR
    over ``x`` with zeros beyond its ends. Windows that cross an end are
    taken in their own products, so no padded copy of ``x`` is made.
    """
    outputs, step, groups = plan
    rows = -(-n_out // outputs)
    out = np.empty((rows, outputs))
    widest = max(taps.shape[0] for _, _, taps in groups)
    block = max(1, _WINDOW_BLOCK // widest)
    buf = np.empty((min(block, rows), widest))
    for first, start, taps in groups:
        span, width = taps.shape
        # rows lo..hi-1 lie inside x; the few rows before and after them
        # go in products of their own, so only they take a padded copy
        lo = min(rows, -(-max(0, -start) // step))
        hi = max(lo, min(rows, (len(x) - span - start) // step + 1))
        for begin, end in ((0, lo), (lo, hi), (hi, rows)):
            for r0 in range(begin, end, block):
                r1 = min(r0 + block, end)
                windows = buf[: r1 - r0, :span]
                np.copyto(windows, _windows(x, start + r0 * step, r1 - r0, step, span))
                np.matmul(windows, taps, out=out[r0:r1, first : first + width])
    return out.reshape(-1)[:n_out]


def yin_cmnd(padded, start, stop, hop, win, tau_max):
    """Cumulative-mean-normalized difference of frames ``start..stop - 1``, lags 0..tau_max.

    Row ``i`` of the ``(stop - start, tau_max + 1)`` result holds frame
    ``start + i``.

    Frame ``t`` compares its head ``padded[t*hop : t*hop + win]`` with the
    head shifted by each lag: ``d(tau) = e(0) + e(tau) - 2 r(tau)``, where
    ``r`` correlates the head with the shifted span and ``e`` is the shifted
    span's energy (de Cheveigne & Kawahara, JASA 2002, eq. 7).

    Both sums run over the head's samples. The kernel serves one geometry,
    ``win % hop == 0``: a head is ``win / hop`` consecutive ``hop``-sample
    chunks, shared with the neighbouring frames. Each chunk's correlation
    (one FFT of ``n_fft = _fft_size(hop + tau_max)`` samples) is computed
    once, and a frame adds up its chunks' rows. The energies come from one
    running sum of squares per chunk, starting at its first sample: a span
    that starts ``r`` samples into a chunk is the chunk's total minus its
    first ``r`` squares, the next ``win / hop - 1`` totals, and the first
    ``r`` squares of the chunk after them. So no frame's sums carry a chunk
    before its own, and silence reads exactly 0. The last chunk's transform
    reads ``n_fft - hop`` samples past the last head, so ``padded`` must hold
    them.
    """
    lags = tau_max + 1
    frames = stop - start
    per_frame = win // hop
    seg_len = hop + tau_max
    n_fft = _fft_size(seg_len)
    chunks = frames + per_frame - 1
    # Each chunk's spectrum is taken over n_fft signal samples rather than
    # seg_len zero-padded ones: samples past seg_len reach no lag <= tau_max,
    # and a row that needs no padding transforms faster.
    seg = _windows(padded, start * hop, chunks, hop, n_fft)
    head = np.empty((chunks, n_fft))  # each chunk's head, zero-padded to n_fft
    head[:, :hop] = seg[:, :hop]
    head[:, hop:] = 0.0
    spec = np.fft.rfft(seg, n=n_fft, axis=1)
    head_spec = np.fft.rfft(head, axis=1)
    corr = np.fft.irfft(np.conj(head_spec) * spec, n=n_fft, axis=1)[:, :lags]

    # Row k of `energy`: the energies of the spans that start in chunk k of
    # the block. Such a span ends in chunk k + per_frame.
    starts = frames + tau_max // hop
    squares = _windows(padded, start * hop, starts + per_frame, hop, hop) ** 2
    sums = np.empty((starts + per_frame, hop + 1))
    sums[:, 0] = 0.0
    np.cumsum(squares, axis=1, out=sums[:, 1:])
    energy = sums[per_frame:, :hop] - sums[:starts, :hop]
    energy += _frame_sums(sums[:, hop], starts, per_frame)[:, None]
    e = _windows(energy.reshape(-1), 0, frames, hop, lags)

    r = _frame_sums(corr, frames, per_frame)

    # diff = max(e(0) + e(tau) - 2 r(tau), 0)
    r *= 2.0
    diff = np.add(e[:, :1], e)
    diff -= r
    np.maximum(diff, 0.0, out=diff)
    diff[:, 0] = 0.0

    running = np.cumsum(diff[:, 1:], axis=1)
    rows = np.empty((frames, lags))
    rows[:, 0] = 1.0
    cmnd = rows[:, 1:]
    np.multiply(diff[:, 1:], np.arange(1, lags), out=cmnd)
    with np.errstate(invalid="ignore"):
        cmnd /= running
    # where the running sum is still 0 the quotient is 0/0; CMND is 1 there
    np.copyto(cmnd, 1.0, where=running == 0.0)
    return rows
