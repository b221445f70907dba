#!/usr/bin/env python3
"""Benchmark the hot kernels; the tempogram also against its numba twin.

YIN and the resampler have a single numpy implementation, so their numba
column reads n/a.

Run from the repository root:

    python benchmarks/bench_kernels.py [--audio-seconds N] [--repeats N]

Sizes mimic one file of mono 16 kHz audio going through the pipeline. The
numba column includes a warm-up call so JIT compilation is not timed.
"""

import argparse
import time

import numpy as np

from cloneval import _kernels
from cloneval.audio_io import _design_lowpass

SR = 16000
N_FFT = 1024
HOP = 256


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench(name, numpy_fn, numba_fn, repeats):
    t_numpy = timeit(numpy_fn, repeats)
    if numba_fn is None:
        print(f"{name:<22} numpy {t_numpy * 1e3:8.2f} ms   numba      n/a")
        return
    numba_fn()  # warm-up: compile outside the timed region
    t_numba = timeit(numba_fn, repeats)
    speedup = t_numpy / t_numba if t_numba > 0 else float("inf")
    print(
        f"{name:<22} numpy {t_numpy * 1e3:8.2f} ms   numba {t_numba * 1e3:8.2f} ms"
        f"   speedup {speedup:5.1f}x"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--audio-seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    n_samples = int(args.audio_seconds * SR)
    n_frames = 1 + n_samples // HOP

    print(f"simulating {args.audio_seconds:.0f} s of 16 kHz audio "
          f"({n_frames} frames), best of {args.repeats}")
    if not _kernels.HAVE_NUMBA:
        print("numba not installed; numpy fallback only")

    padded = np.pad(rng.standard_normal(n_samples), N_FFT // 2, mode="reflect")
    bench(
        "yin_cmnd",
        lambda: _kernels.yin_cmnd(padded, n_frames, HOP, N_FFT // 2, 320),
        None,
        args.repeats,
    )

    env = np.abs(rng.standard_normal(n_frames))
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(384) / 384)
    bench(
        "tempogram_autocorr",
        lambda: _kernels._local_autocorr_numpy(env, window),
        (lambda: _kernels._local_autocorr_numba(env, window))
        if _kernels.HAVE_NUMBA else None,
        args.repeats,
    )

    x48 = rng.standard_normal(3 * n_samples)  # 48 kHz capture of the same duration
    up, down = 1, 3
    h = _design_lowpass(up, down)
    pad = 64 + 2
    padded = np.zeros(len(x48) + 2 * pad)
    padded[pad:pad + len(x48)] = x48
    n_out = -(-len(x48) * up) // down
    bench(
        "resample_48k_to_16k",
        lambda: _kernels.polyphase_resample(padded, h, up, down, n_out, 64, pad),
        None,
        args.repeats,
    )


if __name__ == "__main__":
    main()
