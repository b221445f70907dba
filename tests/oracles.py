"""Independent reference implementations used to cross-check the package.

Everything here is written from the mathematical definitions with naive
numerics: explicit matmul DFTs instead of FFTs, per-lag loops instead of
vectorized correlation, index-mirroring formulas instead of np.pad. Nothing
is imported from the cloneval package, so agreement between the two is a
meaningful check rather than a tautology.
"""

import math

import numpy as np

SR = 16000
N_FFT = 1024
HOP = 256


def reflect_index(i, n):
    """Mirror an out-of-range index into [0, n) without repeating edges."""
    period = 2 * n - 2
    j = i % period
    if j >= n:
        j = period - j
    return j


def frames_centered(x, frame_len, hop):
    """Centered frames with reflected edges, one frame per hop."""
    n = len(x)
    half = frame_len // 2
    count = 1 + n // hop
    out = np.empty((count, frame_len))
    for t in range(count):
        start = t * hop - half
        for k in range(frame_len):
            out[t, k] = x[reflect_index(start + k, n)]
    return out


def hann_window(n):
    i = np.arange(n, dtype=float)
    return np.sin(np.pi * i / n) ** 2


def dft_onesided(frame):
    """One-sided DFT magnitudes via an explicit complex-exponential matmul."""
    n = len(frame)
    bins = n // 2 + 1
    k = np.arange(bins)[:, None]
    t = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * t / n)
    return np.abs(basis @ frame)


def stft_mag(x, n_fft=N_FFT, hop=HOP):
    frames = frames_centered(x, n_fft, hop)
    w = hann_window(n_fft)
    cols = [dft_onesided(frames[t] * w) for t in range(frames.shape[0])]
    return np.stack(cols, axis=1)


def bin_frequencies(n_fft=N_FFT, sr=SR):
    return np.arange(n_fft // 2 + 1) * sr / n_fft


# Mel scale (Slaney variant: linear below 1 kHz, log above).

def hz_to_mel(f):
    if f < 1000.0:
        return 3.0 * f / 200.0
    return 15.0 + math.log(f / 1000.0) / (math.log(6.4) / 27.0)


def mel_to_hz(m):
    if m < 15.0:
        return 200.0 * m / 3.0
    return 1000.0 * math.exp((m - 15.0) * math.log(6.4) / 27.0)


def mel_filter_weights(n_mels=128, fmin=0.0, fmax=8000.0, n_fft=N_FFT, sr=SR):
    edges = [mel_to_hz(hz_to_mel(fmin) + (hz_to_mel(fmax) - hz_to_mel(fmin)) * j / (n_mels + 1))
             for j in range(n_mels + 2)]
    freqs = bin_frequencies(n_fft, sr)
    weights = np.zeros((n_mels, len(freqs)))
    for m in range(n_mels):
        lo, ce, hi = edges[m], edges[m + 1], edges[m + 2]
        for b, f in enumerate(freqs):
            if lo < f < ce:
                w = (f - lo) / (ce - lo)
            elif ce <= f < hi and f > lo:
                w = (hi - f) / (hi - ce)
            elif f == ce:
                w = 1.0
            else:
                w = 0.0
            weights[m, b] = w * 2.0 / (hi - lo)
    return weights


def mel_centers(n_mels=128, fmin=0.0, fmax=8000.0):
    return np.array([
        mel_to_hz(hz_to_mel(fmin) + (hz_to_mel(fmax) - hz_to_mel(fmin)) * (m + 1) / (n_mels + 1))
        for m in range(n_mels)
    ])


def mel_spectrogram(x, n_mels=128):
    mag = stft_mag(x)
    return mel_filter_weights(n_mels) @ (mag ** 2)


def rms_envelope(x, frame_len=N_FFT, hop=HOP):
    frames = frames_centered(x, frame_len, hop)
    return np.array([math.sqrt(np.mean(frames[t] ** 2)) for t in range(frames.shape[0])])


def spectral_centroid(mag, sr=SR, n_fft=N_FFT):
    freqs = bin_frequencies(n_fft, sr)
    out = np.zeros(mag.shape[1])
    for t in range(mag.shape[1]):
        total = math.fsum(mag[:, t])
        if total > 0.0:
            out[t] = math.fsum(freqs * mag[:, t]) / total
    return out


def spectral_flatness(power, eps=1e-10):
    out = np.zeros(power.shape[1])
    for t in range(power.shape[1]):
        p = power[:, t] + eps
        gm = math.exp(math.fsum(np.log(p)) / len(p))
        out[t] = gm / (math.fsum(p) / len(p))
    return out


def spectral_rolloff(mag, fraction=0.85, sr=SR, n_fft=N_FFT):
    freqs = bin_frequencies(n_fft, sr)
    out = np.zeros(mag.shape[1])
    for t in range(mag.shape[1]):
        total = math.fsum(mag[:, t])
        if total <= 0.0:
            continue
        acc = 0.0
        for b in range(mag.shape[0]):
            acc += mag[b, t]
            if acc >= fraction * total:
                out[t] = freqs[b]
                break
    return out


def yin_f0(x, fmin=50.0, fmax=500.0, frame_len=N_FFT, hop=HOP,
           threshold=0.1, sr=SR):
    frames = frames_centered(x, frame_len, hop)
    win = frame_len // 2
    tau_min = int(math.ceil(sr / fmax))
    tau_max = int(sr // fmin)
    out = np.zeros(frames.shape[0])
    for t in range(frames.shape[0]):
        f = frames[t]
        d = np.empty(tau_max + 1)
        for tau in range(tau_max + 1):
            diff = f[:win] - f[tau:tau + win]
            d[tau] = np.dot(diff, diff)
        cmnd = np.ones(tau_max + 1)
        running = 0.0
        for tau in range(1, tau_max + 1):
            running += d[tau]
            cmnd[tau] = d[tau] * tau / running if running > 0.0 else 1.0
        out[t] = yin_trough_f0(cmnd, tau_min, tau_max, threshold, sr)
    return out


def yin_trough_f0(cmnd, tau_min, tau_max, threshold=0.1, sr=SR):
    """f0 from one CMND row: first sub-threshold trough, parabolic refinement; 0 if none."""
    tau_est = 0
    for tau in range(tau_min, tau_max + 1):
        if cmnd[tau] < threshold:
            while tau + 1 <= tau_max and cmnd[tau + 1] < cmnd[tau]:
                tau += 1
            tau_est = tau
            break
    if tau_est == 0:
        return 0.0
    tau_f = float(tau_est)
    if 0 < tau_est < tau_max:
        a, b, c = cmnd[tau_est - 1], cmnd[tau_est], cmnd[tau_est + 1]
        den = a - 2.0 * b + c
        if den != 0.0:
            shift = 0.5 * (a - c) / den
            if abs(shift) < 1.0:
                tau_f += shift
    return sr / tau_f


def onset_strength(mel_power):
    bands, t_count = mel_power.shape
    out = np.zeros(t_count)
    for t in range(1, t_count):
        acc = 0.0
        for b in range(bands):
            diff = math.log1p(mel_power[b, t]) - math.log1p(mel_power[b, t - 1])
            if diff > 0.0:
                acc += diff
        out[t] = acc / bands
    return out


def tempogram(env, win_length=384):
    n = len(env)
    half = win_length // 2
    padded = np.zeros(n + 2 * half)
    padded[half:half + n] = env
    w = hann_window(win_length)
    out = np.zeros((win_length, n))
    for t in range(n):
        seg = padded[t:t + win_length] * w
        r0 = np.dot(seg, seg)
        if r0 <= 0.0:
            continue
        for lag in range(win_length):
            out[lag, t] = np.dot(seg[:win_length - lag], seg[lag:]) / r0
    return out


def chroma_weights(n_fft=N_FFT, sr=SR, n_chroma=12, a4=440.0, sigma=1.0):
    """Gaussian pitch-class projection of STFT bin center frequencies."""
    c_ref = a4 * 2.0 ** (-9.0 / 12.0)  # C4 relative to A4
    freqs = bin_frequencies(n_fft, sr)
    weights = np.zeros((n_chroma, len(freqs)))
    for b, f in enumerate(freqs):
        if f <= 0.0:
            continue
        pos = 12.0 * math.log2(f / c_ref)
        for c in range(n_chroma):
            d = (pos - c) % 12.0
            if d > 6.0:
                d -= 12.0
            weights[c, b] = math.exp(-0.5 * (d / sigma) ** 2)
    return weights


def chroma_stft(x):
    mag = stft_mag(x)
    return chroma_weights() @ (mag ** 2)


def cqt_center_frequencies(n_bins=84, bins_per_octave=12, fmin=32.703):
    return np.array([fmin * 2.0 ** (k / bins_per_octave) for k in range(n_bins)])


def pcqt_weights(n_bins=84, bins_per_octave=12, fmin=32.703, n_fft=N_FFT, sr=SR):
    centers = cqt_center_frequencies(n_bins + 2, bins_per_octave, fmin / 2.0 ** (1.0 / bins_per_octave))
    freqs = bin_frequencies(n_fft, sr)
    weights = np.zeros((n_bins, len(freqs)))
    for k in range(n_bins):
        lo, ce, hi = centers[k], centers[k + 1], centers[k + 2]
        for b, f in enumerate(freqs):
            if lo < f < ce:
                weights[k, b] = (f - lo) / (ce - lo)
            elif ce <= f < hi and f > lo:
                weights[k, b] = (hi - f) / (hi - ce)
            elif f == ce:
                weights[k, b] = 1.0
    return weights


def pseudo_cqt(x):
    mag = stft_mag(x)
    return pcqt_weights() @ (mag ** 2)


def chroma_from_cqt(pcqt):
    n_bins, t_count = pcqt.shape
    out = np.zeros((12, t_count))
    for k in range(n_bins):
        out[k % 12] += pcqt[k]
    return out


def summarize_matrix(raw):
    rows, cols = raw.shape
    out = np.empty(rows)
    for r in range(rows):
        out[r] = math.fsum(raw[r]) / cols
    return out


def summarize_scalar(raw, length=256):
    n = len(raw)
    if n == 1:
        return np.full(length, raw[0])
    out = np.empty(length)
    for j in range(length):
        pos = j * (n - 1) / (length - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out[j] = raw[lo] * (1.0 - frac) + raw[hi] * frac
    return out


def summarize_any(feature_id, raw):
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 2:
        return summarize_matrix(raw)
    return summarize_scalar(raw)


def kaiser_window(n, beta):
    """Kaiser window from its Bessel-I0 definition."""
    i = np.arange(n, dtype=float)
    ratio = 2.0 * i / (n - 1) - 1.0
    return np.i0(beta * np.sqrt(1.0 - ratio * ratio)) / np.i0(beta)


def polyphase_resample_reference(x, up, down, taps_per_phase=64, beta=8.6):
    """Resample by up/down as a plain FIR over the zero-stuffed input.

    ``y[n] = sum_j h[j] * x_up[n*down + center - j]``, where ``x_up`` holds
    ``x[i]`` at index ``i*up`` and zeros elsewhere, and ``h`` is a
    Kaiser-windowed sinc with cutoff ``1/max(up, down)`` and gain ``up``.
    The output holds ``ceil(len(x)*up/down)`` samples. The sum visits only
    the stuffed indices ``i*up`` that ``h`` reaches, one input sample each.
    """
    n_taps = taps_per_phase * up + 1
    center = (n_taps - 1) // 2
    cutoff = 1.0 / max(up, down)
    w = kaiser_window(n_taps, beta)
    h = np.empty(n_taps)
    for j in range(n_taps):
        arg = math.pi * cutoff * (j - center)
        h[j] = up * cutoff * w[j] * (1.0 if arg == 0.0 else math.sin(arg) / arg)

    n_out = -(-(len(x) * up) // down)
    y = np.zeros(n_out)
    for n in range(n_out):
        s = n * down + center
        acc = 0.0
        for i in range(max(0, -(-(s - n_taps + 1) // up)), min(len(x) - 1, s // up) + 1):
            acc += h[s - i * up] * x[i]
        y[n] = acc
    return y


def dft_peak_hz(y, n=2048, sr=SR):
    """Frequency of the largest one-sided DFT bin of the first n samples."""
    seg = np.asarray(y[:n], dtype=float)
    if len(seg) < n:
        seg = np.concatenate([seg, np.zeros(n - len(seg))])
    mag = dft_onesided(seg)
    return int(np.argmax(mag)) * sr / n


def cosine(u, v):
    num = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    if nu == 0.0 and nv == 0.0:
        return 1.0
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, num / (nu * nv)))


def rel_l2_error(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / denom)
