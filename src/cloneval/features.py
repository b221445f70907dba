"""Acoustic feature extraction on mono 16 kHz audio.

Ten features are computed per file and reduced to fixed-length summary
vectors so that reference and generated sides can be compared with cosine
similarity: spectral matrices are averaged over time into per-bin profiles,
per-frame scalar contours are resampled onto 256 points.

Fixed analysis parameters: 1024-sample frames, 256-sample hop, periodic Hann
window, centered frames with reflected edges. Spectral similarity is taken
on linear power values (no dB conversion).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import DimensionError, EmptyFeature, InputTooShort
from .audio_io import AudioBuffer

FEATURE_IDS = (
    "pitch",
    "mel_spectrogram",
    "rms",
    "spectral_centroid",
    "spectral_flatness",
    "spectral_rolloff",
    "tempogram",
    "chromagram",
    "pseudo_cqt",
    "chroma_cqt",
)

CONTOUR_POINTS = 256

SUMMARY_LENGTHS = {
    "pitch": CONTOUR_POINTS,
    "mel_spectrogram": 128,
    "rms": CONTOUR_POINTS,
    "spectral_centroid": CONTOUR_POINTS,
    "spectral_flatness": CONTOUR_POINTS,
    "spectral_rolloff": CONTOUR_POINTS,
    "tempogram": 384,
    "chromagram": 12,
    "pseudo_cqt": 84,
    "chroma_cqt": 12,
}

_FLATNESS_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameParams:
    n_fft: int = 1024
    hop: int = 256

    def __post_init__(self):
        if not (0 < self.hop <= self.n_fft):
            raise ValueError("need 0 < hop <= n_fft")
        if self.n_fft & (self.n_fft - 1):
            raise ValueError("n_fft must be a power of two")


@dataclass(eq=False)
class Spectrogram:
    values: np.ndarray  # (bins, frames), non-negative
    kind: str  # "magnitude" or "power"
    frame_params: FrameParams
    sample_rate: int

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def to_power(self) -> "Spectrogram":
        if self.kind == "power":
            return self
        return Spectrogram(self.values**2, "power", self.frame_params, self.sample_rate)


@dataclass(eq=False)
class FeatureSummary:
    feature_id: str
    vector: np.ndarray


def hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _reflect_pad(x: np.ndarray, frame_len: int) -> np.ndarray:
    """``x`` reflected at both ends, as centered ``frame_len`` frames see it.

    ``frame_len // 2`` samples go on the left and the rest on the right, so
    the frame centered on the last sample is complete for odd lengths too.
    """
    if len(x) < 2:
        raise InputTooShort(f"need at least 2 samples, got {len(x)}")
    return np.pad(x, (frame_len // 2, frame_len - frame_len // 2), mode="reflect")


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Centered frames with reflect padding: 1 + len(x)//hop rows."""
    padded = _reflect_pad(x, frame_len)
    windows = np.lib.stride_tricks.sliding_window_view(padded, frame_len)
    return windows[:: hop][: 1 + len(x) // hop]


def fft_frequencies(sample_rate: int, n_fft: int) -> np.ndarray:
    return np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)


def stft(buf: AudioBuffer, fp: FrameParams = FrameParams()) -> Spectrogram:
    """Magnitude STFT of a mono buffer.

    Frames are transformed in ``_row_blocks`` into one preallocated
    ``(frames, bins)`` array, so the FFT temporaries stay small; its
    transpose is the ``(bins, frames)`` spectrogram.
    """
    frames = frame_signal(np.asarray(buf.samples, dtype=np.float64), fp.n_fft, fp.hop)
    window = hann_window(fp.n_fft)
    mag = np.empty((frames.shape[0], fp.n_fft // 2 + 1))
    for start, stop in _kernels._row_blocks(frames.shape[0]):
        np.abs(np.fft.rfft(frames[start:stop] * window, axis=1), out=mag[start:stop])
    return Spectrogram(mag.T, "magnitude", fp, buf.sample_rate)


# Mel scale, Slaney variant: linear below 1 kHz, logarithmic above.

def _hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(f < 1000.0, 3.0 * f / 200.0, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / log_step)


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(m < 15.0, 200.0 * m / 3.0, 1000.0 * np.exp(log_step * (m - 15.0)))


def mel_frequencies(n_mels: int, fmin: float, fmax: float) -> np.ndarray:
    """n_mels + 2 band edge frequencies, equally spaced on the mel scale."""
    return _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))


def _triangle_bank(edges: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Overlapping triangles: filter k spans edges[k]..edges[k+2], peak 1 at edges[k+1]."""
    ramps = edges[:, None] - bin_freqs[None, :]
    rising = -ramps[:-2] / np.diff(edges)[:-1, None]
    falling = ramps[2:] / np.diff(edges)[1:, None]
    return np.maximum(0.0, np.minimum(rising, falling))


def _read_only(bank: np.ndarray) -> np.ndarray:
    bank.flags.writeable = False
    return bank


# The filterbanks depend only on their arguments, so each is built once and
# shared read-only; the public builders hand out copies.

@lru_cache(maxsize=16)
def _mel_bank(n_mels, fmin, fmax, n_fft, sample_rate):
    edges = mel_frequencies(n_mels, fmin, fmax)
    bank = _triangle_bank(edges, fft_frequencies(sample_rate, n_fft))
    bank *= (2.0 / (edges[2:] - edges[:-2]))[:, None]  # area normalization
    return _read_only(bank)


def mel_filterbank(
    n_mels: int = 128, fmin: float = 0.0, fmax: float = 8000.0,
    n_fft: int = 1024, sample_rate: int = 16000,
) -> np.ndarray:
    return _mel_bank(n_mels, fmin, fmax, n_fft, sample_rate).copy()


def _mel_from_power(power: Spectrogram, n_mels: int, fmin: float, fmax: float) -> Spectrogram:
    bank = _mel_bank(n_mels, fmin, fmax, power.frame_params.n_fft, power.sample_rate)
    return Spectrogram(bank @ power.values, "power", power.frame_params, power.sample_rate)


def mel_spectrogram(
    buf: AudioBuffer, fp: FrameParams = FrameParams(),
    n_mels: int = 128, fmin: float = 0.0, fmax: float = 8000.0,
) -> Spectrogram:
    """Mel power spectrogram: area-normalized triangular bank over the power STFT."""
    return _mel_from_power(stft(buf, fp).to_power(), n_mels, fmin, fmax)


def f0_contour(
    buf: AudioBuffer, fmin: float = 50.0, fmax: float = 500.0,
    frame_length: int = 1024, hop: int = 256, threshold: float = 0.1,
) -> np.ndarray:
    """YIN pitch track in Hz per frame; 0 marks unvoiced frames.

    Per frame the cumulative-mean-normalized difference function is searched
    for the first trough below the threshold; the trough is refined by
    parabolic interpolation. YIN: de Cheveigne & Kawahara (2002).
    """
    sr = buf.sample_rate
    x = np.asarray(buf.samples, dtype=np.float64)
    padded = _reflect_pad(x, frame_length)
    n_frames = 1 + len(x) // hop
    win = frame_length // 2
    tau_min = int(math.ceil(sr / fmax))
    tau_max = int(sr // fmin)
    if tau_max + win > frame_length:
        raise ValueError("frame_length too small for fmin")
    if tau_min > tau_max:
        raise ValueError("fmin and fmax leave no lag to search")

    cmnd = _kernels.yin_cmnd(padded, n_frames, hop, win, tau_max)

    # First lag at or above tau_min whose CMND dips below the threshold.
    below = cmnd[:, tau_min:] < threshold
    first = tau_min + np.argmax(below, axis=1)
    # Walk downhill from there: stop at the first lag >= first whose right
    # neighbour is not lower, or at tau_max.
    stop = np.ones(cmnd.shape, dtype=bool)
    np.logical_not(cmnd[:, 1:] < cmnd[:, :-1], out=stop[:, :-1])
    stop &= np.arange(tau_max + 1) >= first[:, None]
    tau = np.where(below.any(axis=1), np.argmax(stop, axis=1), 0)

    out = np.zeros(n_frames)
    voiced = tau > 0
    refined = tau.astype(np.float64)
    rows = np.flatnonzero(voiced & (tau < tau_max))
    mid = tau[rows]
    a, b, c = cmnd[rows, mid - 1], cmnd[rows, mid], cmnd[rows, mid + 1]
    denom = a - 2.0 * b + c
    curved = denom != 0.0
    shift = 0.5 * (a - c)[curved] / denom[curved]
    keep = np.abs(shift) < 1.0
    refined[rows[curved][keep]] += shift[keep]
    out[voiced] = sr / refined[voiced]
    return out


def rms_envelope(buf: AudioBuffer, fp: FrameParams = FrameParams()) -> np.ndarray:
    """Per-frame RMS of windowless centered frames.

    With ``c = gcd(n_fft, hop)`` a frame is ``n_fft / c`` consecutive
    ``c``-sample blocks, shared with the neighbouring frames; its sum of
    squares adds up those blocks' sums.
    """
    x = np.asarray(buf.samples, dtype=np.float64)
    padded = _reflect_pad(x, fp.n_fft)
    n_frames = 1 + len(x) // fp.hop
    block = math.gcd(fp.n_fft, fp.hop)
    step, per_frame = fp.hop // block, fp.n_fft // block
    n_blocks = (n_frames - 1) * step + per_frame
    used = padded[: n_blocks * block]
    sums = (used * used).reshape(n_blocks, block).sum(axis=1)
    return np.sqrt(_kernels._frame_sums(sums, n_frames, step, per_frame) / fp.n_fft)


def spectral_centroid(spec: Spectrogram) -> np.ndarray:
    """Magnitude-weighted mean frequency per frame; 0 for silent frames."""
    if spec.kind != "magnitude":
        raise ValueError("spectral_centroid expects a magnitude spectrogram")
    freqs = fft_frequencies(spec.sample_rate, spec.frame_params.n_fft)
    totals = spec.values.sum(axis=0)
    weighted = freqs @ spec.values
    return np.divide(weighted, totals, out=np.zeros_like(totals), where=totals > 0.0)


def spectral_flatness(spec: Spectrogram) -> np.ndarray:
    """Geometric over arithmetic mean of floored power bins, in [0, 1]."""
    power = spec.to_power().values + _FLATNESS_FLOOR
    gmean = np.exp(np.mean(np.log(power), axis=0))
    return gmean / np.mean(power, axis=0)


def spectral_rolloff(spec: Spectrogram, fraction: float = 0.85) -> np.ndarray:
    """Lowest frequency holding >= fraction of cumulative magnitude; 0 if silent."""
    if spec.kind != "magnitude":
        raise ValueError("spectral_rolloff expects a magnitude spectrogram")
    freqs = fft_frequencies(spec.sample_rate, spec.frame_params.n_fft)
    cum = np.cumsum(spec.values, axis=0)
    totals = cum[-1]
    out = np.zeros(spec.n_frames)
    live = totals > 0.0
    if np.any(live):
        idx = np.argmax(cum[:, live] >= fraction * totals[live], axis=0)
        out[live] = freqs[idx]
    return out


def onset_strength(mel: Spectrogram) -> np.ndarray:
    """Band-averaged positive log-energy flux of a mel power spectrogram."""
    if mel.kind != "power":
        raise ValueError("onset_strength expects a power spectrogram")
    logmel = np.log1p(mel.values)
    out = np.zeros(mel.n_frames)
    if mel.n_frames > 1:
        out[1:] = np.maximum(0.0, np.diff(logmel, axis=1)).mean(axis=0)
    return out


def tempogram(onset: np.ndarray, win_length: int = 384) -> np.ndarray:
    """Windowed local autocorrelation of the onset envelope, (win_length, frames).

    Each column is normalized by its lag-0 value; columns whose window holds
    no energy are left at zero.
    """
    env = np.ascontiguousarray(onset, dtype=np.float64)
    return _kernels.local_autocorr(env, hann_window(win_length))


@lru_cache(maxsize=16)
def _chroma_bank(n_fft, sample_rate, n_chroma, a4, sigma):
    c_ref = a4 * 2.0 ** (-9.0 / 12.0)
    freqs = fft_frequencies(sample_rate, n_fft)
    weights = np.zeros((n_chroma, len(freqs)))
    positions = 12.0 * np.log2(freqs[1:] / c_ref)
    dist = (positions[None, :] - np.arange(n_chroma)[:, None]) % 12.0
    dist = np.where(dist > 6.0, dist - 12.0, dist)
    weights[:, 1:] = np.exp(-0.5 * (dist / sigma) ** 2)
    return _read_only(weights)


def chroma_filterbank(
    n_fft: int = 1024, sample_rate: int = 16000,
    n_chroma: int = 12, a4: float = 440.0, sigma: float = 1.0,
) -> np.ndarray:
    """Gaussian pitch-class projection of STFT bin center frequencies.

    Class 0 is C; each bin contributes to every class with weight set by
    circular semitone distance. The DC bin is dropped.
    """
    return _chroma_bank(n_fft, sample_rate, n_chroma, a4, sigma).copy()


def chroma_stft(spec: Spectrogram, n_chroma: int = 12, a4: float = 440.0) -> np.ndarray:
    """Unnormalized 12-class chromagram from a power spectrogram."""
    if spec.kind != "power":
        raise ValueError("chroma_stft expects a power spectrogram")
    bank = _chroma_bank(spec.frame_params.n_fft, spec.sample_rate, n_chroma, a4, 1.0)
    return bank @ spec.values


def cqt_center_frequencies(
    n_bins: int = 84, bins_per_octave: int = 12, fmin: float = 32.703
) -> np.ndarray:
    return fmin * 2.0 ** (np.arange(n_bins) / bins_per_octave)


@lru_cache(maxsize=16)
def _cqt_bank(n_bins, bins_per_octave, fmin, n_fft, sample_rate):
    step = 2.0 ** (1.0 / bins_per_octave)
    edges = fmin / step * step ** np.arange(n_bins + 2)
    return _read_only(_triangle_bank(edges, fft_frequencies(sample_rate, n_fft)))


def pseudo_cqt(
    spec: Spectrogram, n_bins: int = 84, bins_per_octave: int = 12, fmin: float = 32.703
) -> np.ndarray:
    """Constant-Q triangular filterbank applied to the power STFT.

    Geometrically spaced centers, triangle k spanning its two neighbors; no
    time-domain kernels are involved (the "pseudo" variant).
    """
    if spec.kind != "power":
        raise ValueError("pseudo_cqt expects a power spectrogram")
    bank = _cqt_bank(n_bins, bins_per_octave, fmin, spec.frame_params.n_fft, spec.sample_rate)
    return bank @ spec.values


def chroma_cqt(pcqt: np.ndarray) -> np.ndarray:
    """Fold a 12-bins-per-octave constant-Q matrix into 12 pitch classes."""
    n_bins = pcqt.shape[0]
    if n_bins % 12 != 0:
        raise DimensionError(f"bin count {n_bins} is not a multiple of 12")
    return pcqt.reshape(n_bins // 12, 12, -1).sum(axis=0)


def summarize(feature_id: str, raw) -> FeatureSummary:
    """Reduce raw feature output to its fixed-length comparison vector.

    Matrices become per-bin time means; scalar contours are linearly
    interpolated onto 256 uniformly spaced points.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 2:
        if raw.shape[1] == 0:
            raise EmptyFeature(f"{feature_id}: zero frames")
        vector = raw.mean(axis=1)
    elif raw.ndim == 1:
        if raw.shape[0] == 0:
            raise EmptyFeature(f"{feature_id}: zero frames")
        if raw.shape[0] == 1:
            vector = np.full(CONTOUR_POINTS, raw[0])
        else:
            grid = np.linspace(0.0, raw.shape[0] - 1.0, CONTOUR_POINTS)
            vector = np.interp(grid, np.arange(raw.shape[0]), raw)
    else:
        raise ValueError(f"{feature_id}: expected a 1-D or 2-D array")
    if not np.all(np.isfinite(vector)):
        raise ValueError(f"{feature_id}: summary contains non-finite values")
    return FeatureSummary(feature_id=feature_id, vector=vector)


def extract_summaries(
    buf: AudioBuffer,
    fp: FrameParams = FrameParams(),
    feature_ids=FEATURE_IDS,
) -> dict:
    """Compute the requested feature summaries in one STFT pass."""
    unknown = set(feature_ids) - set(FEATURE_IDS)
    if unknown:
        raise ValueError(f"unknown feature ids: {sorted(unknown)}")
    wanted = [f for f in FEATURE_IDS if f in feature_ids]

    mag = stft(buf, fp)
    power = mag.to_power()
    need_mel = {"mel_spectrogram", "tempogram"} & set(wanted)
    mel = _mel_from_power(power, 128, 0.0, 8000.0) if need_mel else None
    pcqt = pseudo_cqt(power) if {"pseudo_cqt", "chroma_cqt"} & set(wanted) else None

    out = {}
    for fid in wanted:
        if fid == "pitch":
            raw = f0_contour(buf, frame_length=fp.n_fft, hop=fp.hop)
        elif fid == "mel_spectrogram":
            raw = mel.values
        elif fid == "rms":
            raw = rms_envelope(buf, fp)
        elif fid == "spectral_centroid":
            raw = spectral_centroid(mag)
        elif fid == "spectral_flatness":
            raw = spectral_flatness(power)
        elif fid == "spectral_rolloff":
            raw = spectral_rolloff(mag)
        elif fid == "tempogram":
            raw = tempogram(onset_strength(mel))
        elif fid == "chromagram":
            raw = chroma_stft(power)
        elif fid == "pseudo_cqt":
            raw = pcqt
        else:  # chroma_cqt
            raw = chroma_cqt(pcqt)
        out[fid] = summarize(fid, raw)
    return out
