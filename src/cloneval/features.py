"""Acoustic feature extraction on mono 16 kHz audio.

Ten features are computed per file and reduced to fixed-length summary
vectors so that reference and generated sides can be compared with cosine
similarity: spectral matrices are averaged over time into per-bin profiles,
per-frame scalar contours are resampled onto 256 points.

``extract_summaries`` works block by block. It reflect-pads the signal once
for YIN, RMS and the STFT, and reduces each block of at most 128 frames as
soon as it is computed: the pitch, centroid, flatness and rolloff contours
are filled in, the block's power spectrum is added to a running sum, its mel
frames become onset strength, and each tempogram block is added to a running
sum. The mel, chroma, pseudo-CQT and chroma-CQT summaries are the bank
applied to the time-mean power spectrum, which by linearity equals the time
mean of the bank applied to every frame. So no per-file ``(bins, frames)``
or ``(frames, lags)`` matrix is built. The public per-feature functions
still return whole-file matrices and contours; the block pass calls the
same functions on one block at a time.

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
    return _frames(_reflect_pad(x, frame_len), len(x), frame_len, hop)


def _frames(padded: np.ndarray, n_samples: int, frame_len: int, hop: int) -> np.ndarray:
    """The frames of ``frame_signal`` as a view of the signal's ``_reflect_pad``."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, frame_len)
    return windows[:: hop][: 1 + n_samples // hop]


def fft_frequencies(sample_rate: int, n_fft: int) -> np.ndarray:
    return np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)


def stft(buf: AudioBuffer, fp: FrameParams = FrameParams()) -> Spectrogram:
    """Magnitude STFT of a mono buffer.

    The blocks of ``_stft_blocks`` are copied into one ``(frames, bins)``
    array; its transpose is the ``(bins, frames)`` spectrogram.
    """
    x = np.asarray(buf.samples, dtype=np.float64)
    mag = np.empty((1 + len(x) // fp.hop, fp.n_fft // 2 + 1))
    for start, stop, block in _stft_blocks(_reflect_pad(x, fp.n_fft), len(x), fp):
        mag[start:stop] = block
    return Spectrogram(mag.T, "magnitude", fp, buf.sample_rate)


def _stft_blocks(padded: np.ndarray, n_samples: int, fp: FrameParams):
    """Yield ``(start, stop, mag)`` per ``_row_blocks`` block of frames.

    ``mag`` is the ``(stop - start, bins)`` magnitude STFT of those frames,
    held in one buffer that the next block overwrites.
    """
    frames = _frames(padded, n_samples, fp.n_fft, fp.hop)
    window = hann_window(fp.n_fft)
    rows = min(frames.shape[0], _kernels._BLOCK_ROWS)
    windowed = np.empty((rows, fp.n_fft))
    mag = np.empty((rows, fp.n_fft // 2 + 1))
    for start, stop in _kernels._row_blocks(frames.shape[0]):
        count = stop - start
        np.multiply(frames[start:stop], window, out=windowed[:count])
        np.abs(np.fft.rfft(windowed[:count], axis=1), out=mag[:count])
        yield start, stop, mag[:count]


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
    power = Spectrogram(stft(buf, fp).values ** 2, "power", fp, buf.sample_rate)
    return _mel_from_power(power, n_mels, fmin, fmax)


_YIN_FMIN = 50.0
_YIN_FMAX = 500.0
_YIN_THRESHOLD = 0.1


def f0_contour(
    buf: AudioBuffer, fmin: float = _YIN_FMIN, fmax: float = _YIN_FMAX,
    frame_length: int = 1024, hop: int = 256, threshold: float = _YIN_THRESHOLD,
) -> np.ndarray:
    """YIN pitch track in Hz per frame; 0 marks unvoiced frames.

    Per frame the cumulative-mean-normalized difference function is searched
    for the first trough below the threshold; the trough is refined by
    parabolic interpolation. YIN: de Cheveigne & Kawahara (2002).
    """
    x = np.asarray(buf.samples, dtype=np.float64)
    padded = _reflect_pad(x, frame_length)
    return _yin_f0(padded, len(x), buf.sample_rate, fmin, fmax, frame_length, hop, threshold)


def _yin_f0(padded, n_samples, sr, fmin, fmax, frame_length, hop, threshold):
    """``f0_contour`` of the signal whose ``_reflect_pad`` is ``padded``."""
    n_frames = 1 + n_samples // hop
    win = frame_length // 2
    tau_min = int(math.ceil(sr / fmax))
    tau_max = int(sr // fmin)
    if tau_max + win > frame_length:
        raise ValueError("frame_length too small for fmin")
    if tau_min > tau_max:
        raise ValueError("fmin and fmax leave no lag to search")

    out = np.zeros(n_frames)

    def search(start, stop, cmnd):
        out[start:stop] = _yin_troughs(cmnd, sr, tau_min, tau_max, threshold)

    _kernels.yin_cmnd(padded, n_frames, hop, win, tau_max, search)
    return out


def _yin_troughs(cmnd, sr, tau_min, tau_max, threshold):
    """Pitch in Hz of each CMND row, 0 where no lag dips below the threshold."""
    # First lag at or above tau_min whose CMND dips below the threshold.
    below = cmnd[:, tau_min:] < threshold
    first = tau_min + np.argmax(below, axis=1)
    # Walk downhill from there: stop at the first lag >= first whose right
    # neighbour is not lower, or at tau_max.
    stop = np.ones(cmnd.shape, dtype=bool)
    np.logical_not(cmnd[:, 1:] < cmnd[:, :-1], out=stop[:, :-1])
    stop &= np.arange(tau_max + 1) >= first[:, None]
    tau = np.where(below.any(axis=1), np.argmax(stop, axis=1), 0)

    out = np.zeros(len(cmnd))
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
    return _rms(_reflect_pad(x, fp.n_fft), len(x), fp)


def _rms(padded: np.ndarray, n_samples: int, fp: FrameParams) -> np.ndarray:
    """``rms_envelope`` of the signal whose ``_reflect_pad`` is ``padded``."""
    n_frames = 1 + n_samples // fp.hop
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
    # A per-column sum, not a BLAS product, whose rounding would depend on
    # how many frames are passed in one call.
    weighted = (spec.values * freqs[:, None]).sum(axis=0)
    return np.divide(weighted, totals, out=np.zeros_like(totals), where=totals > 0.0)


def spectral_flatness(spec: Spectrogram) -> np.ndarray:
    """Geometric over arithmetic mean of floored power bins, in [0, 1]."""
    values = spec.values if spec.kind == "power" else spec.values**2
    power = values + _FLATNESS_FLOOR
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
    out = np.empty((win_length, len(env)))

    def keep(start, stop, rows):
        out[:, start:stop] = rows.T

    _kernels.local_autocorr(env, hann_window(win_length), keep)
    return out


def _tempogram_mean(onset: np.ndarray, win_length: int = 384) -> np.ndarray:
    """Time mean of ``tempogram(onset)``, adding up each block's columns."""
    total = np.zeros(win_length)

    def add(start, stop, rows):
        total[:] += rows.sum(axis=0)

    _kernels.local_autocorr(onset, hann_window(win_length), add)
    return total / len(onset)


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
    """Compute the requested feature summaries in one pass over the signal.

    See the module docstring for how the blocks are reduced. The work that
    only features outside ``feature_ids`` need is skipped.
    """
    unknown = set(feature_ids) - set(FEATURE_IDS)
    if unknown:
        raise ValueError(f"unknown feature ids: {sorted(unknown)}")
    wanted = [f for f in FEATURE_IDS if f in feature_ids]

    sr = buf.sample_rate
    x = np.asarray(buf.samples, dtype=np.float64)
    padded = _reflect_pad(x, fp.n_fft)
    contours, onset, mean_power = {}, None, None
    if set(wanted) - {"pitch", "rms"}:
        contours, onset, mean_power = _stft_pass(padded, len(x), fp, sr, wanted)
    if {"pseudo_cqt", "chroma_cqt"} & set(wanted):
        pcqt = pseudo_cqt(mean_power)

    # The tempogram and bank features arrive as one-column matrices that are
    # already time means: summarize keeps them as they are and still checks them.
    out = {}
    for fid in wanted:
        if fid == "pitch":
            raw = _yin_f0(padded, len(x), sr, _YIN_FMIN, _YIN_FMAX, fp.n_fft, fp.hop,
                          _YIN_THRESHOLD)
        elif fid == "rms":
            raw = _rms(padded, len(x), fp)
        elif fid in contours:
            raw = contours[fid]
        elif fid == "tempogram":
            raw = _tempogram_mean(onset)[:, None]
        elif fid == "mel_spectrogram":
            raw = _mel_from_power(mean_power, 128, 0.0, 8000.0).values
        elif fid == "chromagram":
            raw = chroma_stft(mean_power)
        elif fid == "pseudo_cqt":
            raw = pcqt
        else:  # chroma_cqt
            raw = chroma_cqt(pcqt)
        out[fid] = summarize(fid, raw)
    return out


def _stft_pass(padded, n_samples, fp, sample_rate, wanted):
    """One pass over the STFT blocks for the spectral features in ``wanted``.

    Returns the per-frame spectral contours by feature id, the onset
    strength envelope (``None`` unless the tempogram is wanted), and the
    time-mean power spectrum as a one-frame power ``Spectrogram``. Each
    block's magnitude spectrogram goes through the public per-frame
    functions; its mel frames are turned into onset strength with the
    previous block's last mel frame in front, so the flux across the block
    edge is kept.
    """
    n_frames = 1 + n_samples // fp.hop
    measures = {"spectral_centroid": spectral_centroid,
                "spectral_flatness": spectral_flatness,
                "spectral_rolloff": spectral_rolloff}
    contours = {fid: np.empty(n_frames) for fid in wanted if fid in measures}
    onset = np.empty(n_frames) if "tempogram" in wanted else None
    rows = min(n_frames, _kernels._BLOCK_ROWS)
    power = np.empty((rows, fp.n_fft // 2 + 1))
    power_sum = np.zeros(fp.n_fft // 2 + 1)
    if onset is not None:
        mel_bank = _mel_bank(128, 0.0, 8000.0, fp.n_fft, sample_rate)
        mel = np.empty((128, rows + 1))  # column 0: the frame before the block
    for start, stop, mag in _stft_blocks(padded, n_samples, fp):
        block = power[: stop - start]
        np.multiply(mag, mag, out=block)
        power_sum += block.sum(axis=0)
        spec = Spectrogram(mag.T, "magnitude", fp, sample_rate)
        for fid, values in contours.items():
            values[start:stop] = measures[fid](spec)
        if onset is not None:
            block_mel = mel[:, : stop - start + 1]
            np.matmul(mel_bank, block.T, out=block_mel[:, 1:])
            if start == 0:
                block_mel[:, 0] = block_mel[:, 1]  # no flux into the first frame
            block_mel_spec = Spectrogram(block_mel, "power", fp, sample_rate)
            onset[start:stop] = onset_strength(block_mel_spec)[1:]
            mel[:, 0] = block_mel[:, -1]
    mean_power = Spectrogram((power_sum / n_frames)[:, None], "power", fp, sample_rate)
    return contours, onset, mean_power
