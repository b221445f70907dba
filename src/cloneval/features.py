"""Acoustic feature extraction on mono 16 kHz audio.

Ten features are computed per file and reduced to fixed-length summary
vectors so that reference and generated sides can be compared with cosine
similarity: spectral matrices are averaged over time into per-bin profiles,
per-frame scalar contours are resampled onto 256 points.

Frames are walked in blocks, and only this module walks them:
``_row_blocks`` splits a sorted array of frame indices into balanced blocks
of at most ``_BLOCK_ROWS``. ``f0_contour`` hands each block of its frames
to the YIN kernel, ``tempogram`` each block of the onset envelope's frames
to the autocorrelation kernel, and the STFT pass walks every frame. The
rows of a run of consecutive frames are read through strided views; only
frames apart are gathered, YIN's chunks by ``_kernels._cover``.

A contour's summary reads at most 511 of its frames: each of its 256
points lies between the frame at or below it and the frame after
(``_contour_frames``). ``extract_summaries`` evaluates the pitch, RMS,
centroid, flatness and rolloff contours at those frames only, and
``summarize`` interpolates over those frames alone, so no summary can read a
frame the pass did not compute. Up to 511 frames (8.18 s) that is every
frame; past it, pitch, centroid, flatness and rolloff cost the same however
long the file is. RMS sums the squares of every chunk from each block's
first contour frame to its last, so its cost still grows with the file.

``extract_summaries`` reflect-pads the signal once (``_reflect_pad`` also
counts the frames) and reduces each STFT block as soon as it is computed:
the RMS, centroid, flatness and rolloff of its contour frames are filled
in, the power spectrum of every frame is added to a running sum, and the
mel frames become onset strength. No per-file ``(bins, frames)`` or
``(frames, lags)`` matrix is built. Of each matrix feature only the time
mean is kept, and by linearity it is taken where it costs least:

* the mel, chroma, pseudo-CQT and chroma-CQT summaries are the bank applied
  to the time-mean power spectrum, which equals the time mean of the bank
  applied to every frame;
* the tempogram summary is one inverse FFT of the summed lag-normalized
  power spectra of the onset envelope's windows, which equals the time mean
  of the per-frame autocorrelations.

The mel frames that onset strength needs are taken band by band: the mel
bank is 98.5% zeros, and ``_mel_groups`` keeps, for each group of 8 filters,
only the bins their triangles cover. No matrix product sums over more than
99 bins, so the bits do not depend on the BLAS thread count.

The public feature functions are the pass's own steps, and each takes an
array the pass already holds. ``frame_signal(padded, n_frames)`` is the
read-only frame view of the padded signal, and ``stft(frames)`` the
``(rows, bins)`` magnitudes of one block of its rows. ``f0_contour`` and
``rms_envelope`` take the padded signal and the sorted frames to evaluate.
The spectral functions take ``(bins, frames)`` arrays, and each one's
parameter name says whether it wants magnitudes or powers; the pass feeds
the chroma and pseudo-CQT banks the ``(bins,)`` time-mean power spectrum
instead, and ``chroma_cqt`` folds the pseudo-CQT vector. ``onset_strength``
takes mel powers, and ``tempogram`` the whole onset envelope, of which it
returns the time-mean profile.

The metric set and the analysis settings are the protocol's, not the
caller's: scores from two runs are comparable only if both measured the
same features and analysed their audio the same way. Every run computes
all ten ``FEATURE_IDS``, and the settings are the module constants below.
Audio comes in at ``PIPELINE_RATE`` (16 kHz) and anything else raises
``RateError``. Frames are ``N_FFT`` (1024) samples,
``HOP`` (256) apart, centered with reflected edges, under a periodic Hann
window for the STFT; a clip of fewer than ``MIN_SAMPLES`` (513) samples
cannot be reflected and raises ``InputTooShort``. YIN searches
``YIN_FMIN``..``YIN_FMAX`` Hz below ``YIN_THRESHOLD``. The mel bank has
``N_MELS`` bands over ``MEL_FMIN``..``MEL_FMAX``; the chroma bank is tuned
to ``CHROMA_A4`` with Gaussian width ``CHROMA_SIGMA`` semitones; the
pseudo-CQT has ``CQT_BINS`` bins, ``CQT_BINS_PER_OCTAVE`` per octave from
``CQT_FMIN``. The rolloff holds ``ROLLOFF_FRACTION`` of the magnitude, and
the tempogram window is ``TEMPOGRAM_WIN`` frames. Spectral similarity is
taken on linear power values (no dB conversion).
"""

import math
from functools import cache, lru_cache

import numpy as np

from . import _kernels
from .errors import EmptyFeature, FormatError, InputTooShort
from .audio_io import PIPELINE_RATE, AudioBuffer, pipeline_samples

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

N_FFT = 1024
HOP = 256
YIN_FMIN = 50.0
YIN_FMAX = 500.0
YIN_THRESHOLD = 0.1
N_MELS = 128
MEL_FMIN = 0.0
MEL_FMAX = 8000.0
CHROMA_A4 = 440.0
CHROMA_SIGMA = 1.0
CQT_BINS = 84
CQT_BINS_PER_OCTAVE = 12
CQT_FMIN = 32.703
ROLLOFF_FRACTION = 0.85
TEMPOGRAM_WIN = 384
CONTOUR_POINTS = 256
# The shortest clip that reflects once at both ends: 32 ms at 16 kHz.
MIN_SAMPLES = N_FFT // 2 + 1

_N_BINS = N_FFT // 2 + 1
_FLATNESS_FLOOR = 1e-10
# YIN compares the first half of each frame with itself shifted by a lag.
_YIN_WIN = N_FFT // 2
_TAU_MIN = math.ceil(PIPELINE_RATE / YIN_FMAX)
_TAU_MAX = int(PIPELINE_RATE // YIN_FMIN)
# Mel filters per banded product (see ``_mel_groups``).
_MEL_GROUP = 8
_BLOCK_ROWS = 128


def _row_blocks(frames):
    """Balanced blocks of at most ``_BLOCK_ROWS`` of the frame index array ``frames``.

    The ``n`` indices are split into ``count = ceil(n / _BLOCK_ROWS)`` blocks
    with edges at ``n * k // count``. The edges are part of the output: the
    STFT pass adds one partial power sum per block, and the tempogram one
    autocorrelation sum, so another split, such as 128 + 1 rows, moves the
    last bits of the matrix summaries and with them the ``--dump-features``
    bytes.
    """
    n = len(frames)
    count = -(-n // _BLOCK_ROWS)
    edges = [n * k // count for k in range(count + 1)] if count else []
    return [frames[a:b] for a, b in zip(edges[:-1], edges[1:])]


def hann_window(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_STFT_WINDOW = _read_only(hann_window(N_FFT))
_TEMPOGRAM_WINDOW = _read_only(hann_window(TEMPOGRAM_WIN))


def _reflect_pad(x: np.ndarray):
    """``x`` reflected by ``N_FFT // 2`` samples at both ends, and its centered frame count.

    A shorter ``x`` than ``MIN_SAMPLES`` raises InputTooShort: ``np.pad``
    would repeat it into a made-up period that YIN reads as a pitch.
    """
    if len(x) < MIN_SAMPLES:
        raise InputTooShort(f"need at least {MIN_SAMPLES} samples, got {len(x)}")
    return np.pad(x, N_FFT // 2, mode="reflect"), 1 + len(x) // HOP


def frame_signal(padded: np.ndarray, n_frames: int) -> np.ndarray:
    """The ``n_frames`` centered frames of a ``_reflect_pad``-ed signal, a read-only view.

    Row ``t`` is the ``N_FFT`` samples from ``t * HOP`` on.
    """
    return _kernels._windows(padded, 0, n_frames, HOP, N_FFT)


def fft_frequencies() -> np.ndarray:
    return np.arange(_N_BINS) * (PIPELINE_RATE / N_FFT)


def stft(frames: np.ndarray) -> np.ndarray:
    """Magnitude spectra ``(rows, bins)`` of ``frame_signal`` rows under the Hann window.

    The pass hands it one ``_row_blocks`` block of rows at a time.
    """
    return np.abs(np.fft.rfft(frames * _STFT_WINDOW, axis=1))


# Mel scale, Slaney variant: linear below 1 kHz, logarithmic above.

def _hz_to_mel(f):
    f = np.asarray(f, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(f < 1000.0, 3.0 * f / 200.0, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / log_step)


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    log_step = math.log(6.4) / 27.0
    return np.where(m < 15.0, 200.0 * m / 3.0, 1000.0 * np.exp(log_step * (m - 15.0)))


def mel_frequencies() -> np.ndarray:
    """N_MELS + 2 band edge frequencies, equally spaced on the mel scale."""
    return _mel_to_hz(np.linspace(_hz_to_mel(MEL_FMIN), _hz_to_mel(MEL_FMAX), N_MELS + 2))


def _triangle_bank(edges: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Overlapping triangles: filter k spans edges[k]..edges[k+2], peak 1 at edges[k+1]."""
    ramps = edges[:, None] - bin_freqs[None, :]
    rising = -ramps[:-2] / np.diff(edges)[:-1, None]
    falling = ramps[2:] / np.diff(edges)[1:, None]
    return np.maximum(0.0, np.minimum(rising, falling))


# Each filterbank is built once and shared read-only; the public builders
# hand out copies.

@cache
def _mel_bank():
    edges = mel_frequencies()
    bank = _triangle_bank(edges, fft_frequencies())
    bank *= (2.0 / (edges[2:] - edges[:-2]))[:, None]  # area normalization
    return _read_only(bank)


def mel_filterbank() -> np.ndarray:
    return _mel_bank().copy()


@cache
def _mel_groups():
    """The mel bank as read-only bands: ``(first, lo, weights)`` per ``_MEL_GROUP`` filters.

    ``weights`` is filters ``first..first + _MEL_GROUP - 1`` of ``_mel_bank()``
    over bins ``lo..lo + weights.shape[1] - 1``, the bins where any of them is
    nonzero. The bank is 98.5% zeros: its 16 bands span 570 bins in all, at
    most 99 each, where a dense product takes 513 per filter.
    """
    bank = _mel_bank()
    groups = []
    for first in range(0, N_MELS, _MEL_GROUP):
        filters = bank[first : first + _MEL_GROUP]
        nonzero = np.flatnonzero(filters.any(axis=0))
        lo, hi = nonzero[0], nonzero[-1] + 1
        groups.append((first, int(lo), _read_only(filters[:, lo:hi].copy())))
    return tuple(groups)


def _mel_frames(power: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the mel frames ``(N_MELS, frames)`` of a ``(frames, bins)`` power block to ``out``.

    Each band of ``_mel_groups`` is one matrix product over its own bins.
    """
    for first, lo, weights in _mel_groups():
        np.matmul(weights, power[:, lo : lo + weights.shape[1]].T,
                  out=out[first : first + len(weights)])
    return out


def f0_contour(padded: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """YIN pitch in Hz at the sorted ``frames`` of a ``_reflect_pad``-ed signal; 0 if unvoiced.

    Per frame the cumulative-mean-normalized difference function is searched
    for the first trough below the threshold; the trough is refined by
    parabolic interpolation. YIN: de Cheveigne & Kawahara (2002). The
    frames go to the kernel in ``_row_blocks``; no frames give an empty
    float64 array.
    """
    blocks = [_yin_troughs(_kernels.yin_cmnd(padded, block, HOP, _YIN_WIN, _TAU_MAX))
              for block in _row_blocks(frames)]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _yin_troughs(cmnd):
    """Pitch in Hz of each CMND row, 0 where no lag dips below the threshold."""
    # First lag at or above _TAU_MIN whose CMND dips below the threshold.
    below = cmnd[:, _TAU_MIN:] < YIN_THRESHOLD
    first = _TAU_MIN + np.argmax(below, axis=1)
    # Walk downhill from there: stop at the first lag >= first whose right
    # neighbour is not lower, or at _TAU_MAX.
    stop = np.ones(cmnd.shape, dtype=bool)
    np.logical_not(cmnd[:, 1:] < cmnd[:, :-1], out=stop[:, :-1])
    stop &= np.arange(_TAU_MAX + 1) >= first[:, None]
    tau = np.where(below.any(axis=1), np.argmax(stop, axis=1), 0)

    out = np.zeros(len(cmnd))
    voiced = tau > 0
    refined = tau.astype(np.float64)
    rows = np.flatnonzero(voiced & (tau < _TAU_MAX))
    mid = tau[rows]
    a, b, c = cmnd[rows, mid - 1], cmnd[rows, mid], cmnd[rows, mid + 1]
    denom = a - 2.0 * b + c
    curved = denom != 0.0
    shift = 0.5 * (a - c)[curved] / denom[curved]
    keep = np.abs(shift) < 1.0
    refined[rows[curved][keep]] += shift[keep]
    out[voiced] = PIPELINE_RATE / refined[voiced]
    return out


def rms_envelope(padded: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """RMS of the windowless frames ``frames`` (sorted) of a ``_reflect_pad``-ed signal.

    A frame is ``N_FFT / HOP`` consecutive ``HOP``-sample chunks, shared with
    the neighbouring frames. The chunks of the run ``frames[0]..frames[-1]``
    are one view, each chunk's squares are summed once, and each frame adds
    its chunks' sums in order before its row is picked out. The pass calls
    it once per block; no frames give an empty float64 array.
    """
    if not len(frames):
        return np.empty(0)
    per_frame = N_FFT // HOP
    run = frames[-1] - frames[0] + 1
    chunks = _kernels._windows(padded, frames[0] * HOP, run + per_frame - 1, HOP, HOP)
    sums = np.multiply(chunks, chunks).sum(axis=1)
    frame_sums = _kernels._frame_sums(sums, run, per_frame)
    return np.sqrt(_kernels._take(frame_sums, frames - frames[0]) / N_FFT)


def spectral_centroid(magnitude: np.ndarray) -> np.ndarray:
    """Magnitude-weighted mean frequency per ``(bins, frames)`` column; 0 if silent."""
    totals = magnitude.sum(axis=0)
    # A per-column sum, not a BLAS product, whose rounding would depend on
    # how many frames are passed in one call.
    weighted = (magnitude * fft_frequencies()[:, None]).sum(axis=0)
    return np.divide(weighted, totals, out=np.zeros_like(totals), where=totals > 0.0)


def spectral_flatness(power: np.ndarray) -> np.ndarray:
    """Geometric over arithmetic mean of floored power bins per column, in [0, 1]."""
    power = power + _FLATNESS_FLOOR
    gmean = np.exp(np.mean(np.log(power), axis=0))
    return gmean / np.mean(power, axis=0)


def spectral_rolloff(magnitude: np.ndarray) -> np.ndarray:
    """Lowest frequency holding >= ROLLOFF_FRACTION of each column's magnitude; 0 if silent.

    A silent column's cumulative sum is all zeros, so its first bin, 0 Hz,
    already holds the fraction.
    """
    cum = np.cumsum(magnitude, axis=0)
    return fft_frequencies()[np.argmax(cum >= ROLLOFF_FRACTION * cum[-1], axis=0)]


def onset_strength(mel_power: np.ndarray) -> np.ndarray:
    """Band-averaged positive log-energy flux of a ``(bands, frames)`` mel power spectrogram."""
    logmel = np.log1p(mel_power)
    out = np.zeros(mel_power.shape[1])
    if len(out) > 1:
        out[1:] = np.maximum(0.0, np.diff(logmel, axis=1)).mean(axis=0)
    return out


def tempogram(onset: np.ndarray) -> np.ndarray:
    """Time mean ``(TEMPOGRAM_WIN,)`` of the onset envelope's windowed local autocorrelations.

    A frame's window is centered on it, zeros outside the envelope; every
    frame's window is a row of one ``_kernels._windows`` view, and each
    ``_row_blocks`` block of rows goes to ``_kernels.local_autocorr``. Each
    frame's autocorrelation is normalized by its lag-0 value, and a frame
    whose window holds no energy counts as zero. By linearity the mean is
    one inverse FFT of the frames' summed power spectra.
    """
    windows = _kernels._windows(onset, -(TEMPOGRAM_WIN // 2), len(onset), 1, TEMPOGRAM_WIN)
    total = sum(_kernels.local_autocorr(_kernels._take(windows, block), _TEMPOGRAM_WINDOW)
                .sum(axis=0) for block in _row_blocks(np.arange(len(onset))))
    return _autocorr(total) / len(onset)


def _autocorr(power: np.ndarray) -> np.ndarray:
    """Lags ``0..TEMPOGRAM_WIN - 1`` of the inverse FFT of ``local_autocorr`` power rows."""
    n_fft = 2 * (power.shape[-1] - 1)
    return np.fft.irfft(power, n=n_fft, axis=-1)[..., :TEMPOGRAM_WIN]


@cache
def _chroma_bank():
    c_ref = CHROMA_A4 * 2.0 ** (-9.0 / 12.0)
    freqs = fft_frequencies()
    weights = np.zeros((12, len(freqs)))
    positions = 12.0 * np.log2(freqs[1:] / c_ref)
    dist = (positions[None, :] - np.arange(12)[:, None]) % 12.0
    dist = np.where(dist > 6.0, dist - 12.0, dist)
    weights[:, 1:] = np.exp(-0.5 * (dist / CHROMA_SIGMA) ** 2)
    return _read_only(weights)


def chroma_filterbank() -> np.ndarray:
    """Gaussian pitch-class projection of STFT bin center frequencies.

    Class 0 is C; each bin contributes to every class with weight set by
    circular semitone distance. The DC bin is dropped.
    """
    return _chroma_bank().copy()


def chroma_stft(power: np.ndarray) -> np.ndarray:
    """Unnormalized 12-class chromagram of a power spectrum, bins first."""
    return _chroma_bank() @ power


def cqt_center_frequencies() -> np.ndarray:
    return CQT_FMIN * 2.0 ** (np.arange(CQT_BINS) / CQT_BINS_PER_OCTAVE)


@cache
def _cqt_bank():
    step = 2.0 ** (1.0 / CQT_BINS_PER_OCTAVE)
    edges = CQT_FMIN / step * step ** np.arange(CQT_BINS + 2)
    return _read_only(_triangle_bank(edges, fft_frequencies()))


def pseudo_cqt(power: np.ndarray) -> np.ndarray:
    """Constant-Q triangular filterbank applied to a power spectrum, bins first.

    Geometrically spaced centers, triangle k spanning its two neighbors; no
    time-domain kernels are involved (the "pseudo" variant).
    """
    return _cqt_bank() @ power


def chroma_cqt(pcqt: np.ndarray) -> np.ndarray:
    """Fold a 12-bins-per-octave constant-Q array, bins first, into 12 pitch classes."""
    return pcqt.reshape(-1, 12, *pcqt.shape[1:]).sum(axis=0)


def summarize(feature_id: str, values, frames=None) -> np.ndarray:
    """The fixed-length float64 comparison vector of one feature; non-empty and finite.

    With ``frames``, ``values`` is a contour at those sorted frames, the last
    of which is the file's last frame, interpolated onto ``CONTOUR_POINTS``
    points spread uniformly over the file's frames. Without, ``values`` is a
    matrix feature's per-bin time mean, returned as it is. A ``values`` that
    is not 1-D, such as a whole matrix, raises ``ValueError``; a summary
    that is not finite, ``FormatError``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"{feature_id}: expected a 1-D array, got shape {values.shape}")
    if values.size == 0:
        raise EmptyFeature(f"{feature_id}: zero frames")
    if frames is not None:
        values = np.interp(_contour_grid(frames[-1] + 1), frames, values)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{feature_id}: the audio's power overflows the float64 range")
    return values


@lru_cache(maxsize=8)
def _contour_grid(n_frames):
    """The ``CONTOUR_POINTS`` positions over ``n_frames`` frames where ``summarize`` reads a contour.

    Read-only and cached: a file's contour frames and its five contour
    summaries share one grid.
    """
    return _read_only(np.linspace(0.0, n_frames - 1.0, CONTOUR_POINTS))


def _contour_frames(n_frames):
    """The sorted frames whose values the summary of an ``n_frames`` contour reads.

    ``np.interp`` takes a grid point from its floor frame and the frame
    after it, or from the last frame alone at the last point. So these are
    the floors and the floors plus one, capped at ``n_frames - 1``: every
    frame while ``n_frames <= 2 * CONTOUR_POINTS - 1`` (511), and never more
    than that many.
    """
    floors = _contour_grid(n_frames).astype(np.intp)
    read = np.zeros(n_frames, dtype=bool)
    read[floors] = True
    read[np.minimum(floors + 1, n_frames - 1)] = True
    return np.flatnonzero(read)


def extract_summaries(buf: AudioBuffer) -> dict:
    """Compute the ten feature summaries in one pass over the signal.

    Returns ``{feature_id: summary vector}`` in ``FEATURE_IDS`` order. The
    contours are computed and summarized at ``_contour_frames`` only; see the
    module docstring for how the blocks are reduced.
    """
    padded, n_frames = _reflect_pad(pipeline_samples(buf, "feature extraction"))
    frames = _contour_frames(n_frames)
    with np.errstate(over="ignore", invalid="ignore"):  # summarize rejects what overflows
        contours, means = _stft_pass(padded, n_frames, frames)
        contours["pitch"] = f0_contour(padded, frames)
    return {fid: summarize(fid, contours[fid], frames) if fid in contours
            else summarize(fid, means[fid]) for fid in FEATURE_IDS}


def _stft_pass(padded, n_frames, frames):
    """One pass over the STFT blocks: the ``(contours, means)`` of the STFT features.

    ``contours`` holds the RMS, centroid, flatness and rolloff at the sorted
    contour ``frames``, ``means`` the time-mean tempogram and the mel,
    chroma, pseudo-CQT and chroma-CQT banks applied to the time-mean power
    spectrum. Each step gets an array the pass already holds: ``stft`` one
    block of the ``frame_signal`` rows, ``rms_envelope`` the padded signal
    and the block's contour frames, the centroid and rolloff the contour
    rows of the block's magnitudes, the flatness those of its powers
    (squared once), the banks the mean power spectrum. A block whose contour
    rows are one run passes them as a view.

    Only the tempogram needs per-frame mel values. The block's mel frames
    come from the banded products of ``_mel_frames`` and are turned into
    onset strength with the previous block's last mel frame in front, so
    the flux across the block edge is kept. The onset envelope goes to
    ``tempogram`` once the last block is done.
    """
    rms, centroid, flatness, rolloff = (np.empty(len(frames)) for _ in range(4))
    onset = np.empty(n_frames)
    power_sum = np.zeros(_N_BINS)
    # column 0 of a block's mel frames: the frame before the block
    mel = np.empty((N_MELS, min(n_frames, _BLOCK_ROWS) + 1))
    framed = frame_signal(padded, n_frames)
    lo = 0  # frames[lo:hi] lie in the block
    for block in _row_blocks(np.arange(n_frames)):
        start, stop = block[0], block[-1] + 1
        mag = stft(framed[start:stop])
        block_power = mag * mag
        power_sum += block_power.sum(axis=0)
        hi = lo + np.searchsorted(frames[lo:], stop)
        rms[lo:hi] = rms_envelope(padded, frames[lo:hi])
        at = frames[lo:hi] - start
        contour_mag = _kernels._take(mag, at).T
        centroid[lo:hi] = spectral_centroid(contour_mag)
        flatness[lo:hi] = spectral_flatness(_kernels._take(block_power, at).T)
        rolloff[lo:hi] = spectral_rolloff(contour_mag)
        lo = hi
        block_mel = mel[:, : len(block) + 1]
        _mel_frames(block_power, block_mel[:, 1:])
        if start == 0:
            block_mel[:, 0] = block_mel[:, 1]  # no flux into the first frame
        onset[start:stop] = onset_strength(block_mel)[1:]
        mel[:, 0] = block_mel[:, -1]
    mean_power = power_sum / n_frames
    pcqt = pseudo_cqt(mean_power)
    contours = {"rms": rms, "spectral_centroid": centroid, "spectral_flatness": flatness,
                "spectral_rolloff": rolloff}
    return contours, {
        "tempogram": tempogram(onset),
        "mel_spectrogram": _mel_bank() @ mean_power,
        "chromagram": chroma_stft(mean_power),
        "pseudo_cqt": pcqt,
        "chroma_cqt": chroma_cqt(pcqt),
    }
