"""Seeded synthetic corpora for the pipeline benchmark.

Each file is a speech-like signal: a harmonic source whose fundamental glides
and carries vibrato, shaped by a syllable envelope, plus light white noise.
The generated side of a pair is a perturbed re-synthesis of the reference
(shifted pitch, vibrato, tilt, level and noise), so scores are high but not 1.

The workload, not the seed, fixes every size: pair i has the same duration,
sample rates, sample formats and channel counts for every seed, which only
draws the signal content and the embeddings. So the work per pass, the
schedule of the worker threads and the largest file, which set the run time
and the peak memory, do not move with the seed.

WAV bytes come from the hand-rolled encoder below, which shares no code with
``cloneval.audio_io``.
"""

import json
import math
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

EMBED_DIM = 192
# Tokens the default alias table knows, plus one it does not ("calm" parses
# as unknown), so aggregation sees labelled and unlabelled pairs.
EMOTION_TOKENS = ("angry", "disgust", "fear", "happy", "neutral", "sad", "calm")
# Harmonics stay below this, well inside the 16 kHz pipeline band, so the
# cross-rate pair loses nothing to the resampler's anti-alias filter.
MAX_HARMONIC_HZ = 6000.0
IDENTITY_STEM = "ident_neutral"
CROSS_RATE_STEM = "xrate_happy"


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int  # planted pairs included
    min_s: float
    max_s: float
    layouts: tuple  # (rate, fmt, channels), cycled over the non-planted pairs
    embeddings: bool
    workers: int
    cross_rate_pair: bool = False

    @property
    def audio_seconds(self) -> float:
        """Input audio per pass, both sides: durations are evenly spaced."""
        return self.pairs * (self.min_s + self.max_s)

    def durations(self) -> np.ndarray:
        return np.linspace(self.min_s, self.max_s, self.pairs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short16k", 120, 0.5, 2.5, ((16000, "pcm16", 1),), True, 1),
        Workload(
            "hires", 12, 2.0, 8.0,
            ((44100, "pcm24", 2), (44100, "float32", 2),
             (48000, "pcm24", 2), (48000, "float32", 2)),
            True, 1, cross_rate_pair=True,
        ),
        Workload("long16k_w2", 8, 28.0, 32.0, ((16000, "pcm16", 1),), False, 2),
    )
}


def encode_wav(samples, rate: int, fmt: str) -> bytes:
    """Float samples in [-1, 1], shape (n,) or (n, channels), to WAV bytes."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    if fmt == "pcm16":
        data = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        tag, bits = 1, 16
    elif fmt == "pcm24":
        ints = np.clip(np.round(x * (1 << 23)), -(1 << 23), (1 << 23) - 1).astype("<i4")
        data = ints.reshape(-1, 1).view(np.uint8)[:, :3].tobytes()
        tag, bits = 1, 24
    elif fmt == "float32":
        data = x.astype("<f4").tobytes()
        tag, bits = 3, 32
    else:
        raise ValueError(f"unknown sample format {fmt!r}")
    block = channels * bits // 8
    fmt_body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


@dataclass(frozen=True)
class Voice:
    """Parameters of one utterance; the signal is analytic in continuous time."""

    f0: float  # Hz at mid-utterance
    glide: float  # relative f0 change from start to end
    vib_rate: float  # Hz
    vib_depth: float  # relative
    vib_phase: float
    tilt: float  # harmonic k has amplitude k**-tilt
    syl_rate: float  # syllables per second
    syl_phase: float
    level: float  # peak amplitude before noise
    noise: float  # noise rms relative to level

    def perturbed(self, rng) -> "Voice":
        return Voice(
            f0=self.f0 * (1.0 + rng.normal(0.0, 0.03)),
            glide=self.glide + rng.normal(0.0, 0.03),
            vib_rate=self.vib_rate * (1.0 + rng.normal(0.0, 0.05)),
            vib_depth=self.vib_depth * rng.uniform(0.7, 1.3),
            vib_phase=rng.uniform(0.0, 2 * math.pi),
            tilt=self.tilt + rng.normal(0.0, 0.1),
            syl_rate=self.syl_rate * (1.0 + rng.normal(0.0, 0.04)),
            syl_phase=self.syl_phase + rng.normal(0.0, 0.3),
            level=self.level * rng.uniform(0.7, 1.1),
            noise=self.noise * rng.uniform(0.8, 1.5),
        )


def random_voice(rng) -> Voice:
    return Voice(
        f0=rng.uniform(95.0, 250.0),
        glide=rng.uniform(-0.2, 0.1),
        vib_rate=rng.uniform(4.0, 7.0),
        vib_depth=rng.uniform(0.01, 0.03),
        vib_phase=rng.uniform(0.0, 2 * math.pi),
        tilt=rng.uniform(0.8, 1.4),
        syl_rate=rng.uniform(3.0, 6.0),
        syl_phase=rng.uniform(0.0, 2 * math.pi),
        level=rng.uniform(0.25, 0.45),
        noise=rng.uniform(0.005, 0.02),
    )


_TABLE_SIZE = 1 << 14


def _wavetable(n_harm: int, tilt: float) -> np.ndarray:
    """One period of sum_k k**-tilt sin(k theta), plus the wrap-around point.

    Linear interpolation in a table this fine keeps the error near -80 dB
    for the highest harmonic, far below the signal's own noise floor.
    """
    spectrum = np.zeros(_TABLE_SIZE // 2 + 1, dtype=np.complex128)
    k = np.arange(1, n_harm + 1)
    spectrum[k] = -0.5j * _TABLE_SIZE * k ** -tilt  # irfft of this is a sine series
    table = np.fft.irfft(spectrum, n=_TABLE_SIZE)
    return np.append(table, table[0])


def synthesize(voice: Voice, duration: float, rate: int, rng, noise: bool = True):
    """Mono float64 samples of ``voice`` at ``rate``; noise drawn from ``rng``."""
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    f0, g, d, v = voice.f0, voice.glide, voice.vib_depth, voice.vib_rate
    # f(t) = f0 (1 + g (t/T - 1/2)) + f0 d sin(2 pi v t + p), integrated exactly
    phase = 2 * math.pi * f0 * ((1.0 - g / 2) * t + g * t * t / (2 * duration))
    phase -= f0 * d / v * np.cos(2 * math.pi * v * t + voice.vib_phase)
    top = f0 * (1.0 + abs(g) / 2 + d)
    source = _wavetable(max(1, int(MAX_HARMONIC_HZ // top)), voice.tilt)
    pos = (phase * (_TABLE_SIZE / (2 * math.pi))) % _TABLE_SIZE
    idx = pos.astype(np.int64)
    frac = pos - idx
    source = source[idx] + frac * (source[idx + 1] - source[idx])
    x = 0.5 - 0.5 * np.cos(2 * math.pi * voice.syl_rate * t + voice.syl_phase)
    x *= np.sqrt(x)  # syllable envelope, raised to the power 1.5
    x *= source
    fade = min(n // 2, int(0.02 * rate))  # 20 ms fade in and out
    ramp = np.arange(fade) / fade
    x[:fade] *= ramp
    x[n - fade:] *= ramp[::-1]
    x *= voice.level / max(np.max(np.abs(x)), 1e-12)
    if noise:
        x += voice.level * voice.noise * rng.standard_normal(n)
    return x


def _stereo(mono, rng):
    """Second channel: attenuated, delayed by a few samples, own noise."""
    delay = int(rng.integers(1, 12))
    right = np.empty_like(mono)
    right[:delay] = 0.0
    right[delay:] = mono[:-delay]
    right = right * rng.uniform(0.7, 0.95) + 0.002 * rng.standard_normal(len(mono))
    return np.stack([mono, right], axis=1)


def _render(voice, duration, layout, rng):
    rate, fmt, channels = layout
    x = synthesize(voice, duration, rate, rng)
    if channels == 2:
        x = _stereo(x, rng)
    return encode_wav(x, rate, fmt)


def generate(workload: Workload, seed: int, root) -> dict:
    """Write ``root``/ref, ``root``/gen and the embedding manifests.

    ``root`` must not hold a corpus yet.

    Returns a description of the corpus: directories, manifests, stems,
    planted pairs and audio seconds, which the output gate and the report use.
    """
    rng = np.random.default_rng([seed, sum(workload.name.encode())])
    root = Path(root)
    ref_dir, gen_dir = root / "ref", root / "gen"
    for d in (ref_dir, gen_dir):
        d.mkdir(parents=True)  # a fresh directory: no stale files can pair up

    durations = workload.durations()
    n_planted = 1 + int(workload.cross_rate_pair)
    layouts = workload.layouts

    stems = []
    emb_ref, emb_gen = {}, {}

    def add_embeddings(stem, identical):
        ref = rng.standard_normal(EMBED_DIM)
        emb_ref[stem] = ref
        emb_gen[stem] = ref if identical else ref + 0.6 * rng.standard_normal(EMBED_DIM)

    # identity pair: the generated file is a byte copy of the reference
    blob = _render(random_voice(rng), durations[0], layouts[0], rng)
    (ref_dir / f"{IDENTITY_STEM}.wav").write_bytes(blob)
    (gen_dir / f"{IDENTITY_STEM}.wav").write_bytes(blob)
    add_embeddings(IDENTITY_STEM, identical=True)

    if workload.cross_rate_pair:
        # one noiseless signal written at 48 kHz (stereo) and at 16 kHz (mono);
        # equal-amplitude harmonics put energy up to MAX_HARMONIC_HZ, so a
        # resampler that loses the upper band fails the mel_spectrogram check
        voice = replace(random_voice(rng), tilt=0.0)
        hi = synthesize(voice, durations[1], 48000, rng, noise=False)
        lo = synthesize(voice, durations[1], 16000, rng, noise=False)
        (ref_dir / f"{CROSS_RATE_STEM}.wav").write_bytes(
            encode_wav(np.stack([hi, hi], axis=1), 48000, "float32"))
        (gen_dir / f"{CROSS_RATE_STEM}.wav").write_bytes(encode_wav(lo, 16000, "float32"))
        add_embeddings(CROSS_RATE_STEM, identical=False)

    # stems sort in index order, so pair i always has the same duration,
    # layouts and place in the schedule; the seed draws only the content
    for i, duration in enumerate(durations[n_planted:]):
        token = EMOTION_TOKENS[i % len(EMOTION_TOKENS)]
        stem = f"utt{i:04d}_spk{int(rng.integers(100)):02d}_{token}"
        voice = random_voice(rng)
        ref_layout = layouts[i % len(layouts)]
        gen_layout = layouts[(i + 1) % len(layouts)]
        (ref_dir / f"{stem}.wav").write_bytes(_render(voice, duration, ref_layout, rng))
        (gen_dir / f"{stem}.wav").write_bytes(
            _render(voice.perturbed(rng), duration, gen_layout, rng))
        add_embeddings(stem, identical=False)
        stems.append(stem)

    manifests = None
    if workload.embeddings:
        manifests = {}
        for side, table in (("ref", emb_ref), ("gen", emb_gen)):
            path = root / f"embeddings_{side}.json"
            path.write_text(json.dumps({k: [float(v) for v in vec] for k, vec in table.items()}))
            manifests[side] = str(path)

    stems += [IDENTITY_STEM] + ([CROSS_RATE_STEM] if workload.cross_rate_pair else [])
    return {
        "ref_dir": str(ref_dir),
        "gen_dir": str(gen_dir),
        "manifests": manifests,
        "stems": sorted(stems),
        "identity_stem": IDENTITY_STEM,
        "cross_rate_stem": CROSS_RATE_STEM if workload.cross_rate_pair else None,
        "audio_seconds": workload.audio_seconds,
    }
