"""End-to-end evaluation: pair discovery, scoring, aggregation, reports.

A run walks two flat directories of WAV files matched by stem, scores every
pair on the run's metrics, and writes two files: ``details.csv`` with one
row per pair and ``summary.json`` with overall and per-emotion means. Scores
are quantized to six decimals at the reporting boundary so the two files
stay mutually consistent and byte-reproducible.
"""

import csv
import json
import os
import random
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__
from .audio_io import PIPELINE_RATE, decode_wav, downmix_mono, resample
from .embeddings import embed, read_json_object
from .errors import (
    ClonevalError,
    DimensionMismatch,
    EmptyInput,
    EvaluationFailed,
    NoPairs,
    ParseError,
    TooFewSamples,
)
from .features import FEATURE_IDS, HOP, N_FFT, extract_summaries
from .similarity import EMBEDDING_METRIC, metric_order, score_pair

REPORT_NAMES = ("details.csv", "summary.json")
EMOTIONS = ("anger", "disgust", "fear", "happiness", "neutral", "sadness")
UNKNOWN = "unknown"

# Full words plus CREMA-D style three-letter codes; tokens are lowercased
# before lookup. ``--emotions TABLE`` replaces it with a JSON file.
DEFAULT_ALIASES = {
    "anger": "anger",
    "angry": "anger",
    "ang": "anger",
    "disgust": "disgust",
    "disgusted": "disgust",
    "dis": "disgust",
    "fear": "fear",
    "fearful": "fear",
    "fea": "fear",
    "happiness": "happiness",
    "happy": "happiness",
    "hap": "happiness",
    "neutral": "neutral",
    "neu": "neutral",
    "sadness": "sadness",
    "sad": "sadness",
}


def _check_aliases(aliases: dict, error=ValueError) -> None:
    """Raise ``error`` unless every label is in EMOTIONS and every token a lowercase string.

    ``parse_emotion`` lowercases each stem token before lookup, so a token
    with an upper-case letter would never match.
    """
    for token, label in aliases.items():
        if label not in EMOTIONS:
            raise error(f"alias {token!r} maps to unknown emotion {label!r}")
        if not (isinstance(token, str) and token == token.lower()):
            raise error(f"alias {token!r} must be a lowercase string")


def load_alias_table(path) -> dict:
    """Read a token -> canonical-emotion JSON table that maps at least one token.

    Tokens are lowercased. Two entries whose tokens are then the same, such
    as ``"Ang"`` and ``"ang"`` or one token listed twice, raise ParseError
    naming both.
    """
    table, spelled = {}, {}
    for token, label in read_json_object(path, "alias table"):
        key = token.lower()
        if key in table:
            raise ParseError(f"alias table entries {spelled[key]!r}: {table[key]!r} and "
                             f"{token!r}: {label!r} name the same token")
        table[key], spelled[key] = label, token
    _check_aliases(table, ParseError)
    if not table:
        raise ParseError(f"alias table {path} maps no token; use --emotions off for no labels")
    return table


def parse_emotion(stem: str, alias_table: dict | None = None) -> str:
    """First stem token (split on _, -, .) found in the alias table wins."""
    table = DEFAULT_ALIASES if alias_table is None else alias_table
    for token in re.split(r"[_\-.]", stem):
        if token.lower() in table:
            return table[token.lower()]
    return UNKNOWN


def list_wavs(directory) -> dict:
    """The WAV files directly in ``directory``, keyed by stem, in name order.

    Two files whose names differ only in the case of the extension, such as
    ``a.wav`` and ``a.WAV``, raise ParseError naming both.
    """
    found = {}
    for p in sorted(Path(directory).iterdir()):
        if not (p.is_file() and p.suffix.lower() == ".wav"):
            continue
        if p.stem in found:
            raise ParseError(
                f"{found[p.stem].name} and {p.name} in {directory} share the stem {p.stem!r}"
            )
        found[p.stem] = p
    return found


def discover_pairs(ref_dir, gen_dir):
    """Match WAV files across the two directories by stem (case-sensitive).

    Non-recursive. Returns (pairs, unmatched_ref, unmatched_gen) where pairs
    is a lexicographically sorted list of (stem, ref_path, gen_path). A stem
    shared by two files in one directory raises ParseError (``list_wavs``).
    """
    ref = list_wavs(ref_dir)
    gen = list_wavs(gen_dir)
    common = sorted(set(ref) & set(gen))
    if not common:
        raise NoPairs(f"no matching stems between {ref_dir} and {gen_dir}")
    pairs = [(stem, ref[stem], gen[stem]) for stem in common]
    unmatched_ref = sorted(ref[p].name for p in set(ref) - set(gen))
    unmatched_gen = sorted(gen[p].name for p in set(gen) - set(ref))
    return pairs, unmatched_ref, unmatched_gen


@dataclass(frozen=True)
class EvalConfig:
    """One run's settings, checked when made and frozen after.

    ``backends`` other than None or a pair of backends, ``aliases`` that
    fail ``_check_aliases`` and ``workers`` that is not an int (a bool
    included) or is below 1 raise ValueError; two backends of different
    dimensions raise DimensionMismatch. ``aliases`` is kept as a read-only
    copy, so a later change to the caller's table moves neither the labels
    nor the fingerprint.
    """

    backends: tuple | None = None  # (reference, generated); None disables the embedding metric
    aliases: dict | None = None  # None: DEFAULT_ALIASES; {}: every label is unknown
    workers: int = 1

    def __post_init__(self):
        if self.aliases is not None:
            aliases = MappingProxyType(dict(self.aliases))
            _check_aliases(aliases)
            object.__setattr__(self, "aliases", aliases)
        backends = self.backends
        if backends is not None and not (
            isinstance(backends, tuple) and len(backends) == 2 and None not in backends
        ):
            raise ValueError("EvalConfig.backends must be None or a (reference, generated) pair")
        dims = tuple(backend.dimension for backend in backends or ())
        if len(set(dims)) > 1:
            # every pair would fail at scoring, after its decode and extraction
            raise DimensionMismatch(f"reference embeddings have {dims[0]} dimensions but "
                                    f"generated embeddings have {dims[1]}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise ValueError(f"EvalConfig.workers must be an int, got {self.workers!r}")
        if self.workers < 1:
            raise ValueError("EvalConfig.workers must be at least 1")

    def fingerprint(self) -> dict:
        backend = self.backends[0] if self.backends else None
        return {
            "version": __version__,
            "sample_rate": PIPELINE_RATE,
            "n_fft": N_FFT,
            "hop": HOP,
            "window": "hann",
            "metrics": metric_order(backend is not None),
            "embedding_backend": backend.describe() if backend else "disabled",
            "embedding_dim": backend.dimension if backend else None,
            "emotions": "off" if self.aliases == {} else "auto",
        }


def load_mono_16k(path):
    """Decode a WAV file to mono and resample it to 16 kHz."""
    return resample(decode_wav(Path(path).read_bytes()), PIPELINE_RATE)


@dataclass(frozen=True)
class FileOutcome:
    """One file's vectors, or the step that failed and why.

    ``vectors`` maps metric ids to vectors: the ten feature summaries, plus,
    with a backend, the embedding under ``EMBEDDING_METRIC``. It is None when
    the features could not be extracted; a file whose embedding fails keeps
    its features. ``stage`` is the failed step, ``decode``, ``resample``,
    ``extract`` or ``embed``, and ``error`` the failure as ``"Type: message"``.
    """

    vectors: dict | None
    stage: str | None = None
    error: str | None = None


def _file_vectors(stem, path, backend) -> FileOutcome:
    """Decode, resample, extract and, with a ``backend``, embed one file.

    A ClonevalError or OSError fails the file at its step; any other exception is a bug.
    """
    vectors, stage = None, "decode"
    try:
        # downmix_mono is the identity; the benchmark's traced pass times it here
        buf = downmix_mono(decode_wav(Path(path).read_bytes()))
        stage = "resample"
        buf = resample(buf, PIPELINE_RATE)
        stage = "extract"
        vectors = extract_summaries(buf)
        if backend is not None:
            stage = "embed"
            vectors[EMBEDDING_METRIC] = embed(backend, buf, key=stem)
    except (ClonevalError, OSError) as exc:
        return FileOutcome(vectors, stage, f"{type(exc).__name__}: {exc}")
    return FileOutcome(vectors)


_worker_backends = None  # set in each worker process by _start_worker


def _start_worker(backends):
    """Pool initializer: end with the parent, and open this process's own model sessions."""
    import multiprocessing

    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_with_parent, args=(sentinel,), daemon=True).start()
    global _worker_backends
    if backends is not None:
        unique = {id(b): b for b in backends}  # one model serving both sides: one session
        opened = {key: b.reopened() for key, b in unique.items()}
        backends = tuple(opened[id(b)] for b in backends)
    _worker_backends = backends


def _exit_with_parent(sentinel):
    # A worker waiting for its next task never sees the parent die: every
    # worker holds the task queue's write end too, so the read never ends.
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _worker_file_vectors(side, stem, path):
    return _file_vectors(stem, path, _worker_backends and _worker_backends[side])


def _pair_outcomes(pairs, config):
    """``_file_vectors`` of each file, in pair order, reference (side 0) before generated.

    One worker runs them lazily in the calling process, so each pair can be
    scored as soon as its two files are done. More run in a pool of forked
    processes, at most one per file, each with its own arrays; a worker that
    dies raises EvaluationFailed.
    """
    tasks = [(side, stem, path) for stem, *paths in pairs for side, path in enumerate(paths)]
    workers = min(config.workers, len(tasks))
    if workers <= 1:
        yield from (_file_vectors(stem, path, config.backends and config.backends[side])
                    for side, stem, path in tasks)
        return
    # imported here: loading the pool's modules would otherwise add to every
    # run's start-up, also to runs with one worker
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    fork = "fork" in multiprocessing.get_all_start_methods()  # not on Windows
    context = multiprocessing.get_context("fork" if fork else None)
    try:
        with ProcessPoolExecutor(workers, mp_context=context, initializer=_start_worker,
                                 initargs=(config.backends,)) as pool:
            yield from pool.map(_worker_file_vectors, *zip(*tasks))
    except BrokenProcessPool as exc:
        raise EvaluationFailed(f"a worker process died: {exc}") from exc


def evaluate_corpus(pairs, config: EvalConfig, dump=None):
    """Score every pair of a checked ``config``; a pair's failure is reported, not fatal.

    Returns (records, errors): the records sorted by pair_id, so the result
    does not depend on the worker count, and each failed pair's stem mapped
    to its reason. When every pair fails, records is empty. Each file goes
    through ``_file_vectors``: in the calling process when ``config.workers``
    is 1, else in at most that many forked worker processes. A pair is
    scored only when neither file failed; its error is the reference file's,
    else the generated file's. ``dump`` and ``score_pair`` run in the calling
    process, in pair order. A worker process that dies raises
    EvaluationFailed, and a bug (see ``_file_vectors``) propagates. ``dump``,
    when given, is called as ``dump(pair_id, side, feature_id, vector)`` for
    every feature summary of every pair whose two files' features were
    extracted, also when an embedding fails, with ``side`` "reference" or
    "generated".
    """
    records = []
    errors = {}
    files = _pair_outcomes(pairs, config)  # each pair takes the next two
    for (stem, ref_path, gen_path), ref, gen in zip(pairs, files, files, strict=True):
        if dump is not None and ref.vectors is not None and gen.vectors is not None:
            for side_name, side in (("reference", ref), ("generated", gen)):
                for feature_id in FEATURE_IDS:
                    dump(stem, side_name, feature_id, side.vectors[feature_id])
        if ref.error or gen.error:
            errors[stem] = ref.error or gen.error
            continue
        record = score_pair(stem, parse_emotion(stem, config.aliases), ref.vectors, gen.vectors)
        record.reference_file = str(ref_path)
        record.generated_file = str(gen_path)
        records.append(record)
    records.sort(key=lambda r: r.pair_id)
    return records, errors


def _quantize(value: float) -> float:
    # report precision; aggregation uses the same rounding as details.csv
    # so means recomputed from the CSV match summary.json exactly. Adding
    # 0.0 makes a score that rounds to -0.0 a 0.0, which every report writes
    # as 0, not -0.
    return round(value, 6) + 0.0


def aggregate(records, config: dict | None = None) -> dict:
    """Arithmetic means per metric, overall and per emotion label.

    Returns the ``summary.json`` dict without its ``errors`` entry:
    ``config``, ``overall``, ``by_emotion``, ``emotion_average`` and
    ``counts``. The overall mean runs over all records regardless of label;
    the emotion_average row is the unweighted mean of the per-emotion means
    over the known labels (None when every record is unlabeled).
    """
    if not records:
        raise EmptyInput("no records to aggregate")
    metrics = list(records[0].scores)

    def means(group):
        return {
            m: float(np.mean([_quantize(r.scores[m]) for r in group])) for m in metrics
        }

    overall = means(records)
    labels = sorted({r.emotion for r in records})
    by_emotion = {label: means([r for r in records if r.emotion == label]) for label in labels}
    counts = {label: sum(1 for r in records if r.emotion == label) for label in labels}

    known = [label for label in labels if label != UNKNOWN]
    emotion_average = {m: float(np.mean([by_emotion[label][m] for label in known]))
                       for m in metrics} if known else None
    return {
        "config": config or {},
        "overall": overall,
        "by_emotion": by_emotion,
        "emotion_average": emotion_average,
        "counts": counts,
    }


def write_staged(targets) -> None:
    """Write each ``{path: write(fh)}`` target through a temporary file beside it.

    The files are UTF-8 with the line endings ``write`` gives them. Every
    target is written in full and synced to disk before the first
    ``os.replace``, and they replace the old files in the order given, so a
    failed write leaves every previous file as it was, and a crash after a
    rename cannot leave a renamed file empty.
    """
    # One temporary name per process and thread, so concurrent writers to
    # the same directory never share a file.
    suffix = f"{os.getpid()}.{threading.get_ident()}.tmp"
    staged = {}
    try:
        for path, write in targets.items():
            path = Path(path)
            staged[path] = path.with_name(f".{path.name}.{suffix}")
            with open(staged[path], "w", encoding="utf-8", newline="") as fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
        for path, tmp in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def write_reports(records, summary: dict, out_dir, errors=None, extra=None):
    """Write details.csv and summary.json; returns their paths.

    Both files are UTF-8 with LF line endings, scores fixed to six decimals,
    rows sorted by pair_id, so identical runs produce identical bytes.
    ``extra`` maps further paths, such as a feature dump, to ``write(fh)``
    functions. All of them go through one ``write_staged`` call, with
    summary.json replaced last, so a failed write leaves the previous
    reports as they were.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = list(summary["overall"])

    def write_details(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair_id", "reference_file", "generated_file", "emotion", *metrics, "flags"])
        for record in sorted(records, key=lambda r: r.pair_id):
            flags = ";".join(
                f"{m}={record.flags[m]}" for m in metrics if m in record.flags
            )
            writer.writerow(
                [record.pair_id, record.reference_file, record.generated_file, record.emotion]
                + [f"{_quantize(record.scores[m]):.6f}" for m in metrics]
                + [flags]
            )

    def write_summary(fh):
        payload = dict(summary, errors=dict(sorted((errors or {}).items())))
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    details, summary_path = (out_dir / name for name in REPORT_NAMES)
    write_staged({details: write_details, **(extra or {}), summary_path: write_summary})
    return details, summary_path


@dataclass(frozen=True)
class PromptAssignment:
    sample_id: str
    assigned_text: str
    source_sample_id: str


def make_prompt_assignments(manifest, seed: int):
    """Assign each sample a text drawn uniformly from the other samples.

    The draw is seeded and independent per sample; a sample never receives
    its own text. A sample id listed twice raises ParseError: the other
    entry would count as another sample and could hand it its own text.
    """
    if len(manifest) < 2:
        raise TooFewSamples(f"need at least 2 manifest entries, got {len(manifest)}")
    seen = set()
    for sample_id, text in manifest:
        if not text:
            raise ParseError(f"manifest entry {sample_id!r} has empty text")
        if sample_id in seen:
            raise ParseError(f"manifest lists sample {sample_id!r} more than once")
        seen.add(sample_id)

    rng = random.Random(seed)
    assignments = []
    for i, (sample_id, _) in enumerate(manifest):
        j = rng.randrange(len(manifest) - 1)
        if j >= i:
            j += 1
        source_id, source_text = manifest[j]
        assignments.append(PromptAssignment(sample_id, source_text, source_id))
    return assignments
