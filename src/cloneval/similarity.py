"""Cosine similarity over embeddings and feature summaries."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch
from .features import FEATURE_IDS

EMBEDDING_METRIC = "embedding"

# zero-norm policy markers surfaced in the detailed report
FLAG_BOTH_ZERO = "both_zero"
FLAG_ONE_ZERO = "one_zero"


def _cosine_flagged(u: np.ndarray, v: np.ndarray):
    if u.shape[0] != v.shape[0]:
        raise LengthMismatch(f"vector lengths differ: {u.shape[0]} vs {v.shape[0]}")
    peak_u = float(np.max(np.abs(u)))
    peak_v = float(np.max(np.abs(v)))
    # a NaN or Inf entry makes its peak non-finite; scoring it would clamp
    # the NaN ratio to -1.0 and report a wrong number as a real score
    if not (math.isfinite(peak_u) and math.isfinite(peak_v)):
        raise ValueError("vector holds NaN or Inf")
    if peak_u == 0.0 and peak_v == 0.0:
        return 1.0, FLAG_BOTH_ZERO
    if peak_u == 0.0 or peak_v == 0.0:
        return 0.0, FLAG_ONE_ZERO
    if u is v or np.array_equal(u, v):
        return 1.0, None  # self-similarity is exact at any magnitude
    # peak pre-scaling keeps the dot products in [1, dim]; without it the
    # squared norms of very small or very large vectors drift into
    # subnormal/infinite territory and the ratio loses precision
    un = u / peak_u
    vn = v / peak_v
    denom = math.sqrt(float(np.dot(un, un)) * float(np.dot(vn, vn)))
    value = float(np.dot(un, vn)) / denom
    return min(1.0, max(-1.0, value)), None


def cosine(u, v) -> float:
    """Normalized dot product clamped to [-1, 1].

    Degenerate inputs are mapped deterministically: two zero-norm vectors
    score 1.0, exactly one zero-norm vector scores 0.0. A NaN or Inf entry
    raises ValueError.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    value, _ = _cosine_flagged(u, v)
    return value


@dataclass(eq=False)
class PairRecord:
    pair_id: str
    emotion: str
    scores: dict = field(default_factory=dict)  # metric id -> value in [-1, 1]
    flags: dict = field(default_factory=dict)  # metric id -> zero-norm marker
    reference_file: str = ""
    generated_file: str = ""


def metric_order(with_embedding: bool) -> list:
    """The run's metric ids in report column order: the embedding, then ``FEATURE_IDS``."""
    return [EMBEDDING_METRIC, *FEATURE_IDS] if with_embedding else list(FEATURE_IDS)


def score_pair(pair_id: str, emotion: str, ref: dict, gen: dict) -> PairRecord:
    """Score one reference/generated pair on the run's metrics.

    Each side is ``{metric_id: vector}``: the summary of every feature in
    ``FEATURE_IDS``, plus the speaker embedding under ``EMBEDDING_METRIC``
    when the run scores it. Both sides must carry exactly
    ``metric_order(EMBEDDING_METRIC in ref)``; any other side raises
    LengthMismatch naming the missing and the extra ids.
    """
    order = metric_order(EMBEDDING_METRIC in ref)
    expected = set(order)
    for side_name, side in (("reference", ref), ("generated", gen)):
        if side.keys() != expected:
            raise LengthMismatch(
                f"{side_name} side does not carry the run's metrics: missing "
                f"{sorted(expected - side.keys())}, extra {sorted(side.keys() - expected)}")

    record = PairRecord(pair_id=pair_id, emotion=emotion)
    for metric in order:
        value, flag = _cosine_flagged(
            np.asarray(ref[metric], dtype=np.float64),
            np.asarray(gen[metric], dtype=np.float64),
        )
        record.scores[metric] = value
        if flag:
            record.flags[metric] = flag
    return record
