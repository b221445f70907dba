"""Reproducible evaluation of voice-cloning output.

Scores pairs of reference and generated audio with speaker-embedding cosine
similarity and ten acoustic-feature similarities, aggregated overall and per
emotion.
"""

__version__ = "0.1.0"

from .audio_io import AudioBuffer, PIPELINE_RATE, decode_wav, downmix_mono, resample
from .embeddings import embed, load_backend, read_precomputed
from .features import FEATURE_IDS, extract_summaries, summarize
from .pipeline import (
    EvalConfig,
    PromptAssignment,
    aggregate,
    discover_pairs,
    evaluate_corpus,
    make_prompt_assignments,
    parse_emotion,
    write_reports,
)
from .similarity import PairRecord, cosine, score_pair

__all__ = [
    "AudioBuffer",
    "EvalConfig",
    "FEATURE_IDS",
    "PIPELINE_RATE",
    "PairRecord",
    "PromptAssignment",
    "aggregate",
    "cosine",
    "decode_wav",
    "discover_pairs",
    "downmix_mono",
    "embed",
    "evaluate_corpus",
    "extract_summaries",
    "load_backend",
    "make_prompt_assignments",
    "parse_emotion",
    "read_precomputed",
    "resample",
    "score_pair",
    "summarize",
    "write_reports",
]
