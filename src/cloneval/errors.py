"""Exception types raised by the toolkit."""


class ClonevalError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ClonevalError):
    """Audio container is malformed or uses an unsupported encoding."""


class InputTooShort(ClonevalError):
    """Signal has too few samples for the requested analysis."""


class EmptyFeature(ClonevalError):
    """Feature has zero frames and cannot be summarized."""


class LengthMismatch(ClonevalError):
    """Vectors being compared have different lengths."""


class ModelLoadError(ClonevalError):
    """Embedding backend could not be loaded."""


class ModelRunError(ClonevalError):
    """The embedding model failed to run on a file's audio, or gave an unreadable output."""


class SchemaError(ClonevalError):
    """Model graph does not have the expected one-input/one-output shape."""


class RateError(ClonevalError):
    """Audio handed to feature extraction or the embedding backend is not at 16 kHz."""


class MissingEmbedding(ClonevalError):
    """Precomputed store has no entry for the requested key."""


class ParseError(ClonevalError):
    """Manifest or table file could not be parsed."""


class DimensionMismatch(ClonevalError):
    """Embedding vectors in one run disagree in dimension."""


class NonFiniteEmbedding(ClonevalError):
    """An embedding backend returned a NaN or infinite value."""


class NoPairs(ClonevalError):
    """Reference and generated directories share no file stems."""


class EmptyInput(ClonevalError):
    """Aggregation was asked to summarize zero records."""


class TooFewSamples(ClonevalError):
    """Prompt assignment needs at least two manifest entries."""


class EvaluationFailed(ClonevalError):
    """Every pair in the run failed; nothing to report."""
