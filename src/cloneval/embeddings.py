"""Speaker-embedding backends.

Two modes: run a speaker-verification model exported to ONNX, or read
precomputed embeddings from a JSON manifest. The precomputed mode makes a
full evaluation runnable with zero neural inference, which keeps CI and
third-party verification reproducible.

The ONNX graph contract is one float waveform input [1 x samples] at 16 kHz
and one float vector output [1 x D]. onnxruntime (an optional dependency)
loads the model, and the session's declared inputs and outputs are checked
against that contract when it loads. So every backend knows its dimension
D before the first file is embedded, unless a model declares D symbolic
and no expected dimension was given.
"""

import json
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, pipeline_samples
from .errors import (
    DimensionMismatch,
    MissingEmbedding,
    ModelLoadError,
    NonFiniteEmbedding,
    ParseError,
    SchemaError,
)


def read_precomputed(path) -> dict:
    """Load a stem -> vector JSON manifest as ``{stem: float64 array}``.

    Every vector is non-empty, finite and non-zero, and all share one
    dimension. A stem listed twice raises ParseError naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # objects load as tuples of their (key, value) entries, so an
            # entry listed twice is still there to be reported
            raw = json.load(fh, object_pairs_hook=tuple)
    except (OSError, ValueError) as exc:  # also bad JSON or bad UTF-8
        raise ParseError(f"cannot read embedding manifest {path}: {exc}") from exc
    if not isinstance(raw, tuple):
        raise ParseError("embedding manifest must be a JSON object")

    store = {}
    dim = None
    for stem, values in raw:
        if stem in store:
            raise ParseError(f"embedding manifest lists the stem {stem!r} more than once")
        if not isinstance(values, list) or not values or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            raise ParseError(f"entry {stem!r} is not a non-empty number array")
        try:
            vector = np.asarray(values, dtype=np.float64)
        except OverflowError:
            raise ParseError(f"entry {stem!r} holds a number too large for float64") from None
        if not np.all(np.isfinite(vector)):
            raise ParseError(f"entry {stem!r} contains non-finite values")
        if not np.any(vector):
            raise ParseError(f"entry {stem!r} has zero norm")
        if dim is None:
            dim = vector.shape[0]
        elif vector.shape[0] != dim:
            raise DimensionMismatch(
                f"entry {stem!r} has dimension {vector.shape[0]}, expected {dim}"
            )
        store[stem] = vector
    return store


class PrecomputedBackend:
    """Serves embeddings from a JSON manifest, keyed by file stem."""

    def __init__(self, store: dict, dimension: int | None):
        self._store = store
        self.dimension = dimension

    def _embed(self, buf: AudioBuffer, key: str | None) -> np.ndarray:
        if key is None:
            raise ValueError("precomputed backend needs the file stem as lookup key")
        try:
            return self._store[key]
        except KeyError:
            raise MissingEmbedding(f"no precomputed embedding for {key!r}") from None

    def describe(self) -> str:
        return "precomputed"

    def reopened(self):
        """This backend itself: a manifest needs nothing opened per process."""
        return self


class OnnxModelBackend:
    """Runs a 1-in/1-out ONNX model over 16 kHz waveforms.

    The session declares the model's contract when it loads: exactly one
    input and one output, else SchemaError. A static last output axis is
    ``dimension``, and ``expected_dim``, when given, must equal it. A
    symbolic one, a name or None, takes ``expected_dim``, which may be None.

    A session is used by one thread at a time and never crosses a process:
    ``reopened`` gives a worker process a backend with a session of its own.
    """

    def __init__(self, path: str, expected_dim: int | None):
        try:
            import onnxruntime
        except ImportError as exc:
            raise ModelLoadError(
                "onnxruntime is required to run model-mode embeddings; install the "
                "'onnx' extra or use precomputed embeddings"
            ) from exc
        try:
            self._session = onnxruntime.InferenceSession(
                str(path), providers=["CPUExecutionProvider"]
            )
        except Exception as exc:
            raise ModelLoadError(f"cannot load model {path}: {exc}") from exc
        inputs, outputs = self._session.get_inputs(), self._session.get_outputs()
        if len(inputs) != 1 or len(outputs) != 1:
            raise SchemaError(
                f"model graph must have exactly one input and one output, "
                f"found {len(inputs)} inputs and {len(outputs)} outputs"
            )
        self._input_name = inputs[0].name
        self._output_name = outputs[0].name
        self._path = str(path)
        declared = (outputs[0].shape or [None])[-1]
        if not isinstance(declared, int):
            declared = expected_dim
        elif expected_dim is not None and declared != expected_dim:
            raise ModelLoadError(
                f"model output dimension {declared} does not match expected {expected_dim}")
        self.dimension = declared

    def _embed(self, buf: AudioBuffer, key: str | None) -> np.ndarray:
        waveform = np.asarray(buf.samples, dtype=np.float32)[None, :]
        (raw,) = self._session.run([self._output_name], {self._input_name: waveform})
        return np.asarray(raw, dtype=np.float64).reshape(-1)

    def describe(self) -> str:
        return f"model:{Path(self._path).name}"

    def reopened(self):
        """The same model with a session of its own, for use in another process."""
        return OnnxModelBackend(self._path, self.dimension)


def load_backend(*, model_path=None, precomputed_path=None, expected_dim=None):
    """An ONNX model backend or a precomputed-manifest backend.

    Exactly one of ``model_path`` and ``precomputed_path`` must be given.
    ``expected_dim``, when given, is the dimension every embedding must have,
    at least 1. The backend's ``dimension`` is the one its model or manifest
    declares, else ``expected_dim``; it is None only for a model with a
    symbolic output axis, or an empty manifest, loaded without one.
    """
    if (model_path is None) == (precomputed_path is None):
        raise ValueError("exactly one of model_path / precomputed_path must be set")
    if expected_dim is not None and expected_dim < 1:
        raise ValueError(f"expected_dim must be at least 1, got {expected_dim}")
    if model_path is not None:
        return OnnxModelBackend(model_path, expected_dim)
    store = read_precomputed(precomputed_path)
    # read_precomputed has checked that every vector has the same length
    dim = len(next(iter(store.values()))) if store else expected_dim
    if expected_dim is not None and dim != expected_dim:
        raise ModelLoadError(f"manifest dimension {dim} does not match expected {expected_dim}")
    return PrecomputedBackend(store, dim)


def embed(backend, buf: AudioBuffer, key: str | None = None) -> np.ndarray:
    """Embed a mono 16 kHz buffer as a float64 vector; precomputed backends look up by key.

    A NaN or infinite entry raises NonFiniteEmbedding naming ``key``. The
    vector's length is not checked here; ``check_dimension`` does that.
    """
    pipeline_samples(buf, "embedding")  # also when the backend never reads the samples
    vector = backend._embed(buf, key)
    if not np.all(np.isfinite(vector)):
        raise NonFiniteEmbedding(f"embedding of {key!r} holds non-finite (NaN or Inf) values")
    return vector


def check_dimension(dimension: int, vector) -> None:
    """Raise DimensionMismatch unless ``vector`` has ``dimension`` entries.

    It only checks, so it gives the same answer in any process and for any
    pair order.
    """
    if len(vector) != dimension:
        raise DimensionMismatch(f"model produced dimension {len(vector)}, expected {dimension}")
