"""Speaker-embedding backends.

Two modes: run a speaker-verification model exported to ONNX, or read
precomputed embeddings from a JSON manifest. The precomputed mode makes a
full evaluation runnable with zero neural inference, which keeps CI and
third-party verification reproducible.

The ONNX graph contract is one float waveform input [1 x samples] at 16 kHz
and one float vector output [1 x D]. The graph shape is validated directly
from the file's protobuf encoding, so schema errors are reported even when
onnxruntime (an optional dependency) is not installed; the runtime is only
required to actually run inference.
"""

import json
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, pipeline_samples
from .errors import (
    DimensionMismatch,
    MissingEmbedding,
    ModelLoadError,
    ParseError,
    SchemaError,
)


def read_precomputed(path) -> dict:
    """Load a stem -> vector JSON manifest as ``{stem: float64 array}``.

    Every vector is non-empty, finite and non-zero, and all share one
    dimension.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read embedding manifest {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("embedding manifest must be a JSON object")

    store = {}
    dim = None
    for stem, values in raw.items():
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


# --- minimal protobuf wire-format walk over an ONNX ModelProto ------------
#
# Only what schema validation needs: graph (ModelProto field 7) with its
# input (11), output (12), and initializer (5) names. Initializers listed as
# graph inputs do not count as real inputs.

def _read_varint(buf: bytes, pos: int):
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def _iter_proto_fields(buf: bytes):
    pos = 0
    while pos < len(buf):
        key, pos = _read_varint(buf, pos)
        field_no, wire_type = key >> 3, key & 0x07
        if wire_type == 0:  # varint
            value, pos = _read_varint(buf, pos)
        elif wire_type == 1:  # fixed64
            value, pos = buf[pos : pos + 8], pos + 8
        elif wire_type == 2:  # length-delimited
            length, pos = _read_varint(buf, pos)
            if pos + length > len(buf):
                raise ValueError("truncated length-delimited field")
            value, pos = buf[pos : pos + length], pos + length
        elif wire_type == 5:  # fixed32
            value, pos = buf[pos : pos + 4], pos + 4
        else:
            raise ValueError(f"unsupported wire type {wire_type}")
        yield field_no, wire_type, value


def _proto_name(message: bytes, name_field: int) -> str:
    for field_no, wire_type, value in _iter_proto_fields(message):
        if field_no == name_field and wire_type == 2:
            return value.decode("utf-8", errors="replace")
    return ""


def inspect_model_graph(data: bytes):
    """Return (input_names, output_names) of an ONNX model's graph."""
    graph = None
    try:
        for field_no, wire_type, value in _iter_proto_fields(data):
            if field_no == 7 and wire_type == 2:
                graph = value
                break
        if graph is None:
            raise ValueError("no graph found")
        inputs, outputs, initializers = [], [], set()
        for field_no, wire_type, value in _iter_proto_fields(graph):
            if wire_type != 2:
                continue
            if field_no == 11:
                inputs.append(_proto_name(value, 1))
            elif field_no == 12:
                outputs.append(_proto_name(value, 1))
            elif field_no == 5:
                initializers.add(_proto_name(value, 8))
    except ValueError as exc:
        raise ModelLoadError(f"not a readable model file: {exc}") from exc
    return [n for n in inputs if n not in initializers], outputs


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

    A session is used by one thread at a time and never crosses a process:
    ``reopened`` gives a worker process a backend with a session of its own.
    """

    def __init__(self, path: str, expected_dim: int | None):
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ModelLoadError(f"cannot read model file {path}: {exc}") from exc
        inputs, outputs = inspect_model_graph(data)
        if len(inputs) != 1 or len(outputs) != 1:
            raise SchemaError(
                f"model graph must have exactly one input and one output, "
                f"found {len(inputs)} inputs and {len(outputs)} outputs"
            )
        self._input_name = inputs[0]
        self._output_name = outputs[0]
        self._path = str(path)
        self.dimension = expected_dim
        try:
            import onnxruntime
        except ImportError as exc:
            raise ModelLoadError(
                "onnxruntime is required to run model-mode embeddings; install the "
                "'onnx' extra or use precomputed embeddings"
            ) from exc
        try:
            self._session = onnxruntime.InferenceSession(
                data, providers=["CPUExecutionProvider"]
            )
        except Exception as exc:
            raise ModelLoadError(f"cannot load model {path}: {exc}") from exc

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
    ``expected_dim``, when given, is the dimension every embedding must have.
    """
    if (model_path is None) == (precomputed_path is None):
        raise ValueError("exactly one of model_path / precomputed_path must be set")
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

    The vector's length is not checked here; ``check_dimension`` does that.
    """
    pipeline_samples(buf, "embedding")  # also when the backend never reads the samples
    return backend._embed(buf, key)


def check_dimension(backend, vector) -> None:
    """Raise DimensionMismatch unless ``vector`` has ``backend.dimension`` entries.

    A backend that does not know its dimension yet, a model loaded without
    ``expected_dim``, takes it from the first vector checked. So the vectors
    of one run are checked in one process, in pair order.
    """
    if backend.dimension is None:
        backend.dimension = len(vector)
    elif len(vector) != backend.dimension:
        raise DimensionMismatch(
            f"model produced dimension {len(vector)}, expected {backend.dimension}")
