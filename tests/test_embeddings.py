"""Embedding backend tests.

``conftest.make_model_bytes`` builds ONNX-shaped model files so the graph
schema validation can be exercised without onnxruntime installed.
"""

import json

import numpy as np
import pytest

from conftest import make_model_bytes, mono_buffer, sine
from cloneval.audio_io import AudioBuffer
from cloneval.embeddings import (
    embed,
    inspect_model_graph,
    load_backend,
    read_precomputed,
)
from cloneval.errors import (
    DimensionMismatch,
    MissingEmbedding,
    ModelLoadError,
    ParseError,
    RateError,
    SchemaError,
)

try:
    import onnxruntime  # noqa: F401

    HAVE_ORT = True
except ImportError:
    HAVE_ORT = False


class TestReadPrecomputed:
    def test_basic_manifest(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1, 0.2], "b": [0.3, 0.4]}))
        store = read_precomputed(path)
        assert set(store) == {"a", "b"}
        assert store["a"].shape == (2,)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1], "b": [0.1, 0.2]}))
        with pytest.raises(DimensionMismatch):
            read_precomputed(path)

    def test_empty_object_valid(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text("{}")
        backend = load_backend(precomputed_path=str(path))
        with pytest.raises(MissingEmbedding):
            embed(backend, mono_buffer(sine(220, 0.05)), key="anything")

    def test_not_json(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text("not json at all")
        with pytest.raises(ParseError):
            read_precomputed(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": ["x", "y"]}))
        with pytest.raises(ParseError):
            read_precomputed(path)


    @pytest.mark.parametrize("blob, message", [
        (b'[[0.1, 0.2]]', "must be a JSON object"),
        (b'{"a": [NaN, 0.2]}', "'a' contains non-finite values"),
        (b'{"a": [0.1, -Infinity]}', "'a' contains non-finite values"),
        (b'{"a": [0.0, 0.0]}', "'a' has zero norm"),
        (b'{"a\xff": [0.1, 0.2]}', "cannot read embedding manifest"),
    ], ids=["top_level_array", "nan_literal", "infinity_literal", "all_zero", "not_utf8"])
    def test_malformed_manifest_rejected(self, tmp_path, blob, message):
        path = tmp_path / "emb.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match=message):
            read_precomputed(path)


class TestLoadBackend:
    def test_number_too_large_for_float64(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text('{"a": [0.5, 1' + "0" * 400 + "]}")
        with pytest.raises(ParseError, match="entry 'a' holds a number too large"):
            load_backend(precomputed_path=str(path))

    def test_spec_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            load_backend()
        with pytest.raises(ValueError):
            load_backend(model_path="m.onnx", precomputed_path="e.json")

    def test_precomputed_reports_dimension(self, tmp_path):
        rng = np.random.default_rng(0)
        manifest = {f"s{i}": list(rng.standard_normal(512)) for i in range(2)}
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(manifest))
        backend = load_backend(precomputed_path=str(path))
        assert backend.dimension == 512

    def test_expected_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1] * 256, "b": [0.2] * 256}))
        with pytest.raises(ModelLoadError, match="[Dd]imension"):
            load_backend(precomputed_path=str(path), expected_dim=512)

    def test_two_input_graph_rejected(self, tmp_path):
        path = tmp_path / "two_in.onnx"
        path.write_bytes(make_model_bytes(["wave", "mask"], ["emb"]))
        with pytest.raises(SchemaError):
            load_backend(model_path=str(path))

    def test_initializer_inputs_do_not_count(self):
        data = make_model_bytes(["wave", "weights"], ["emb"], initializers=["weights"])
        inputs, outputs = inspect_model_graph(data)
        assert inputs == ["wave"]
        assert outputs == ["emb"]

    def test_garbage_model_file(self, tmp_path):
        path = tmp_path / "bad.onnx"
        path.write_bytes(b"\xff\xff\xff\xff not a model")
        with pytest.raises(ModelLoadError):
            load_backend(model_path=str(path))

    def test_missing_model_file(self, tmp_path):
        with pytest.raises(ModelLoadError):
            load_backend(model_path=str(tmp_path / "absent.onnx"))

    @pytest.mark.skipif(HAVE_ORT, reason="exercises the missing-runtime error path")
    def test_valid_graph_without_runtime(self, tmp_path):
        path = tmp_path / "ok.onnx"
        path.write_bytes(make_model_bytes(["wave"], ["emb"]))
        with pytest.raises(ModelLoadError, match="onnxruntime"):
            load_backend(model_path=str(path))


class TestEmbed:
    @pytest.fixture
    def backend(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest = {"tone": list(rng.standard_normal(16)), "noise": list(rng.standard_normal(16))}
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(manifest))
        return load_backend(precomputed_path=str(path))

    def test_deterministic(self, backend):
        buf = mono_buffer(sine(220, 0.05))
        a = embed(backend, buf, key="tone")
        b = embed(backend, buf, key="tone")
        np.testing.assert_array_equal(a, b)
        from cloneval.similarity import cosine

        assert cosine(a, b) == 1.0

    def test_rate_error(self, backend):
        with pytest.raises(RateError):
            embed(backend, mono_buffer(sine(220, 0.05, sr=22050), sr=22050), key="tone")

    def test_two_dimensional_buffer_is_rejected(self, backend):
        x = sine(220, 0.05)
        with pytest.raises(RateError, match="mono"):
            embed(backend, AudioBuffer(np.stack([x, x], axis=1), 16000), key="tone")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_are_rejected(self, backend, bad):
        # the precomputed backend never reads the samples, so the stored
        # vector would otherwise score a corrupt buffer
        x = sine(220, 0.05)
        x[10] = x[20] = bad
        with pytest.raises(ValueError, match="holds 2 non-finite"):
            embed(backend, mono_buffer(x), key="tone")

    def test_missing_key(self, backend):
        with pytest.raises(MissingEmbedding):
            embed(backend, mono_buffer(sine(220, 0.05)), key="absent")
