"""Embedding backend tests.

A model's contract is what its session declares when it loads. The
stand-in onnxruntime of ``conftest`` declares the inputs and outputs that
``conftest.write_fake_model`` wrote, so the schema checks run without
onnxruntime installed.
"""

import json

import numpy as np
import pytest

from conftest import FakeSession, NanSession, mono_buffer, sine, write_fake_model
from cloneval.audio_io import AudioBuffer
from cloneval.embeddings import (
    check_dimension,
    embed,
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


def _refuse_to_run(session, output_names, feeds):
    raise RuntimeError("session run")


class TestReadPrecomputed:
    def test_basic_manifest(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1, 0.2], "b": [0.3, 0.4]}))
        store = read_precomputed(path)
        assert set(store) == {"a", "b"}
        assert store["a"].shape == (2,)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"a": [0.1, 0.2]}).encode())
        store = read_precomputed(path)
        assert list(store) == ["a"]
        np.testing.assert_array_equal(store["a"], [0.1, 0.2])

    def test_zero_vector_accepted(self, tmp_path):
        # a model embeds a silent file as zeros; its manifest entry must load
        # so that scoring flags it the same way
        path = tmp_path / "emb.json"
        path.write_bytes(b'{"a": [0.0, 0.0], "b": [0.3, 0.4]}')
        store = read_precomputed(path)
        np.testing.assert_array_equal(store["a"], [0.0, 0.0])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({"a": [0.1], "b": [0.1, 0.2]}))
        with pytest.raises(DimensionMismatch):
            read_precomputed(path)

    def test_empty_object_valid(self, tmp_path):
        # a valid manifest, but not one a backend can serve: see TestLoadBackend
        path = tmp_path / "emb.json"
        path.write_text("{}")
        assert read_precomputed(path) == {}

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
        (b'{"a\xff": [0.1, 0.2]}', "cannot read embedding manifest"),
    ], ids=["top_level_array", "nan_literal", "infinity_literal", "not_utf8"])
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

    def test_stem_listed_twice(self, tmp_path):
        # plain json.load would keep the second vector without a word
        path = tmp_path / "emb.json"
        path.write_text('{"a": [1.0, 2.0], "b": [0.5, 0.5], "a": [3.0, 4.0]}')
        with pytest.raises(ParseError, match="lists the stem 'a' more than once"):
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

    def test_manifest_mapping_no_stem_rejected(self, tmp_path):
        # a backend that could serve no file, and whose dimension is unknown
        path = tmp_path / "emb.json"
        path.write_text("{}")
        with pytest.raises(ParseError, match=f"^embedding manifest {path} maps no stem$"):
            load_backend(precomputed_path=str(path))

    def test_static_output_is_the_dimension_at_load(self, fake_onnx_model, monkeypatch):
        monkeypatch.setattr(FakeSession, "run", _refuse_to_run)
        assert load_backend(model_path=str(fake_onnx_model)).dimension == 4

    @pytest.mark.parametrize("axis", ["dim", None])
    def test_symbolic_output_takes_expected_dim(self, tmp_path, fake_runtime, axis, monkeypatch):
        # a symbolic output axis expects the length of the model's embedding
        # of 1 s of silence. FakeSession gives one second (16 000 samples,
        # above LONG_WAVEFORM) five entries; the probe runs once, on silence
        fed, run = [], FakeSession.run
        monkeypatch.setattr(FakeSession, "run", lambda session, names, feeds: fed.append(
            feeds) or run(session, names, feeds))
        path = write_fake_model(tmp_path / "m.onnx", outputs=[["emb", ["batch", axis]]])
        assert load_backend(model_path=str(path)).dimension == 5
        ((waveform,),) = (feeds.values() for feeds in fed)
        assert waveform.dtype == np.float32 and waveform.shape == (1, 16000)
        assert not waveform.any()

    def test_probe_output_may_be_non_finite(self, tmp_path, fake_runtime):
        fake_runtime.InferenceSession = NanSession
        path = write_fake_model(tmp_path / "m.onnx", outputs=[["emb", [1, "dim"]]])
        assert load_backend(model_path=str(path)).dimension == 4

    def test_probe_that_fails_is_a_load_error(self, symbolic_onnx_model, monkeypatch):
        monkeypatch.setattr(FakeSession, "run", _refuse_to_run)
        with pytest.raises(ModelLoadError, match=f"^model {symbolic_onnx_model} cannot embed "
                           "1 s of silence: session run$"):
            load_backend(model_path=str(symbolic_onnx_model))

    def test_reopened_backend_keeps_the_dimension(self, symbolic_onnx_model, monkeypatch):
        # a worker's backend takes the probed dimension and never probes again
        backend = load_backend(model_path=str(symbolic_onnx_model))
        monkeypatch.setattr(FakeSession, "run", _refuse_to_run)
        reopened = backend.reopened()
        assert reopened.dimension == 5 and reopened._session is not backend._session

    def test_two_input_graph_rejected(self, tmp_path, fake_runtime):
        path = write_fake_model(tmp_path / "m.onnx",
                                inputs=[["wave", [1, "n"]], ["mask", [1, "n"]]])
        with pytest.raises(SchemaError, match="found 2 inputs and 1 outputs$"):
            load_backend(model_path=str(path))

    def test_two_output_graph_rejected(self, tmp_path, fake_runtime):
        path = write_fake_model(tmp_path / "m.onnx",
                                outputs=[["emb", [1, 4]], ["logits", [1, 7]]])
        with pytest.raises(SchemaError, match="found 1 inputs and 2 outputs$"):
            load_backend(model_path=str(path))

    def test_garbage_model_file(self, tmp_path, fake_runtime):
        # the runtime cannot read the file, and its error becomes ModelLoadError
        path = tmp_path / "bad.onnx"
        path.write_bytes(b"\xff\xff\xff\xff not a model")
        with pytest.raises(ModelLoadError, match=f"^cannot load model {path}: "):
            load_backend(model_path=str(path))

    def test_missing_model_file(self, tmp_path, fake_runtime):
        with pytest.raises(ModelLoadError, match="^cannot load model .*absent.onnx"):
            load_backend(model_path=str(tmp_path / "absent.onnx"))

    @pytest.mark.skipif(HAVE_ORT, reason="exercises the missing-runtime error path")
    def test_valid_graph_without_runtime(self, tmp_path):
        path = write_fake_model(tmp_path / "ok.onnx")
        with pytest.raises(ModelLoadError, match="onnxruntime is required"):
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


class TestCheckDimension:
    def test_only_checks(self):
        check_dimension(4, np.ones(4))
        with pytest.raises(DimensionMismatch, match="^model produced dimension 5, expected 4$"):
            check_dimension(4, np.ones(5))
        check_dimension(4, np.ones(4))  # the mismatch fixed nothing
