"""Cosine metric and pair scoring tests."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracles
from cloneval.errors import LengthMismatch
from cloneval.features import FEATURE_IDS
from cloneval.similarity import (
    FLAG_BOTH_ZERO,
    FLAG_ONE_ZERO,
    cosine,
    score_pair,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=2, max_size=16)


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 0.5])
        assert cosine(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance(self):
        u = np.array([0.2, 0.4, -0.1])
        assert abs(cosine(u, 3.0 * u) - 1.0) < 1e-12

    def test_both_zero_policy(self):
        z = np.zeros(4)
        assert cosine(z, z) == 1.0

    def test_one_zero_policy(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_antiparallel_clamped(self):
        u = np.array([1.0, 1e-8])
        assert cosine(u, -u) == -1.0

    @given(vectors)
    def test_hypothesis_self_is_one(self, values):
        v = np.array(values)
        if np.linalg.norm(v) > 0:
            assert cosine(v, v) == 1.0

    @given(vectors, st.floats(min_value=1e-3, max_value=1e3))
    def test_hypothesis_scale_invariant(self, values, scale):
        v = np.array(values)
        # scaling must not underflow an entry to zero (e.g. 0.5 * 5e-324),
        # which changes the vector and, for a lone entry, its zero-norm flag
        assume(np.array_equal(scale * v != 0, v != 0))
        u = np.roll(v, 1) + 1.0
        assert abs(cosine(u, v) - cosine(u, scale * v)) < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_on_either_side(self, bad):
        finite = np.array([1.0, 1.0])
        broken = np.array([bad, 1.0])
        with pytest.raises(ValueError):
            cosine(broken, finite)
        with pytest.raises(ValueError):
            cosine(finite, broken)

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            assert abs(cosine(u, v) - oracles.cosine(u, v)) < 1e-12


def _side(embedding=None, **summaries):
    """A full side: every feature in FEATURE_IDS, ones unless given, plus the embedding."""
    side = {fid: np.asarray(summaries.get(fid, np.ones(4)), dtype=float) for fid in FEATURE_IDS}
    if embedding is not None:
        side["embedding"] = np.asarray(embedding, dtype=float)
    return side


class TestScorePair:
    def test_self_pair_all_ones(self):
        side = _side(rms=[0.1, 0.2, 0.3], chromagram=np.arange(12.0), embedding=[0.5, -0.5, 1.0])
        record = score_pair("x", "neutral", side, side)
        assert list(record.scores) == ["embedding", *FEATURE_IDS]
        for value in record.scores.values():
            assert abs(value - 1.0) <= 1e-6

    def test_orthogonal_mel_profiles(self):
        a = np.zeros(128); a[0] = 1.0
        b = np.zeros(128); b[1] = 1.0
        record = score_pair("x", "unknown", _side(mel_spectrogram=a), _side(mel_spectrogram=b))
        assert record.scores["mel_spectrogram"] == 0.0
        assert list(record.scores) == list(FEATURE_IDS)

    def test_embedding_fixture_matches_hand_cosine(self):
        u = [0.3, -1.2, 0.5, 2.0]
        v = [1.0, 0.4, -0.2, 1.5]
        record = score_pair("x", "unknown", _side(embedding=u), _side(embedding=v))
        assert abs(record.scores["embedding"] - 0.609109590101505) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = _side(rng.standard_normal(4), rms=rng.random(6), chromagram=rng.random(12))
        b = _side(rng.standard_normal(4), rms=rng.random(6), chromagram=rng.random(12))
        fwd = score_pair("p", "anger", a, b)
        rev = score_pair("p", "anger", b, a)
        assert fwd.scores == rev.scores
        assert fwd.flags == rev.flags

    def test_zero_norm_flags_surface(self):
        z = _side(rms=np.zeros(4))
        n = _side(rms=np.ones(4))
        both = score_pair("p", "unknown", z, z)
        assert both.scores["rms"] == 1.0
        assert both.flags == {"rms": FLAG_BOTH_ZERO}
        one = score_pair("p", "unknown", z, n)
        assert one.scores["rms"] == 0.0
        assert one.flags == {"rms": FLAG_ONE_ZERO}

    def test_feature_set_drift_rejected(self):
        partial = _side()
        del partial["rms"]
        for ref, gen in ((_side(), partial), (partial, _side()), (partial, partial)):
            with pytest.raises(LengthMismatch, match=r"missing \['rms'\], extra \[\]"):
                score_pair("p", "unknown", ref, gen)

    def test_embedding_on_one_side_rejected(self):
        with pytest.raises(LengthMismatch, match=r"generated side .* missing \['embedding'\]"):
            score_pair("p", "unknown", _side(embedding=[1.0, 2.0]), _side())
        with pytest.raises(LengthMismatch, match=r"generated side .* extra \['embedding'\]"):
            score_pair("p", "unknown", _side(), _side(embedding=[1.0, 2.0]))

    def test_unknown_metric_rejected(self):
        side = dict(_side(), mfcc=np.ones(2))
        with pytest.raises(LengthMismatch, match=r"missing \[\], extra \['mfcc'\]"):
            score_pair("p", "unknown", side, side)

    def test_nonnegative_vectors_score_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = rng.random(16)
            v = rng.random(16)
            assert 0.0 <= cosine(u, v) <= 1.0
