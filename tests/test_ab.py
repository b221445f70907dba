"""The verdict of ``probes/ab.py`` on fixed numbers; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "probes" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


def test_nine_wins_and_a_gap_past_the_parent_spread_are_a_gain():
    change = [p - 10.0 for p in PARENT]
    change[3] = PARENT[3] + 1.0  # one lost pair of ten still allows a gain
    result = ab.verdict(PARENT, change, "lower", 0.25)
    assert result["wins"] == 9
    assert result["verdict"] == "gain"
    assert result["parent"]["median"] == 104.5


def test_eight_wins_are_no_gain():
    change = [p - 10.0 for p in PARENT]
    change[3], change[4] = PARENT[3] + 1.0, PARENT[4] + 1.0
    result = ab.verdict(PARENT, change, "lower", 0.25)
    assert (result["wins"], result["verdict"]) == (8, "no worse")


def test_wins_inside_the_parent_spread_are_no_gain():
    # the change wins every pair, but by less than the parent's q3 - q1
    result = ab.verdict(PARENT, [p - 1.0 for p in PARENT], "lower", 0.25)
    assert (result["wins"], result["verdict"]) == (10, "no worse")


def test_ties_count_for_neither_side():
    assert ab.verdict(PARENT, list(PARENT), "lower", 0.25)["wins"] == 0


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    assert ab.verdict(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)["verdict"] == "regression"
    assert ab.verdict(PARENT, [1.2 * p for p in PARENT], "lower", 0.25)["verdict"] == "no worse"


def test_higher_is_better_turns_the_comparison():
    assert ab.verdict(PARENT, [p + 10.0 for p in PARENT], "higher", 0.25)["verdict"] == "gain"
    assert ab.verdict(PARENT, [0.7 * p for p in PARENT], "higher", 0.25)["verdict"] == "regression"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_spread_wider_than_the_bound_is_unresolved(side):
    wide = [50.0, 150.0] * 5
    parent, change = (wide, PARENT) if side == "parent" else (PARENT, wide)
    result = ab.verdict(parent, change, "lower", 0.25)
    assert result["verdict"] == "unresolved"
    assert result[side]["q3"] - result[side]["q1"] == 100.0


def test_unequal_run_counts_are_refused():
    with pytest.raises(ValueError):
        ab.verdict(PARENT, PARENT[:-1], "lower", 0.25)
