"""The verdict rule of ``tools/ab_bench.py``, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)
verdict = ab_bench.verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def scaled(runs, factor):
    return [v * factor for v in runs]


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_equal_runs_are_within_bound(better):
    assert verdict(STEADY, list(STEADY), better, 0.25) == "within bound"


def test_a_clear_gain_either_way():
    assert verdict(STEADY, scaled(STEADY, 2.0), "higher", 0.25) == "gain"
    assert verdict(STEADY, scaled(STEADY, 0.5), "lower", 0.25) == "gain"


def test_worse_by_more_than_the_bound():
    assert verdict(STEADY, scaled(STEADY, 0.7), "higher", 0.25) == "worse"
    assert verdict(STEADY, scaled(STEADY, 1.3), "lower", 0.25) == "worse"


def test_worse_inside_the_bound():
    assert verdict(STEADY, scaled(STEADY, 0.8), "higher", 0.25) == "within bound"
    assert verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.25) == "within bound"


def test_a_gain_needs_nine_wins_in_ten():
    change = scaled(STEADY, 1.1)
    assert verdict(STEADY, change, "higher", 0.25) == "gain"
    change[0] = change[1] = 50.0  # two pairs lost: 8 wins of 10
    assert verdict(STEADY, change, "higher", 0.25) == "within bound"
    change[1] = STEADY[1]  # a tie counts for neither side: 8 wins
    assert verdict(STEADY, change, "higher", 0.25) == "within bound"


def test_a_gain_must_clear_the_parent_spread():
    # Every pair won, but the median moved by less than the quartile spread.
    parent = [90.0, 110.0] * 5
    change = [v + 1.0 for v in parent]
    assert verdict(parent, change, "higher", 0.25) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [60.0, 140.0] * 5  # quartile spread 80% of the median
    assert verdict(parent, list(parent), "higher", 0.25) == "unresolved"
    assert verdict(parent, scaled(parent, 0.5), "higher", 0.25) == "unresolved"
    assert verdict(parent, scaled(parent, 2.0), "lower", 0.25) == "unresolved"


def test_beating_every_parent_run_resolves_a_wide_spread():
    parent = [60.0, 140.0] * 5
    assert verdict(parent, [200.0] * 10, "higher", 0.25) == "gain"
    assert verdict(parent, [10.0] * 10, "lower", 0.25) == "gain"
    # Resolved, but the median moved by less than the spread: no gain.
    assert verdict(parent, [150.0] * 10, "higher", 0.25) == "within bound"
    # Beating all but one parent run leaves it unresolved.
    assert verdict(parent, [150.0] * 9 + [139.0], "higher", 0.25) == "unresolved"


def test_a_fixed_metric_with_a_tight_bound():
    ones = [1.0] * 10
    assert verdict(ones, list(ones), "higher", 0.0001) == "within bound"
    assert verdict(ones, [1.0] * 9 + [0.5], "higher", 0.0001) == "within bound"
    assert verdict(ones, [0.5] * 10, "higher", 0.0001) == "worse"
