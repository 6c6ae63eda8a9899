"""The verdict rule and summary of ``tools/ab_bench.py``, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)
verdict = ab_bench.verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
_SPEC_JSON = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in _SPEC_JSON["end_to_end"]]


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


def test_summary_names_the_pairs_of_each_verdict():
    lines = ab_bench.summary({
        ("random64", "compress_peak_MB"): "gain",
        ("versions", "compress_peak_MB"): "gain",
        ("random64", "cli_stats_s"): "unresolved",
    })
    assert lines == [
        "gain: random64 compress_peak_MB, versions compress_peak_MB",
        "within bound: none",
        "unresolved: random64 cli_stats_s",
        "worse: none",
    ]


def _fake_runs(monkeypatch, change_factor):
    """Replace the benchmark runs with fixed results; the change's
    ``compress_Msym_s`` is the parent's times ``change_factor``."""
    monkeypatch.setattr(ab_bench, "export_parent", lambda rev, into: into)

    def run_once(tree, workload, seed, seconds, trace):
        factor = 1.0 if tree != ab_bench.ROOT else change_factor
        values = {m: 1.0 for m in METRICS}
        values["compress_Msym_s"] = STEADY[run_once.calls % len(STEADY)] * factor
        run_once.calls += 1
        return {
            "metrics": {m: {"value": v} for m, v in values.items()},
            "failed": 0,
            "grammar_sha256": "g",
            "plain_grammar_sha256": "p",
        }

    run_once.calls = 0
    monkeypatch.setattr(ab_bench, "run_once", run_once)


@pytest.mark.parametrize("factor, status, verdict_line", [
    (1.0, 0, "within bound: random64 compress_Msym_s,"),
    (2.0, 0, "gain: random64 compress_Msym_s"),
    (0.5, 1, "worse: random64 compress_Msym_s"),
])
def test_exit_status_is_one_only_when_a_pair_reads_worse(
    monkeypatch, capsys, tmp_path, factor, status, verdict_line
):
    _fake_runs(monkeypatch, factor)
    argv = ["--dir", str(tmp_path), "--pairs", "10", "--workload", "random64"]
    assert ab_bench.main(argv) == status
    out = capsys.readouterr().out
    summary = out[out.index("\nverdicts\n"):].splitlines()
    assert [line.split(":")[0].strip() for line in summary[2:]] == list(ab_bench.VERDICTS)
    assert any(line.strip().startswith(verdict_line) for line in summary)
