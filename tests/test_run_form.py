"""The first phase starts from the input's runs, as the full-text route did.

``ingest`` hands the first block stage the input's runs, and no working
text is built at the input's full length.
``helpers.reference_full_text_compress`` keeps the route this replaced: a
full-length input, and every block stage a scan of the full text, a
write of each block's head cell and run-start mask and a compaction.  Both must give the same grammars, traces, phase tables and
snapshots.  The oracle also counts the distinct pairs at every row that
improved mode prices, so the driver's stop decisions are checked against
the exact count too.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest
import test_golden
import test_stop_rule
from helpers import reference_full_text_compress

from slpcompress import driver
from slpcompress.grammar import serialize


def counts(trace):
    """A phase trace without its stage timings."""
    return {k: v for k, v in asdict(trace).items() if not k.endswith("_s")}


@pytest.fixture
def snapshots(monkeypatch):
    """The text of every snapshot ``driver.compress`` takes, in order."""
    taken = []
    real = driver.BestSnapshot

    def spy(size, phase, text_canonical, rule_watermark):
        taken.append(text_canonical)
        return real(size, phase, text_canonical, rule_watermark)

    monkeypatch.setattr(driver, "BestSnapshot", spy)
    return taken


def assert_same_run(snapshots, data, mode):
    snapshots.clear()
    got = driver.compress(data, mode=mode)
    want, want_snapshots = reference_full_text_compress(data, mode)
    assert serialize(got.slp) == serialize(want.slp)
    assert [counts(t) for t in got.traces] == [counts(t) for t in want.traces]
    assert got.phase_table == want.phase_table
    assert (got.best_phase, got.input_length) == (want.best_phase, want.input_length)
    assert got.snapshot_copy_work == want.snapshot_copy_work
    assert len(snapshots) == len(want_snapshots)
    for a, b in zip(snapshots, want_snapshots):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["plain", "improved"])
def test_seeded_inputs_match_the_full_text_route(snapshots, mode):
    rng = random.Random(6061)
    for _ in range(200):
        assert_same_run(snapshots, test_stop_rule.seeded_input(rng), mode)


@pytest.mark.parametrize("mode", ["plain", "improved"])
@pytest.mark.parametrize("gen", ["random_bytes", "revised_text", "token_runs", "zipf_runs",
                                 "wide_tokens"])
def test_golden_corpus_matches_the_full_text_route(snapshots, gen, mode):
    for seed in range(3):
        assert_same_run(snapshots, getattr(test_golden, gen)(seed), mode)


@pytest.mark.parametrize("data", [
    b"", b"a", b"aa", b"ab", b"a" * 1000, b"ab" * 500, [7] * 64, [5, 5, 6, 6, 6, 5],
    bytes(range(256)), bytes(range(256)) * 2 + b"\xff" * 9,
])
@pytest.mark.parametrize("mode", ["plain", "improved"])
def test_edge_inputs_match_the_full_text_route(snapshots, data, mode):
    assert_same_run(snapshots, data, mode)
