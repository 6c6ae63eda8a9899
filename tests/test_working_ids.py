"""Working ids are phase-local inside real compressions.

Each phase starts by renaming the ``k`` symbols of the text to ``0..k-1``
in order of first occurrence, which drops every other alias, so
``next_working == k``.  The block and pair stages of that phase then mint
their symbols from ``k`` up.  Spies on the driver's stage functions check
this at every phase of the golden-corpus inputs and of seeded inputs, in
both modes.
"""

import random

import numpy as np
import pytest
import test_golden
import test_stop_rule
from helpers import live_list, reference_first_occurrence_ids

from slpcompress import driver
from slpcompress.grammar import expand


def inputs():
    for gen, seed in sorted({(gen, seed) for gen, seed, _ in test_golden.GOLDEN}):
        yield getattr(test_golden, gen)(seed)
    rng = random.Random(2718)
    for _ in range(300):
        yield test_stop_rule.seeded_input(rng)


@pytest.mark.parametrize("mode", ["plain", "improved"])
def test_rename_numbers_from_zero_and_stages_mint_from_k(monkeypatch, mode):
    rename, blocks, pairs = driver.rename_dense, driver.compress_blocks, driver.compress_pairs
    phase = {}

    def spy_rename(text, amap):
        canonical = amap.canonical_of_array(text.live())
        rename(text, amap)
        live = text.live()
        k = len(np.unique(live))
        # Renumbering a text that is already in first-occurrence order is the identity.
        assert np.array_equal(live, reference_first_occurrence_ids(live)[0])
        assert amap.next_working == k
        assert np.array_equal(amap.canonical_of_array(live), canonical)
        phase["k"] = k
        phase["renames"] += 1

    def minting(stage):
        def spy(text, *args):
            amap = args[-1]
            old = set(live_list(text))
            start = amap.next_working
            assert start >= phase["k"]
            out = stage(text, *args)
            minted = set(live_list(text)) - old
            assert all(phase["k"] <= w < amap.next_working for w in minted)
            assert amap.next_working - start == len(out.symbols)
            return out

        return spy

    monkeypatch.setattr(driver, "rename_dense", spy_rename)
    monkeypatch.setattr(driver, "compress_blocks", minting(blocks))
    monkeypatch.setattr(driver, "compress_pairs", minting(pairs))
    total = 0
    for data in inputs():
        phase["renames"] = 0
        result = driver.compress(data, mode=mode)
        assert phase["renames"] == len(result.traces)
        assert expand(result.slp) == data
        total += phase["renames"]
    assert total > 300
