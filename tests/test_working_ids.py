"""Working ids are phase-local inside real compressions.

Every phase starts on a text whose ``k`` symbols are numbered ``0..k-1`` in
order of first occurrence, with every other alias dropped, so
``text.width == k``: the first phase as ``ingest`` numbers the input,
each later one as the rename that ends the phase before it leaves the
text.  The block and pair stages of that phase then mint their symbols
from ``k`` up, and after every stage and rename each cell still lies in
``[0, width)``.  Spies on the driver's stage functions check this at every
phase of the golden-corpus inputs and of seeded inputs, in both modes.
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
def test_phases_start_numbered_from_zero_and_stages_mint_from_k(monkeypatch, mode):
    run_phase, rename = driver.run_phase, driver.rename_dense
    blocks, pairs = driver.compress_blocks, driver.compress_pairs
    phase = {}

    def spy_phase(text, *args):
        live = text.live()
        k = len(np.unique(live))
        # The text is in first-occurrence order: renaming it would be the identity.
        assert np.array_equal(live, reference_first_occurrence_ids(live)[0])
        assert text.width == k
        phase["k"] = k
        phase["phases"] += 1
        return run_phase(text, *args)

    def in_alphabet(text):
        assert 0 <= text.cells.min() and text.cells.max() < text.width

    def spy_rename(text):
        canonical = text.alias[text.live()]
        rename(text)
        assert np.array_equal(text.alias[text.live()], canonical)
        in_alphabet(text)
        phase["renames"] += 1

    def minting(stage):
        def spy(text, *args):
            old = set(live_list(text))
            start = text.width
            assert start >= phase["k"]
            out = stage(text, *args)
            minted = set(live_list(text)) - old
            assert all(phase["k"] <= w < text.width for w in minted)
            assert text.width - start == len(out.symbols)
            in_alphabet(text)
            return out

        return spy

    monkeypatch.setattr(driver, "run_phase", spy_phase)
    monkeypatch.setattr(driver, "rename_dense", spy_rename)
    monkeypatch.setattr(driver, "compress_blocks", minting(blocks))
    monkeypatch.setattr(driver, "compress_pairs", minting(pairs))
    total = 0
    for data in inputs():
        phase["phases"] = phase["renames"] = 0
        result = driver.compress(data, mode=mode)
        assert phase["phases"] == phase["renames"] == len(result.traces)
        assert expand(result.slp) == data
        total += phase["phases"]
    assert total > 300
