"""Block rules are numbered level by level; only rule ids move.

``build_block_rules`` emits each batch level by level, so that the range
walk of ``grammar._ranges`` takes few steps.  The letter-by-letter order it
replaced is kept as ``reference_build_block_rules``.  Compressing with
either order must give the same grammar up to one rule-id map, and the same
sizes, rule counts, expansions, phase tables and traces.
"""

import random

import pytest

import test_golden
from helpers import (
    assert_same_up_to_rule_ids,
    compress_in_reference_order,
    reference_symbol_depths,
)
from slpcompress import compress
from slpcompress.grammar import _ranges

MODES = ["plain", "improved"]


def seeded_input(seed: int):
    """A short input with runs: a few letters, some runs up to 40 long."""
    rng = random.Random(seed)
    n = rng.randrange(2, 160)
    pool = [rng.randrange(256) for _ in range(rng.randrange(1, 9))]
    if seed % 2:
        pool = [rng.randrange(2**32) for _ in pool]
    p_run = rng.random()
    out = []
    while len(out) < n:
        run = rng.randrange(2, 40) if rng.random() < p_run else 1
        out.extend([rng.choice(pool)] * run)
    return out[:n] if seed % 2 else bytes(out[:n])


@pytest.mark.parametrize("gen,seed,mode", sorted(test_golden.GOLDEN))
def test_golden_corpus_differs_only_in_rule_ids(gen, seed, mode):
    data = getattr(test_golden, gen)(seed)
    assert_same_up_to_rule_ids(compress(data, mode=mode), compress_in_reference_order(data, mode))


@pytest.mark.parametrize("mode", MODES)
def test_seeded_inputs_differ_only_in_rule_ids(mode):
    for seed in range(1000):
        data = seeded_input(seed)
        assert_same_up_to_rule_ids(
            compress(data, mode=mode), compress_in_reference_order(data, mode)
        )


@pytest.mark.parametrize("gen,seed,mode", sorted(test_golden.GOLDEN))
def test_range_count_at_most_twice_the_level_count(gen, seed, mode):
    """Guard on the emission order: each batch adds few ranges.

    A topological order cannot have fewer ranges than the grammar has
    levels (the longest rule chain).  The letter-by-letter order had up to
    65 times as many on this corpus.
    """
    slp = compress(getattr(test_golden, gen)(seed), mode=mode).slp
    levels = max(reference_symbol_depths(slp)[slp.terminal_count :], default=0)
    assert len(_ranges(slp)) <= 2 * levels
