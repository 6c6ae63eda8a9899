"""Every rule of a compressed grammar is reachable from its start.

Plain mode emits its grammar as built, so it relies on this directly.
Improved mode passes its snapshot through ``prune_unreachable``; the
snapshot keeps only rules that the remaining text still reaches, so the
prune must hand back the grammar it was given.
"""

import random

import test_golden
import test_stop_rule
from helpers import reference_prune_unreachable

from slpcompress import driver


def inputs():
    for gen, seed, mode in sorted(test_golden.GOLDEN):
        if mode == "plain":
            yield getattr(test_golden, gen)(seed)
    rng = random.Random(4410)
    for _ in range(500):
        yield test_stop_rule.seeded_input(rng)


def test_plain_grammars_have_no_unreachable_rule():
    for data in inputs():
        slp = driver.compress(data, mode="plain").slp
        assert reference_prune_unreachable(slp) == slp


def test_improved_mode_prune_removes_nothing(monkeypatch):
    pruned = []

    def spy(slp):
        out = prune(slp)
        pruned.append((slp, out))
        return out

    prune = driver.prune_unreachable
    monkeypatch.setattr(driver, "prune_unreachable", spy)
    runs = 0
    for data in inputs():
        slp = driver.compress(data, mode="improved").slp
        runs += 1
        assert len(pruned) == runs and pruned[-1][1] is slp
        assert reference_prune_unreachable(slp) == slp
    for before, after in pruned:
        assert after == before
