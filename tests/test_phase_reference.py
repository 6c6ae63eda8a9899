"""Cross-check one vectorized phase against a plain-dict reference.

The reference rebuilds the phase semantics with nothing but lists and
Counters: first-occurrence renaming, maximal-block replacement with fresh
names allocated in (letter, length) order, the greedy split over ascending
ids with the ties-go-left rule and the strict swap, and simultaneous
replacement of the selected pairs.  Outcomes are compared as
first-occurrence patterns, so naming is factored out while order and
every replacement decision are pinned.
"""

import random
from collections import Counter

import numpy as np

from helpers import live_list, reference_greedy_partition
from slpcompress import driver
from slpcompress.alphabet import ingest
from slpcompress.driver import run_phase
from slpcompress.grammar import Slp, expand
from slpcompress.pairs import greedy_partition


def canonical_pattern(seq):
    rank = {}
    out = []
    for x in seq:
        if x not in rank:
            rank[x] = len(rank)
        out.append(rank[x])
    return out


def reference_phase(seq):
    s = canonical_pattern(seq)
    k = len(set(s))
    # block stage: fresh names in ascending (letter, length) order
    runs = []
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            j += 1
        runs.append((s[i], j - i))
        i = j
    distinct_blocks = sorted({(letter, ln) for letter, ln in runs if ln >= 2})
    block_sym = {key: k + idx for idx, key in enumerate(distinct_blocks)}
    t = []
    blocks_compressed = 0
    for letter, ln in runs:
        if ln >= 2:
            t.append(block_sym[(letter, ln)])
            blocks_compressed += 1
        else:
            t.append(letter)

    # greedy split over ascending ids; every neighbour occurrence bumps the
    # counter of the chosen side, ties go left, strict swap at the end
    pairs = Counter(zip(t, t[1:]))
    count_l = Counter()
    count_r = Counter()
    left, right = set(), set()
    for x in sorted(set(t)):
        if count_r[x] >= count_l[x]:
            left.add(x)
            tgt = count_l
        else:
            right.add(x)
            tgt = count_r
        for (a, b), c in pairs.items():
            if a == x:
                tgt[b] += c
            if b == x:
                tgt[a] += c
    cover_lr = sum(c for (a, b), c in pairs.items() if a in left and b in right)
    cover_rl = sum(c for (a, b), c in pairs.items() if a in right and b in left)
    if cover_rl > cover_lr:
        left, right = right, left
        chosen = cover_rl
    else:
        chosen = cover_lr

    out = []
    i = 0
    while i < len(t):
        if i + 1 < len(t) and t[i] in left and t[i + 1] in right:
            out.append(("pair", t[i], t[i + 1]))
            i += 2
        else:
            out.append(t[i])
            i += 1
    return out, blocks_compressed, chosen, cover_lr + cover_rl


def test_phase_matches_reference_on_random_inputs():
    rng = random.Random(2718)
    for _ in range(150):
        sigma = rng.randint(1, 12)
        n = rng.randint(2, 300)
        data = bytes(rng.randrange(sigma) for _ in range(n))
        text, _, terminals = ingest(data)
        grammar = Slp("bytes", terminals)
        trace = run_phase(text, grammar, 1)
        want, blocks_compressed, chosen, pre_swap = reference_phase(list(data))
        assert canonical_pattern(live_list(text)) == canonical_pattern(want)
        assert trace.blocks_compressed == blocks_compressed
        assert trace.pairs_compressed == chosen
        assert trace.cover_pre_swap == pre_swap


def test_phase_matches_reference_on_structured_inputs():
    cases = [
        b"abababab",
        b"aaaabbbbaaaabbbb",
        b"aabbaabbaa",
        b"abcabcabc",
        b"zzzzzzzz",
        b"aba",
        b"ab",
        b"aa",
        bytes([0, 1, 0, 2, 0, 1, 0, 2, 0]),
    ]
    for data in cases:
        text, _, terminals = ingest(data)
        grammar = Slp("bytes", terminals)
        trace = run_phase(text, grammar, 1)
        want, blocks_compressed, chosen, pre_swap = reference_phase(list(data))
        assert canonical_pattern(live_list(text)) == canonical_pattern(want)
        assert trace.blocks_compressed == blocks_compressed
        assert trace.pairs_compressed == chosen
        assert trace.cover_pre_swap == pre_swap


def _greedy_inputs():
    rng = random.Random(1618)
    for _ in range(100):  # short texts over tiny alphabets, where swaps happen
        sigma = rng.randint(2, 6)
        yield bytes(rng.randrange(sigma) for _ in range(rng.randint(2, 60)))
    for _ in range(12):  # bytes over small to full alphabets
        sigma = rng.choice([2, 3, 5, 16, 64, 256])
        yield bytes(rng.randrange(sigma) for _ in range(rng.randint(2, 3000)))
    for _ in range(6):  # block-heavy bytes: long runs of few letters
        out = bytearray()
        while len(out) < 2000:
            out += bytes([rng.randrange(4)]) * rng.randint(1, 12)
        yield bytes(out)
    for _ in range(6):  # wide-alphabet tokens, mostly distinct
        yield [rng.randrange(2**32) for _ in range(rng.randint(2, 3000))]
    for _ in range(6):  # skewed tokens in runs
        pool = [rng.randrange(2**32) for _ in range(rng.randint(2, 400))]
        out = []
        while len(out) < 2000:
            tok = pool[min(int(rng.expovariate(0.05)), len(pool) - 1)]
            out += [tok] * rng.randint(1, 6)
        yield out


def test_greedy_matches_two_counter_reference_at_every_phase(monkeypatch):
    """The one-walk split equals the two-counter, two-walk reference.

    Every phase of whole compressions is checked, so later phases with
    fresh block and pair symbols and wide working intervals are covered,
    not only the first phase over the input alphabet.
    """
    phases = swaps = 0

    def checked(adj):
        nonlocal phases, swaps
        part = greedy_partition(adj)
        want = reference_greedy_partition(adj)
        assert np.array_equal(part.in_left, want.in_left)
        assert np.array_equal(part.in_right, want.in_right)
        assert part.cover_pre_swap == want.cover_pre_swap
        assert part.cover_chosen == want.cover_chosen
        assert part.swapped == want.swapped
        phases += 1
        swaps += part.swapped
        return part

    monkeypatch.setattr(driver, "greedy_partition", checked)
    for data in _greedy_inputs():
        assert expand(driver.compress(data, mode="plain").slp) == data
    assert phases > 500 and swaps > 0
