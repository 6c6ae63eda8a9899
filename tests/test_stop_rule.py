"""Improved mode stops once no later phase can beat the best snapshot.

For a row ``k`` with text length ``L_k``, grammar size ``S_k`` and ``P_k``
distinct adjacent pairs (equal neighbours included), every later row ``j``
has ``L_j + S_j >= S_k + P_k + 1``.  The driver stops at the first row
that is not a new best once that bound reaches the best stop cost, so its
output must equal a run through every phase.  It counts ``P_k`` only when
``width - 1 <= P_k <= L_k - 1`` leaves the decision open, and decides as
the exact count would.
"""

import random
from dataclasses import asdict

import numpy as np

import test_golden
from helpers import live_list, reference_compress_improved, reference_full_text_compress
from slpcompress import driver
from slpcompress.alphabet import ingest
from slpcompress.driver import compress, run_phase
from slpcompress.grammar import Slp, serialize
from slpcompress.pairs import distinct_pairs
from slpcompress.text import WorkingText


def counts(trace):
    """A phase trace without its stage timings."""
    return {k: v for k, v in asdict(trace).items() if not k.endswith("_s")}


def seeded_input(rng: random.Random):
    """Bytes or tokens of 0 to 5000 symbols: random, runs, repeats or a distinct prefix."""
    n = rng.choice([0, 1, 2, 3, rng.randrange(4, 64), int(5000 ** rng.random()), 5000])
    shape = rng.randrange(5)
    if shape == 0:  # random over a small alphabet
        sigma = rng.randrange(1, 9)
        seq = [rng.randrange(sigma) for _ in range(n)]
    elif shape == 1:  # runs
        seq = []
        while len(seq) < n:
            seq += [rng.randrange(6)] * rng.randrange(1, 12)
    elif shape == 2:  # a repeated text with point edits
        chunk = [rng.randrange(26) for _ in range(rng.randrange(1, 80))]
        seq = []
        while len(seq) < n:
            chunk[rng.randrange(len(chunk))] = rng.randrange(26)
            seq += chunk
    elif shape == 3:  # distinct prefix + X * R
        prefix = list(range(100, 100 + rng.randrange(n // 2 + 1)))
        x = [rng.randrange(10) for _ in range(rng.randrange(1, 6))]
        seq = prefix + x * (n // len(x) + 1)
    else:  # wide alphabet, few repeats
        seq = [rng.randrange(n // 2 + 1) for _ in range(n)]
    seq = seq[:n]
    if rng.random() < 0.5 and max(seq, default=0) < 256:
        return bytes(seq)
    return [v * 2654435761 % 2**32 for v in seq] if rng.random() < 0.5 else seq


def test_equals_a_run_through_every_phase():
    rng = random.Random(20260)
    stopped_early = 0
    for _ in range(1000):
        data = seeded_input(rng)
        got = compress(data, mode="improved")
        want = reference_compress_improved(data)
        assert serialize(got.slp) == serialize(want.slp)
        assert got.best_phase == want.best_phase
        assert got.snapshot_copy_work == want.snapshot_copy_work
        rows = len(got.phase_table)
        assert got.phase_table == want.phase_table[:rows]
        assert rows == len(got.traces) + 1 == len(got.traces) + 1
        assert [counts(t) for t in got.traces] == [counts(t) for t in want.traces[: rows - 1]]
        stopped_early += rows < len(want.phase_table)
    assert stopped_early >= 300


def test_pinned_token_input():
    data = list(range(100, 132)) + [7, 8, 9] * 16
    want = reference_compress_improved(data)
    assert [live + size for live, size in want.phase_table][:4] == [80, 82, 76, 73]
    got = compress(data, mode="improved")
    assert got.slp.size == 73
    assert got.best_phase == 3
    assert serialize(got.slp) == serialize(want.slp)
    # Row 1 is not a new best, but the bound does not reach 80 there.
    assert len(got.phase_table) < len(want.phase_table)


def test_plain_mode_runs_every_phase():
    rng = random.Random(4)
    data = bytes(rng.randrange(64) for _ in range(3000))
    plain = compress(data, mode="plain")
    assert plain.phase_table[-1][0] == 1
    assert len(compress(data, mode="improved").traces) < len(plain.traces)


def phase_rows(data):
    """(L, S, P) at the top of every phase, running to a single symbol.

    The text starts compact, at full length, so that ``distinct_pairs`` can
    read it at phase 0 too.
    """
    text, kind, terminals = ingest(data)
    text = WorkingText(live_list(text))
    grammar = Slp(kind, terminals)
    rows = []
    while True:
        lv = text.live().tolist()
        pairs = len(set(zip(lv, lv[1:])))
        assert distinct_pairs(text) == pairs
        rows.append((len(lv), grammar.size, pairs))
        if len(lv) <= 1:
            return rows
        run_phase(text, grammar, len(rows))


def test_lower_bound_on_later_stop_costs():
    rng = random.Random(99)
    inputs = [seeded_input(rng) for _ in range(150)]
    for r in (1, 7, 300, 2000):
        for x in ([5], [5, 6], [5, 6, 5, 7], [1, 2, 3, 4, 5]):
            inputs.append(list(range(100, 100 + rng.randrange(1, 60))) + x * r)
    inputs.append(np.random.default_rng(3).integers(0, 64, 4000, dtype=np.uint8).tobytes())
    for data in inputs:
        rows = phase_rows(data)
        for k, (_, s_k, p_k) in enumerate(rows):
            later = [l_j + s_j for l_j, s_j, _ in rows[k + 1 :]]
            assert all(cost >= s_k + p_k + 1 for cost in later)
        # The driver stops at the first row that is not a new best and
        # whose bound reaches the best stop cost, or after the last phase.
        best = stop = None
        for k, (l_k, s_k, p_k) in enumerate(rows):
            if best is None or l_k + s_k < best:
                best = l_k + s_k
            elif s_k + p_k + 1 >= best:
                stop = k
                break
        stop = len(rows) - 1 if stop is None else stop
        assert len(compress(data, mode="improved").phase_table) == stop + 1


def count_exact_counts(monkeypatch) -> list:
    """Record each call of the driver's exact pair count."""
    calls = []
    real = driver.distinct_pairs

    def spy(text):
        calls.append(len(text))
        return real(text)

    monkeypatch.setattr(driver, "distinct_pairs", spy)
    return calls


def priced_rows_match_the_exact_count(data) -> int:
    """Compare with a run that counts ``P_k`` at every row; returns the rows priced after phase 0."""
    got = compress(data, mode="improved")
    want, _ = reference_full_text_compress(data, "improved")
    assert serialize(got.slp) == serialize(want.slp)
    assert got.phase_table == want.phase_table
    assert got.best_phase == want.best_phase
    assert [counts(t) for t in got.traces] == [counts(t) for t in want.traces]
    return len(got.phase_table) - 1


def test_the_bounds_skip_the_exact_count_on_tokens_in_runs(monkeypatch):
    # Zipf-drawn tokens in runs, as the benchmark's runs_tokens: each row
    # past phase 0 is decided by the width or the length bound.
    calls = count_exact_counts(monkeypatch)
    priced = 0
    for seed in range(3):
        for generate in (test_golden.token_runs, test_golden.zipf_runs):
            priced += priced_rows_match_the_exact_count(generate(seed))
    assert priced >= 6
    assert calls == []


def test_the_exact_count_decides_only_between_the_bounds(monkeypatch):
    calls = count_exact_counts(monkeypatch)
    rng = random.Random(7)
    priced = 0
    for _ in range(150):
        priced += priced_rows_match_the_exact_count(seeded_input(rng))
    for gen, seed in sorted({(gen, seed) for gen, seed, _ in test_golden.GOLDEN}):
        priced += priced_rows_match_the_exact_count(getattr(test_golden, gen)(seed))
    # The count still decides some rows, and the bounds decide most.
    assert 0 < len(calls) < priced / 2
