"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The random corpus is built once per session and shared.
"""

import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pytest

from helpers import (
    block_oracle,
    live_list,
    maximal_block_lengths,
    pair_oracle,
    random_runslp,
)
from rewriting_lab import (
    CreditMeter,
    compress_noncrossing_blocks,
    compress_noncrossing_pair,
    crossing_blocks_report,
    crossing_report,
    explicit_block_lengths,
    pop_boundary_runs,
    pop_letters,
)
from slpcompress.driver import compress
from slpcompress.grammar import Slp, deserialize, expand, serialize, symbol_lengths

CORPUS_SIZE = 1000


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  ({len(failures)} violations, first: {failures[0]})"
    print(f"[criterion {num:2}] {name}: {status}{detail}")
    assert not failures, f"criterion {num} ({name}): {failures[:3]}"


@dataclass
class CorpusEntry:
    n: int
    kind: str
    roundtrip_ok: bool
    plain_size: int
    improved_size: int
    traces: list


@pytest.fixture(scope="session")
def corpus():
    """1000 random strings, both modes compressed and decompressed."""
    rng = random.Random(20260809)
    entries = []
    elapsed = 0.0
    for i in range(CORPUS_SIZE):
        sigma = rng.randint(1, 64)
        # Lengths span 0..10^4: guaranteed edge sizes, a log-uniform bulk so
        # small-string regimes are well exercised, and a uniform tail.
        if i < 8:
            n = rng.choice([0, 1, 2, 3])
        elif i % 5 == 0:
            n = rng.randint(0, 10**4)
        else:
            n = int(10 ** rng.uniform(0, 4))
        kind = "bytes" if i % 2 == 0 else "tokens"
        if kind == "bytes":
            data = bytes(rng.randrange(sigma) for _ in range(n))
        else:
            spread = rng.choice([1, 1000, 67_000_000])  # 63 * 67e6 < 2^32
            data = [rng.randrange(sigma) * spread for _ in range(n)]
        t0 = time.perf_counter()
        plain = compress(data, mode="plain", kind=kind)
        improved = compress(data, mode="improved", kind=kind)
        ok = expand(plain.slp) == data and expand(improved.slp) == data
        elapsed += time.perf_counter() - t0
        entries.append(
            CorpusEntry(
                n=n,
                kind=kind,
                roundtrip_ok=ok,
                plain_size=plain.slp.size,
                improved_size=improved.slp.size,
                traces=plain.traces + improved.traces,
            )
        )
    return entries, elapsed


def test_criterion_1_roundtrip(corpus):
    entries, elapsed = corpus
    failures = [f"entry {i}" for i, e in enumerate(entries) if not e.roundtrip_ok]
    if elapsed >= 30.0:
        failures.append(f"corpus runtime {elapsed:.1f}s >= 30s")
    print(f"    corpus: {len(entries)} strings, compress+decompress in {elapsed:.1f}s")
    _report(1, "roundtrip on random corpus", failures)


def test_criterion_2_phase_shrink(corpus):
    entries, _ = corpus
    failures = []
    for i, e in enumerate(entries):
        for t in e.traces:
            if t.live_before >= 2 and 4 * t.live_after > 3 * t.live_before + 1:
                failures.append(f"entry {i} phase {t.phase}: {t.live_before}->{t.live_after}")
    _report(2, "phase shrink bound", failures)


def test_criterion_3_partition_coverage(corpus):
    entries, _ = corpus
    failures = []
    for i, e in enumerate(entries):
        for t in e.traces:
            m = t.live_after_blocks
            if 4 * t.pairs_compressed < m - 1:
                failures.append(f"entry {i} phase {t.phase}: cover {t.pairs_compressed} of {m}")
            if 2 * t.cover_pre_swap < m - 1:
                failures.append(f"entry {i} phase {t.phase}: pre-swap {t.cover_pre_swap}")
    _report(3, "greedy partition coverage", failures)


def test_criterion_4_block_invariant(corpus):
    entries, _ = corpus
    # The pair stage rejects texts with equal neighbours, so any violation
    # would have failed criterion 1; re-check the block stage on fresh random
    # texts here.
    from slpcompress.alphabet import ingest
    from slpcompress.blocks import compress_blocks, scan_blocks

    rng = random.Random(4)
    failures = []
    for i in range(300):
        sigma = rng.randint(1, 8)
        data = bytes(rng.randrange(sigma) for _ in range(rng.randint(1, 500)))
        text, _, terminals = ingest(data)
        grammar = Slp("bytes", terminals)
        compress_blocks(text, scan_blocks(text), grammar)
        live = live_list(text)
        if any(x == y for x, y in zip(live, live[1:])):
            failures.append(f"case {i}")
    _report(4, "no equal adjacent symbols after block stage", failures)


def test_criterion_5_unary_family():
    failures = []
    for exp in (10, 16, 20):
        n = 2**exp
        bound = 4 * exp + 16
        sizes = {}
        worst = 0.0
        for mode in ("plain", "improved"):
            t0 = time.perf_counter()
            result = compress(b"a" * n, mode=mode)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            sizes[mode] = result.slp.size
            if result.slp.size > bound:
                failures.append(f"2^{exp} {mode}: size {result.slp.size} > {bound}")
            if dt >= 1.0:
                failures.append(f"2^{exp} {mode}: {dt:.2f}s")
        print(
            f"    a^(2^{exp}): plain {sizes['plain']}, improved {sizes['improved']}, "
            f"bound {bound}, worst run {worst * 1000:.0f}ms"
        )
    _report(5, "unary family size", failures)


def _fibonacci_word(target):
    prev, cur = b"b", b"a"
    while len(cur) < target:
        prev, cur = cur, cur + prev
    return cur[:target]


def test_criterion_6_fibonacci_family():
    n_input = 832040  # 30th Fibonacci number
    data = _fibonacci_word(n_input)
    hand_grammar_size = 60
    bound = 8 * hand_grammar_size * math.log2(n_input / hand_grammar_size)
    failures = []
    t0 = time.perf_counter()
    improved = compress(data, mode="improved")
    dt = time.perf_counter() - t0
    plain = compress(data, mode="plain")
    for label, result in (("plain", plain), ("improved", improved)):
        if result.slp.size > bound:
            failures.append(f"{label}: size {result.slp.size} > {bound:.0f}")
        if expand(result.slp) != data:
            failures.append(f"{label}: roundtrip broken")
    if dt >= 2.0:
        failures.append(f"runtime {dt:.2f}s >= 2s")
    print(f"    fibonacci word: plain {plain.slp.size}, improved {improved.slp.size}, bound {bound:.0f}, {dt:.2f}s")
    _report(6, "repetitive family size", failures)


def test_criterion_7_improved_dominance(corpus):
    entries, _ = corpus
    failures = [
        f"entry {i}: improved {e.improved_size} > min({e.n}+1, {e.plain_size})"
        for i, e in enumerate(entries)
        if e.improved_size > min(e.n + 1, e.plain_size)
    ]
    _report(7, "improved mode dominance", failures)


def test_criterion_8_linear_time_smoke():
    rng = np.random.default_rng(88)
    small = rng.integers(0, 64, 10**6, dtype=np.uint8).tobytes()
    big = rng.integers(0, 64, 2 * 10**6, dtype=np.uint8).tobytes()
    compress(small, mode="plain")  # warm-up
    times = {1: [], 2: []}
    for _ in range(5):
        t0 = time.perf_counter()
        compress(small, mode="plain")
        times[1].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        compress(big, mode="plain")
        times[2].append(time.perf_counter() - t0)
    m1 = statistics.median(times[1])
    m2 = statistics.median(times[2])
    ratio = m2 / m1
    print(f"    1e6: {m1:.2f}s, 2e6: {m2:.2f}s, ratio {ratio:.2f}")
    failures = [] if ratio <= 2.5 else [f"ratio {ratio:.2f} > 2.5"]
    _report(8, "linear-time smoke test", failures)


def test_criterion_9_rewriting_invariants():
    rng = random.Random(1009)
    failures = []
    t0 = time.perf_counter()
    for case in range(200):
        cap = 10**6 if case % 10 == 0 else 3 * 10**4
        slp = random_runslp(rng, max_rules=30, expansion_cap=cap, big_runs=True)
        word = slp.eval()
        m = len(slp.bodies)

        letters = list(range(slp.alphabet_size))
        rng.shuffle(letters)
        half = rng.randrange(len(letters) + 1)
        left, right = set(letters[:half]), set(letters[half:])
        meter = CreditMeter()
        popped = pop_letters(slp, left, right, meter)
        if popped.eval() != word:
            failures.append(f"case {case}: pop changed the expansion")
        if crossing_report(popped, left, right):
            failures.append(f"case {case}: crossing pair survived pop")
        if any(v > 4 for v in meter.per_rule.values()) or meter.issued > 8 * m:
            failures.append(f"case {case}: pop issued too much credit")

        meter = CreditMeter()
        uncrossed = pop_boundary_runs(slp, meter)
        if uncrossed.eval() != word:
            failures.append(f"case {case}: run popping changed the expansion")
        if crossing_blocks_report(uncrossed):
            failures.append(f"case {case}: crossing block survived")
        if any(v > 4 for v in meter.per_rule.values()):
            failures.append(f"case {case}: run popping issued too many items")

        a, b = rng.sample(range(slp.alphabet_size), 2)
        c = slp.alphabet_size
        pc = compress_noncrossing_pair(pop_letters(slp, {a}, {b}), a, b, c)
        if pc.eval() != pair_oracle(word, a, b, c):
            failures.append(f"case {case}: pair compression mismatch")

        letter = rng.randrange(slp.alphabet_size)
        lengths = explicit_block_lengths(uncrossed, letter)
        if lengths != maximal_block_lengths(word, letter):
            failures.append(f"case {case}: explicit blocks differ from text blocks")
        fresh = {l: c + 1 + i for i, l in enumerate(lengths)}
        bc = compress_noncrossing_blocks(uncrossed, letter, fresh)
        if bc.eval() != block_oracle(word, letter, fresh):
            failures.append(f"case {case}: block compression mismatch")
    dt = time.perf_counter() - t0
    if dt >= 60:
        failures.append(f"runtime {dt:.1f}s >= 60s")
    print(f"    200 instances in {dt:.1f}s")
    _report(9, "rewriting invariant suite", failures)


def test_criterion_10_serialization_roundtrip():
    rng = random.Random(55)
    failures = []
    for case in range(100):
        sigma = rng.randrange(0, 6)
        kind = rng.choice(["bytes", "tokens"])
        terminals = rng.sample(range(256), sigma)
        slp = Slp(kind, terminals)
        lengths = [1] * sigma
        for _ in range(rng.randrange(0, 30)):
            if slp.symbol_count == 0:
                break
            body = [rng.randrange(slp.symbol_count) for _ in range(rng.randrange(1, 5))]
            slp.emit_rule(body)
            lengths.append(sum(lengths[s] for s in body))
        slp.start = rng.randrange(slp.symbol_count) if slp.symbol_count else None
        symbol_lengths(slp)
        text = serialize(slp)
        back = deserialize(text)
        if back != slp or serialize(back) != text:
            failures.append(f"case {case}")
    _report(10, "serialization round trip", failures)
