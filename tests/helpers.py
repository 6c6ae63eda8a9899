"""Shared generators, oracles and reference implementations for the tests."""

import random
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from rewriting_lab import Ref, Run, RunSlp
from slpcompress import blocks, compress, expand
from slpcompress.alphabet import InputFormatError, ingest, radix_argsort, rename_dense
from slpcompress.driver import (
    BestSnapshot,
    CompressionResult,
    PhaseTrace,
    _snapshot_grammar,
    run_phase,
)
from slpcompress.grammar import (
    MAX_EXPANSION,
    ExpansionOverflow,
    GrammarError,
    Slp,
    symbol_lengths,
)
from slpcompress.pairs import (
    Partition,
    build_adjacency,
    compress_pairs,
    distinct_pairs,
    greedy_partition,
)
from slpcompress.text import WorkingText, concat_ranges, narrow_dtype


def random_runslp(rng: random.Random, max_rules=30, alphabet=4, expansion_cap=10**6,
                  big_runs=False) -> RunSlp:
    """A random valid run-length SLP with bounded expansion.

    Rules mostly chain onto their predecessor (the natural SLP shape), so
    instances are deep; references that would push a rule past the
    expansion cap degrade to runs.  Every nonterminal is reachable from the
    start, so string-level oracles on the derived word see the same
    occurrences the rewrites touch.
    """
    m = rng.randrange(1, max_rules + 1)
    bodies: list[list] = []
    lengths: list[int] = []
    for i in range(m):
        body: list = []
        refs = 0
        total = 0
        # Chain onto the predecessor most of the time so instances are deep.
        want_refs = []
        if i > 0 and rng.random() < 0.9:
            want_refs.append(i - 1 if rng.random() < 0.75 else rng.randrange(i))
            if rng.random() < 0.35:
                want_refs.append(rng.randrange(i))
        for _ in range(rng.randrange(1, 6)):
            if want_refs and refs < 2 and rng.random() < 0.5:
                j = want_refs.pop()
                # keep headroom for the trailing runs of this body
                if total + lengths[j] <= expansion_cap - 256:
                    body.append(Ref(j))
                    refs += 1
                    total += lengths[j]
                    continue
            mult = rng.randrange(1, 4)
            if big_runs and rng.random() < 0.15:
                mult = rng.randrange(4, 40)
            body.append(Run(rng.randrange(alphabet), mult))
            total += mult
        while want_refs and refs < 2:
            j = want_refs.pop()
            if total + lengths[j] <= expansion_cap - 256:
                body.append(Ref(j))
                refs += 1
                total += lengths[j]
        bodies.append(body)
        lengths.append(total)
    slp = RunSlp(_reachable_only(bodies), alphabet_size=alphabet)
    assert slp.eval_lengths()[slp.start] <= expansion_cap
    slp.validate()
    return slp


def _reachable_only(bodies):
    m = len(bodies)
    keep = [False] * m
    keep[m - 1] = True
    for i in range(m - 1, -1, -1):
        if keep[i]:
            for item in bodies[i]:
                if isinstance(item, Ref):
                    keep[item.index] = True
    new_index = {}
    out = []
    for i in range(m):
        if keep[i]:
            new_index[i] = len(out)
            out.append(
                [Ref(new_index[it.index]) if isinstance(it, Ref) else it for it in bodies[i]]
            )
    return out


def pair_oracle(symbols: list[int], a: int, b: int, c: int) -> list[int]:
    """Replace every occurrence of ab by c, scanning left to right."""
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(c)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def block_oracle(symbols: list[int], letter: int, fresh: dict[int, int]) -> list[int]:
    """Replace every maximal run letter^len (len >= 2) by fresh[len]."""
    out = []
    i = 0
    while i < len(symbols):
        j = i
        while j < len(symbols) and symbols[j] == symbols[i]:
            j += 1
        if symbols[i] == letter and j - i >= 2:
            out.append(fresh[j - i])
        else:
            out.extend(symbols[i:j])
        i = j
    return out


def maximal_block_lengths(symbols: list[int], letter: int) -> list[int]:
    """Distinct lengths >= 2 of maximal runs of ``letter``, ascending."""
    lengths = set()
    i = 0
    while i < len(symbols):
        j = i
        while j < len(symbols) and symbols[j] == symbols[i]:
            j += 1
        if symbols[i] == letter and j - i >= 2:
            lengths.add(j - i)
        i = j
    return sorted(lengths)


@dataclass
class SortRecord:
    """A record with a small lexicographic key and an opaque payload."""

    key: tuple[int, ...]
    payload: object = None


def radix_sort(records: Sequence[SortRecord], bounds: Sequence[int]) -> list[SortRecord]:
    """Stable sort of ``records`` by their key tuples.

    All keys must have ``len(bounds)`` components, each below its bound;
    the components are combined into one mixed-radix key.
    """
    records = list(records)
    if not records:
        return []
    width = len(bounds)
    for rec in records:
        if len(rec.key) != width:
            raise ValueError(f"key {rec.key} does not match {width} bounds")
    columns = [
        np.fromiter((rec.key[i] for rec in records), dtype=np.int64, count=len(records))
        for i in range(width)
    ]
    for col, bound in zip(columns, bounds):
        if bound < 1 or col.min() < 0 or col.max() >= bound:
            raise ValueError("key component out of bound")
    key, total = columns[0], bounds[0]
    for col, bound in zip(columns[1:], bounds[1:]):
        key, total = key * bound + col, total * bound
    order = radix_argsort(key, total)
    return [records[i] for i in order]


@dataclass
class PairOccurrence:
    first: int  # working id
    second: int
    pos: int  # live ordinal of the first symbol


def _occurrences_of(adj, i: int) -> list[int]:
    return np.flatnonzero(adj.pair_of == i).tolist()


def right_of(adj, sym: int) -> list[tuple[int, list[int]]]:
    """Neighbours b with ``sym b`` occurring, with live-ordinal positions."""
    return [
        (int(adj.pair_b[i]), _occurrences_of(adj, i))
        for i in np.flatnonzero(adj.pair_a == sym)
    ]


def left_of(adj, sym: int) -> list[tuple[int, list[int]]]:
    """Neighbours a with ``a sym`` occurring, with live-ordinal positions."""
    return sorted(
        (int(adj.pair_a[i]), _occurrences_of(adj, i))
        for i in np.flatnonzero(adj.pair_b == sym)
    )


def pair_occurrences(adj):
    """All occurrences, grouped by distinct pair in (first, second) order."""
    for p in np.argsort(adj.pair_of, kind="stable").tolist():
        i = int(adj.pair_of[p])
        yield PairOccurrence(int(adj.pair_a[i]), int(adj.pair_b[i]), p)


def reference_greedy_partition(adj) -> Partition:
    """The greedy split with two counters per symbol and two cursor walks.

    Symbols are processed in ascending id; each goes left when its
    right-class adjacency count is at least its left-class one (ties go
    left), then the counters of all its neighbours, smaller and larger, are
    bumped.  One walk runs over the pairs sorted by first symbol, the other
    over the pairs sorted by second symbol.  The classes are swapped when
    the opposite orientation covers strictly more occurrences.
    """
    width = adj.width
    # Every symbol of a text of two or more lies on a pair; the one symbol
    # of a shorter text goes left either way.
    occurring = np.unique(np.concatenate([adj.pair_a, adj.pair_b]))
    count_left = [0] * width
    count_right = [0] * width
    side = [0] * width  # 0 unassigned, 1 left, 2 right
    if len(adj.pair_a):
        ra = adj.pair_a.tolist()
        rb = adj.pair_b.tolist()
        rc = adj.pair_count.tolist()
        lorder = radix_argsort(adj.pair_b.astype(np.int64) * width + adj.pair_a, width * width)
        lb = adj.pair_b[lorder].tolist()
        la = adj.pair_a[lorder].tolist()
        lc = adj.pair_count[lorder].tolist()
        n_pairs = len(ra)
        i = j = 0
        for sym in occurring.tolist():
            if count_right[sym] >= count_left[sym]:
                side[sym] = 1
                target = count_left
            else:
                side[sym] = 2
                target = count_right
            while i < n_pairs and ra[i] == sym:
                target[rb[i]] += rc[i]
                i += 1
            while j < n_pairs and lb[j] == sym:
                target[la[j]] += lc[j]
                j += 1
    side_arr = np.asarray(side, dtype=np.int64)
    # Ids that no longer occur default to the left class.
    part = Partition(side_arr != 2, side_arr == 2)
    lr = part.in_left[adj.pair_a] & part.in_right[adj.pair_b]
    rl = part.in_right[adj.pair_a] & part.in_left[adj.pair_b]
    cover_lr = int(adj.pair_count[lr].sum())
    cover_rl = int(adj.pair_count[rl].sum())
    part.cover_pre_swap = cover_lr + cover_rl
    if cover_rl > cover_lr:
        part.in_left, part.in_right = part.in_right, part.in_left
        part.swapped = True
        part.cover_chosen = cover_rl
    else:
        part.cover_chosen = cover_lr
    return part


def checked_split(adj) -> Partition:
    """``greedy_partition(adj)``, asserted equal to the reference split."""
    part = greedy_partition(adj)
    want = reference_greedy_partition(adj)
    assert np.array_equal(part.in_left, want.in_left)
    assert np.array_equal(part.in_right, want.in_right)
    assert (part.cover_pre_swap, part.cover_chosen, part.swapped) == (
        want.cover_pre_swap,
        want.cover_chosen,
        want.swapped,
    )
    return part


_MEMO_LIMIT = 1 << 16  # rules expanding to at most this many symbols are memoized


def reference_expand_ids(slp, symbol=None) -> np.ndarray:
    """The per-symbol memoized expansion that ``grammar.expand_ids`` replaced.

    A Python stack walk over the derivation tree; every rule whose
    expansion has at most ``_MEMO_LIMIT`` symbols is expanded once into a
    memo list, and the walk copies memo lists into the output.
    """
    if symbol is None:
        symbol = slp.start
    if symbol is None:
        return np.empty(0, dtype=np.int64)
    lengths = symbol_lengths(slp)
    sigma = slp.terminal_count
    rules = bodies(slp)
    memo: dict[int, list[int]] = {}

    def small(sym: int) -> list[int]:
        # Mark the needed small rules by one downward sweep, then fill the
        # memo in ascending id order (bodies reference smaller ids only).
        if sym < sigma:
            return [sym]
        needed = {sym}
        stack = [sym]
        while stack:
            for s in rules[stack.pop() - sigma]:
                if s >= sigma and s not in needed and s not in memo:
                    needed.add(s)
                    stack.append(s)
        for t in sorted(needed):
            flat: list[int] = []
            for s in rules[t - sigma]:
                if s < sigma:
                    flat.append(s)
                else:
                    flat += memo[s]
            memo[t] = flat
        return memo[sym]

    out: list[int] = []
    stack = [symbol]
    while stack:
        s = stack.pop()
        if s < sigma:
            out.append(s)
        elif lengths[s] <= _MEMO_LIMIT:
            out += memo[s] if s in memo else small(s)
        else:
            stack.extend(reversed(rules[s - sigma]))
    return np.asarray(out, dtype=np.int64) if out else np.empty(0, dtype=np.int64)


def reference_block_representation(grammar: Slp, letter: int, lengths: list[int]) -> dict[int, int]:
    """The per-letter, per-length builder that ``blocks.build_block_rules`` replaced.

    Emits rules defining a symbol for ``letter``^len for each target length.

    ``lengths`` must be strictly increasing with the first entry >= 2.
    Returns the target-length -> symbol map.  Squares are shared across all
    targets, and equal gap values reuse one expansion symbol.
    """
    if not lengths or lengths[0] < 2:
        raise ValueError("block lengths start at 2")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("block lengths must be strictly increasing")
    gaps = [lengths[0]] + [b - a for a, b in zip(lengths, lengths[1:])]
    # squares[e] derives letter^(2**e); built up to the largest gap.
    squares = [letter]
    for _ in range(max(gaps).bit_length() - 1):
        squares.append(grammar.emit_rule((squares[-1], squares[-1])))

    gap_symbol: dict[int, int] = {}

    def symbol_for_gap(gap: int) -> int:
        sym = gap_symbol.get(gap)
        if sym is None:
            exponents = [e for e in range(gap.bit_length()) if gap >> e & 1]
            if len(exponents) == 1:
                sym = squares[exponents[0]]
            else:
                sym = grammar.emit_rule(tuple(squares[e] for e in reversed(exponents)))
            gap_symbol[gap] = sym
        return sym

    targets: dict[int, int] = {}
    prev = None
    for length, gap in zip(lengths, gaps):
        gap_sym = symbol_for_gap(gap)
        if prev is None:
            targets[length] = gap_sym
        else:
            targets[length] = grammar.emit_rule((gap_sym, prev))
        prev = targets[length]
    return targets


def reference_build_block_rules(grammar: Slp, letters, lengths) -> np.ndarray:
    """The letter-by-letter emission order that ``blocks.build_block_rules`` replaced.

    Emits the same rules as ``build_block_rules``, for the same arguments,
    but numbered letter by letter: within a letter, its squares ``a^2, a^4,
    ...`` come first, up to the largest gap.  Then, for each length in
    ascending order: a gap rule (the gap's squares, largest first) if the
    gap has more than one set bit and no earlier length of the letter had
    the same gap; and, for every length after the first, a chain rule ``(gap
    symbol, symbol of the previous length)``.  Each chain rule thus names
    the one before it, so a letter with k lengths alone adds k ranges to
    ``grammar._ranges``.  The golden hashes of this order stay pinned.
    """
    letters = np.asarray(letters, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = len(lengths)
    if n == 0:
        raise ValueError("no block lengths")
    first = np.empty(n, dtype=bool)  # first group of its letter
    first[0] = True
    np.not_equal(letters[1:], letters[:-1], out=first[1:])
    gaps = lengths.copy()
    gaps[1:] -= lengths[:-1]
    gaps[first] = lengths[first]
    if lengths[first].min() < 2:
        raise ValueError("block lengths start at 2")
    if gaps.min() < 1:
        raise ValueError("block lengths must be strictly increasing")
    # Bit e of every gap; popcount and bit length come from it exactly, with
    # no float logarithm to round gaps above 2**53.
    width = int(gaps.max()).bit_length()
    bits = np.empty((n, width), dtype=bool)
    for e in range(width):
        bits[:, e] = (gaps >> e) & 1
    popcount = bits.sum(axis=1)
    bit_length = width - np.argmax(bits[:, ::-1], axis=1)

    letter_first = np.flatnonzero(first)
    letter_of = np.cumsum(first) - 1
    squares = np.maximum.reduceat(bit_length, letter_first) - 1
    # The first group of each (letter, gap) owns the gap's symbol.
    order = np.lexsort((np.arange(n), gaps, letter_of))
    new_key = np.empty(n, dtype=bool)
    new_key[0] = True
    new_key[1:] = (letter_of[order[1:]] != letter_of[order[:-1]]) | (
        gaps[order[1:]] != gaps[order[:-1]]
    )
    first_use = np.empty(n, dtype=np.int64)
    first_use[order] = order[new_key][np.cumsum(new_key) - 1]
    gap_rule = (popcount > 1) & (first_use == np.arange(n))

    # Rule slots (ids less the grammar's symbol count): an exclusive cumsum
    # of the rules each group emits, its letter's squares counted first.
    base = grammar.symbol_count
    before = np.zeros(n, dtype=np.int64)
    before[letter_first] = squares
    per_group = before + gap_rule + ~first
    gap_slot = np.cumsum(per_group) - per_group + before
    chain_slot = gap_slot + gap_rule
    square_slot = gap_slot[letter_first] - squares  # slot of a^2, per letter

    def power(letter, e):
        """Symbol deriving ``a^(2^e)`` for the letter at index ``letter``."""
        return np.where(e == 0, letters[letter_first[letter]], base + square_slot[letter] + e - 1)

    gap_sym = np.where(gap_rule, base + gap_slot, power(letter_of, bit_length - 1))[first_use]
    targets = np.where(first, gap_sym, base + chain_slot)

    # Bodies, laid out by slot in one flat array: two symbols per square and
    # chain rule, one per set bit of a gap rule's gap.
    rows = np.flatnonzero(gap_rule)
    counts = np.full(int(per_group.sum()), 2, dtype=np.int64)
    counts[gap_slot[rows]] = popcount[rows]
    offsets = np.cumsum(counts) - counts
    flat = np.empty(int(counts.sum()), dtype=np.int64)

    square_letter = np.repeat(np.arange(len(squares)), squares)
    half = concat_ranges(np.zeros(len(squares), dtype=np.int64), squares)
    at = offsets[square_slot[square_letter] + half]
    flat[at] = flat[at + 1] = power(square_letter, half)  # a^(2^(e+1)) -> a^(2^e) a^(2^e)

    # Set bits row by row, largest exponent first: a row's k-th set bit
    # fills place k of its body.
    row, col = np.nonzero(bits[rows, ::-1])
    at = concat_ranges(offsets[gap_slot[rows]], popcount[rows])
    flat[at] = power(letter_of[rows[row]], width - 1 - col)

    rows = np.flatnonzero(~first)
    at = offsets[chain_slot[rows]]
    flat[at] = gap_sym[rows]
    flat[at + 1] = targets[rows - 1]

    grammar.emit_rules(counts, flat)
    return targets


def symbol_of_block(result) -> dict[tuple[int, int], int]:
    """(canonical letter, length) -> replacing symbol, from a block stage."""
    return dict(zip(zip(result.letters.tolist(), result.lengths.tolist()), result.symbols.tolist()))


def symbol_of_pair(result) -> dict[tuple[int, int], int]:
    """(canonical first, canonical second) -> replacing symbol, from a pair stage."""
    return dict(zip(zip(result.firsts.tolist(), result.seconds.tolist()), result.symbols.tolist()))


# Scalar oracles for ``WorkingText``'s bulk replacements.  They address
# cells by raw index and record their writes as a pending write does: the
# fresh symbol in the first cell, the others dropped from ``text.kept``.  So
# a sequence of them can run without a compaction in between.


def _kept(text) -> np.ndarray:
    """The pending write's mask of surviving cells; all of them if none is pending."""
    if text.kept is None:
        text.kept = np.ones(len(text.cells), dtype=bool)
    return text.kept


def _is_live(text, at: int) -> bool:
    return text.kept is None or bool(text.kept[at])


def _check_live(text, at: int) -> None:
    if not 0 <= at < len(text.cells) or not _is_live(text, at):
        raise ValueError(f"position {at} is not a live cell")


def _next_live(text, at: int) -> int:
    j = at + 1
    while j < len(text.cells) and not _is_live(text, j):
        j += 1
    if j >= len(text.cells):
        raise ValueError(f"no live cell after position {at}")
    return j


def live_list(text) -> list[int]:
    """The live symbols in order, also between a replacement and ``compact()``
    and with each pending run spread out."""
    if text.kept is not None:
        return text.cells[text.kept].tolist()
    return spread_runs(text.cells, text.runs).tolist()


def spread_runs(cells: np.ndarray, runs) -> np.ndarray:
    """``cells`` with each run of ``runs`` (``None`` or ``(at, lengths)``) spread out."""
    if runs is None:
        return cells
    repeats = np.ones(len(cells), dtype=np.int64)
    repeats[np.asarray(runs[0], dtype=np.int64)] = runs[1]
    return np.repeat(cells, repeats)


def live_positions(text) -> np.ndarray:
    """Raw indices of the live cells, in order."""
    return np.flatnonzero(np.ones(len(text.cells), dtype=bool) if text.kept is None else text.kept)


def replace_pair(text, at: int, fresh: int) -> None:
    """Replace the live cell at ``at`` and the next live cell by ``fresh``."""
    _check_live(text, at)
    j = _next_live(text, at)
    text.cells[at] = fresh
    _kept(text)[j] = False


def replace_run(text, at: int, length: int, fresh: int) -> None:
    """Replace ``length`` equal consecutive live cells starting at ``at``."""
    if length < 2:
        raise ValueError("runs shorter than 2 are never replaced")
    _check_live(text, at)
    sym = text.cells[at]
    pos = at
    tail = []
    for _ in range(length - 1):
        pos = _next_live(text, pos)
        if text.cells[pos] != sym:
            raise ValueError(f"cells from {at} do not hold a uniform run of {length}")
        tail.append(pos)
    text.cells[at] = fresh
    _kept(text)[tail] = False


# Scalar accessors of the compressor's column-array types.


def canonical_of(text: WorkingText, working_id: int) -> int:
    """The canonical id a working id of ``text`` aliases."""
    if not 0 <= working_id < len(text.alias):
        raise ValueError(f"working id {working_id} outside the working alphabet")
    return int(text.alias[working_id])


def powers_of_two(extra_terminals=0) -> Slp:
    """A grammar whose start derives 2**63 - 1 + ``extra_terminals`` letters.

    Rule ``k`` derives a^(2^(k+1)); the start is the sum of all of them and
    one more letter, 2**63 - 1 in all.
    """
    slp = Slp("bytes", [ord("a")])
    prev = 0
    for _ in range(62):
        prev = slp.emit_rule([prev, prev])
    slp.start = slp.emit_rule(list(range(62, 0, -1)) + [0] * (1 + extra_terminals))
    return slp


def slp_of(kind: str, terminals, rules=(), start=None) -> Slp:
    """The grammar of a list of rule bodies, built through ``Slp.from_arrays``."""
    flat = [s for body in rules for s in body]
    return Slp.from_arrays(kind, terminals, [len(body) for body in rules], flat, start)


def bodies(slp: Slp) -> list[tuple[int, ...]]:
    """Every rule body of ``slp`` as a tuple, read from ``counts`` and ``flat``."""
    ends = np.cumsum(slp.counts).tolist()
    flat = slp.flat.tolist()
    return [tuple(flat[end - count : end]) for end, count in zip(ends, slp.counts.tolist())]


def rule_id_map(got: Slp, want: Slp, got_roots=None, want_roots=None) -> list[int]:
    """The rule-id map under which ``got`` equals ``want``; asserts that it exists.

    Terminals map to themselves, and the roots (default: the start symbols)
    to each other.  The map is read off the bodies from the roots down, and
    must be one-to-one and reach every rule, so ``want`` is ``got`` with its
    rule ids permuted.  Returns ``map[got id] = want id``.
    """
    assert (got.kind, got.terminals) == (want.kind, want.terminals)
    assert (len(got.counts), got.size) == (len(want.counts), want.size)
    if got_roots is None:
        got_roots = [] if got.start is None else [got.start]
        want_roots = [] if want.start is None else [want.start]
    assert (got.start is None) == (want.start is None)
    sigma = got.terminal_count
    got_bodies, want_bodies = bodies(got), bodies(want)
    to_want = {s: s for s in range(sigma)}
    to_got = dict(to_want)
    stack = list(zip(list(got_roots), list(want_roots), strict=True))
    while stack:
        g, w = stack.pop()
        if g in to_want or w in to_got:
            assert to_want.get(g) == w and to_got.get(w) == g, f"symbol {g} maps to {w} and not"
            continue
        to_want[g], to_got[w] = w, g
        g_body, w_body = got_bodies[g - sigma], want_bodies[w - sigma]
        assert len(g_body) == len(w_body), f"rule {g} and rule {w} differ in length"
        stack.extend(zip(g_body, w_body))
    assert len(to_want) == got.symbol_count, "some rule is reached from no root"
    if got.start is not None:
        assert to_want[got.start] == want.start
    return [to_want[s] for s in range(got.symbol_count)]


def compress_in_reference_order(data, mode: str) -> CompressionResult:
    """``compress`` with block rules numbered by ``reference_build_block_rules``."""
    saved = blocks.build_block_rules
    blocks.build_block_rules = reference_build_block_rules
    try:
        return compress(data, mode=mode)
    finally:
        blocks.build_block_rules = saved


def assert_same_up_to_rule_ids(got: CompressionResult, want: CompressionResult) -> None:
    """Two compressions differ at most in their rule ids.

    The grammars are equal under one id map, and so are their sizes, rule
    counts, expansions, phase tables and per-phase traces (timings aside).
    """
    rule_id_map(got.slp, want.slp)
    assert expand(got.slp) == expand(want.slp)
    assert (got.input_length, got.phase_table) == (want.input_length, want.phase_table)
    def untimed(result):
        return [{k: v for k, v in asdict(t).items() if not k.endswith("_s")} for t in result.traces]

    assert untimed(got) == untimed(want)
    assert (got.mode, got.best_phase, got.snapshot_copy_work) == (
        want.mode, want.best_phase, want.snapshot_copy_work
    )


def body_of(slp: Slp, symbol: int) -> tuple[int, ...]:
    i = symbol - slp.terminal_count
    start = int(slp.offsets[i])
    return tuple(slp.flat[start : start + int(slp.counts[i])].tolist())


def total_occurrences(adj) -> int:
    return int(adj.pair_count.sum())


def partition_from_sets(width: int, left, right) -> Partition:
    """A split with the given left and right classes over ``[0, width)``."""
    in_left = np.zeros(width, dtype=bool)
    in_right = np.zeros(width, dtype=bool)
    for s in left:
        in_left[s] = True
    for s in right:
        in_right[s] = True
    if (in_left & in_right).any():
        raise ValueError("left and right classes must be disjoint")
    return Partition(in_left, in_right)


def side_of(part: Partition, sym: int) -> str | None:
    """``"left"``, ``"right"``, or ``None`` for an id outside both classes."""
    if not 0 <= sym < len(part.in_left):
        return None  # minted after this partition was built
    if part.in_left[sym]:
        return "left"
    if part.in_right[sym]:
        return "right"
    return None


# The scalar grammar routines that the flat-array ones in ``grammar``
# replaced, kept as oracles.  They read the rule bodies as tuples (``bodies``).
# Whitespace int() skips around a numeral, and signs and digit separators.
_NEVER_WRITTEN = "\t\r\v\f\x1c\x1d\x1e\x1f_+-"


def reference_check_structure(kind, terminals, counts, flat, start) -> None:
    """Raise ``GrammarError`` unless the raw parts make a valid grammar.

    Judges one value at a time: every terminal, count, body symbol and the
    start an integer (not a bool) that fits ``int64``; terminals in ``[0,
    255]`` for bytes and ``[0, 2**32 - 1]`` for tokens; counts that split
    ``flat`` into non-empty bodies of smaller ids; a start that is ``None``
    or an id.  A non-empty numpy array of a dtype other than int or uint is
    refused whole, as numpy would convert its values.
    """

    def integers(values, what):
        if isinstance(values, np.ndarray) and values.size and values.dtype.kind not in "iu":
            raise GrammarError(f"{what} of dtype {values.dtype}")
        values = list(values)
        for v in values:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
                raise GrammarError(f"{what} holds {v!r}")
            if not -(2**63) <= v < 2**63:
                raise GrammarError(f"{what} holds {v}, outside int64")
        return [int(v) for v in values]

    if kind not in ("bytes", "tokens"):
        raise GrammarError(f"unknown terminal kind {kind!r}")
    ceiling = 255 if kind == "bytes" else 2**32 - 1
    for v in integers(terminals, "terminals"):
        if not 0 <= v <= ceiling:
            raise GrammarError(f"{kind[:-1]} terminal {v} out of range")
    counts, flat = integers(counts, "counts"), integers(flat, "flat")
    if sum(counts) != len(flat) or any(count < 1 for count in counts):
        raise GrammarError("counts do not split flat into non-empty bodies")
    sigma, at = len(terminals), 0
    for i, count in enumerate(counts):
        rule_id = sigma + i
        for s in flat[at : at + count]:
            if not 0 <= s < rule_id:
                raise GrammarError(f"rule {rule_id} references symbol {s} (not yet defined)")
        at += count
    if start is not None:
        (start,) = integers([start], "start")
        if not 0 <= start < sigma + len(counts):
            raise GrammarError(f"start symbol {start} out of range")


def reference_symbol_lengths(slp: Slp) -> list[int]:
    """Expansion length of every symbol; raises on 63-bit overflow."""
    lengths = [1] * slp.terminal_count
    for i, body in enumerate(bodies(slp)):
        total = 0
        for s in body:
            total += lengths[s]
        if total > MAX_EXPANSION:
            raise ExpansionOverflow(
                f"rule {slp.terminal_count + i} expands to more than 2**63-1 symbols"
            )
        lengths.append(total)
    return lengths


def reference_symbol_depths(slp: Slp) -> list[int]:
    """Longest rule chain below each symbol (terminals have depth 0)."""
    depth = [0] * slp.terminal_count
    for body in bodies(slp):
        depth.append(1 + max(depth[s] for s in body))
    return depth


def reference_grammar_depth(slp: Slp) -> int:
    """Longest rule chain from the start symbol (terminals have depth 0)."""
    return 0 if slp.start is None else reference_symbol_depths(slp)[slp.start]


def reference_prune_unreachable(slp: Slp) -> Slp:
    """Keep exactly the rules reachable from the start symbol."""
    sigma, rules = slp.terminal_count, bodies(slp)
    keep = np.zeros(len(rules), dtype=bool)
    if slp.start is not None and slp.start >= sigma:
        # Bodies reference smaller ids, so one descending sweep suffices.
        keep[slp.start - sigma] = True
        for i in range(slp.start - sigma, -1, -1):
            if keep[i]:
                for s in rules[i]:
                    if s >= sigma:
                        keep[s - sigma] = True
    if keep.all():
        return slp_of(slp.kind, slp.terminals, rules, slp.start)
    new_id = np.full(slp.symbol_count, -1, dtype=np.int64)
    new_id[:sigma] = np.arange(sigma)
    next_id = sigma
    for i in range(len(rules)):
        if keep[i]:
            new_id[sigma + i] = next_id
            next_id += 1
    kept = [
        tuple(int(new_id[s]) for s in body)
        for i, body in enumerate(rules)
        if keep[i]
    ]
    start = None if slp.start is None else int(new_id[slp.start])
    return slp_of(slp.kind, slp.terminals, kept, start)


def reference_serialize(slp: Slp) -> str:
    """Render the grammar in the line-oriented text format (LF endings)."""
    lines = ["SLP 1", f"terminals {slp.terminal_count} {slp.kind}"]
    if slp.terminal_count:
        lines.append(" ".join(str(v) for v in slp.terminals))
    lines.append(f"rules {len(slp.counts)}")
    for body in bodies(slp):
        lines.append(f"{len(body)} " + " ".join(str(s) for s in body))
    lines.append("start empty" if slp.start is None else f"start {slp.start}")
    return "\n".join(lines) + "\n"


def reference_deserialize(data: str) -> Slp:
    """Parse the text format; raises ``GrammarError`` on any malformation.

    Accepts exactly the texts ``serialize`` writes.
    """
    # int() also reads signs, underscores, non-ASCII digits, whitespace
    # around a numeral and leading zeros, none of which serialize writes;
    # whole-text scans keep them out, and fields are split on single spaces.
    if not data.isascii() or any(c in data for c in _NEVER_WRITTEN):
        raise GrammarError("grammar text holds a character the format never writes")
    if not data.endswith("\n"):
        raise GrammarError("grammar text does not end with a newline")
    raw = np.frombuffer(data.encode("ascii"), dtype=np.uint8)
    opens_field = (raw[:-2] == ord(" ")) | (raw[:-2] == ord("\n"))
    after = raw[2:]
    if (opens_field & (raw[1:-1] == ord("0")) & (after >= ord("0")) & (after <= ord("9"))).any():
        raise GrammarError("numeral with a leading zero")
    lines = data.split("\n")
    lines.pop()
    it = iter(lines)

    def next_line(what: str) -> str:
        try:
            return next(it)
        except StopIteration:
            raise GrammarError(f"truncated grammar file: missing {what}") from None

    if next_line("header") != "SLP 1":
        raise GrammarError("bad header: expected 'SLP 1'")
    parts = next_line("terminals line").split(" ")
    if len(parts) != 3 or parts[0] != "terminals":
        raise GrammarError("bad terminals line")
    try:
        sigma = int(parts[1])
    except ValueError:
        raise GrammarError("bad terminal count") from None
    kind = parts[2]
    if kind not in ("bytes", "tokens") or sigma < 0:
        raise GrammarError("bad terminals line")
    terminals: list[int] = []
    if sigma:
        try:
            terminals = [int(v) for v in next_line("terminal values").split(" ")]
        except ValueError:
            raise GrammarError("non-numeric terminal value") from None
        if len(terminals) != sigma:
            raise GrammarError(f"expected {sigma} terminal values, got {len(terminals)}")
    parts = next_line("rules line").split(" ")
    if len(parts) != 2 or parts[0] != "rules":
        raise GrammarError("bad rules line")
    try:
        rule_count = int(parts[1])
    except ValueError:
        raise GrammarError("bad rule count") from None
    if rule_count < 0:
        raise GrammarError("bad rule count")
    rules = []
    for _ in range(rule_count):
        fields = next_line("rule body").split(" ")
        try:
            nums = [int(v) for v in fields]
        except ValueError:
            raise GrammarError("non-numeric rule body") from None
        if not nums or nums[0] != len(nums) - 1:
            raise GrammarError("rule body length prefix mismatch")
        rules.append(tuple(nums[1:]))
    fields = next_line("start line").split(" ")
    if len(fields) != 2 or fields[0] != "start":
        raise GrammarError("bad start line")
    if fields[1] == "empty":
        start = None
    else:
        try:
            start = int(fields[1])
        except ValueError:
            raise GrammarError("bad start symbol") from None
    try:
        next(it)
    except StopIteration:
        pass
    else:
        raise GrammarError("trailing data after start line")
    counts = [len(body) for body in rules]
    flat = [s for body in rules for s in body]
    reference_check_structure(kind, terminals, counts, flat, start)
    return slp_of(kind, terminals, rules, start)


def reference_first_occurrence_ids(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The comparison-sort renumbering that ``ingest`` used for tokens.

    ``np.unique`` ranks the values, ``searchsorted`` maps each symbol to
    its rank, and the ranks are renumbered in first-occurrence order.
    Returns the renumbered text and the values in that order.
    """
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    uniq, first_at = np.unique(arr, return_index=True)
    order = np.argsort(first_at, kind="stable")
    rank_to_id = np.empty(len(uniq), dtype=np.int64)
    rank_to_id[order] = np.arange(len(uniq), dtype=np.int64)
    ids = rank_to_id[np.searchsorted(uniq, arr)]
    return ids, [int(v) for v in uniq[order]]


def reference_parse_tokens(data: bytes) -> list[int]:
    """The ``int()``-per-field token reader that the CLI's vector pass replaced.

    It accepts whatever ``int()`` accepts, so ``+5``, ``1_0`` and ``-0``
    load here but not in the CLI.
    """
    fields = data.split()
    try:
        tokens = list(map(int, fields))
        if not tokens or min(tokens) >= 0:
            return tokens
    except ValueError:
        pass
    # Report the first offending token, as a left-to-right check would.
    for tok in fields:
        try:
            value = int(tok)
        except ValueError:
            raise InputFormatError(f"non-numeric token {tok[:20]!r}") from None
        if value < 0:
            raise InputFormatError("negative token value")
    raise AssertionError("unreachable")


def reference_compress_improved(data, kind: str | None = None) -> CompressionResult:
    """Improved mode without the stop rule: every phase down to one symbol.

    The snapshot is the first row of least stop cost, as in the driver.
    """
    text, kind, terminals = ingest(data, kind=kind)
    grammar = Slp(kind, terminals)
    input_length = len(text)
    traces = []
    phase_table: list[tuple[int, int]] = []
    best: BestSnapshot | None = None
    copy_work = 0
    while True:
        phase_table.append((len(text), grammar.size))
        candidate = len(text) + grammar.size
        if best is None or candidate < best.size:
            snapshot = text.canonical(np.int64)
            best = BestSnapshot(candidate, len(traces), snapshot, len(grammar.counts))
            copy_work += len(snapshot)
        if len(text) <= 1:
            break
        traces.append(run_phase(text, grammar, len(traces) + 1))
    slp = _snapshot_grammar(grammar, best)
    return CompressionResult(
        slp, traces, "improved", input_length, phase_table, best.phase, copy_work
    )


def reference_stats_lines(slp: Slp) -> list[str]:
    """The lines CLI ``stats`` prints before ``bytes``, from the scalar walks.

    Length comes from ``reference_symbol_lengths`` and depth from
    ``reference_grammar_depth``, not from the vector range walks
    (``symbol_lengths`` and ``grammar_depth``) that CLI ``stats`` runs.
    """
    try:
        length = str(0 if slp.start is None else reference_symbol_lengths(slp)[slp.start])
    except ExpansionOverflow:
        length = ">=2^63"
    return [
        f"rules {len(slp.counts)}",
        f"size {slp.size}",
        f"depth {reference_grammar_depth(slp)}",
        f"expansion {length}",
    ]


def _first_occurrence_order(first_pos: np.ndarray) -> np.ndarray:
    """Occurring symbols, ordered by their (distinct) first position.

    Scatters each symbol into a position-indexed table and compacts, so the
    ordering costs O(text length + table width) without a sort.
    """
    occurring = np.flatnonzero(first_pos >= 0)
    by_position = np.full(int(first_pos.max()) + 1 if len(occurring) else 0, -1, dtype=np.int64)
    by_position[first_pos[occurring]] = occurring
    return by_position[by_position >= 0]


def reference_rename_dense(text: WorkingText) -> None:
    """Rename the ``k`` symbols occurring in ``text`` to ``0..k-1``.

    ``rename_dense`` as it was before it shared ``ingest``'s renumbering.
    Symbols are numbered in first-occurrence order, alias entries are
    carried over so canonical ids stay recoverable, and the entries of
    ids that no longer occur are dropped.  Runs in time linear in the text
    length plus the width of the working alphabet.
    """
    live = text.live()
    width = text.width
    if len(live) and (live.min() < 0 or live.max() >= width):
        raise ValueError("text symbol outside the working alphabet")
    first_pos = np.full(width, -1, dtype=np.int64)
    first_pos[live[::-1]] = np.arange(len(live) - 1, -1, -1, dtype=np.int64)
    old_ids = _first_occurrence_order(first_pos)
    new_table = text.alias[old_ids].copy()
    lut = np.full(width, -1, dtype=np.int64)
    lut[old_ids] = np.arange(len(old_ids), dtype=np.int64)
    text.cells = lut[live]
    text.alias = new_table


def reference_runs(symbols) -> tuple[list[int], list[tuple[int, int]]]:
    """The maximal runs of ``symbols``, read one symbol at a time.

    Returns each run's symbol, and ``(index among the runs, length)`` of
    every run of length >= 2.
    """
    heads: list[int] = []
    lengths: list[int] = []
    for s in symbols:
        if heads and heads[-1] == s:
            lengths[-1] += 1
        else:
            heads.append(s)
            lengths.append(1)
    return heads, [(i, n) for i, n in enumerate(lengths) if n >= 2]


def reference_full_text_blocks(text: WorkingText, grammar: Slp) -> int:
    """The block stage as it was before it read the text in run form.

    It scans the full compact text for maximal blocks, sorts them by
    (letter, length), writes each block's symbol into its first cell, keeps
    the run starts and compacts.  Returns the blocks replaced.
    """
    live = text.live()
    if len(live) == 0:
        return 0
    run_starts = np.empty(len(live), dtype=bool)
    run_starts[0] = True
    np.not_equal(live[1:], live[:-1], out=run_starts[1:])
    step = np.diff(run_starts.view(np.int8), append=np.int8(1))
    pos = np.flatnonzero(step == -1)
    lengths = np.flatnonzero(step == 1) - pos + 1
    letters = live[pos]
    order = np.lexsort((lengths, letters))  # stable: by letter, then length
    pos, lengths, letters = pos[order], lengths[order], letters[order]
    if len(pos):
        new_group = np.r_[True, (letters[1:] != letters[:-1]) | (lengths[1:] != lengths[:-1])]
        starts = np.flatnonzero(new_group)
        targets = blocks.build_block_rules(grammar, text.alias[letters[starts]], lengths[starts])
        fresh = text.mint(targets)
        text.cells[pos] = fresh[np.cumsum(new_group) - 1]
        text.kept = run_starts
    text.compact()
    return len(pos)


def reference_full_text_compress(data, mode: str) -> tuple[CompressionResult, list[np.ndarray]]:
    """``compress`` with the full-length input and the full-text block stage.

    The input is numbered at full length by ``reference_first_occurrence_ids``,
    every phase runs ``reference_full_text_blocks``, and improved mode counts
    the distinct pairs exactly at every row it prices.  Returns the result,
    whose traces carry no timings, and every snapshot taken, in order.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        kind, arr = "bytes", np.frombuffer(bytes(data), dtype=np.uint8)
    else:
        kind, arr = "tokens", np.asarray(data, dtype=np.int64)
    ids, terminals = reference_first_occurrence_ids(arr)
    text = WorkingText(ids)
    grammar = Slp(kind, terminals)
    traces: list[PhaseTrace] = []
    phase_table: list[tuple[int, int]] = []
    snapshots: list[np.ndarray] = []
    best: BestSnapshot | None = None
    while True:
        phase_table.append((len(text), grammar.size))
        if mode == "improved":
            candidate = len(text) + grammar.size
            if best is None or candidate < best.size:
                snapshot = text.alias.astype(narrow_dtype(grammar.symbol_count))[text.live()]
                best = BestSnapshot(candidate, len(traces), snapshot, len(grammar.counts))
                snapshots.append(snapshot)
            elif grammar.size + distinct_pairs(text) + 1 >= best.size:
                break
        if len(text) <= 1:
            break
        live_before, rules_before, size_before = len(text), len(grammar.counts), grammar.size
        blocks_compressed = reference_full_text_blocks(text, grammar)
        live_after_blocks = len(text)
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        pairs_compressed = compress_pairs(text, part, adj, grammar).occurrences_replaced
        text.compact()
        rename_dense(text)
        traces.append(PhaseTrace(
            phase=len(traces) + 1,
            live_before=live_before,
            live_after_blocks=live_after_blocks,
            blocks_compressed=blocks_compressed,
            pairs_compressed=pairs_compressed,
            cover_pre_swap=part.cover_pre_swap,
            cover_chosen=part.cover_chosen,
            live_after=len(text),
            rules_before=rules_before,
            size_before=size_before,
            rules_after=len(grammar.counts),
            size_after=grammar.size,
            rename_s=0.0, blocks_s=0.0, adjacency_s=0.0, partition_s=0.0, pairs_s=0.0,
            compact_s=0.0,
        ))
    if mode == "improved":
        slp, best_phase = _snapshot_grammar(grammar, best), best.phase
        copy_work = sum(len(s) for s in snapshots)
    else:
        final = text.alias[text.live()]
        if len(final):
            grammar.start = grammar.emit_rule(final)
        slp, best_phase, copy_work = grammar, None, 0
    result = CompressionResult(slp, traces, mode, len(arr), phase_table, best_phase, copy_work)
    return result, snapshots
