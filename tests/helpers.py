"""Shared generators, oracles and reference implementations for the tests."""

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from rewriting_lab import Ref, Run, RunSlp
from slpcompress.alphabet import AlphabetMap, InputFormatError, ingest, radix_argsort
from slpcompress.driver import BestSnapshot, CompressionResult, _snapshot_grammar, run_phase
from slpcompress.grammar import (
    MAX_EXPANSION,
    ExpansionOverflow,
    GrammarError,
    GrammarStats,
    Slp,
    expansion_length,
    symbol_lengths,
)
from slpcompress.pairs import Partition
from slpcompress.text import TOMBSTONE, WorkingText


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
    return sorted(int(p) for p in adj.occurrences[adj.occ_start[i] : adj.occ_start[i + 1]])


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
    for i in range(len(adj.pair_a)):
        for p in adj.occurrences[adj.occ_start[i] : adj.occ_start[i + 1]]:
            yield PairOccurrence(int(adj.pair_a[i]), int(adj.pair_b[i]), int(p))


def reference_greedy_partition(adj) -> Partition:
    """The greedy split with two counters per symbol and two cursor walks.

    Symbols are processed in ascending id; each goes left when its
    right-class adjacency count is at least its left-class one (ties go
    left), then the counters of all its neighbours, smaller and larger, are
    bumped.  One walk runs over the pairs sorted by first symbol, the other
    over the pairs sorted by second symbol.  The classes are swapped when
    the opposite orientation covers strictly more occurrences.
    """
    base, width = adj.base, adj.width
    # Every symbol of a text of two or more lies on a pair; the one symbol
    # of a shorter text goes left either way.
    occurring = np.unique(np.concatenate([adj.pair_a, adj.pair_b]))
    count_left = [0] * width
    count_right = [0] * width
    side = [0] * width  # 0 unassigned, 1 left, 2 right
    if len(adj.pair_a):
        ra = (adj.pair_a - base).tolist()
        rb = (adj.pair_b - base).tolist()
        rc = adj.pair_count.tolist()
        lorder = radix_argsort((adj.pair_b - base) * width + (adj.pair_a - base), width * width)
        lb = (adj.pair_b[lorder] - base).tolist()
        la = (adj.pair_a[lorder] - base).tolist()
        lc = adj.pair_count[lorder].tolist()
        n_pairs = len(ra)
        i = j = 0
        for off in (occurring - base).tolist():
            if count_right[off] >= count_left[off]:
                side[off] = 1
                target = count_left
            else:
                side[off] = 2
                target = count_right
            while i < n_pairs and ra[i] == off:
                target[rb[i]] += rc[i]
                i += 1
            while j < n_pairs and lb[j] == off:
                target[la[j]] += lc[j]
                j += 1
    side_arr = np.asarray(side, dtype=np.int64)
    # Ids that no longer occur default to the left class.
    part = Partition(base, side_arr != 2, side_arr == 2)
    lr = part.in_left[adj.pair_a - base] & part.in_right[adj.pair_b - base]
    rl = part.in_right[adj.pair_a - base] & part.in_left[adj.pair_b - base]
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
    rules = slp.rules
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


def symbol_of_block(result) -> dict[tuple[int, int], int]:
    """(canonical letter, length) -> replacing symbol, from a block stage."""
    return dict(zip(zip(result.letters.tolist(), result.lengths.tolist()), result.symbols.tolist()))


def symbol_of_pair(result) -> dict[tuple[int, int], int]:
    """(canonical first, canonical second) -> replacing symbol, from a pair stage."""
    return dict(zip(zip(result.firsts.tolist(), result.seconds.tolist()), result.symbols.tolist()))


# Scalar oracles for ``WorkingText``'s bulk replacements.  They address
# cells by raw index and step over dead cells, so a sequence of them can
# run without a compaction in between.


def _check_live(text, at: int) -> None:
    if not 0 <= at < len(text.cells) or text.cells[at] == TOMBSTONE:
        raise ValueError(f"position {at} is not a live cell")


def _next_live(text, at: int) -> int:
    j = at + 1
    while j < len(text.cells) and text.cells[j] == TOMBSTONE:
        j += 1
    if j >= len(text.cells):
        raise ValueError(f"no live cell after position {at}")
    return j


def live_positions(text) -> np.ndarray:
    """Raw indices of the live cells, in order."""
    return np.flatnonzero(text.cells != TOMBSTONE)


def replace_pair(text, at: int, fresh: int) -> None:
    """Replace the live cell at ``at`` and the next live cell by ``fresh``."""
    _check_live(text, at)
    j = _next_live(text, at)
    text.cells[at] = fresh
    text.cells[j] = TOMBSTONE
    text.live_count -= 1


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
    text.cells[tail] = TOMBSTONE
    text.live_count -= length - 1


# Scalar accessors of the compressor's column-array types.


def canonical_of(amap, working_id: int) -> int:
    """The canonical id a working id aliases."""
    off = working_id - amap.alias_base
    if not 0 <= off < len(amap.alias_table):
        raise ValueError(f"working id {working_id} outside current interval")
    return int(amap.alias_table[off])


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


def body_of(slp: Slp, symbol: int) -> tuple[int, ...]:
    return slp.rules[symbol - slp.terminal_count]


def total_occurrences(adj) -> int:
    return int(adj.pair_count.sum())


def partition_from_sets(base: int, width: int, left, right) -> Partition:
    """A split with the given left and right classes over ``[base, base + width)``."""
    in_left = np.zeros(width, dtype=bool)
    in_right = np.zeros(width, dtype=bool)
    for s in left:
        in_left[s - base] = True
    for s in right:
        in_right[s - base] = True
    if (in_left & in_right).any():
        raise ValueError("left and right classes must be disjoint")
    return Partition(base, in_left, in_right)


def side_of(part: Partition, sym: int) -> str | None:
    """``"left"``, ``"right"``, or ``None`` for an id outside both classes."""
    off = sym - part.base
    if not 0 <= off < len(part.in_left):
        return None  # minted after this partition was built
    if part.in_left[off]:
        return "left"
    if part.in_right[off]:
        return "right"
    return None


# The scalar grammar routines that the flat-array ones in ``grammar``
# replaced, kept as oracles.  They read ``Slp.rules`` as tuples.
# Whitespace int() skips around a numeral, and signs and digit separators.
_NEVER_WRITTEN = "\t\r\v\f\x1c\x1d\x1e\x1f_+-"


def reference_check_structure(slp: Slp) -> None:
    """Structural soundness only; expansion lengths may still overflow."""
    if slp.kind == "bytes":
        for v in slp.terminals:
            if not 0 <= v <= 255:
                raise GrammarError(f"byte terminal {v} out of range")
    else:
        for v in slp.terminals:
            if not 0 <= v:
                raise GrammarError(f"negative token terminal {v}")
    sigma = slp.terminal_count
    for i, body in enumerate(slp.rules):
        rule_id = sigma + i
        if not body:
            raise GrammarError(f"rule {rule_id} has an empty body")
        for s in body:
            if not 0 <= s < rule_id:
                raise GrammarError(f"rule {rule_id} references symbol {s} (not yet defined)")
    if slp.start is not None and not 0 <= slp.start < slp.symbol_count:
        raise GrammarError(f"start symbol {slp.start} out of range")


def reference_symbol_lengths(slp: Slp) -> list[int]:
    """Expansion length of every symbol; raises on 63-bit overflow."""
    lengths = [1] * slp.terminal_count
    for i, body in enumerate(slp.rules):
        total = 0
        for s in body:
            total += lengths[s]
        if total > MAX_EXPANSION:
            raise ExpansionOverflow(
                f"rule {slp.terminal_count + i} expands to more than 2**63-1 symbols"
            )
        lengths.append(total)
    return lengths


def reference_grammar_depth(slp: Slp) -> int:
    """Longest rule chain from the start symbol (terminals have depth 0)."""
    if slp.start is None:
        return 0
    depth = [0] * slp.terminal_count
    for body in slp.rules:
        depth.append(1 + max(depth[s] for s in body))
    return depth[slp.start]


def reference_prune_unreachable(slp: Slp) -> Slp:
    """Keep exactly the rules reachable from the start symbol."""
    sigma = slp.terminal_count
    keep = np.zeros(len(slp.rules), dtype=bool)
    if slp.start is not None and slp.start >= sigma:
        # Bodies reference smaller ids, so one descending sweep suffices.
        keep[slp.start - sigma] = True
        for i in range(slp.start - sigma, -1, -1):
            if keep[i]:
                for s in slp.rules[i]:
                    if s >= sigma:
                        keep[s - sigma] = True
    if keep.all():
        return Slp(slp.kind, slp.terminals, slp.rules, slp.start)
    new_id = np.full(slp.symbol_count, -1, dtype=np.int64)
    new_id[:sigma] = np.arange(sigma)
    next_id = sigma
    for i in range(len(slp.rules)):
        if keep[i]:
            new_id[sigma + i] = next_id
            next_id += 1
    rules = [
        tuple(int(new_id[s]) for s in body)
        for i, body in enumerate(slp.rules)
        if keep[i]
    ]
    start = None if slp.start is None else int(new_id[slp.start])
    return Slp(slp.kind, slp.terminals, rules, start)


def reference_serialize(slp: Slp) -> str:
    """Render the grammar in the line-oriented text format (LF endings)."""
    lines = ["SLP 1", f"terminals {slp.terminal_count} {slp.kind}"]
    if slp.terminal_count:
        lines.append(" ".join(str(v) for v in slp.terminals))
    lines.append(f"rules {len(slp.rules)}")
    for body in slp.rules:
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
    slp = Slp(kind, terminals, rules, start)
    reference_check_structure(slp)
    return slp


def reference_first_occurrence_ids(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The comparison-sort renumbering that ``ingest`` used for tokens.

    ``np.unique`` ranks the values, ``searchsorted`` maps each symbol to
    its rank, and the ranks are renumbered in first-occurrence order.
    Returns the renumbered text and the values in that order.
    """
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64), []
    uniq, first_idx = np.unique(arr, return_index=True)
    order = np.argsort(first_idx, kind="stable")
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
    text, amap = ingest(data, kind=kind)
    grammar = Slp(kind=amap.input_kind, terminals=amap.terminal_of_id)
    input_length = len(text)
    traces = []
    phase_table: list[tuple[int, int]] = []
    best: BestSnapshot | None = None
    copy_work = 0
    while True:
        phase_table.append((len(text), grammar.size))
        candidate = len(text) + grammar.size
        if best is None or candidate < best.size:
            snapshot = amap.canonical_of_array(text.live())
            best = BestSnapshot(candidate, len(traces), snapshot, len(grammar.rules))
            copy_work += len(snapshot)
        if len(text) <= 1:
            break
        traces.append(run_phase(text, amap, grammar, len(traces) + 1))
    slp = _snapshot_grammar(grammar, best)
    stats = GrammarStats(
        input_length=input_length,
        terminal_count=slp.terminal_count,
        rule_count=len(slp.rules),
        size=slp.size,
        phase_count=len(traces),
        phase_table=phase_table,
    )
    return CompressionResult(slp, stats, traces, "improved", best.phase, copy_work)


def reference_stats_lines(slp: Slp) -> list[str]:
    """The lines CLI ``stats`` printed before ``bytes``, from separate scalar walks.

    Length comes from ``expansion_length``'s length table and depth from
    the scalar ``reference_grammar_depth``, not from the single
    ``expansion_and_depth`` walk that CLI ``stats`` runs.
    """
    try:
        length = str(expansion_length(slp))
    except ExpansionOverflow:
        length = ">=2^63"
    return [
        f"rules {len(slp.rules)}",
        f"size {slp.size}",
        f"depth {reference_grammar_depth(slp)}",
        f"expansion {length}",
    ]


def _first_occurrence_order(first_pos: np.ndarray) -> np.ndarray:
    """Offsets of occurring symbols, ordered by their (distinct) first position.

    Scatters each offset into a position-indexed table and compacts, so the
    ordering costs O(text length + table width) without a sort.
    """
    occurring = np.flatnonzero(first_pos >= 0)
    by_position = np.full(int(first_pos.max()) + 1 if len(occurring) else 0, -1, dtype=np.int64)
    by_position[first_pos[occurring]] = occurring
    return by_position[by_position >= 0]


def reference_rename_dense(text: WorkingText, amap: AlphabetMap) -> None:
    """Rename the symbols occurring in ``text`` onto a fresh dense interval.

    ``rename_dense`` as it was before it shared ``ingest``'s renumbering.
    Symbols are numbered in first-occurrence order, alias entries are
    carried over so canonical ids stay recoverable, and the dead part of
    the alias table is dropped.  Runs in time linear in the text length
    plus the width of the current working interval.
    """
    live = text.live()
    if len(live) == 0:
        return
    base = amap.alias_base
    width = amap.next_working - base
    off = live - base
    if off.min() < 0 or off.max() >= width:
        raise ValueError("text symbol outside the current working interval")
    first_pos = np.full(width, -1, dtype=np.int64)
    first_pos[off[::-1]] = np.arange(len(off) - 1, -1, -1, dtype=np.int64)
    old_offsets = _first_occurrence_order(first_pos)
    new_base = amap.next_working
    new_table = amap.alias_table[old_offsets].copy()
    lut = np.full(width, -1, dtype=np.int64)
    lut[old_offsets] = np.arange(new_base, new_base + len(old_offsets), dtype=np.int64)
    text._remap_live(lut, base)
    amap._rebase(new_base, new_table)
