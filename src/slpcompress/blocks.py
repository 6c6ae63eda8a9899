"""Maximal-block compression: one phase stage.

Every maximal run ``a^len`` (len >= 2) in the text is replaced by one fresh
symbol per distinct (letter, length), and the fresh symbols are defined by
a power-of-two subgrammar: squares of the letter up to the largest gap,
gap values as binary expansions over the squares, and a chain linking the
block lengths in increasing order.  The emitted body length for lengths
l1 < ... < lk is at most 4 * sum(1 + log2(li - l(i-1))).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import AlphabetMap, radix_argsort
from .grammar import Slp
from .text import StaleTextError, WorkingText


class BlockScan:
    """Maximal blocks of length >= 2, sorted by (letter, length).

    Column-array layout.  Positions are only valid for the epoch they were
    scanned in.
    """

    def __init__(self, letters: np.ndarray, lengths: np.ndarray, positions: np.ndarray,
                 epoch: int = 0):
        self.letters = letters
        self.lengths = lengths
        self.positions = positions
        self.epoch = epoch

    def __len__(self) -> int:
        return len(self.letters)


def scan_blocks(text: WorkingText, amap: AlphabetMap) -> BlockScan:
    """Find all maximal blocks of length >= 2, radix-sorted by (letter, length)."""
    live = text.live()
    positions = text.live_positions()
    n = len(live)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return BlockScan(empty, empty, empty, text.epoch)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(live[1:], live[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    run_lengths = np.diff(np.append(starts, n))
    keep = run_lengths >= 2
    letters = live[starts[keep]]
    lengths = run_lengths[keep]
    pos = positions[starts[keep]]
    base = amap.alias_base
    width = amap.next_working - base
    order = radix_argsort(
        [letters - base, lengths],
        [width, int(lengths.max()) + 1 if len(lengths) else 1],
    )
    return BlockScan(letters[order], lengths[order], pos[order], text.epoch)


@dataclass
class BlockCompression:
    """Outcome of one block stage."""

    blocks_replaced: int
    # (canonical letter, length) -> canonical id of the replacing symbol
    symbol_of_block: dict[tuple[int, int], int]


def compress_blocks(
    text: WorkingText, scan: BlockScan, grammar: Slp, amap: AlphabetMap
) -> BlockCompression:
    """Replace every scanned block; equal (letter, length) share one symbol.

    Afterwards no two adjacent live symbols are equal.
    """
    if len(scan) == 0:
        return BlockCompression(0, {})
    if scan.epoch != text.epoch:
        raise StaleTextError("block positions predate the last compaction")
    letters, lengths = scan.letters, scan.lengths
    new_group = np.empty(len(letters), dtype=bool)
    new_group[0] = True
    new_group[1:] = (letters[1:] != letters[:-1]) | (lengths[1:] != lengths[:-1])
    group_starts = np.flatnonzero(new_group)
    group_letters = letters[group_starts]
    group_lengths = lengths[group_starts]
    # Records are sorted by letter, so each letter's distinct lengths form a
    # contiguous increasing slice.
    letter_starts = np.flatnonzero(
        np.concatenate([[True], group_letters[1:] != group_letters[:-1]])
    )
    letter_ends = np.append(letter_starts[1:], len(group_letters))
    symbol_of_block: dict[tuple[int, int], int] = {}
    canon_targets = np.empty(len(group_letters), dtype=np.int64)
    for ls, le in zip(letter_starts, letter_ends):
        letter_canon = amap.canonical_of(int(group_letters[ls]))
        targets = build_block_representation(
            grammar, letter_canon, [int(l) for l in group_lengths[ls:le]]
        )
        for j in range(ls, le):
            canon_targets[j] = targets[int(group_lengths[j])]
        for length, sym in targets.items():
            symbol_of_block[(letter_canon, length)] = sym
    fresh = amap.allocate_working(canon_targets)
    group_of_record = np.cumsum(new_group) - 1
    text.replace_runs_bulk(scan.positions, lengths, fresh[group_of_record])
    live = text.live()
    assert not (live[1:] == live[:-1]).any(), "equal adjacent symbols after block stage"
    return BlockCompression(len(scan), symbol_of_block)


def build_block_representation(grammar: Slp, letter: int, lengths: list[int]) -> dict[int, int]:
    """Emit rules defining a symbol for ``letter``^len for each target length.

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
