"""Maximal-block compression: one phase stage.

Every maximal run ``a^len`` (len >= 2) in the text is replaced by one fresh
symbol per distinct (letter, length), and the fresh symbols are defined by
a power-of-two subgrammar: squares of the letter up to the largest gap,
gap values as binary expansions over the squares, and a chain linking the
block lengths in increasing order.  The emitted body length for lengths
l1 < ... < lk is at most 4 * sum(1 + log2(li - l(i-1))), where l0 = 0.

Rules are emitted, with consecutive ids, in this order.  Letters come in
the order of the (letter, length) group table.  Within a letter, the
squares ``a^2, a^4, ...`` come first, up to the largest gap.  Then, for
each length in ascending order: a gap rule (the gap's squares, largest
first) if the gap has more than one set bit and no earlier length of the
letter had the same gap; and, for every length after the first, a chain
rule ``(gap symbol, symbol of the previous length)``.  A gap with one set
bit is the square itself, and the first length's symbol is its gap's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import AlphabetMap, radix_argsort
from .grammar import Slp
from .text import StaleTextError, WorkingText, concat_ranges


class BlockScan:
    """Maximal blocks of length >= 2, sorted by (letter, length).

    Column-array layout.  Positions are indices into the compact text and
    are only valid for the epoch they were scanned in.
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
    pos = starts[keep]
    base = amap.alias_base
    width = amap.next_working - base
    span = int(lengths.max()) + 1 if len(lengths) else 1
    order = radix_argsort((letters - base) * span + lengths, width * span)
    return BlockScan(letters[order], lengths[order], pos[order], text.epoch)


@dataclass
class BlockCompression:
    """Outcome of one block stage: one column entry per distinct block."""

    blocks_replaced: int
    letters: np.ndarray  # canonical letter
    lengths: np.ndarray
    symbols: np.ndarray  # canonical id of the replacing symbol


def compress_blocks(
    text: WorkingText, scan: BlockScan, grammar: Slp, amap: AlphabetMap
) -> BlockCompression:
    """Replace every scanned block; equal (letter, length) share one symbol.

    Afterwards no two adjacent live symbols are equal.  The replaced blocks
    leave dead cells, so the text needs a ``compact()`` before the next
    stage reads it.
    """
    if len(scan) == 0:
        empty = np.empty(0, dtype=np.int64)
        return BlockCompression(0, empty, empty, empty)
    if scan.epoch != text.epoch:
        raise StaleTextError("block positions predate the last compaction")
    letters, lengths = scan.letters, scan.lengths
    new_group = np.empty(len(letters), dtype=bool)
    new_group[0] = True
    new_group[1:] = (letters[1:] != letters[:-1]) | (lengths[1:] != lengths[:-1])
    group_starts = np.flatnonzero(new_group)
    # Records are sorted by letter, so each letter's distinct lengths form a
    # contiguous increasing slice.
    group_letters = amap.canonical_of_array(letters[group_starts])
    group_lengths = lengths[group_starts]
    targets = build_block_rules(grammar, group_letters, group_lengths)
    fresh = amap.allocate_working(targets)
    group_of_record = np.cumsum(new_group) - 1
    text.replace_runs_bulk(scan.positions, lengths, fresh[group_of_record])
    return BlockCompression(len(scan), group_letters, group_lengths, targets)


def build_block_rules(grammar: Slp, letters, lengths) -> np.ndarray:
    """Emit the rules for a table of (letter, length) groups in one pass.

    Each letter's groups must be contiguous, with lengths strictly
    increasing from at least 2.  Returns, per group, the symbol deriving
    ``letter^length``.  Rules and ids follow the order in the module
    docstring.
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
