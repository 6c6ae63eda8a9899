"""Maximal-block compression: one phase stage.

Every maximal run ``a^len`` (len >= 2) in the text is replaced by one fresh
symbol per distinct (letter, length), and the fresh symbols are defined by
a power-of-two subgrammar: squares of the letter up to the largest gap,
gap values as binary expansions over the squares, and a chain linking the
block lengths in increasing order.  The emitted body length for lengths
l1 < ... < lk is at most 4 * sum(1 + log2(li - l(i-1))), where l0 = 0.

Rules are emitted, with consecutive ids, level by level, so that no rule
names another of its level and each level is one id range of the
grammar's range walk.  First the squares: ``a^2`` of every letter, then
``a^4`` of every letter that needs it, and so on, each letter's up to its
largest gap.  Then the gap rules: one (the gap's squares, largest first)
for each length whose gap has more than one set bit when no shorter length
of the letter had the same gap.  Then the chains: step j holds the rule
``(gap symbol, symbol of the previous length)`` of each letter's (j+1)-th
length, for j = 1, 2, ...  Within a level, letters and lengths keep the
order of the (letter, length) group table.  A gap with one set bit is the
square itself, and the first length's symbol is its gap's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import radix_argsort
from .grammar import Slp
from .text import StaleTextError, WorkingText, concat_ranges


@dataclass
class BlockScan:
    """Maximal blocks of length >= 2, sorted by (letter, length).

    Column-array layout.  Positions are indices into the compact text and
    are only valid for the epoch they were scanned in, as is ``run_starts``,
    the mask of the cells that start a maximal run of any length: the cells
    that survive the block stage.
    """

    letters: np.ndarray
    lengths: np.ndarray
    positions: np.ndarray
    run_starts: np.ndarray
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.letters)


def scan_blocks(text: WorkingText) -> BlockScan:
    """Find all maximal blocks of length >= 2, radix-sorted by (letter, length)."""
    live = text.live()
    n = len(live)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return BlockScan(empty, empty, empty, np.empty(0, dtype=bool), text.epoch)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(live[1:], live[:-1], out=boundary[1:])
    # A block's first cell starts a run and the next cell does not: there
    # the run-start mask steps down, and it steps up again after the block's
    # last cell (or the text ends, read as one more run start).  Only the
    # blocks get positions, not every run.
    step = np.diff(boundary.view(np.int8), append=np.int8(1))
    pos = np.flatnonzero(step == -1)
    lengths = np.flatnonzero(step == 1)
    del step
    lengths -= pos
    lengths += 1
    letters = live[pos]
    span = int(lengths.max()) + 1 if len(lengths) else 1
    order = radix_argsort(letters * span + lengths, text.width * span)
    return BlockScan(letters[order], lengths[order], pos[order], boundary, text.epoch)


@dataclass
class BlockCompression:
    """Outcome of one block stage: one column entry per distinct block."""

    blocks_replaced: int
    letters: np.ndarray  # canonical letter
    lengths: np.ndarray
    symbols: np.ndarray  # canonical id of the replacing symbol


def compress_blocks(text: WorkingText, scan: BlockScan, grammar: Slp) -> BlockCompression:
    """Replace every scanned block; equal (letter, length) share one symbol.

    Afterwards no two adjacent live symbols are equal.  The write keeps
    only the run starts and stays pending, so the text needs a
    ``compact()`` before the next stage reads it.
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
    group_letters = text.alias[letters[group_starts]]
    group_lengths = lengths[group_starts]
    targets = build_block_rules(grammar, group_letters, group_lengths)
    fresh = text.mint(targets)
    group_of_record = np.cumsum(new_group) - 1
    text.replace_spans(scan.positions, fresh[group_of_record], scan.run_starts)
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

    # Rule slots (ids less the grammar's symbol count) go level by level as
    # in the module docstring; stable sorts keep table order within a level.
    base = grammar.symbol_count
    square_letter = np.repeat(np.arange(len(squares)), squares)
    half = concat_ranges(np.zeros(len(squares), dtype=np.int64), squares)  # exponent - 1
    by_square = np.argsort(half, kind="stable")  # the squares in slot order
    rows = np.flatnonzero(gap_rule)
    chain = np.flatnonzero(~first)
    by_chain = np.argsort(chain - letter_first[letter_of[chain]], kind="stable")  # by step

    # power[at[letter] + e] derives the letter's a^(2^e).
    at = np.cumsum(squares + 1) - squares - 1
    power = np.empty(len(at) + len(half), dtype=np.int64)
    power[at] = letters[letter_first]
    power[(at[square_letter] + half + 1)[by_square]] = base + np.arange(len(half))
    gap_sym = power[at[letter_of] + bit_length - 1]
    gap_sym[rows] = base + len(half) + np.arange(len(rows))
    gap_sym = gap_sym[first_use]
    targets = gap_sym.copy()
    targets[chain[by_chain]] = base + len(half) + len(rows) + np.arange(len(chain))

    # Bodies in slot order: a^(2^(e+1)) -> a^(2^e) a^(2^e); a gap rule's
    # squares, largest first; (gap symbol, symbol of the previous length).
    row, col = np.nonzero(bits[rows, ::-1])
    counts = np.concatenate([np.full(len(half), 2), popcount[rows], np.full(len(chain), 2)])
    flat = np.concatenate(
        [
            np.repeat(power[at[square_letter] + half][by_square], 2),
            power[at[letter_of[rows[row]]] + width - 1 - col],
            np.column_stack([gap_sym[chain], targets[chain - 1]])[by_chain].ravel(),
        ]
    )
    grammar.emit_rules(counts, flat)
    return targets
