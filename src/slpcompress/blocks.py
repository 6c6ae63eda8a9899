"""Maximal-block compression: one phase stage.

Every maximal run ``a^len`` (len >= 2) in the text is replaced by one fresh
symbol per distinct (letter, length).  The stage reads the text in run form
(see ``text``): the first phase's text comes from ``ingest`` so, and
``scan_blocks`` brings a later phase's compact text to it.  The runs'
(letter, length) keys are ranked (``rank_keys``): the distinct keys,
ascending, are the groups, and each run's head cell takes its group's
symbol, in one write.  The fresh symbols are
defined by a power-of-two subgrammar: squares of the letter up to the
largest gap, gap values as binary expansions over the squares, and a chain
linking the block lengths in increasing order.  The emitted body length for lengths
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

from .alphabet import radix_argsort, rank_keys
from .grammar import Slp
from .text import StaleTextError, WorkingText, concat_ranges, gather, narrow_dtype


@dataclass
class BlockScan:
    """Maximal blocks of length >= 2, grouped by (letter, length).

    ``groups`` holds each pending run's group index, in run order; the
    groups are the distinct (letter, length) keys, ascending, and
    ``letters`` and ``lengths`` hold each group's working letter and
    length.  Each column takes the narrowest unsigned dtype that holds it.
    ``runs`` is the text's pending runs that the groups follow.
    """

    groups: np.ndarray
    letters: np.ndarray
    lengths: np.ndarray
    runs: tuple[np.ndarray, np.ndarray] | None

    def __len__(self) -> int:
        """The number of blocks."""
        return len(self.groups)


def scan_blocks(text: WorkingText) -> BlockScan:
    """The text's maximal blocks of length >= 2, ranked by (letter, length).

    A compact text is first brought to run form (``collapse_runs``); a text
    from ``ingest`` already is in it, so the first phase only ranks.
    """
    text.collapse_runs()
    if text.runs is None:
        empty = np.empty(0, dtype=np.uint8)
        return BlockScan(empty, empty, empty, None)
    at, lengths = text.runs
    span = int(lengths.max()) + 1
    key = gather(text.cells, at).astype(narrow_dtype(text.width * span), copy=False)
    key *= span  # below the bound, which the dtype holds
    key += lengths
    groups, key, _ = rank_keys(key, text.width * span)
    letters, lengths = np.divmod(key, span)
    letters = letters.astype(narrow_dtype(text.width))
    return BlockScan(groups, letters, lengths.astype(narrow_dtype(span)), text.runs)


@dataclass
class BlockCompression:
    """Outcome of one block stage: one column entry per distinct block."""

    blocks_replaced: int
    letters: np.ndarray  # canonical letter
    lengths: np.ndarray
    symbols: np.ndarray  # canonical id of the replacing symbol


def compress_blocks(text: WorkingText, scan: BlockScan, grammar: Slp) -> BlockCompression:
    """Replace every scanned block; equal (letter, length) share one symbol.

    The write (``replace_runs``) leaves a compact text in which no two
    adjacent symbols are equal.
    """
    if scan.runs is not text.runs:
        raise StaleTextError("the text no longer holds the runs the scan groups")
    if len(scan) == 0:
        empty = np.empty(0, dtype=np.int64)
        return BlockCompression(0, empty, empty, empty)
    # The groups are ascending, so each letter's distinct lengths form a
    # contiguous increasing slice.
    letters = gather(text.alias, scan.letters)
    lengths = scan.lengths.astype(np.int64)
    targets = build_block_rules(grammar, letters, lengths)
    text.replace_runs(gather(text.mint(targets), scan.groups))
    return BlockCompression(len(scan), letters, lengths, targets)


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
    # The first group of each (letter, gap) owns the gap's symbol; writing
    # the groups in reverse leaves each key's first.  The key holds the
    # gap's rank, so it lies below letters * distinct gaps <= n**2, which
    # is under 2**63 for any table of fewer than 2**31 groups.
    gap_rank, distinct_gaps, _ = rank_keys(gaps, int(gaps.max()) + 1)
    key_rank, distinct_keys, _ = rank_keys(
        letter_of * len(distinct_gaps) + gap_rank, len(squares) * len(distinct_gaps)
    )
    del gap_rank
    first_of = np.empty(len(distinct_keys), dtype=np.int64)
    first_of[key_rank[::-1]] = np.arange(n - 1, -1, -1)
    first_use = first_of[key_rank]
    gap_rule = (popcount > 1) & (first_use == np.arange(n))

    # Rule slots (ids less the grammar's symbol count) go level by level as
    # in the module docstring; stable sorts keep table order within a level.
    # A square's exponent is below 64, and a chain's step below n.
    base = grammar.symbol_count
    square_letter = np.repeat(np.arange(len(squares)), squares)
    half = concat_ranges(np.zeros(len(squares), dtype=np.int64), squares)  # exponent - 1
    by_square = radix_argsort(half, 64)  # the squares in slot order
    rows = np.flatnonzero(gap_rule)
    chain = np.flatnonzero(~first)
    by_chain = radix_argsort(chain - letter_first[letter_of[chain]], n)  # by step

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
