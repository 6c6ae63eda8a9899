"""Pair compression: adjacency lists, the greedy left/right split, replacement.

The alphabet is split into a left class and a right class; pairs whose
first symbol is in the left class and second in the right class cannot
overlap, so all their occurrences are replaced simultaneously.  The greedy
split guarantees the replaced occurrences number at least
``ceil((|T| - 1) / 4)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .alphabet import radix_argsort
from .grammar import Slp
from .text import StaleTextError, WorkingText, concat_ranges

# Edges per block of the greedy split.  A block step is a few numpy calls,
# about what walking a few hundred edges in Python costs; at one block per
# 1024 edges the block steps cost a fraction of the walk even when every
# edge is inner, while on sparse random graphs most edges are outer and
# skip the Python walk.  Measured on the benchmark corpus, 512 to 2048
# performed alike and 4096 or more was slower.
_EDGES_PER_BLOCK = 1024


class PairAdjacency:
    """Distinct adjacent pairs with their occurrence lists.

    Built from one radix sort of the (first, second) keys, stable in position:
    ``pair_a``/``pair_b`` hold the distinct pairs in (first, second) order,
    and the occurrences of pair ``i`` are
    ``occurrences[occ_start[i]:occ_start[i + 1]]``, in text order.
    Positions are indices into the compact text of the adjacency's epoch.
    """

    def __init__(self, text: WorkingText):
        self.epoch = text.epoch
        self.width = text.width
        lv = text.live()
        n = len(lv)
        if n >= 2 and (lv[1:] == lv[:-1]).any():
            raise ValueError(
                "equal adjacent symbols in text: block compression must run first"
            )
        if n < 2:
            self.pair_a = self.pair_b = np.empty(0, dtype=np.int64)
            self.pair_count = np.empty(0, dtype=np.int64)
            self.occ_start = np.zeros(1, dtype=np.int64)
            self.occurrences = np.empty(0, dtype=np.int64)
            return
        a = lv[:-1]
        b = lv[1:]
        key, bound = _pair_keys(text)
        order = radix_argsort(key, bound)
        self.occurrences = order  # position of the first symbol, grouped by pair
        key = key[order]
        new_pair = np.empty(n - 1, dtype=bool)
        new_pair[0] = True
        np.not_equal(key[1:], key[:-1], out=new_pair[1:])
        starts = np.flatnonzero(new_pair)
        self.pair_a = a[order[starts]]
        self.pair_b = b[order[starts]]
        self.occ_start = np.append(starts, n - 1)
        self.pair_count = np.diff(self.occ_start)


def _pair_keys(text: WorkingText) -> tuple[np.ndarray, int]:
    """One key per adjacency, ``(first, second)`` over the working alphabet, and its bound."""
    lv, width = text.live(), text.width
    return lv[:-1] * width + lv[1:], width * width


def distinct_pairs(text: WorkingText) -> int:
    """Number of distinct adjacent pairs in the text, equal neighbours included."""
    lv = text.live()
    if len(lv) < 2:
        return 0
    key, bound = _pair_keys(text)
    key = key[radix_argsort(key, bound)]
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


def build_adjacency(text: WorkingText) -> PairAdjacency:
    """Radix-sorted neighbour lists for every adjacent pair in the text."""
    return PairAdjacency(text)


@dataclass
class Partition:
    """Disjoint left/right classes over the working alphabet, plus coverage."""

    in_left: np.ndarray  # bool, indexed by working id; ids minted later lie past its end
    in_right: np.ndarray
    cover_pre_swap: int = 0  # occurrences covered in either direction, before the swap
    cover_chosen: int = 0  # occurrences in left-class . right-class, after the swap
    swapped: bool = False


def greedy_partition(adj: PairAdjacency) -> Partition:
    """Deterministic greedy split of the working alphabet.

    Symbols are decided in ascending id: each goes left when it occurs next
    to right-class symbols at least as often as next to left-class ones
    (ties go left).  Only smaller neighbours are decided by then, so each
    distinct pair is touched once, as an edge from its smaller endpoint
    ``lo`` to its larger endpoint ``hi`` weighted by its occurrence count:
    the side of ``lo`` moves the balance (right-class minus left-class
    adjacencies) of ``hi``.

    The adjacency's (first, second) order is already a valid walk order.
    The edges that move the balance of ``x`` are ``(y, x)`` with ``y < x``,
    in an earlier first-symbol group, and ``(x, y)`` with ``y < x``, at the
    front of ``x``'s own group; the edges that read it are ``(x, z)`` with
    ``z > x``, further on in that group, and ``(z, x)``, in a later group.
    The same holds for any subset of the edges kept in that order.

    The walk is blocked.  The alphabet is cut into blocks of ``2**s``
    consecutive ids, about one block per ``_EDGES_PER_BLOCK`` edges.  An
    edge is inner when ``lo`` and ``hi`` share a block and outer otherwise.
    Block by block, in ascending order, the block's inner edges are walked
    in Python in adjacency order, and then its outer edges add their
    weights into the balances of later blocks in one vector step.  So every
    edge into a symbol is applied before its side is read: an inner one
    earlier in the walk, by the argument above, and an outer one at the end
    of an earlier block.  For ``E`` distinct pairs the work is ``O(E +
    width)`` vector work, at most ``E / _EDGES_PER_BLOCK + 1`` block steps
    and a Python loop over the inner edges only.  With fewer than
    ``2 * _EDGES_PER_BLOCK`` edges there is one block.

    Ids that no longer occur have no edges and fall in the left class,
    where the choice is inert.  Afterwards the two classes are swapped when
    the opposite orientation covers strictly more occurrences.  Covered
    occurrences after the swap number at least ``ceil((|T| - 1) / 4)``.
    """
    a = adj.pair_a
    b = adj.pair_b
    in_right = _balances(a, b, adj.pair_count, adj.width) < 0
    part = Partition(~in_right, in_right)
    lr = part.in_left[a] & part.in_right[b]
    rl = part.in_right[a] & part.in_left[b]
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


def _block_shift(n_edges: int, width: int) -> int:
    """The least ``s`` whose ``2**s``-id blocks cut ``[0, width)`` into at most
    ``max(1, n_edges // _EDGES_PER_BLOCK)`` blocks."""
    return (-(-width // max(1, n_edges // _EDGES_PER_BLOCK)) - 1).bit_length()


def _balances(a: np.ndarray, b: np.ndarray, w: np.ndarray, width: int) -> np.ndarray:
    """The balance of every symbol when the blocked walk reads its side."""
    balance = np.zeros(width, dtype=np.int64)
    if len(a) == 0:
        return balance
    shift = _block_shift(len(a), width)
    size = 1 << shift
    n_blocks = -(-width // size)
    lo = np.minimum(a, b)
    # In both edge groups below lo ascends block by block, so a binary
    # search for each block's end finds where the block's edges end.
    cuts = np.arange(1, n_blocks + 1) << shift
    hi = a ^ b  # = lo ^ hi, below 2**s exactly when lo and hi share a block
    inner = hi < size
    hi ^= lo
    # Outer edges, sorted by lo's block, stay numpy columns.
    outer = np.flatnonzero(~inner)
    outer = outer[radix_argsort(lo[outer] >> shift, n_blocks)]
    out_lo, out_hi, out_w = lo[outer], hi[outer], w[outer]
    out_ends = np.searchsorted(out_lo, cuts).tolist()
    del outer
    # Inner edges are grouped by block already, as a first symbol shares
    # lo's block; they become Python lists of block-local ids.  Each column
    # is freed once listed, so the lists do not sit beside the arrays.
    lo = lo[inner]
    inner_ends = np.searchsorted(lo, cuts).tolist()
    lo &= size - 1
    inner_lo = lo.tolist()
    del lo
    hi = hi[inner]
    hi &= size - 1
    inner_hi = hi.tolist()
    del hi
    inner_w = w[inner].tolist()
    del inner
    edges = zip(inner_lo, inner_hi, inner_w)
    i = o = 0
    for k, (i_end, o_end) in enumerate(zip(inner_ends, out_ends)):
        if i_end > i:
            ids = slice(k << shift, (k + 1) << shift)
            bal = balance[ids].tolist()
            for lo, hi, c in islice(edges, i_end - i):
                if bal[lo] >= 0:  # lo went left
                    bal[hi] -= c
                else:
                    bal[hi] += c
            balance[ids] = bal
            i = i_end
        if o_end > o:
            c = out_w[o:o_end]
            np.add.at(balance, out_hi[o:o_end], np.where(balance[out_lo[o:o_end]] < 0, c, -c))
            o = o_end
    return balance


@dataclass
class PairCompression:
    """Outcome of one pair stage: one column entry per replaced pair."""

    occurrences_replaced: int
    firsts: np.ndarray  # canonical first symbol
    seconds: np.ndarray  # canonical second symbol
    symbols: np.ndarray  # canonical id of the replacing symbol


def compress_pairs(
    text: WorkingText, part: Partition, adj: PairAdjacency, grammar: Slp
) -> PairCompression:
    """Replace every occurrence of every left.right pair with a fresh symbol."""
    if adj.epoch != text.epoch:
        raise StaleTextError("adjacency positions predate the last compaction")
    selected = np.flatnonzero(part.in_left[adj.pair_a] & part.in_right[adj.pair_b])
    canon_a = text.alias[adj.pair_a[selected]]
    canon_b = text.alias[adj.pair_b[selected]]
    rule_ids = grammar.emit_pair_rules(canon_a, canon_b)
    fresh = text.mint(rule_ids)
    # Gather the occurrence slices of the selected pairs in one shot.
    counts = adj.pair_count[selected]
    occs = adj.occurrences[concat_ranges(adj.occ_start[selected], counts)]
    # Each occurrence keeps its first cell and drops its second.  Distinct
    # left.right pairs never overlap (the classes are disjoint), so no
    # occurrence starts on a dropped cell; replace_spans checks it.
    kept = np.ones(len(text), dtype=bool)
    kept[1:][occs] = False
    text.replace_spans(occs, np.repeat(fresh, counts), kept)
    return PairCompression(len(occs), canon_a, canon_b, rule_ids)
