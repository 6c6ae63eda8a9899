"""Pair compression: adjacency lists, the greedy left/right split, replacement.

The alphabet is split into a left class and a right class; pairs whose
first symbol is in the left class and second in the right class cannot
overlap, so all their occurrences are replaced simultaneously.  The greedy
split guarantees the replaced occurrences number at least
``ceil((|T| - 1) / 4)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import AlphabetMap, radix_argsort
from .grammar import Slp
from .text import StaleTextError, WorkingText, concat_ranges


class PairAdjacency:
    """Distinct adjacent pairs with their occurrence lists.

    Built from one radix sort of the (first, second) keys, stable in position:
    ``pair_a``/``pair_b`` hold the distinct pairs in (first, second) order,
    and the occurrences of pair ``i`` are
    ``occurrences[occ_start[i]:occ_start[i + 1]]``, in text order.
    Positions are indices into the compact text of the adjacency's epoch.
    """

    def __init__(self, text: WorkingText, amap: AlphabetMap):
        self.epoch = text.epoch
        self.base = amap.alias_base
        self.width = amap.next_working - self.base
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
        key, bound = _pair_keys(lv, amap)
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


def _pair_keys(lv: np.ndarray, amap: AlphabetMap) -> tuple[np.ndarray, int]:
    """One key per adjacency, ``(first, second)`` over the working interval, and its bound."""
    base = amap.alias_base
    width = amap.next_working - base
    return (lv[:-1] - base) * width + (lv[1:] - base), width * width


def distinct_pairs(text: WorkingText, amap: AlphabetMap) -> int:
    """Number of distinct adjacent pairs in the text, equal neighbours included."""
    lv = text.live()
    if len(lv) < 2:
        return 0
    key, bound = _pair_keys(lv, amap)
    key = key[radix_argsort(key, bound)]
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))


def build_adjacency(text: WorkingText, amap: AlphabetMap) -> PairAdjacency:
    """Radix-sorted neighbour lists for every adjacent pair in the text."""
    return PairAdjacency(text, amap)


@dataclass
class Partition:
    """Disjoint left/right classes over the working interval, plus coverage."""

    base: int
    in_left: np.ndarray  # bool, indexed by working id - base
    in_right: np.ndarray
    cover_pre_swap: int = 0  # occurrences covered in either direction, before the swap
    cover_chosen: int = 0  # occurrences in left-class . right-class, after the swap
    swapped: bool = False


def greedy_partition(adj: PairAdjacency, amap: AlphabetMap) -> Partition:
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

    Ids that no longer occur have no edges and fall in the left class,
    where the choice is inert.  Afterwards the two classes are swapped when
    the opposite orientation covers strictly more occurrences.  Covered
    occurrences after the swap number at least ``ceil((|T| - 1) / 4)``.
    """
    base = adj.base
    a = adj.pair_a - base
    b = adj.pair_b - base
    balance = [0] * adj.width
    for lo, hi, w in zip(
        np.minimum(a, b).tolist(), np.maximum(a, b).tolist(), adj.pair_count.tolist()
    ):
        if balance[lo] >= 0:  # lo went left
            balance[hi] -= w
        else:
            balance[hi] += w
    in_right = np.asarray(balance, dtype=np.int64) < 0
    part = Partition(base, ~in_right, in_right)
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


@dataclass
class PairCompression:
    """Outcome of one pair stage: one column entry per replaced pair."""

    occurrences_replaced: int
    firsts: np.ndarray  # canonical first symbol
    seconds: np.ndarray  # canonical second symbol
    symbols: np.ndarray  # canonical id of the replacing symbol


def compress_pairs(
    text: WorkingText,
    part: Partition,
    adj: PairAdjacency,
    grammar: Slp,
    amap: AlphabetMap,
) -> PairCompression:
    """Replace every occurrence of every left.right pair with a fresh symbol."""
    if adj.epoch != text.epoch:
        raise StaleTextError("adjacency positions predate the last compaction")
    selected = np.flatnonzero(
        part.in_left[adj.pair_a - part.base] & part.in_right[adj.pair_b - part.base]
    )
    if len(selected) == 0:
        empty = np.empty(0, dtype=np.int64)
        return PairCompression(0, empty, empty, empty)
    canon_a = amap.canonical_of_array(adj.pair_a[selected])
    canon_b = amap.canonical_of_array(adj.pair_b[selected])
    rule_ids = grammar.emit_pair_rules(canon_a, canon_b)
    fresh = amap.allocate_working(rule_ids)
    # Gather the occurrence slices of the selected pairs in one shot.
    counts = adj.pair_count[selected]
    occs = adj.occurrences[concat_ranges(adj.occ_start[selected], counts)]
    fresh_per_occ = np.repeat(fresh, counts)
    # Distinct left.right pairs never overlap (the classes are disjoint), so
    # every adjacency position takes part in at most one replacement.
    picked = np.zeros(len(text.cells), dtype=bool)
    picked[occs] = True
    assert not picked[occs + 1].any(), "overlapping pair replacements selected"
    text.replace_pairs_bulk(occs, fresh_per_occ)
    return PairCompression(len(occs), canon_a, canon_b, rule_ids)
