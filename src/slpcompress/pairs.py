"""Pair compression: the pair adjacency, the greedy left/right split, replacement.

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
from .text import StaleTextError, WorkingText, narrow_dtype

# Edges per block of the greedy split.  A block step is a few numpy calls,
# about what walking a few hundred edges in Python costs; at one block per
# 1024 edges the block steps cost a fraction of the walk even when every
# edge is inner, while on sparse random graphs most edges are outer and
# skip the Python walk.  Measured on the benchmark corpus, 512 to 2048
# performed alike and 4096 or more was slower.
_EDGES_PER_BLOCK = 1024


class PairAdjacency:
    """Distinct adjacent pairs, and which of them stands at each adjacency.

    ``pair_a``/``pair_b`` hold the distinct pairs in (first, second) order
    and ``pair_count`` how often each occurs; ``pair_of[p]`` is the index
    of the pair at positions ``(p, p + 1)``, in the narrowest unsigned
    dtype that holds every pair index.  The pairs' keys are bucket
    sorted: counted with one ``bincount`` when the key universe
    ``width**2`` is at most the number of adjacencies, and radix sorted
    otherwise.  Positions are indices into the compact text of the
    adjacency's epoch.
    """

    def __init__(self, text: WorkingText):
        self.epoch = text.epoch
        self.width = width = text.width
        lv = text.live()
        n = len(lv)
        if n >= 2 and (lv[1:] == lv[:-1]).any():
            raise ValueError(
                "equal adjacent symbols in text: block compression must run first"
            )
        if n < 2:
            self.pair_a = self.pair_b = np.empty(0, dtype=np.int64)
            self.pair_count = self.pair_of = np.empty(0, dtype=np.int64)
            return
        key, bound = _pair_keys(text)
        if bound <= n - 1:
            table = np.bincount(key, minlength=bound)
            present = np.flatnonzero(table)
            self.pair_count = table[present]
            table[present] = np.arange(len(present))  # key -> pair index
            self.pair_of = table.astype(narrow_dtype(len(present)))[key]
        else:
            order = radix_argsort(key, bound)
            key = key[order]
            # A distinct pair starts where the sorted key changes, and the
            # last cell closes the last one.
            edge = np.empty(n, dtype=bool)
            edge[0] = edge[-1] = True
            np.not_equal(key[1:], key[:-1], out=edge[1:-1])
            ends = np.flatnonzero(edge)
            present = key[ends[:-1]]
            del key
            self.pair_count = np.diff(ends)
            edge[0] = False  # so the running count is the pair index
            pair_index = np.cumsum(edge[:-1], dtype=narrow_dtype(len(present)))
            self.pair_of = np.empty_like(pair_index)
            self.pair_of[order] = pair_index
            del order, pair_index
        self.pair_a = present // width
        self.pair_b = present - self.pair_a * width  # faster than %


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
    """The distinct adjacent pairs of the text and the pair at each position."""
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
    cuts = np.arange(1, n_blocks + 1) << shift
    # The columns take the narrowest dtypes that hold their values, the ids
    # below width and the weights up to the largest, and each is freed once
    # read.
    lo = np.minimum(a, b, out=np.empty(len(a), dtype=narrow_dtype(width)), casting="unsafe")
    hi = np.maximum(a, b, out=np.empty(len(a), dtype=narrow_dtype(width)), casting="unsafe")
    w = w.astype(narrow_dtype(int(w.max()) + 1))
    inner = (lo ^ hi) < size  # lo and hi share a block
    # Inner edges are grouped by block already, as a first symbol shares
    # lo's block, so a binary search for each block's end finds where the
    # block's edges end.  They become Python lists of block-local ids.
    inner_lo = np.compress(inner, lo)
    inner_ends = np.searchsorted(inner_lo, cuts).tolist()
    inner_lo &= size - 1
    inner_lo = inner_lo.tolist()
    inner_hi = np.compress(inner, hi)
    inner_hi &= size - 1
    inner_hi = inner_hi.tolist()
    inner_w = np.compress(inner, w).tolist()
    # Outer edges, sorted by lo's block, stay numpy columns.
    np.logical_not(inner, out=inner)
    out_lo, out_hi, out_w = np.compress(inner, lo), np.compress(inner, hi), np.compress(inner, w)
    del lo, hi, w, inner
    order = radix_argsort(out_lo >> shift, n_blocks)
    out_lo, out_hi, out_w = out_lo[order], out_hi[order], out_w[order]
    del order
    out_ends = np.searchsorted(out_lo, cuts).tolist()
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
            c = out_w[o:o_end].astype(np.int64)  # signed, and add.at's fast path
            np.add.at(balance, out_hi[o:o_end], np.where(np.take(balance, out_lo[o:o_end]) < 0, c, -c))
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
    chosen = part.in_left[adj.pair_a] & part.in_right[adj.pair_b]
    selected = np.flatnonzero(chosen)
    canon_a = text.alias[adj.pair_a[selected]]
    canon_b = text.alias[adj.pair_b[selected]]
    rule_ids = grammar.emit_pair_rules(canon_a, canon_b)
    fresh = np.empty(len(chosen), dtype=narrow_dtype(text.width + len(selected)))
    fresh[selected] = text.mint(rule_ids)  # by pair; read only where chosen
    del selected
    # Each occurrence keeps its first cell and drops its second.  Distinct
    # left.right pairs never overlap (the classes are disjoint), so no
    # occurrence starts on a dropped cell; replace_spans checks it.
    kept = np.empty(len(text), dtype=bool)
    kept[0] = True
    # np.take, as indexing by a narrow index array is three times slower.
    kept[1:] = np.take(chosen, adj.pair_of)
    occs = np.flatnonzero(kept[1:])
    np.logical_not(kept[1:], out=kept[1:])
    text.replace_spans(occs, np.take(fresh, adj.pair_of[occs]), kept)
    return PairCompression(len(occs), canon_a, canon_b, rule_ids)
