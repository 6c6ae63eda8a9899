"""The mutable working string: a compact array between replacements.

Each stage of a phase is one pass over the current text, and every
position it hands out is a plain index into ``cells``.  The pair stage
writes through ``replace_pairs``, which puts the replacing symbol into the
first cell of each pair and records, as a mask over the cells, that the
second is dropped.  The write stays pending until the next ``compact()``,
which gathers the surviving cells in one pass; until then ``live()``
refuses to read the text.

The block stage reads the text in run form: ``cells`` holds one symbol per
maximal run, and ``runs`` the runs of length >= 2 as (head cell, length)
columns.  ``ingest`` builds the first text so, from the input's runs, and
``collapse_runs`` brings a compact text to it with the same run finder,
``find_runs``.  ``replace_runs`` then takes one symbol per run, in run
order, and writes it into the run's head cell, which leaves a compact
text.  While runs are pending ``live()`` refuses to read the text, and
``len()`` counts every run at its length.  Compacting a write, collapsing
runs and renaming put new ``cells``, and a collapse or run write new
``runs``, on the text: a stage keeps the object its positions index.

The text also carries its working alphabet: its symbols are working ids in
``[0, width)``, and working id ``w`` stands for the canonical id (grammar
symbol) ``alias[w]``.  A new text's alias is the identity over ``0..max``;
the stages ``mint`` the ids of the symbols they write, and
``alphabet.rename_dense`` renumbers the symbols and the alias together.

Every cell lies in ``[0, width)`` by construction.  That is checked only
where symbols are written, before any write: the constructor takes only
integers of at least 0, and ``replace_pairs`` and ``replace_runs`` only
fresh symbols below ``width``.  ``mint`` only widens the alphabet,
``compact`` and ``collapse_runs`` only drop cells and a rename maps onto
``[0, k)``, so readers index ``alias`` with cells directly.  No other
module writes ``cells``, ``alias``, ``kept`` or ``runs``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_INT64_MAX = 2**63 - 1
_CHUNK = 1 << 15  # cells per chunk of gather and scatter


class StaleTextError(RuntimeError):
    """A write is pending, or positions index cells or runs the text no longer holds."""


def as_int64(values, what: str, error: type[ValueError]) -> np.ndarray:
    """``values`` as a flat ``int64`` array; raises ``error`` unless each is an int64 integer.

    Never coerces: numpy would truncate floats, read bools as 0 and 1, parse
    numerals, and wrap or round integers of 2**63 or more.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise error(f"{what} must be a flat sequence, not of shape {values.shape}")
        if values.dtype.kind == "u" and values.size and values.max() > _INT64_MAX:
            wide = values[np.argmax(values > _INT64_MAX)]
            raise error(f"{what} must fit in int64, not {wide}")
        if values.dtype.kind not in "iu" and values.size:
            raise error(f"{what} must be integers, not {values.dtype}")
        return values.astype(np.int64, copy=False)
    if not isinstance(values, Sequence):  # memoryview is one; a dict, set or iterator is not
        raise error(f"{what} must be a sequence, not {type(values).__name__}")
    values = list(values)
    for kind in set(map(type, values)):
        if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, (int, np.integer)):
            raise error(f"{what} must be integers, not {kind.__name__}")
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        wide = next(v for v in values if not -_INT64_MAX - 1 <= v <= _INT64_MAX)
        raise error(f"{what} must fit in int64, not {wide}") from None


def narrow_dtype(bound: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every integer in ``[0, bound)``."""
    return np.min_scalar_type(max(bound - 1, 0))


def gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` for an integer index array of any dtype; every index must lie in the table.

    Reads and writes through a narrow index array go through here and
    ``scatter``, in chunks: numpy copies such an index to ``intp``, and a
    chunk bounds that copy at 256 kB.  ``np.take`` is three times faster
    than indexing by a narrow index, and its mode "clip", a no-op on indices
    in the table, skips the bounds check with which it buffers its output.
    """
    out = np.empty(len(index), dtype=table.dtype)
    for start in range(0, len(index), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        np.take(table, index[chunk], out=out[chunk], mode="clip")
    return out


def scatter(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``target[index] = values``, in chunks (see ``gather``) in order, so the last write wins."""
    for start in range(0, len(index), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        target[index[chunk].astype(np.intp, copy=False)] = values[chunk]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + counts[i])``, back to back."""
    shift = np.cumsum(counts, dtype=np.int64)
    shift -= counts
    np.subtract(starts, shift, out=shift)  # one span-sized array, not three
    idx = np.repeat(shift, counts)
    del shift  # before the arange, which sets the peak
    idx += np.arange(len(idx))
    return idx


def find_runs(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal runs of ``symbols``, as ``(heads, at, lengths)``.

    ``heads`` holds each run's symbol, in order and in the dtype of
    ``symbols`` (``symbols`` itself when no run is longer than 1), and for
    each run of length >= 2, in order, ``heads[at[i]]`` heads a run of
    ``lengths[i]`` symbols.  ``at`` and ``lengths`` take the narrowest
    unsigned dtypes that hold them.  Only the runs of length >= 2 get a
    position, so besides ``heads`` the output is sized by those runs.
    """
    n = len(symbols)
    starts = np.empty(n, dtype=bool)
    starts[:1] = True
    np.not_equal(symbols[1:], symbols[:-1], out=starts[1:])
    # A block's first cell starts a run and the next cell does not: there
    # the run-start mask steps down, and it steps up again after the block's
    # last cell (or the text ends, read as one more run start).
    step = np.diff(starts.view(np.int8), append=np.int8(1))
    at = np.flatnonzero(step == -1)
    lengths = np.flatnonzero(step == 1)
    del step
    lengths -= at
    lengths += 1
    heads = np.compress(starts, symbols) if len(at) else symbols
    del starts
    # A block's head index is its start less the cells that the blocks
    # before it fold into their heads.
    folded = np.cumsum(lengths)
    folded -= lengths
    at -= folded
    del folded
    at += np.arange(len(at))
    at = at.astype(narrow_dtype(len(heads)))
    lengths = lengths.astype(narrow_dtype(int(lengths.max(initial=0)) + 1))
    return heads, at, lengths


class WorkingText:
    def __init__(self, symbols, runs=None):
        """A compact text of ``symbols``, or with ``runs``, a text in run form.

        ``runs`` is a pair ``(at, lengths)`` of integer columns: cell
        ``at[i]`` stands for a run of ``lengths[i]`` copies of its symbol,
        and every other cell for itself.  Symbols that are not integers of
        at least 0, and runs that are not cells of the text in increasing
        order, each of length >= 2, raise ``ValueError``.
        """
        self.cells = as_int64(symbols, "symbols", ValueError).copy()
        if self.cells.min(initial=0) < 0:
            raise ValueError("symbols must be non-negative")
        self.alias = np.arange(self.cells.max(initial=-1) + 1)  # working id -> canonical id
        self.kept = None  # while a write is pending, the cells compact() keeps
        self.runs = None  # in run form, the (head cell, length) columns of the runs
        if runs is not None:
            at, lengths = (np.asarray(column) for column in runs)
            if at.dtype.kind not in "iu" or lengths.dtype.kind not in "iu":
                raise ValueError("runs must be integer columns")
            if at.ndim != 1 or at.shape != lengths.shape:
                raise ValueError("runs need one head cell and one length per run")
            if at.size and (at.min() < 0 or at.max() >= len(self.cells)):
                raise ValueError("a run head lies outside the text")
            if lengths.min(initial=2) < 2:
                raise ValueError("runs have length 2 or more")
            if np.any(at[1:] <= at[:-1]):
                raise ValueError("run heads must increase")
            if len(at):
                self.runs = (at, lengths)

    @property
    def width(self) -> int:
        """The size of the working alphabet: every symbol lies in ``[0, width)``."""
        return len(self.alias)

    def mint(self, canonical_ids) -> np.ndarray:
        """Fresh working ids, from ``width`` up, aliased to the given canonical ids.

        Ids that are not integers of at least 0 raise ``ValueError`` before
        the alias changes.
        """
        canonical_ids = as_int64(canonical_ids, "canonical ids", ValueError)
        if canonical_ids.min(initial=0) < 0:
            raise ValueError("canonical ids must be non-negative")
        start = len(self.alias)
        self.alias = np.concatenate([self.alias, canonical_ids])
        return np.arange(start, len(self.alias), dtype=np.int64)

    def __len__(self) -> int:
        """The number of symbols, counting a pending write as applied and runs at their length."""
        if self.kept is not None:
            return int(np.count_nonzero(self.kept))
        if self.runs is not None:
            at, lengths = self.runs
            return len(self.cells) + int(lengths.sum(dtype=np.int64)) - len(at)
        return len(self.cells)

    def live(self) -> np.ndarray:
        """The symbol sequence; raises ``StaleTextError`` while a write or runs are pending."""
        if self.kept is not None:
            raise StaleTextError("a write is pending: compact() the text first")
        if self.runs is not None:
            raise StaleTextError("runs are pending: the block stage replaces them first")
        return self.cells

    def canonical(self, dtype) -> np.ndarray:
        """The symbol sequence as canonical ids in ``dtype``, each pending run spread out.

        Raises ``StaleTextError`` while a write is pending.
        """
        if self.kept is not None:
            raise StaleTextError("a write is pending: compact() the text first")
        ids = gather(self.alias.astype(dtype), self.cells)
        if self.runs is None:
            return ids
        at, lengths = self.runs
        repeats = np.ones(len(ids), dtype=np.intp)
        scatter(repeats, at, lengths)
        return np.repeat(ids, repeats)

    def collapse_runs(self) -> None:
        """Bring a compact text to run form, through ``find_runs``.

        The cells become one per maximal run, and the runs of length >= 2
        go to ``runs``; this invalidates all outstanding positions.  A text
        in run form is left as it is, and so is one with no two equal
        neighbours, which is its own run form.
        """
        if self.runs is None:
            heads, at, lengths = find_runs(self.live())
            if len(at):
                self.cells, self.runs = heads, (at, lengths)

    def compact(self) -> None:
        """Apply the pending write, if any, in one gather of the surviving cells."""
        if self.kept is not None:
            self.cells = np.compress(self.kept, self.cells)  # faster than cells[kept] here
            self.kept = None

    def replace_pairs(self, starts, fresh) -> None:
        """Replace disjoint pairs of the compact text, each by one symbol.

        Pair ``i`` is the cells ``starts[i]`` and ``starts[i] + 1``: the
        first takes ``fresh[i]``, and ``compact()`` then drops the second.
        Arrays of other shapes, starts or symbols that are not integers,
        pairs outside the text, fresh symbols outside ``[0, width)``, a
        pair given twice and a pair that starts on another pair's second
        cell raise ``ValueError`` before any write.
        """
        cells = self.live()
        starts = as_int64(starts, "pair starts", ValueError)
        fresh = as_int64(fresh, "fresh symbols", ValueError)
        if fresh.shape != starts.shape:
            raise ValueError("starts and fresh need one entry per pair")
        if starts.min(initial=0) < 0:
            raise ValueError("pair starts before the text")
        if starts.size and starts.max() >= len(cells) - 1:
            raise ValueError("pair extends past the end of the text")
        if fresh.size and (fresh.min() < 0 or fresh.max() >= len(self.alias)):
            raise ValueError("fresh symbol outside the working alphabet")
        kept = np.ones(len(cells), dtype=bool)
        kept[1:][starts] = False
        # Two pairs overlap only when they share a start, and then drop one
        # cell between them, or when one starts on the other's dropped cell.
        if len(kept) - np.count_nonzero(kept) != len(starts):
            raise ValueError("a pair is given twice")
        if not kept[starts].all():
            raise ValueError("a pair starts on another pair's second cell")
        cells[starts] = fresh
        self.kept = kept

    def replace_runs(self, fresh) -> None:
        """Replace each pending run by one symbol, which leaves a compact text.

        The ``i``-th pending run, in text order, becomes ``fresh[i]``, which
        its head cell takes.  Without pending runs this raises
        ``StaleTextError``; symbols that are not integers, not one per
        pending run or outside ``[0, width)`` raise ``ValueError`` before
        any write.
        """
        if self.runs is None:
            raise StaleTextError("no runs are pending")
        fresh = as_int64(fresh, "fresh symbols", ValueError)
        at = self.runs[0]
        if fresh.shape != at.shape:
            raise ValueError("fresh needs one entry per pending run")
        if fresh.min() < 0 or fresh.max() >= len(self.alias):
            raise ValueError("fresh symbol outside the working alphabet")
        scatter(self.cells, at, fresh)
        self.runs = None

    def _rename(self, lut: np.ndarray, old_ids: np.ndarray) -> None:
        """Symbol ``s`` becomes ``lut[s]``; new id ``i`` takes old id ``old_ids[i]``'s alias."""
        self.cells = lut[self.live()]
        self.alias = self.alias[old_ids]
