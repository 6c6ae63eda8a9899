"""The mutable working string: a compact array between replacements.

Each stage of a phase is one pass over the current text, and every
position it hands out is a plain index into ``cells``.  Both stages write
through ``replace_spans``, which puts the replacing symbol into the first
cell of each span and records, as a mask over the cells, which cells
survive.  The write stays pending until the next ``compact()``, which
gathers the surviving cells in one pass; until then ``live()`` refuses to
read the text.  Every compaction bumps ``epoch``, so positions taken before
it are detected as stale.

The text also carries its working alphabet: its symbols are working ids in
``[0, width)``, and working id ``w`` stands for the canonical id (grammar
symbol) ``alias[w]``.  A new text's alias is the identity over ``0..max``;
the stages ``mint`` the ids of the symbols they write, and
``alphabet.rename_dense`` renumbers the symbols and the alias together.

Every cell lies in ``[0, width)`` by construction.  That is checked only
where symbols are written, before any write: the constructor takes only
integers of at least 0, and ``replace_spans`` only fresh symbols below
``width``.  ``mint`` only widens the alphabet, ``compact`` only drops cells
and a rename maps onto ``[0, k)``, so readers index ``alias`` with cells
directly.  No other module writes ``cells``, ``alias`` or ``kept``.
"""

from __future__ import annotations

import numpy as np

_INT64_MAX = 2**63 - 1


class StaleTextError(RuntimeError):
    """A write is pending, or a position predates the last compaction."""


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
    try:
        values = list(values)
    except TypeError:
        raise error(f"{what} must be a sequence, not {type(values).__name__}") from None
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


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + counts[i])``, back to back."""
    shift = np.cumsum(counts, dtype=np.int64)
    shift -= counts
    np.subtract(starts, shift, out=shift)  # one span-sized array, not three
    idx = np.repeat(shift, counts)
    del shift  # before the arange, which sets the peak
    idx += np.arange(len(idx))
    return idx


class WorkingText:
    def __init__(self, symbols):
        self.cells = as_int64(symbols, "symbols", ValueError).copy()
        if self.cells.min(initial=0) < 0:
            raise ValueError("symbols must be non-negative")
        self.alias = np.arange(self.cells.max(initial=-1) + 1)  # working id -> canonical id
        self.kept = None  # while a write is pending, the cells compact() keeps
        self.epoch = 0

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
        """The number of symbols, counting a pending write as applied."""
        return len(self.cells) if self.kept is None else int(np.count_nonzero(self.kept))

    def live(self) -> np.ndarray:
        """The symbol sequence; raises ``StaleTextError`` while a write is pending."""
        if self.kept is not None:
            raise StaleTextError("a write is pending: compact() the text first")
        return self.cells

    def compact(self) -> None:
        """Apply the pending write, if any; invalidates all outstanding positions.

        The write is one gather of the surviving cells.
        """
        if self.kept is not None:
            self.cells = np.compress(self.kept, self.cells)  # faster than cells[kept] here
            self.kept = None
        self.epoch += 1

    def replace_spans(self, starts, fresh, kept) -> None:
        """Replace disjoint spans of the compact text, each by one symbol.

        Span ``i`` is the cell ``starts[i]``, which takes ``fresh[i]``, and
        the cells after it that the bool mask ``kept`` drops, up to the next
        cell it keeps; ``compact()`` then keeps the cells that ``kept`` does.
        The starts must be distinct kept cells, each followed by a dropped
        one, and the runs of dropped cells must number one per span, so
        that every dropped cell lies in a span.  Arrays of other shapes,
        positions outside the text, a span start that another span drops,
        spans of one cell, a start given twice, a dropped cell in no span,
        starts or symbols that are not integers and fresh symbols outside
        ``[0, width)`` raise ``ValueError`` before any write.
        """
        cells = self.live()
        starts = as_int64(starts, "span starts", ValueError)
        fresh = as_int64(fresh, "fresh symbols", ValueError)
        kept = np.asarray(kept)
        if fresh.shape != starts.shape:
            raise ValueError("starts and fresh need one entry per span")
        if kept.dtype != bool or kept.shape != cells.shape:
            raise ValueError("kept needs one bool per cell of the text")
        if starts.min(initial=0) < 0:
            raise ValueError("span starts before the text")
        if starts.size and starts.max() >= len(cells) - 1:
            raise ValueError("span extends past the end of the text")
        if not kept[starts].all():
            raise ValueError("a span starts on a cell another span drops")
        if kept[1:][starts].any():
            raise ValueError("spans shorter than 2 are never replaced")
        seen = np.zeros(len(kept), dtype=bool)
        seen[starts] = True
        if np.count_nonzero(seen) != len(starts):
            raise ValueError("a span is given twice")
        # Distinct starts open distinct runs of dropped cells; any further run is in no span.
        drop_runs = np.count_nonzero(kept[:-1] > kept[1:]) + int(len(kept) > 0 and not kept[0])
        if drop_runs != len(starts):
            raise ValueError("a dropped cell lies in no span")
        if fresh.size and (fresh.min() < 0 or fresh.max() >= len(self.alias)):
            raise ValueError("fresh symbol outside the working alphabet")
        cells[starts] = fresh
        self.kept = kept

    def _rename(self, lut: np.ndarray, old_ids: np.ndarray) -> None:
        """Symbol ``s`` becomes ``lut[s]``; new id ``i`` takes old id ``old_ids[i]``'s alias."""
        self.cells = lut[self.live()]
        self.alias = self.alias[old_ids]
