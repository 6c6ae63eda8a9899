"""The mutable working string: a compact array between replacements.

Each stage of a phase is one pass over the current text, and every
position it hands out is a plain index into ``cells``.  Both stages write
through ``replace_spans``, which keeps the array in place: the replacing
symbol goes into the first cell of each span and the others become
``TOMBSTONE``.  Dead cells exist only until the next ``compact()``, which
checks that the spans were disjoint; until then ``live()`` refuses to read
the text.  Every compaction bumps ``epoch``, so positions taken before it
are detected as stale.
"""

from __future__ import annotations

import numpy as np

TOMBSTONE = -1


class StaleTextError(RuntimeError):
    """Dead cells are pending, or a position predates the last compaction."""


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
        self.cells = np.asarray(symbols, dtype=np.int64).copy()
        if self.cells.ndim != 1:
            raise ValueError("working text must be one-dimensional")
        if self.cells.size and self.cells.min() < 0:
            raise ValueError("symbols must be non-negative")
        self.live_count = int(self.cells.size)
        self.epoch = 0

    def __len__(self) -> int:
        return self.live_count

    def live(self) -> np.ndarray:
        """The symbol sequence; raises ``StaleTextError`` while dead cells are pending."""
        if self.live_count != len(self.cells):
            raise StaleTextError("the text has dead cells: compact() it first")
        return self.cells

    def compact(self) -> None:
        """Drop dead cells; invalidates all outstanding positions.

        Raises ``ValueError``, leaving the text unreadable, unless the
        surviving cells number ``live_count``.  From a compact text they do
        exactly when the replaced spans were disjoint and every fresh
        symbol non-negative; a negative one is dropped here.
        """
        if self.live_count != len(self.cells):
            kept = self.cells[self.cells >= 0]
            if len(kept) != self.live_count:
                raise ValueError("replaced spans overlap or a fresh symbol is negative")
            self.cells = kept
        self.epoch += 1

    def replace_spans(self, starts, lengths, fresh) -> None:
        """Replace each span ``[start, start + length)`` of the compact text by one symbol.

        ``starts``, ``lengths`` and ``fresh`` hold one entry per span.
        Arrays of other shapes, lengths below 2 and spans outside the text
        raise ``ValueError`` before any write; ``compact()`` catches
        overlapping spans.
        """
        cells = self.live()
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        fresh = np.asarray(fresh, dtype=np.int64)
        if starts.ndim != 1 or lengths.shape != starts.shape or fresh.shape != starts.shape:
            raise ValueError("starts, lengths and fresh need one entry per span")
        if lengths.min(initial=2) < 2:
            raise ValueError("spans shorter than 2 are never replaced")
        if starts.min(initial=0) < 0:
            raise ValueError("span starts before the text")
        if (starts + lengths).max(initial=0) > len(cells):
            raise ValueError("span extends past the end of the text")
        # The cells strictly inside each span, span after span.
        inside = concat_ranges(starts, lengths - 1)
        inside += 1  # shift in place; passing starts + 1 adds a span-sized array at the peak
        cells[inside] = TOMBSTONE
        cells[starts] = fresh
        self.live_count -= len(inside)

    def _remap_live(self, lut: np.ndarray) -> None:
        """Apply ``sym -> lut[sym]`` to every cell of the compact text."""
        self.cells = lut[self.live()]
