"""The mutable working string: a compact array between replacements.

Each stage of a phase is one pass over the current text, and every
position it hands out is a plain index into ``cells``.  A replacement
keeps the array in place: the replacing symbol goes into the first cell
of each occurrence and the other cells become ``TOMBSTONE``.  Dead cells
exist only between a replacement and the next ``compact()``; until then
``live()`` refuses to read the text.  Every compaction bumps ``epoch``, so
positions taken before it are detected as stale.
"""

from __future__ import annotations

import numpy as np

TOMBSTONE = -1


class StaleTextError(RuntimeError):
    """Dead cells are pending, or a position predates the last compaction."""


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + counts[i])``, back to back."""
    idx = np.repeat(starts - (np.cumsum(counts) - counts), counts)
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

    def to_list(self) -> list[int]:
        """The live symbols in order, also between a replacement and ``compact()``."""
        return self.cells[self.cells != TOMBSTONE].tolist()

    def compact(self) -> None:
        """Drop dead cells; invalidates all outstanding positions."""
        if self.live_count != len(self.cells):
            self.cells = self.cells[self.cells != TOMBSTONE]
        self.epoch += 1

    def replace_runs_bulk(self, starts: np.ndarray, lengths: np.ndarray, fresh: np.ndarray) -> None:
        """Replace disjoint uniform runs ``[start, start+length)`` of live cells."""
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        fresh = np.asarray(fresh, dtype=np.int64)
        if len(starts) == 0:
            return
        if lengths.min() < 2:
            raise ValueError("runs shorter than 2 are never replaced")
        if (starts + lengths).max() > len(self.cells):
            raise ValueError("run extends past the end of the text")
        # The cells strictly inside each run, run after run.
        inside = concat_ranges(starts, lengths - 1)
        inside += 1  # shift in place; passing starts + 1 adds a run-sized array at the peak
        if (self.cells[inside] == TOMBSTONE).any() or (self.cells[starts] == TOMBSTONE).any():
            raise ValueError("bulk run replacement over dead cells")
        self.cells[inside] = TOMBSTONE
        self.cells[starts] = fresh
        self.live_count -= len(inside)

    def replace_pairs_bulk(self, firsts: np.ndarray, fresh: np.ndarray) -> None:
        """Replace the disjoint pairs of live cells ``(first, first + 1)``."""
        firsts = np.asarray(firsts, dtype=np.int64)
        fresh = np.asarray(fresh, dtype=np.int64)
        if len(firsts) == 0:
            return
        seconds = firsts + 1
        if (self.cells[firsts] == TOMBSTONE).any() or (self.cells[seconds] == TOMBSTONE).any():
            raise ValueError("bulk pair replacement touching dead cells")
        self.cells[firsts] = fresh
        self.cells[seconds] = TOMBSTONE
        self.live_count -= len(firsts)

    def _remap_live(self, lut: np.ndarray, base: int) -> None:
        """Apply ``sym -> lut[sym - base]`` to every cell of the compact text."""
        self.cells = lut[self.live() - base]
