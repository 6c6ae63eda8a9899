"""Dense integer alphabets and the bounded-key radix argsort.

Every stage of the compressor works on integer symbol ids, and two id
spaces coexist:

* canonical ids: ``0..sigma-1`` are the input terminals, ``sigma, sigma+1,
  ...`` are grammar rules, allocated densely in rule-emission order.
  Grammar bodies contain canonical ids only, and a canonical id never
  changes meaning.
* working ids: the symbols stored in the mutable text.  At the start of
  each phase the working alphabet is renamed onto a fresh contiguous
  interval (so records over it can be bucket sorted); fresh symbols minted
  during a phase extend that interval.  ``AlphabetMap`` keeps the alias
  table from working ids back to canonical ids.

Working ids come from a single monotone counter, so at any moment the live
working alphabet is a known interval ``[base, next_working)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .text import WorkingText

TOKEN_VALUE_CEILING = 2**32 - 1

_DIGIT_BITS = 16


class InputFormatError(ValueError):
    """Raised when raw input cannot be turned into a symbol sequence."""


def radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys below ``bound``.

    ``bound`` may be at most 2**63, so every key fits an ``int64``; callers
    sort by several components by combining them into one mixed-radix key.
    Each pass is a stable counting sort on one 16-bit digit of the keys,
    least significant first, and ``bound - 1`` fixes how many digits there
    are, so the time is linear in the number of keys times that count.
    """
    if not 1 <= bound <= 1 << 63:
        raise ValueError(f"bound must lie in [1, 2**63], got {bound}")
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError("key out of bound")
    digits = max(1, (int(bound - 1).bit_length() + _DIGIT_BITS - 1) // _DIGIT_BITS)
    order = np.arange(len(keys), dtype=np.int64)
    for d in range(digits):
        digit = (keys[order] >> (d * _DIGIT_BITS)).astype(np.uint16)  # wraps mod 2**16
        order = order[np.argsort(digit, kind="stable")]
    return order


@dataclass
class AlphabetMap:
    """Terminal table plus the working-id -> canonical-id alias table.

    ``alias_base`` and ``alias_table`` together form the alias function:
    working id ``w`` (with ``alias_base <= w < next_working``) is an alias
    of canonical id ``alias_table[w - alias_base]``.  The table is total
    and injective over the current working interval; entries for dead
    intervals are dropped when the alphabet is renamed.
    """

    input_kind: str  # "bytes" | "tokens"
    terminal_of_id: list[int]
    alias_base: int = 0
    alias_table: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if self.input_kind not in ("bytes", "tokens"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")
        if self.alias_table.size == 0 and self.terminal_of_id:
            # Fresh map: working ids coincide with the canonical terminals.
            self.alias_table = np.arange(len(self.terminal_of_id), dtype=np.int64)

    @property
    def terminal_count(self) -> int:
        return len(self.terminal_of_id)

    @property
    def next_working(self) -> int:
        return self.alias_base + len(self.alias_table)

    def canonical_of_array(self, working_ids: np.ndarray) -> np.ndarray:
        off = np.asarray(working_ids, dtype=np.int64) - self.alias_base
        if off.size and (off.min() < 0 or off.max() >= len(self.alias_table)):
            raise ValueError("working id outside current interval")
        return self.alias_table[off]

    def allocate_working(self, canonical_ids: np.ndarray) -> np.ndarray:
        """Mint fresh working ids aliased to the given canonical ids."""
        canonical_ids = np.asarray(canonical_ids, dtype=np.int64)
        start = self.next_working
        self.alias_table = np.concatenate([self.alias_table, canonical_ids])
        return np.arange(start, start + len(canonical_ids), dtype=np.int64)

    def _rebase(self, base: int, table: np.ndarray) -> None:
        self.alias_base = base
        self.alias_table = table


def ingest(raw, kind: str | None = None) -> tuple[WorkingText, AlphabetMap]:
    """Turn raw input into a working text over dense terminal ids.

    Terminals are numbered in first-occurrence order.  ``raw`` is either a
    byte string or a sequence of unsigned token values; token values above
    ``TOKEN_VALUE_CEILING`` and anything but integers (floats, booleans,
    strings) are rejected with ``InputFormatError``.
    """
    if kind is None:
        kind = "bytes" if isinstance(raw, (bytes, bytearray, memoryview)) else "tokens"
    if kind == "bytes":
        arr = np.frombuffer(bytes(raw), dtype=np.uint8).astype(np.int64)
        lut, values = _first_occurrence_ids(arr, domain=256)
    elif kind == "tokens":
        try:
            arr = np.asarray(raw)
        except ValueError:  # ragged nesting
            raise InputFormatError("tokens must be a flat sequence of integers") from None
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            # Floats, booleans, strings and ints too wide for numpy would
            # otherwise be truncated or coerced into tokens silently.
            raise InputFormatError(
                f"tokens must be a flat sequence of integers in [0, {TOKEN_VALUE_CEILING}]"
                f", not {arr.dtype} of shape {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or arr.max() > TOKEN_VALUE_CEILING):
            raise InputFormatError(f"token values must lie in [0, {TOKEN_VALUE_CEILING}]")
        arr, distinct = _value_ranks(arr.astype(np.int64, copy=False))
        lut, first = _first_occurrence_ids(arr, domain=len(distinct))
        values = distinct[first]
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return WorkingText(lut[arr]), AlphabetMap(input_kind=kind, terminal_of_id=values.tolist())


def _value_ranks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token value's rank among the distinct values, and those values.

    One radix argsort over the token domain, so the cost is linear in the
    text length; every temporary is freed as soon as it has been read.
    """
    order = radix_argsort(arr, TOKEN_VALUE_CEILING + 1)
    ascending = arr[order]
    new = np.empty(len(ascending), dtype=bool)
    new[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=new[1:])
    distinct = ascending[new]
    sorted_ranks = np.cumsum(new, out=ascending)
    del new
    sorted_ranks -= 1
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return ranks, distinct


def _first_occurrence_ids(
    arr: np.ndarray, domain: int, first_id: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Number values in ``[0, domain)`` from ``first_id`` up, in order of first occurrence.

    Returns a table over the domain that maps each occurring value to its
    id (other entries are undefined), and the occurring values in that
    order.  Direct position tables replace any sort: writing positions in
    reverse makes the surviving entry the first occurrence, and scattering
    each value to its first position orders the values in O(text length +
    domain).
    """
    first_pos = np.full(domain, -1, dtype=np.int64)
    first_pos[arr[::-1]] = np.arange(len(arr) - 1, -1, -1, dtype=np.int64)
    occurring = np.flatnonzero(first_pos >= 0)
    by_position = np.full(int(first_pos.max()) + 1 if len(occurring) else 0, -1, dtype=np.int64)
    by_position[first_pos[occurring]] = occurring
    del first_pos, occurring
    values = by_position[by_position >= 0]
    lut = np.empty(domain, dtype=np.int64)
    lut[values] = np.arange(first_id, first_id + len(values), dtype=np.int64)
    return lut, values


def rename_dense(text: WorkingText, amap: AlphabetMap) -> None:
    """Rename the symbols occurring in ``text`` onto a fresh dense interval.

    Symbols are numbered in first-occurrence order, alias entries are
    carried over so canonical ids stay recoverable, and the dead part of
    the alias table is dropped.  Runs in time linear in the text length
    plus the width of the current working interval.
    """
    live = text.live()
    if len(live) == 0:
        return
    base = amap.alias_base
    width = amap.next_working - base
    off = live - base
    if off.min() < 0 or off.max() >= width:
        raise ValueError("text symbol outside the current working interval")
    new_base = amap.next_working
    lut, old_offsets = _first_occurrence_ids(off, width, new_base)
    text._remap_live(lut, base)
    amap._rebase(new_base, amap.alias_table[old_offsets])
