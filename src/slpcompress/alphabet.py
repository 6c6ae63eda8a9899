"""Dense integer alphabets and the bounded-key radix argsort.

Every stage of the compressor works on integer symbol ids, and two id
spaces coexist:

* canonical ids: ``0..sigma-1`` are the input terminals, ``sigma, sigma+1,
  ...`` are grammar rules, allocated densely in rule-emission order.
  Grammar bodies contain canonical ids only, and a canonical id never
  changes meaning.
* working ids: the symbols stored in the mutable text.  They are local to
  a phase: at its start the ``k`` symbols that occur are numbered
  ``0..k-1`` in order of first occurrence (by ``ingest`` for the first
  phase, by the ``rename_dense`` that ends each phase for the next), so
  records over them can be bucket sorted, and the symbols minted during
  the phase continue from ``k``.  The text keeps the alias table from its
  working ids back to canonical ids (``WorkingText.alias``).
"""

from __future__ import annotations

import numpy as np

from .text import WorkingText, as_int64

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
    The first pass sorts the keys' low digits as they stand; each later
    pass gathers its digit as a ``uint16`` array in the order so far.
    """
    if not 1 <= bound <= 1 << 63:
        raise ValueError(f"bound must lie in [1, 2**63], got {bound}")
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError("key out of bound")
    digits = max(1, (int(bound - 1).bit_length() + _DIGIT_BITS - 1) // _DIGIT_BITS)
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # wraps mod 2**16
    for d in range(1, digits):
        digit = (keys >> (d * _DIGIT_BITS)).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
    return order


def ingest(raw, kind: str | None = None) -> tuple[WorkingText, str, list[int]]:
    """Turn raw input into a working text over dense terminal ids.

    Returns the text, the input kind and the terminal values, working id
    ``i`` standing for ``terminals[i]``.  Terminals are numbered in
    first-occurrence order, so the text starts its first phase in the
    numbering ``rename_dense`` gives.  ``raw`` is either a byte string
    (``bytes``, ``bytearray`` or ``memoryview``) or a sequence of unsigned
    token values; other byte input, token values above
    ``TOKEN_VALUE_CEILING`` and tokens that are not integers (floats,
    booleans, strings, a non-sequence) are rejected with
    ``InputFormatError``.  Bytes are numbered through a 256-entry table;
    tokens by ranking only the first token of each run, since the first
    occurrence of a value always starts a run, and then spreading each run
    head's id over its run.
    """
    is_bytes = isinstance(raw, (bytes, bytearray, memoryview))
    if kind is None:
        kind = "bytes" if is_bytes else "tokens"
    if kind == "bytes":
        if not is_bytes:
            raise InputFormatError(
                f"bytes input must be bytes, bytearray or memoryview, not {type(raw).__name__}"
            )
        arr = np.frombuffer(bytes(raw), dtype=np.uint8).astype(np.int64)
        lut, values = _first_occurrence_ids(arr, domain=256)
        ids = lut[arr]
    elif kind == "tokens":
        arr = as_int64(raw, "tokens", InputFormatError)
        if arr.size and (arr.min() < 0 or arr.max() > TOKEN_VALUE_CEILING):
            raise InputFormatError(f"token values must lie in [0, {TOKEN_VALUE_CEILING}]")
        heads = np.empty(len(arr), dtype=bool)
        heads[:1] = True
        np.not_equal(arr[1:], arr[:-1], out=heads[1:])
        run_lengths = np.diff(np.flatnonzero(heads), append=len(arr))
        arr, distinct = _value_ranks(np.compress(heads, arr))
        del heads
        lut, first = _first_occurrence_ids(arr, domain=len(distinct))
        values = distinct[first]
        ids = np.repeat(lut[arr], run_lengths)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return WorkingText(ids), kind, values.tolist()


def _value_ranks(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token value's rank among the distinct values, and those values.

    One radix argsort over the token domain, so the cost is linear in the
    number of values; every temporary is freed as soon as it has been read.
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


def _first_occurrence_ids(arr: np.ndarray, domain: int) -> tuple[np.ndarray, np.ndarray]:
    """Number values in ``[0, domain)`` from 0 up, in order of first occurrence.

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
    lut[values] = np.arange(len(values), dtype=np.int64)
    return lut, values


def rename_dense(text: WorkingText) -> None:
    """Rename the ``k`` symbols occurring in ``text`` to ``0..k-1``.

    Symbols are numbered in first-occurrence order, alias entries are
    carried over so canonical ids stay recoverable, and the entries of
    ids that no longer occur are dropped, so ``text.width`` becomes ``k``.
    Runs in time linear in the text length plus the old width.
    """
    lut, old_ids = _first_occurrence_ids(text.live(), text.width)
    text._rename(lut, old_ids)
