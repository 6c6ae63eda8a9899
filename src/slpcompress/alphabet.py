"""Dense integer alphabets, and ranking keys below a bound.

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

``ingest`` numbers only the input's run heads and returns the first text
in run form (see ``text``), so no working text is built at the input's
full length.

Every key a stage orders lies below a bound that its phase fixes.
``rank_keys`` is the one place that ranks such keys, counting them or
radix sorting them (``radix_argsort``), ``count_distinct`` counts the
distinct ones the same way, and no comparison sort runs on the compress
or expand path.
"""

from __future__ import annotations

import numpy as np

from .text import WorkingText, as_int64, find_runs, gather, narrow_dtype, scatter

TOKEN_VALUE_CEILING = 2**32 - 1

_DIGIT_BITS = 16


class InputFormatError(ValueError):
    """Raised when raw input cannot be turned into a symbol sequence."""


def radix_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer keys below ``bound``.

    ``bound`` may be at most 2**63, so every key fits an ``int64``; callers
    sort by several components by combining them into one mixed-radix key.
    Integer keys are read in their own dtype, so narrow keys cost no copy.
    Each pass is a stable counting sort on one 16-bit digit of the keys,
    least significant first, and ``bound - 1`` fixes how many digits there
    are, so the time is linear in the number of keys times that count.
    The first pass sorts the keys' low digits as they stand; each later
    pass gathers its digit as a ``uint16`` array in the order so far.  The
    order is kept, and returned, in ``narrow_dtype(len(keys))``.
    """
    if not 1 <= bound <= 1 << 63:
        raise ValueError(f"bound must lie in [1, 2**63], got {bound}")
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        keys = keys.astype(np.int64)
    if len(keys) and (int(keys.min()) < 0 or int(keys.max()) >= bound):
        raise ValueError("key out of bound")
    digits = max(1, (int(bound - 1).bit_length() + _DIGIT_BITS - 1) // _DIGIT_BITS)
    order = np.argsort(keys.astype(np.uint16, copy=False), kind="stable")  # wraps mod 2**16
    order = order.astype(narrow_dtype(len(keys)))
    for d in range(1, digits):
        digit = np.empty(len(keys), dtype=np.uint16)
        np.right_shift(keys, d * _DIGIT_BITS, out=digit, casting="unsafe")  # wraps mod 2**16
        digit = gather(digit, order)
        by_digit = np.argsort(digit, kind="stable")
        del digit
        order = gather(order, by_digit)
        del by_digit
    return order


def _tally(keys: np.ndarray, bound: int) -> np.ndarray:
    """How often each value below ``bound`` occurs among ``keys``.

    ``np.add.at`` reads narrow keys as they stand, where ``np.bincount``
    would copy them to ``intp`` first, and it is no slower.
    """
    table = np.zeros(bound, dtype=np.intp)
    np.add.at(table, keys, 1)
    return table


def rank_keys(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank non-negative integer keys below ``bound`` among the distinct keys.

    Returns each key's rank, in the narrowest unsigned dtype that holds
    every rank; the distinct keys, ascending, in the keys' dtype; and how
    often each occurs, in the narrowest unsigned dtype that holds the
    largest count.
    When the key universe ``bound`` is at most the number of keys, the keys
    are counted in one table; otherwise they are radix sorted
    (``radix_argsort``).  Either way the time is linear in the number of
    keys, and every temporary is freed as soon as it has been read.
    """
    n = len(keys)
    if bound <= n:
        table = _tally(keys, bound)
        distinct = np.flatnonzero(table).astype(keys.dtype, copy=False)
        counts = table[distinct]
        table[distinct] = np.arange(len(distinct))  # key -> rank
        ranks = gather(table.astype(narrow_dtype(len(distinct))), keys)
        return ranks, distinct, counts.astype(narrow_dtype(int(counts.max(initial=0)) + 1))
    order = radix_argsort(keys, bound)
    ascending = gather(keys, order)
    # A distinct key starts where the sorted keys change, and the end
    # closes the last one.
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(ascending[1:], ascending[:-1], out=edge[1:n])
    ends = np.flatnonzero(edge)
    distinct = ascending[ends[:-1]]
    del ascending  # the caller holds the keys, so free their sorted copy early
    counts = np.diff(ends)
    del ends
    counts = counts.astype(narrow_dtype(int(counts.max(initial=0)) + 1))
    edge[0] = False  # so the running count is the rank
    ranks = np.empty(n, dtype=narrow_dtype(len(distinct)))
    running = np.cumsum(edge[:n], dtype=ranks.dtype)
    del edge
    scatter(ranks, order, running)
    return ranks, distinct, counts


def count_distinct(keys: np.ndarray, bound: int) -> int:
    """The number of distinct keys, for non-negative integer keys below ``bound``.

    It takes ``rank_keys``' path, without the ranks: the non-zero entries
    of one count table, or the changes between radix-sorted neighbours.
    """
    if bound <= len(keys):
        return int(np.count_nonzero(_tally(keys, bound)))
    ascending = gather(keys, radix_argsort(keys, bound))
    return int(np.count_nonzero(ascending[1:] != ascending[:-1])) + (len(keys) > 0)


def ingest(raw, kind: str | None = None) -> tuple[WorkingText, str, list[int]]:
    """Turn raw input into a working text over dense terminal ids, in run form.

    Returns the text, the input kind and the terminal values, working id
    ``i`` standing for ``terminals[i]``.  ``raw`` is either a byte string
    (``bytes``, ``bytearray`` or ``memoryview``) or a sequence of unsigned
    token values; other byte input, token values above
    ``TOKEN_VALUE_CEILING`` and tokens that are not integers (floats,
    booleans, strings, a non-sequence) are rejected with
    ``InputFormatError``.

    ``find_runs`` finds the input's maximal runs once, and only the run
    heads are numbered: bytes through a 256-entry table, tokens by ranking
    their values.  Terminals are numbered in first-occurrence order, which
    the first occurrence of a value, always a run head, fixes; so the text
    starts its first phase in the numbering ``rename_dense`` gives.  The
    text holds one cell per run, with the runs of length >= 2 pending
    (``WorkingText.runs``): the first block stage reads them, and no text is
    built at the input's full length.
    """
    is_bytes = isinstance(raw, (bytes, bytearray, memoryview))
    if kind is None:
        kind = "bytes" if is_bytes else "tokens"
    if kind == "bytes":
        if not is_bytes:
            raise InputFormatError(
                f"bytes input must be bytes, bytearray or memoryview, not {type(raw).__name__}"
            )
        heads, at, lengths = find_runs(np.frombuffer(bytes(raw), dtype=np.uint8))
        domain = 256
    elif kind == "tokens":
        arr = as_int64(raw, "tokens", InputFormatError)
        if arr.size and (arr.min() < 0 or arr.max() > TOKEN_VALUE_CEILING):
            raise InputFormatError(f"token values must lie in [0, {TOKEN_VALUE_CEILING}]")
        heads, at, lengths = find_runs(arr)
        del arr
        heads, distinct, _ = rank_keys(heads, TOKEN_VALUE_CEILING + 1)
        domain = len(distinct)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    lut, values = _first_occurrence_ids(heads, domain)
    if kind == "tokens":
        values = distinct[values]
    ids = gather(lut, heads)
    del heads  # before the text copies the ids
    return WorkingText(ids, (at, lengths)), kind, values.tolist()


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
    scatter(first_pos, arr[::-1], np.arange(len(arr) - 1, -1, -1, dtype=np.int64))
    occurring = np.flatnonzero(first_pos >= 0)
    by_position = np.full(int(first_pos.max()) + 1 if len(occurring) else 0, -1, dtype=np.int64)
    by_position[first_pos[occurring]] = occurring
    del first_pos, occurring
    values = np.compress(by_position >= 0, by_position)
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
