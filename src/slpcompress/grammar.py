"""The output straight-line program: storage, expansion, (de)serialization.

Rule bodies are arbitrary non-empty sequences of symbol ids (not forced
binary: power-chain and snapshot rules are naturally n-ary).  Ids are
topological: terminals are ``0..terminal_count-1`` and rule ``i`` has id
``terminal_count + i`` with every body symbol strictly smaller, so exactly
one string is derived.

Storage is two ``int64`` arrays: ``counts[i]`` is the length of rule
``i``'s body, and ``flat`` holds every body back to back, so rule ``i``'s
body is ``flat[offsets[i] : offsets[i] + counts[i]]`` with ``offsets`` the
exclusive prefix sum of ``counts``.  Both arrays grow by amortized
doubling.  ``Slp.rules`` shows the bodies as tuples.

In the ``SLP 1`` text format (see README), each rule is a line holding its
count and then its body, as plain ASCII decimals separated by single
spaces.  The rule lines and the terminal values are written by vector
passes over one ``uint8`` buffer, and read back by checking its bytes and
parsing them with one ``np.fromstring`` call.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .alphabet import TOKEN_VALUE_CEILING, radix_argsort
from .text import concat_ranges

MAX_EXPANSION = 2**63 - 1
_BATCH = 1 << 15  # body symbols substituted per vector step of expand_ids
# A numeral has at most this many digits, so every value parsed fits an
# int64; no valid symbol id, count or terminal comes near 10**18.
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10**18
# Byte classes inside the numeral lines: 1 digit, 2 field end (space or
# newline), 0 a byte the format never writes there.
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[ord("0") : ord("9") + 1] = 1
_BYTE_CLASS[[ord(" "), ord("\n")]] = 2


class GrammarError(ValueError):
    """Structurally invalid or malformed grammar."""


class ExpansionOverflow(GrammarError):
    """Expansion length does not fit in an unsigned 63-bit count."""


class Slp:
    """A straight-line program over byte or token terminals.

    ``start`` is a symbol id, or ``None`` for the reserved empty-string
    grammar.  Instances are append-only while being built (``emit_rule``)
    and treated as immutable afterwards.  ``rules`` may be any iterable of
    bodies; the constructor does not check them (see ``validate``).
    """

    def __init__(self, kind: str, terminals: list[int], rules=None, start: int | None = None):
        if kind not in ("bytes", "tokens"):
            raise GrammarError(f"unknown terminal kind {kind!r}")
        self.kind = kind
        self.terminals = list(terminals)
        self.start = start
        self.size = 0  # body symbols in use
        self._rule_count = 0
        self._counts = np.empty(0, dtype=np.int64)
        self._flat = np.empty(0, dtype=np.int64)
        self._offsets = None  # cache of ``offsets``, dropped on append
        if rules:
            bodies = [tuple(body) for body in rules]
            self._append(
                np.fromiter(map(len, bodies), dtype=np.int64, count=len(bodies)),
                np.fromiter(itertools.chain.from_iterable(bodies), dtype=np.int64),
            )

    @classmethod
    def from_arrays(cls, kind: str, terminals, counts, flat, start: int | None = None) -> Slp:
        """A grammar over copies of a body-count and a body-symbol array; unchecked."""
        slp = cls(kind, terminals, start=start)
        slp._append(np.asarray(counts, dtype=np.int64), np.asarray(flat, dtype=np.int64))
        return slp

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    @property
    def symbol_count(self) -> int:
        return self.terminal_count + self._rule_count

    @property
    def counts(self) -> np.ndarray:
        """Body length of each rule (a view; do not write to it)."""
        return self._counts[: self._rule_count]

    @property
    def flat(self) -> np.ndarray:
        """Every rule body, back to back (a view)."""
        return self._flat[: self.size]

    @property
    def offsets(self) -> np.ndarray:
        """Index in ``flat`` of each rule body's first symbol."""
        if self._offsets is None:
            self._offsets = np.cumsum(self.counts) - self.counts
        return self._offsets

    @property
    def rules(self) -> RuleView:
        return RuleView(self)

    def _append(self, counts: np.ndarray, flat: np.ndarray) -> None:
        self._counts = _reserve(self._counts, self._rule_count, len(counts))
        self._flat = _reserve(self._flat, self.size, len(flat))
        self._counts[self._rule_count : self._rule_count + len(counts)] = counts
        self._flat[self.size : self.size + len(flat)] = flat
        self._rule_count += len(counts)
        self.size += len(flat)
        self._offsets = None

    def emit_rule(self, body) -> int:
        """Append a rule; returns its id.  Body symbols must already exist."""
        return int(self.emit_rules([len(body)], body)[0])

    def emit_pair_rules(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Append one two-symbol rule per (first, second); returns the ids.

        Bulk equivalent of ``emit_rule((a, b))`` per pair.
        """
        firsts = np.asarray(firsts, dtype=np.int64)
        seconds = np.asarray(seconds, dtype=np.int64)
        base = self.symbol_count
        if len(firsts) and (
            firsts.min() < 0 or seconds.min() < 0
            or firsts.max() >= base or seconds.max() >= base
        ):
            raise GrammarError("pair rule references an undefined symbol")
        flat = np.empty(2 * len(firsts), dtype=np.int64)
        flat[0::2] = firsts
        flat[1::2] = seconds
        self._append(np.full(len(firsts), 2, dtype=np.int64), flat)
        return np.arange(base, base + len(firsts), dtype=np.int64)

    def emit_rules(self, counts, flat) -> np.ndarray:
        """Append one rule per entry of ``counts``; returns the ids.

        Rule ``i``'s body is the next ``counts[i]`` symbols of ``flat``, and
        every body symbol must already exist.  The checks are vectorized.
        """
        counts = np.asarray(counts, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        base = self.symbol_count
        if int(counts.sum()) != len(flat):
            raise GrammarError("rule body counts do not match the body symbols")
        _check_bodies(counts, flat, base)
        self._append(counts, flat)
        return np.arange(base, base + len(counts), dtype=np.int64)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Slp)
            and self.kind == other.kind
            and self.terminals == other.terminals
            and self.start == other.start
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.flat, other.flat)
        )


def _reserve(buf: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buf`` with room for ``extra`` more entries after ``used``."""
    if used + extra <= len(buf):
        return buf
    grown = np.empty(max(used + extra, 2 * len(buf)), dtype=np.int64)
    grown[:used] = buf[:used]
    return grown


class RuleView:
    """The rule bodies of an ``Slp`` as tuples, read from its flat arrays.

    Supports ``len``, integer and slice indexing, iteration and ``==``
    against a list of tuples.  Assigning ``rules[i] = body`` writes into the
    flat array and needs a body of the same length.
    """

    __hash__ = None

    def __init__(self, slp: Slp):
        self._slp = slp

    def __len__(self) -> int:
        return self._slp._rule_count

    def _index(self, key) -> int:
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("rule index out of range")
        return i

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self[i] for i in range(*key.indices(len(self)))]
        i = self._index(key)
        start = int(self._slp.offsets[i])
        return tuple(self._slp.flat[start : start + int(self._slp.counts[i])].tolist())

    def __setitem__(self, key, body) -> None:
        i = self._index(key)
        start, count = int(self._slp.offsets[i]), int(self._slp.counts[i])
        if len(body) != count:
            raise ValueError(f"rule {i} has {count} body symbols, not {len(body)}")
        self._slp.flat[start : start + count] = body

    def __iter__(self):
        symbols = iter(self._slp.flat.tolist())
        return (tuple(itertools.islice(symbols, c)) for c in self._slp.counts.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, RuleView):
            return np.array_equal(self._slp.counts, other._slp.counts) and np.array_equal(
                self._slp.flat, other._slp.flat
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def _distinct(ids: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``ids`` without repeats; ``scratch`` is any array indexable by every id."""
    rank = np.arange(len(ids))
    scratch[ids] = rank
    return ids[scratch[ids] == rank]


def _check_bodies(counts: np.ndarray, flat: np.ndarray, base: int) -> None:
    """Raise unless rule ``i`` (id ``base + i``) has a non-empty body of smaller ids."""
    if not len(counts):
        return
    if counts.min() < 1:
        raise GrammarError(f"rule {base + int(np.argmin(counts))} has an empty body")
    starts = np.cumsum(counts) - counts
    ids = np.arange(base, base + len(counts), dtype=np.int64)
    bad = (np.maximum.reduceat(flat, starts) >= ids) | (np.minimum.reduceat(flat, starts) < 0)
    if bad.any():
        i = int(np.argmax(bad))
        body = flat[starts[i] : starts[i] + counts[i]]
        s = int(body[(body < 0) | (body >= ids[i])][0])
        raise GrammarError(f"rule {ids[i]} references symbol {s} (not yet defined)")


def _bodies(slp: Slp, rules: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bodies of ``rules`` back to back, and where each body starts."""
    counts = slp.counts[rules]
    return slp.flat[concat_ranges(slp.offsets[rules], counts)], np.cumsum(counts) - counts


def _bottom_up(slp: Slp):
    """Yield groups of rule indices, each rule after all of its rule children.

    Each group comes with its ``_bodies``.  Rules that some body references
    go by Kahn's algorithm over the child-to-parent edges, one group per
    level, so the work is linear in the grammar size plus one vector step
    per level.  The rules nothing references, such as the start rule, come
    last in one group: their bodies, often the longest, add no edges.
    Raises ``GrammarError`` first unless ``_check_bodies`` passes, which
    makes the grammar acyclic.
    """
    sigma, counts, flat = slp.terminal_count, slp.counts, slp.flat
    _check_bodies(counts, flat, sigma)
    n = len(counts)
    cells = np.flatnonzero(flat >= sigma)
    child = flat[cells] - sigma
    parent = np.repeat(np.arange(n, dtype=np.int64), counts)[cells]
    referenced = np.bincount(child, minlength=n) > 0
    inner = np.flatnonzero(referenced[parent])
    child, parent = child[inner], parent[inner]
    waiting = np.bincount(parent, minlength=n)  # rule children not yet placed
    parents = parent[radix_argsort(child, max(n, 1))]
    head = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=n), out=head[1:])
    scratch = np.empty(n, dtype=np.int64)
    level = np.flatnonzero(referenced & (waiting == 0))
    while len(level):
        yield (level, *_bodies(slp, level))
        above = parents[concat_ranges(head[level], head[level + 1] - head[level])]
        np.subtract.at(waiting, above, 1)
        level = _distinct(above[waiting[above] == 0], scratch)
    roots = np.flatnonzero(~referenced)
    if len(roots):
        yield (roots, *_bodies(slp, roots))


def validate(slp: Slp) -> None:
    """Raise ``GrammarError`` unless the grammar is sound.

    Checks topological ids, non-empty bodies, the terminal values, the start
    symbol, and that the length table is computable without 63-bit overflow.
    """
    check_structure(slp)
    symbol_lengths(slp)  # raises ExpansionOverflow on unrepresentable lengths


def check_structure(slp: Slp) -> None:
    """Structural soundness only; expansion lengths may still overflow.

    Byte terminals lie in ``[0, 255]`` and token terminals in ``[0,
    TOKEN_VALUE_CEILING]``, the values ``ingest`` accepts.
    """
    ceiling = 255 if slp.kind == "bytes" else TOKEN_VALUE_CEILING
    try:
        values = np.array(slp.terminals, dtype=np.int64)
        ok = not len(values) or (values.min() >= 0 and values.max() <= ceiling)
    except OverflowError:
        ok = False
    if not ok:
        v = next(v for v in slp.terminals if not 0 <= v <= ceiling)
        raise GrammarError(f"{slp.kind[:-1]} terminal {v} outside [0, {ceiling}]")
    _check_bodies(slp.counts, slp.flat, slp.terminal_count)
    if slp.start is not None and not 0 <= slp.start < slp.symbol_count:
        raise GrammarError(f"start symbol {slp.start} out of range")


def symbol_lengths(slp: Slp) -> np.ndarray:
    """Expansion length of every symbol id; raises on 63-bit overflow."""
    lengths = np.ones(slp.symbol_count, dtype=np.int64)
    for group, children, firsts in _bottom_up(slp):
        lengths[slp.terminal_count + group] = _body_lengths(slp, group, lengths[children], firsts)
    return lengths


def _body_lengths(slp: Slp, group, child: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Sum the child lengths of each body in ``group``; raises on 63-bit overflow."""
    if int(child.max()) * int(slp.counts[group].max()) > MAX_EXPANSION:
        # int64 sums may wrap here: a float sum finds every body that
        # may reach 2**62, and Python ints sum those exactly.
        ends = np.append(firsts[1:], len(child))
        near = np.add.reduceat(child.astype(np.float64), firsts) >= 2.0**62
        for j in np.flatnonzero(near).tolist():
            if sum(child[firsts[j] : ends[j]].tolist()) > MAX_EXPANSION:
                raise ExpansionOverflow(
                    f"rule {slp.terminal_count + group[j]} expands to more than 2**63-1 symbols"
                )
    return np.add.reduceat(child, firsts)


def expansion_length(slp: Slp) -> int:
    """Length of the derived string, from the length table alone."""
    if slp.start is None:
        return 0
    return int(symbol_lengths(slp)[slp.start])


def expand_ids(slp: Slp, symbol: int | None = None) -> np.ndarray:
    """Derive the terminal-id sequence of ``symbol`` (default: start).

    Level-wise substitution over the flat rule bodies.  A work item is a
    body slice (flat start, count, output position); each step pops at most
    ``_BATCH`` body symbols off a stack, splitting a slice that does not
    fit, writes them into the output and pushes every rule among them back
    as the slice of its own body.  The output is allocated once, at the
    length the length table gives.  Work is linear in the derivation tree,
    no temporary holds more than ``_BATCH`` symbols, and there is no
    recursion-depth limit.
    """
    if symbol is None:
        symbol = slp.start
    if symbol is None:
        return np.empty(0, dtype=np.int64)
    if not 0 <= symbol < slp.symbol_count:
        raise GrammarError(f"symbol {symbol} outside [0, {slp.symbol_count})")
    sym_len = symbol_lengths(slp)
    out = np.empty(int(sym_len[symbol]), dtype=np.int64)
    sigma = slp.terminal_count
    count, offset, flat = slp.counts, slp.offsets, slp.flat
    out[0] = symbol
    top = np.array([symbol - sigma])
    stack = [(offset[top], count[top], np.zeros(1, dtype=np.int64))] if symbol >= sigma else []
    while stack:
        starts, counts, pos = stack.pop()
        ends = np.cumsum(counts)
        tail = 0
        if ends[-1] > _BATCH:
            # Cut after _BATCH body symbols, inside slice k; its unread
            # tail is pushed once the batch has placed the symbols before it.
            k = int(np.searchsorted(ends, _BATCH))
            if k + 1 < len(counts):
                stack.append((starts[k + 1 :], counts[k + 1 :], pos[k + 1 :]))
            head = _BATCH - int(ends[k] - counts[k])
            tail = int(counts[k]) - head
            tail_start = int(starts[k]) + head
            starts, pos = starts[: k + 1], pos[: k + 1]
            counts = counts[: k + 1].copy()
            counts[k] = head
            ends = ends[: k + 1].copy()
            ends[k] = _BATCH
        firsts = ends - counts
        children = flat[concat_ranges(starts, counts)]
        clen = sym_len[children]
        # Slices in flight cover disjoint stretches of the output, so these
        # sums stay below its length.
        cpos = np.cumsum(clen)
        cpos -= clen
        cpos += np.repeat(pos - cpos[firsts], counts)
        if tail:
            after = cpos[-1] + clen[-1]
            stack.append((np.array([tail_start]), np.array([tail]), np.array([after])))
        # A rule's id is a placeholder: the first symbol of its expansion
        # lands on the same cell in a later step.
        out[cpos] = children
        is_rule = children >= sigma
        rule = children[is_rule] - sigma
        if len(rule):
            stack.append((offset[rule], count[rule], cpos[is_rule]))
    return out


def expand(slp: Slp, symbol: int | None = None):
    """Derive the raw byte string or token list of ``symbol``."""
    lut = np.asarray(slp.terminals, dtype=np.uint8 if slp.kind == "bytes" else np.int64)
    # The ids are a temporary, freed before the output object is built.
    derived = lut[expand_ids(slp, symbol)]
    return derived.tobytes() if slp.kind == "bytes" else derived.tolist()


def grammar_depth(slp: Slp) -> int:
    """Longest rule chain from the start symbol (terminals have depth 0)."""
    return expansion_and_depth(slp)[1]


def expansion_and_depth(slp: Slp) -> tuple[int | None, int]:
    """``expansion_length`` and ``grammar_depth`` from one bottom-up walk.

    The length is ``None`` where ``expansion_length`` would raise
    ``ExpansionOverflow``; the depth is computed either way.
    """
    if slp.start is None:
        return 0, 0
    sigma = slp.terminal_count
    lengths = np.ones(slp.symbol_count, dtype=np.int64)
    depth = np.zeros(slp.symbol_count, dtype=np.int64)
    for group, children, firsts in _bottom_up(slp):
        depth[sigma + group] = 1 + np.maximum.reduceat(depth[children], firsts)
        if lengths is not None:
            try:
                lengths[sigma + group] = _body_lengths(slp, group, lengths[children], firsts)
            except ExpansionOverflow:
                lengths = None
    return None if lengths is None else int(lengths[slp.start]), int(depth[slp.start])


def prune_unreachable(slp: Slp) -> Slp:
    """Keep exactly the rules reachable from the start symbol.

    Marks reachable rules a level at a time from the start, then renumbers
    the kept rules, in order, with one gather.
    """
    sigma, counts, flat = slp.terminal_count, slp.counts, slp.flat
    keep = np.zeros(len(counts), dtype=bool)
    if slp.start is not None and slp.start >= sigma:
        level = np.array([slp.start - sigma])
        keep[level] = True
        scratch = np.empty(len(counts), dtype=np.int64)
        while len(level):
            below = _bodies(slp, level)[0] - sigma
            below = below[below >= 0]
            level = _distinct(below[~keep[below]], scratch)
            keep[level] = True
    if keep.all():
        return Slp.from_arrays(slp.kind, slp.terminals, counts, flat, slp.start)
    new_id = np.arange(slp.symbol_count, dtype=np.int64)
    new_id[sigma:] = sigma + np.cumsum(keep) - 1
    start = None if slp.start is None else int(new_id[slp.start])
    kept = new_id[flat[np.repeat(keep, counts)]]
    return Slp.from_arrays(slp.kind, slp.terminals, counts[keep], kept, start)


def _decimal_widths(values: np.ndarray) -> np.ndarray:
    """Digits in the decimal numeral of each non-negative value."""
    return 1 + np.searchsorted(_POW10, values, side="right")


def _write_digits(buf: np.ndarray, values: np.ndarray, ends: np.ndarray) -> None:
    """Write each value's decimal digits into ``buf``, ending before ``ends[i]``.

    One vector pass per digit position, least significant first.
    """
    pos = ends - 1
    while len(values):
        values, digit = np.divmod(values, 10)
        buf[pos] = digit + ord("0")
        more = values > 0
        values, pos = values[more], pos[more] - 1


def _write_lines(values: np.ndarray, line_last: np.ndarray) -> bytes:
    """Numerals separated by spaces, with a newline after each ``line_last`` one."""
    ends = np.cumsum(_decimal_widths(values) + 1) - 1  # separator positions
    buf = np.full(int(ends[-1]) + 1 if len(ends) else 0, ord(" "), dtype=np.uint8)
    _write_digits(buf, values, ends)
    buf[ends[line_last]] = ord("\n")
    return buf.tobytes()


def _read_lines(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parse whole lines of numerals; the inverse of ``_write_lines``.

    ``buf`` is a non-empty, read-only ``uint8`` array ending in a newline.
    Returns the values and, per line, the index of its last value.  Every
    field is one or more ASCII digits without a leading zero, followed by
    one space or newline.  The bytes are checked first, so the parser sees
    only fields it reads exactly.
    """
    cls = _BYTE_CLASS[buf]
    if not cls.all():
        raise GrammarError("grammar text holds a character the format never writes")
    ends = np.flatnonzero(cls == 2)
    width = np.diff(ends, prepend=-1) - 1
    if width.min() < 1:
        raise GrammarError("empty field: fields are separated by single spaces")
    if width.max() > _MAX_DIGITS:
        raise GrammarError(f"numeral of more than {_MAX_DIGITS} digits")
    if (buf[ends - width] == ord("0"))[width > 1].any():
        raise GrammarError("numeral with a leading zero")
    values = np.fromstring(buf, dtype=np.int64, sep=" ")
    if len(values) != len(ends):
        raise GrammarError(f"grammar text parsed into {len(values)} numerals, not {len(ends)}")
    return values, np.flatnonzero(buf[ends] == ord("\n"))


def _header_numeral(text: str, what: str) -> int:
    if not text.isdigit() or len(text) > _MAX_DIGITS or (text[0] == "0" and len(text) > 1):
        raise GrammarError(f"bad {what}")
    return int(text)


def serialize(slp: Slp) -> str:
    """Render the grammar in the line-oriented text format (LF endings)."""
    head = f"SLP 1\nterminals {slp.terminal_count} {slp.kind}\n"
    if slp.terminal_count:
        values = np.array(slp.terminals, dtype=np.int64)
        head += _write_lines(values, np.array([len(values) - 1])).decode("ascii")
    head += f"rules {len(slp.rules)}\n"
    # Each rule line is its count, then its body.
    counts = slp.counts
    count_at = slp.offsets + np.arange(len(counts))
    fields = np.empty(len(counts) + slp.size, dtype=np.int64)
    in_body = np.ones(len(fields), dtype=bool)
    in_body[count_at] = False
    fields[count_at] = counts
    fields[in_body] = slp.flat
    body = _write_lines(fields, count_at + counts).decode("ascii")
    tail = "start empty\n" if slp.start is None else f"start {slp.start}\n"
    return head + body + tail


def deserialize(data: str) -> Slp:
    """Parse the text format; raises ``GrammarError`` on any malformation.

    Accepts exactly the texts ``serialize`` writes.
    """
    if not data.isascii():
        raise GrammarError("grammar text holds a character the format never writes")
    if not data.endswith("\n"):
        raise GrammarError("grammar text does not end with a newline")
    raw = np.frombuffer(data.encode("ascii"), dtype=np.uint8)
    pos = 0

    def next_line(what: str) -> str:
        nonlocal pos
        end = data.find("\n", pos)
        if end < 0:
            raise GrammarError(f"truncated grammar file: missing {what}")
        line, pos = data[pos:end], end + 1
        return line

    if next_line("header") != "SLP 1":
        raise GrammarError("bad header: expected 'SLP 1'")
    parts = next_line("terminals line").split(" ")
    if len(parts) != 3 or parts[0] != "terminals" or parts[2] not in ("bytes", "tokens"):
        raise GrammarError("bad terminals line")
    sigma = _header_numeral(parts[1], "terminal count")
    kind = parts[2]
    terminals: list[int] = []
    if sigma:
        begin = pos
        next_line("terminal values")
        values, _ = _read_lines(raw[begin:pos])
        if len(values) != sigma:
            raise GrammarError(f"expected {sigma} terminal values, got {len(values)}")
        terminals = values.tolist()
    parts = next_line("rules line").split(" ")
    if len(parts) != 2 or parts[0] != "rules":
        raise GrammarError("bad rules line")
    rule_count = _header_numeral(parts[1], "rule count")
    # The start line is the last line, and every line before it a rule.
    last = data.rfind("\n", 0, len(data) - 1) + 1
    if last < pos:
        raise GrammarError("truncated grammar file: missing start line")
    values = line_last = np.empty(0, dtype=np.int64)
    if last > pos:
        values, line_last = _read_lines(raw[pos:last])
    if len(line_last) != rule_count:
        raise GrammarError(f"expected {rule_count} rule lines, got {len(line_last)}")
    per_line = np.diff(line_last, prepend=-1)  # fields per rule line
    count_at = line_last + 1 - per_line
    counts = values[count_at]
    if (counts != per_line - 1).any():
        raise GrammarError("rule body length prefix mismatch")
    in_body = np.ones(len(values), dtype=bool)
    in_body[count_at] = False
    flat = values[in_body]
    parts = data[last:-1].split(" ")
    if len(parts) != 2 or parts[0] != "start":
        raise GrammarError("bad start line")
    start = None if parts[1] == "empty" else _header_numeral(parts[1], "start symbol")
    slp = Slp.from_arrays(kind, terminals, counts, flat, start)
    check_structure(slp)
    return slp


def format_tokens(terminals, ids: np.ndarray) -> bytes:
    """The token text of ``terminals[ids]``: numerals joined by spaces, then LF.

    Each distinct terminal is written once, right-aligned in a fixed-width
    row of the codec's digit writer; the rows are gathered by id and the
    padding dropped.  Empty ``ids`` give an empty text.
    """
    if not len(ids):
        return b""
    values = np.asarray(terminals, dtype=np.int64)
    width = int(_decimal_widths(values).max()) + 1
    table = np.zeros((len(values), width), dtype=np.uint8)
    table[:, -1] = ord(" ")
    _write_digits(table.reshape(-1), values, np.arange(1, len(values) + 1) * width - 1)
    rows = table[ids]
    out = rows[rows != 0]
    out[-1] = ord("\n")
    return out.tobytes()


def dump(slp: Slp, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(slp))


def load(path) -> Slp:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return deserialize(fh.read())


@dataclass
class GrammarStats:
    """Size accounting for one compression run."""

    input_length: int
    terminal_count: int
    rule_count: int
    size: int
    phase_count: int
    # (live symbols, cumulative representation cost) at the top of each
    # phase, plus a final row where the loop stopped; row i is the cost of
    # stopping at phase i and emitting the remaining text verbatim.
    phase_table: list[tuple[int, int]] = field(default_factory=list)
