"""The output straight-line program: storage, expansion, (de)serialization.

Rule bodies are arbitrary non-empty sequences of symbol ids (not forced
binary: power-chain and snapshot rules are naturally n-ary).  Ids are
topological: terminals are ``0..terminal_count-1`` and rule ``i`` has id
``terminal_count + i`` with every body symbol strictly smaller, so exactly
one string is derived.  Every ``Slp`` is valid from the moment it exists
(see ``Slp``), so the walks and the codec below trust it.

Storage is two ``int64`` arrays: ``counts[i]`` is the length of rule
``i``'s body, and ``flat`` holds every body back to back, so rule ``i``'s
body is ``flat[offsets[i] : offsets[i] + counts[i]]`` with ``offsets`` the
exclusive prefix sum of ``counts``.  Both arrays grow by amortized
doubling and are read through read-only views.  ``Slp.rules`` reads and
rewrites single bodies as tuples.

Lengths, depth, the copy order of ``expand_ids`` and pruning walk the
maximal id ranges in which no rule names another (``_ranges``), one vector
step per range: each range's bodies are one slice of ``flat``.

In the ``SLP 1`` text format (see README), each rule is a line holding its
count and then its body, as plain ASCII decimals separated by single
spaces.  The rule lines and the terminal values are written as one digit
table, a row of digits per value filled a column at a time, whose padding
one ``bytes.translate`` drops.  They are read back by checking the bytes
with one ``bytes.translate`` and parsing them with one ``np.fromstring``
call.
"""

from __future__ import annotations

import copy
import numbers
import operator

import numpy as np

from .alphabet import TOKEN_VALUE_CEILING
from .text import as_int64, concat_ranges

MAX_EXPANSION = 2**63 - 1  # also the largest int64
_BATCH = 1 << 15  # body symbols substituted per vector step of expand_ids
# expand_ids expands a rule referenced twice or more only once, and copies its
# other occurrences, when the rule derives at least this many symbols.
_COPY_MIN = 8
_WINDOW = 64  # body cells _ranges searches at first for the end of a range
# A numeral the reader accepts has at most this many digits, so it fits an
# int64; no valid symbol id, count or terminal comes near 10**18, and the
# writer's digit table holds every value below it.
_MAX_DIGITS = 18


class GrammarError(ValueError):
    """Structurally invalid or malformed grammar."""


class ExpansionOverflow(GrammarError):
    """Expansion length does not fit in an unsigned 63-bit count."""


class Slp:
    """A straight-line program over byte or token terminals, valid by construction.

    ``Slp(kind, terminals)`` is the empty grammar that rules are emitted
    into, with no start.  Bodies come in through ``from_arrays`` and
    ``emit_*``, and the start through ``from_arrays`` or ``start =``: a
    symbol id, or ``None`` for the reserved empty-string grammar.  Each way
    in checks what it adds, once, and raises ``GrammarError``: the
    constructor (which ``from_arrays`` uses) the terminals, ``emit_rules``
    (which ``from_arrays`` and ``emit_*`` use) the new bodies, ``rules[i] =
    body`` the one body and ``start =`` the symbol; ``prefix`` copies rules
    that are checked already.  The kind and terminals are read-only, and the
    arrays read-only views, so nothing else changes them.
    ``symbol_lengths`` checks the 63-bit length bound.
    """

    def __init__(self, kind: str, terminals):
        if kind not in ("bytes", "tokens"):
            raise GrammarError(f"unknown terminal kind {kind!r}")
        self._kind = kind
        self._terminals = _terminals(kind, terminals)
        self._size = 0  # body symbols in use
        self._rule_count = 0
        self._counts = np.empty(0, dtype=np.int64)
        self._flat = np.empty(0, dtype=np.int64)
        self._offsets = None  # cache of ``offsets``, dropped on append
        self._start = None

    @classmethod
    def from_arrays(cls, kind: str, terminals, counts, flat, start: int | None = None) -> Slp:
        """A grammar over copies of a body-count and a body-symbol array."""
        slp = cls(kind, terminals)
        slp.emit_rules(counts, flat)
        slp.start = start
        return slp

    def prefix(self, rule_count: int) -> Slp:
        """A grammar of copies of the first ``rule_count`` rules, with no start.

        Nothing is checked again: a prefix of a valid grammar is valid.
        """
        if not 0 <= rule_count <= self._rule_count:
            raise ValueError(f"no prefix of {rule_count} rules in {self._rule_count}")
        size = int(self.counts[:rule_count].sum())
        slp = copy.copy(self)  # shares the kind and the terminal tuple
        slp._counts, slp._flat = self._counts[:rule_count].copy(), self._flat[:size].copy()
        slp._rule_count, slp._size, slp._offsets, slp._start = rule_count, size, None, None
        return slp

    def _set_start(self, symbol: int | None) -> None:
        _check_symbol(self, symbol, "start symbol")
        self._start = symbol

    start = property(operator.attrgetter("_start"), _set_start)
    kind = property(operator.attrgetter("_kind"))
    terminals = property(operator.attrgetter("_terminals"))
    size = property(operator.attrgetter("_size"), doc="Body symbols in all rules.")

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    @property
    def symbol_count(self) -> int:
        return self.terminal_count + self._rule_count

    @property
    def counts(self) -> np.ndarray:
        """Body length of each rule (a read-only view)."""
        return _read_only(self._counts[: self._rule_count])

    @property
    def flat(self) -> np.ndarray:
        """Every rule body, back to back (a read-only view)."""
        return _read_only(self._flat[: self._size])

    @property
    def offsets(self) -> np.ndarray:
        """Index in ``flat`` of each rule body's first symbol (read-only)."""
        if self._offsets is None:
            self._offsets = _read_only(np.cumsum(self.counts) - self.counts)
        return self._offsets

    @property
    def rules(self) -> RuleView:
        return RuleView(self)

    def _append(self, counts: np.ndarray, flat: np.ndarray) -> None:
        self._counts = _reserve(self._counts, self._rule_count, len(counts))
        self._flat = _reserve(self._flat, self._size, len(flat))
        self._counts[self._rule_count : self._rule_count + len(counts)] = counts
        self._flat[self._size : self._size + len(flat)] = flat
        self._rule_count += len(counts)
        self._size += len(flat)
        self._offsets = None

    def emit_rule(self, body) -> int:
        """Append a rule; returns its id.  Body symbols must already exist."""
        return int(self.emit_rules([len(body)], body)[0])

    def emit_pair_rules(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Append one two-symbol rule per (first, second); returns the ids.

        Bulk ``emit_rule((a, b))`` per pair, checked by ``emit_rules`` in the
        inputs' dtype: a pair may use an earlier pair of the same batch.
        """
        flat = np.empty(2 * len(firsts), dtype=np.result_type(firsts, seconds))
        flat[0::2] = firsts
        flat[1::2] = seconds
        return self.emit_rules(np.full(len(firsts), 2, dtype=np.int64), flat)

    def emit_rules(self, counts, flat) -> np.ndarray:
        """Append one rule per entry of ``counts``; returns the ids.

        Rule ``i``'s body is the next ``counts[i]`` symbols of ``flat``, and
        every body symbol must already exist.  The checks are vectorized.
        """
        counts = as_int64(counts, "rule body counts", GrammarError)
        flat = as_int64(flat, "rule body symbols", GrammarError)
        base = self.symbol_count
        if len(counts) and counts.min() < 1:
            raise GrammarError(f"rule {base + int(np.argmin(counts))} has an empty body")
        if counts.sum(dtype=np.float64) != len(flat):  # an int64 sum may wrap
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


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _reserve(buf: np.ndarray, used: int, extra: int) -> np.ndarray:
    """``buf`` with room for ``extra`` more entries after ``used``.

    A full buffer grows by half its length at least: appends stay amortized
    linear, and the buffer holds at most half again what it needs.
    """
    if used + extra <= len(buf):
        return buf
    grown = np.empty(max(used + extra, len(buf) + len(buf) // 2), dtype=np.int64)
    grown[:used] = buf[:used]
    return grown


class RuleView:
    """The rule bodies of an ``Slp`` as tuples, read from its flat arrays.

    Supports ``len``, integer indexing (and so iteration) and ``rules[i] =
    body`` with a valid body of the same length, which writes into ``flat``.
    """

    def __init__(self, slp: Slp):
        self._slp = slp

    def __len__(self) -> int:
        return self._slp._rule_count

    def _span(self, key) -> tuple[int, int, int]:
        i = range(len(self))[operator.index(key)]  # negative from the end; IndexError outside
        return i, int(self._slp.offsets[i]), int(self._slp.counts[i])

    def __getitem__(self, key) -> tuple[int, ...]:
        _, start, count = self._span(key)
        return tuple(self._slp.flat[start : start + count].tolist())

    def __setitem__(self, key, body) -> None:
        i, start, count = self._span(key)
        if len(body) != count:
            raise ValueError(f"rule {key} has {count} body symbols, not {len(body)}")
        body = as_int64(body, "rule body symbols", GrammarError)
        _check_bodies(self._slp.counts[i : i + 1], body, self._slp.terminal_count + i)
        self._slp._flat[start : start + count] = body


def _terminals(kind: str, values) -> tuple[int, ...]:
    """``values`` as ints; raises ``GrammarError`` unless each is one ``ingest`` accepts."""
    what, ceiling = f"{kind[:-1]} terminal", 255 if kind == "bytes" else TOKEN_VALUE_CEILING
    try:
        values = values if isinstance(values, np.ndarray) else list(values)
    except TypeError:
        raise GrammarError(f"{what}s must be a sequence, not {type(values).__name__}") from None
    try:
        ints = as_int64(values, f"{what}s", GrammarError)
        if not len(ints) or 0 <= ints.min() and ints.max() <= ceiling:
            # ``operator.index`` keeps a Python int's object: no terminal is boxed twice.
            kept = ints.tolist() if isinstance(values, np.ndarray) else map(operator.index, values)
            return tuple(kept)
    except GrammarError as exc:
        error = exc
    # A number outside the range is named before a value that is no integer.
    for v in values:
        if isinstance(v, numbers.Real) and not 0 <= v <= ceiling:
            raise GrammarError(f"{what} {v} outside [0, {ceiling}]")
    raise error  # every number is in range, so some value is no integer


def _check_bodies(counts: np.ndarray, flat: np.ndarray, base: int) -> None:
    """Raise unless each body symbol of rule ``i`` (id ``base + i``) names a smaller id."""
    owner = np.repeat(np.arange(base, base + len(counts), dtype=np.int64), counts)
    bad = (flat >= owner) | (flat < 0)
    if bad.any():
        # The first bad cell lies in the first bad rule.
        at = int(np.argmax(bad))
        raise GrammarError(f"rule {owner[at]} references symbol {flat[at]} (not yet defined)")


def _ranges(slp: Slp) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """The maximal rule ranges ``[s, e)`` in which no rule names another.

    Each comes with its bodies, a slice of ``flat``, and where each body
    starts in it.  A range's rule children lie in earlier ranges, so the
    list is bottom up, and reversed top down.  Rule ``e`` owns the first
    cell of ``flat`` naming rule ``s`` or a later one, searched for from
    rule ``s`` in windows that double in size: O(grammar size) vector work
    in all, and O(log size) calls per range.
    """
    sigma, counts, offsets, flat = slp.terminal_count, slp.counts, slp.offsets, slp.flat
    ends = offsets + counts
    cuts = [0]
    while cuts[-1] < len(counts):
        first = sigma + cuts[-1]  # the first id the next range must not name
        at, width, end = int(offsets[cuts[-1]]), _WINDOW, len(counts)
        while at < len(flat):
            window = flat[at : at + width]
            hit = int((window >= first).argmax())
            if window[hit] >= first:
                end = int(ends.searchsorted(at + hit, side="right"))
                break
            at, width = at + width, 2 * width
        cuts.append(end)
    at = offsets[cuts[:-1]]
    firsts = offsets - np.repeat(at, np.diff(cuts))  # within the range's bodies
    at = at.tolist() + [slp.size]
    return [
        (s, e, flat[a:b], firsts[s:e]) for s, e, a, b in zip(cuts, cuts[1:], at, at[1:])
    ]


def _check_symbol(slp: Slp, symbol, what: str) -> None:
    """Raise unless ``symbol`` is ``None`` or a symbol id of ``slp``.

    Only ints and numpy integers pass: ``serialize`` would write floats and
    bools unreadably, and a negative index would read the last symbol.
    """
    if symbol is None:
        return
    if not isinstance(symbol, (int, np.integer)) or isinstance(symbol, bool):
        raise GrammarError(f"{what} must be an integer, not {symbol!r}")
    if not 0 <= symbol < slp.symbol_count:
        raise GrammarError(f"{what} {symbol} outside [0, {slp.symbol_count})")


def symbol_lengths(slp: Slp, starts: list | None = None) -> np.ndarray:
    """Expansion length of every symbol id; raises on 63-bit overflow.

    ``starts``, if given, a list, receives the first rule of each range of
    ``_ranges``, in order.
    """
    sigma = slp.terminal_count
    lengths = np.ones(slp.symbol_count, dtype=np.int64)
    for s, e, children, firsts in _ranges(slp):
        child = lengths[children]
        if int(child.max()) * len(child) > MAX_EXPANSION:
            # int64 sums may wrap here: a float sum finds every body that
            # may reach 2**62, and Python ints sum those exactly.
            ends = np.append(firsts[1:], len(child))
            near = np.add.reduceat(child.astype(np.float64), firsts) >= 2.0**62
            for j in np.flatnonzero(near).tolist():
                if sum(child[firsts[j] : ends[j]].tolist()) > MAX_EXPANSION:
                    raise ExpansionOverflow(
                        f"rule {sigma + s + j} expands to more than 2**63-1 symbols"
                    )
        lengths[sigma + s : sigma + e] = np.add.reduceat(child, firsts)
        if starts is not None:
            starts.append(s)
    return lengths


def expand_ids(slp: Slp, symbol: int | None = None) -> np.ndarray:
    """Derive the terminal-id sequence of ``symbol`` (default: start).

    Level-wise substitution over the flat rule bodies.  A work item is a
    body slice (flat start, count, output position); each step pops at most
    ``_BATCH`` body symbols off a stack, splitting a slice that does not
    fit, writes them into the output and pushes every rule among them back
    as the slice of its own body.  The output is allocated once, at the
    length the length table gives.

    A rule of ``_COPY_MIN`` or more symbols that two or more body cells
    reference is expanded only where the walk first meets it.  Its other
    occurrences are recorded, and after the walk each is copied from the
    first, one range of ``_ranges`` at a time, lowest first: a rule's
    expansion holds copies of rules of lower ranges only, so every copy
    reads finished cells.  Each long rule is thus expanded at most once,
    and the work is linear in the grammar size plus the output (unary
    chains of shorter rules aside).  Besides tables of O(grammar size) for
    the lengths, the copy state and the recorded copies, no temporary holds
    more than ``_BATCH`` symbols, and there is no recursion-depth limit.
    """
    _check_symbol(slp, symbol, "symbol")
    if symbol is None:
        symbol = slp.start
    if symbol is None:
        return np.empty(0, dtype=np.int64)
    range_starts = []
    sym_len = symbol_lengths(slp, range_starts)
    out = np.empty(int(sym_len[symbol]), dtype=np.int64)
    sigma = slp.terminal_count
    count, offset, flat = slp.counts, slp.offsets, slp.flat
    # One table serves the walk and the copies.  For a rule the walk copies,
    # state[r] is 0 until the walk first expands it at output position p,
    # and -2 - p from then on.  Every other rule, which the walk expands at
    # each occurrence, has -1.
    state = np.where(sym_len[sigma:] >= _COPY_MIN, 0, -1)
    state[np.bincount(flat, minlength=slp.symbol_count)[sigma:] < 2] = -1
    copying = bool((state == 0).any())
    copies = []  # (output positions, rules) of the occurrences to copy
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
        firsts = ends  # in place: ends is not read again
        firsts -= counts
        children = flat[concat_ranges(starts, counts)]
        clen = sym_len[children]
        # Slices in flight cover disjoint stretches of the output, so these
        # sums stay below its length.
        cpos = np.cumsum(clen)
        cpos -= clen
        del clen  # a step holds at most three _BATCH-sized arrays at once
        cpos += np.repeat(pos - cpos[firsts], counts)
        if tail:
            after = cpos[-1] + sym_len[children[-1]]
            stack.append((np.array([tail_start]), np.array([tail]), np.array([after])))
        # A rule's id is a placeholder: the first symbol of its expansion
        # lands on the same cell in a later step or copy.
        out[cpos] = children
        is_rule = children >= sigma
        rpos = cpos[is_rule]
        del cpos
        rule = children[is_rule]
        del children, is_rule
        rule -= sigma
        if copying:
            seen = state[rule]
            copy = seen < -1  # expanded in an earlier step
            new = seen == 0
            del seen
            if new.any():
                r, p = rule[new], rpos[new]
                state[r] = -2 - p  # of repeats in one step, one write wins
                copy[new] = state[r] != -2 - p
            if copy.any():
                copies.append((rpos[copy], rule[copy]))
                rule, rpos = rule[~copy], rpos[~copy]
        if len(rule):
            stack.append((offset[rule], count[rule], rpos))
    if copies:
        pos = np.concatenate([p for p, _ in copies])
        rule = np.concatenate([r for _, r in copies])
        del copies
        src = -2 - state[rule]
        del state
        level = np.searchsorted(range_starts, rule, side="right")  # 1 + the rule's range index
        order = np.argsort(level, kind="stable")
        pos, rule, src = pos[order], rule[order], src[order]
        cuts = np.flatnonzero(np.diff(level[order])) + 1
        del level, order
        for p, r, s in zip(np.split(pos, cuts), np.split(rule, cuts), np.split(src, cuts)):
            _copy_spans(out, s, p, sym_len[sigma + r])
    return out


def _copy_spans(out: np.ndarray, src: np.ndarray, dst: np.ndarray, lens: np.ndarray) -> None:
    """``out[d : d + n] = out[s : s + n]`` for each (s, d, n) of the arrays.

    No destination may overlap a source.  The spans are gathered in pieces
    of at most ``_BATCH`` cells, cutting a span where a piece ends.
    """
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    for a in range(0, total, _BATCH):
        b = min(a + _BATCH, total)
        i = int(np.searchsorted(ends, a, side="right"))  # first span ending after a
        j = int(np.searchsorted(ends, b)) + 1  # past the span holding cell b - 1
        s, n = src[i:j].copy(), lens[i:j].copy()
        shift = dst[i:j] - s
        cut = a - int(ends[i] - lens[i])  # cells of span i copied by earlier pieces
        s[0] += cut
        n[0] -= cut
        n[-1] -= int(ends[j - 1]) - b
        cells = concat_ranges(s, n)
        out[cells + np.repeat(shift, n)] = out[cells]


def expand(slp: Slp, symbol: int | None = None):
    """Derive the raw byte string or token list of ``symbol``."""
    if slp.kind == "bytes":
        lut = np.asarray(slp.terminals, dtype=np.uint8)
    else:
        # The terminals are Python ints, so the token list shares one int
        # object per terminal instead of boxing one per output symbol.
        lut = np.array(slp.terminals, dtype=object)
    # The ids are a temporary, freed before the output object is built.
    derived = lut[expand_ids(slp, symbol)]
    return derived.tobytes() if slp.kind == "bytes" else derived.tolist()


def grammar_depth(slp: Slp) -> int:
    """Longest rule chain from the start symbol (terminals have depth 0).

    One ``np.maximum.reduceat`` pass per range of ``_ranges``, bottom up.
    """
    if slp.start is None:
        return 0
    sigma = slp.terminal_count
    depth = np.zeros(slp.symbol_count, dtype=np.int64)
    for s, e, children, firsts in _ranges(slp):
        depth[sigma + s : sigma + e] = 1 + np.maximum.reduceat(depth[children], firsts)
    return int(depth[slp.start])


def prune_unreachable(slp: Slp) -> Slp:
    """Keep exactly the rules reachable from the start symbol.

    Marks reachable rules a range of ``_ranges`` at a time, top down from
    the start, then renumbers the kept rules, in order, with one gather.
    Returns ``slp`` itself when every rule is reachable.
    """
    sigma, counts, flat = slp.terminal_count, slp.counts, slp.flat
    keep = np.zeros(slp.symbol_count, dtype=bool)  # by symbol id
    if slp.start is not None and slp.start >= sigma:
        keep[slp.start] = True
        for s, e, children, _ in reversed(_ranges(slp)):
            live = keep[sigma + s : sigma + e]
            if live.all():
                keep[children] = True
            elif live.any():
                keep[children[np.repeat(live, counts[s:e])]] = True
    keep = keep[sigma:]
    if keep.all():
        return slp
    new_id = np.arange(slp.symbol_count, dtype=np.int64)
    new_id[sigma:] = sigma + np.cumsum(keep) - 1
    start = None if slp.start is None else int(new_id[slp.start])
    kept = new_id[flat[np.repeat(keep, counts)]]
    return Slp.from_arrays(slp.kind, slp.terminals, counts[keep], kept, start)


def _digit_table(values: np.ndarray) -> np.ndarray:
    """A ``uint8`` row per non-negative value: its decimal digits, right-aligned.

    The leading cells before the digits hold ``0`` bytes, and a last cell,
    also ``0``, is left for a separator.  The table has one column per digit
    of the largest value, filled by one scalar floor-divide per column, least
    significant digit first, in ``uint32`` (which holds every id and token)
    or else ``uint64``.
    """
    top = int(values.max()) if len(values) else 0
    width = len(str(top))
    rest = values.astype(np.uint32 if top <= np.iinfo(np.uint32).max else np.uint64)
    table = np.zeros((len(values), width + 1), dtype=np.uint8)
    alive = True  # the units digit is written for 0 too
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        table[:, col] = (rest - quot * 10 + ord("0")) * alive
        rest, alive = quot, quot > 0
    return table


def _write_lines(values: np.ndarray, line_last: np.ndarray) -> bytes:
    """Numerals separated by spaces, with a newline after each ``line_last`` one."""
    table = _digit_table(values)
    table[:, -1] = ord(" ")
    table[line_last, -1] = ord("\n")
    return table.tobytes().translate(None, b"\0")


def _read_lines(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Parse whole lines of numerals; the inverse of ``_write_lines``.

    ``raw`` is non-empty and ends in a newline.  Returns the values and, per
    line, the index of its last value.  Every field is one or more ASCII
    digits without a leading zero, followed by one space or newline.  The
    bytes are checked first, so the parser sees only fields it reads exactly.
    """
    if raw.translate(None, b"0123456789 \n"):
        raise GrammarError("grammar text holds a character the format never writes")
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf < ord("0"))
    width = np.diff(ends, prepend=-1) - 1
    if width.min() < 1:
        raise GrammarError("empty field: fields are separated by single spaces")
    if width.max() > _MAX_DIGITS:
        raise GrammarError(f"numeral of more than {_MAX_DIGITS} digits")
    if ((buf[ends - width] == ord("0")) & (width > 1)).any():
        raise GrammarError("numeral with a leading zero")
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
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
    head += f"rules {len(slp.counts)}\n"
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
    raw = data.encode("ascii")
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
    terminals = np.empty(0, dtype=np.int64)
    if sigma:
        begin = pos
        next_line("terminal values")
        terminals, _ = _read_lines(raw[begin:pos])
        if len(terminals) != sigma:
            raise GrammarError(f"expected {sigma} terminal values, got {len(terminals)}")
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
    flat = np.compress(in_body, values)
    parts = data[last:-1].split(" ")
    if len(parts) != 2 or parts[0] != "start":
        raise GrammarError("bad start line")
    start = None if parts[1] == "empty" else _header_numeral(parts[1], "start symbol")
    return Slp.from_arrays(kind, terminals, counts, flat, start)


def format_tokens(terminals, ids: np.ndarray) -> bytes:
    """The token text of ``terminals[ids]``: numerals joined by spaces, then LF.

    Each distinct terminal is written once, as a row of the codec's digit
    table; the rows are gathered by id and the padding dropped.  Empty
    ``ids`` give an empty text.
    """
    if not len(ids):
        return b""
    table = _digit_table(np.asarray(terminals, dtype=np.int64))
    table[:, -1] = ord(" ")
    rows = table[ids]
    rows[-1, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def dump(slp: Slp, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(slp))


def load(path) -> Slp:
    # Bytes that are not UTF-8 read as U+FFFD, which ``deserialize`` refuses.
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        return deserialize(fh.read())

