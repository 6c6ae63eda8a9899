"""The output straight-line program: storage, expansion, (de)serialization.

Rule bodies are arbitrary non-empty sequences of symbol ids (not forced
binary: power-chain and snapshot rules are naturally n-ary).  Ids are
topological: terminals are ``0..terminal_count-1`` and rule ``i`` has id
``terminal_count + i`` with every body symbol strictly smaller, so exactly
one string is derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

MAX_EXPANSION = 2**63 - 1
_BATCH = 1 << 15  # body symbols substituted per vector step of expand_ids
# Whitespace int() skips around a numeral, and signs and digit separators.
_NEVER_WRITTEN = "\t\r\v\f\x1c\x1d\x1e\x1f_+-"


class GrammarError(ValueError):
    """Structurally invalid or malformed grammar."""


class ExpansionOverflow(GrammarError):
    """Expansion length does not fit in an unsigned 63-bit count."""


class Slp:
    """A straight-line program over byte or token terminals.

    ``start`` is a symbol id, or ``None`` for the reserved empty-string
    grammar.  Instances are append-only while being built (``emit_rule``)
    and treated as immutable afterwards.
    """

    def __init__(self, kind: str, terminals: list[int], rules=None, start: int | None = None):
        if kind not in ("bytes", "tokens"):
            raise GrammarError(f"unknown terminal kind {kind!r}")
        self.kind = kind
        self.terminals = list(terminals)
        self.rules: list[tuple[int, ...]] = (
            [body if isinstance(body, tuple) else tuple(body) for body in rules]
            if rules
            else []
        )
        self.start = start
        self.size = sum(len(body) for body in self.rules)

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    @property
    def symbol_count(self) -> int:
        return self.terminal_count + len(self.rules)

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
        self.rules.extend(zip(firsts.tolist(), seconds.tolist()))
        self.size += 2 * len(firsts)
        return np.arange(base, base + len(firsts), dtype=np.int64)

    def emit_rules(self, counts, flat) -> np.ndarray:
        """Append one rule per entry of ``counts``; returns the ids.

        Rule ``i``'s body is the next ``counts[i]`` symbols of ``flat``, and
        every body symbol must already exist.  The checks are vectorized.
        """
        counts = np.asarray(counts, dtype=np.int64)
        flat = np.asarray(flat, dtype=np.int64)
        base = self.symbol_count
        ids = np.arange(base, base + len(counts), dtype=np.int64)
        if len(counts) and counts.min() < 1:
            raise GrammarError("empty rule body")
        if int(counts.sum()) != len(flat):
            raise GrammarError("rule body counts do not match the body symbols")
        starts = np.cumsum(counts) - counts
        # A body's largest symbol must precede its own rule.
        if len(flat) and (flat.min() < 0 or (np.maximum.reduceat(flat, starts) >= ids).any()):
            raise GrammarError("rule references an undefined symbol")
        symbols = iter(flat.tolist())
        self.rules.extend([tuple(itertools.islice(symbols, c)) for c in counts.tolist()])
        self.size += len(flat)
        return ids

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Slp)
            and self.kind == other.kind
            and self.terminals == other.terminals
            and self.rules == other.rules
            and self.start == other.start
        )


def validate(slp: Slp) -> None:
    """Raise ``GrammarError`` unless the grammar is sound.

    Checks topological ids, non-empty bodies, the start symbol, and that
    the length table is computable without 63-bit overflow.
    """
    check_structure(slp)
    symbol_lengths(slp)  # raises ExpansionOverflow on unrepresentable lengths


def check_structure(slp: Slp) -> None:
    """Structural soundness only; expansion lengths may still overflow."""
    if slp.kind == "bytes":
        for v in slp.terminals:
            if not 0 <= v <= 255:
                raise GrammarError(f"byte terminal {v} out of range")
    else:
        for v in slp.terminals:
            if not 0 <= v:
                raise GrammarError(f"negative token terminal {v}")
    sigma = slp.terminal_count
    for i, body in enumerate(slp.rules):
        rule_id = sigma + i
        if not body:
            raise GrammarError(f"rule {rule_id} has an empty body")
        for s in body:
            if not 0 <= s < rule_id:
                raise GrammarError(f"rule {rule_id} references symbol {s} (not yet defined)")
    if slp.start is not None and not 0 <= slp.start < slp.symbol_count:
        raise GrammarError(f"start symbol {slp.start} out of range")


def symbol_lengths(slp: Slp) -> list[int]:
    """Expansion length of every symbol; raises on 63-bit overflow."""
    lengths = [1] * slp.terminal_count
    for i, body in enumerate(slp.rules):
        total = 0
        for s in body:
            total += lengths[s]
        if total > MAX_EXPANSION:
            raise ExpansionOverflow(
                f"rule {slp.terminal_count + i} expands to more than 2**63-1 symbols"
            )
        lengths.append(total)
    return lengths


def expansion_length(slp: Slp) -> int:
    """Length of the derived string, from the length table alone."""
    if slp.start is None:
        return 0
    return symbol_lengths(slp)[slp.start]


def expand_ids(slp: Slp, symbol: int | None = None) -> np.ndarray:
    """Derive the terminal-id sequence of ``symbol`` (default: start).

    Level-wise substitution over a flat view of the rule bodies, built for
    this call.  A work item is a body slice (flat start, count, output
    position); each step pops at most ``_BATCH`` body symbols off a stack,
    splitting a slice that does not fit, writes them into the output and
    pushes every rule among them back as the slice of its own body.  The
    output is allocated once, at the length the length table gives.  Work
    is linear in the derivation tree, no temporary holds more than
    ``_BATCH`` symbols, and there is no recursion-depth limit.
    """
    if symbol is None:
        symbol = slp.start
    if symbol is None:
        return np.empty(0, dtype=np.int64)
    sym_len = np.asarray(symbol_lengths(slp), dtype=np.int64)
    out = np.empty(int(sym_len[symbol]), dtype=np.int64)
    sigma = slp.terminal_count
    rules = slp.rules
    # Body count and flat offset per symbol id; terminals have no body.
    count = np.zeros(slp.symbol_count, dtype=np.int64)
    count[sigma:] = np.fromiter(map(len, rules), dtype=np.int64, count=len(rules))
    if not count[sigma:].all():
        raise GrammarError("empty rule body")
    offset = np.cumsum(count) - count
    flat = np.fromiter(
        itertools.chain.from_iterable(rules), dtype=np.int64, count=int(count.sum())
    )
    out[0] = symbol
    top = np.array([symbol])
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
        idx = np.repeat(starts - firsts, counts)
        idx += np.arange(len(idx))
        children = flat[idx]
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
        rule = children[is_rule]
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
    if slp.start is None:
        return 0
    depth = [0] * slp.terminal_count
    for body in slp.rules:
        depth.append(1 + max(depth[s] for s in body))
    return depth[slp.start]


def prune_unreachable(slp: Slp) -> Slp:
    """Keep exactly the rules reachable from the start symbol."""
    sigma = slp.terminal_count
    keep = np.zeros(len(slp.rules), dtype=bool)
    if slp.start is not None and slp.start >= sigma:
        # Bodies reference smaller ids, so one descending sweep suffices.
        keep[slp.start - sigma] = True
        for i in range(slp.start - sigma, -1, -1):
            if keep[i]:
                for s in slp.rules[i]:
                    if s >= sigma:
                        keep[s - sigma] = True
    if keep.all():
        return Slp(slp.kind, slp.terminals, slp.rules, slp.start)
    new_id = np.full(slp.symbol_count, -1, dtype=np.int64)
    new_id[:sigma] = np.arange(sigma)
    next_id = sigma
    for i in range(len(slp.rules)):
        if keep[i]:
            new_id[sigma + i] = next_id
            next_id += 1
    rules = [
        tuple(int(new_id[s]) for s in body)
        for i, body in enumerate(slp.rules)
        if keep[i]
    ]
    start = None if slp.start is None else int(new_id[slp.start])
    return Slp(slp.kind, slp.terminals, rules, start)


def serialize(slp: Slp) -> str:
    """Render the grammar in the line-oriented text format (LF endings)."""
    lines = ["SLP 1", f"terminals {slp.terminal_count} {slp.kind}"]
    if slp.terminal_count:
        lines.append(" ".join(str(v) for v in slp.terminals))
    lines.append(f"rules {len(slp.rules)}")
    for body in slp.rules:
        lines.append(f"{len(body)} " + " ".join(str(s) for s in body))
    lines.append("start empty" if slp.start is None else f"start {slp.start}")
    return "\n".join(lines) + "\n"


def deserialize(data: str) -> Slp:
    """Parse the text format; raises ``GrammarError`` on any malformation.

    Accepts exactly the texts ``serialize`` writes.
    """
    # int() also reads signs, underscores, non-ASCII digits, whitespace
    # around a numeral and leading zeros, none of which serialize writes;
    # whole-text scans keep them out, and fields are split on single spaces.
    if not data.isascii() or any(c in data for c in _NEVER_WRITTEN):
        raise GrammarError("grammar text holds a character the format never writes")
    if not data.endswith("\n"):
        raise GrammarError("grammar text does not end with a newline")
    raw = np.frombuffer(data.encode("ascii"), dtype=np.uint8)
    opens_field = (raw[:-2] == ord(" ")) | (raw[:-2] == ord("\n"))
    after = raw[2:]
    if (opens_field & (raw[1:-1] == ord("0")) & (after >= ord("0")) & (after <= ord("9"))).any():
        raise GrammarError("numeral with a leading zero")
    lines = data.split("\n")
    lines.pop()
    it = iter(lines)

    def next_line(what: str) -> str:
        try:
            return next(it)
        except StopIteration:
            raise GrammarError(f"truncated grammar file: missing {what}") from None

    if next_line("header") != "SLP 1":
        raise GrammarError("bad header: expected 'SLP 1'")
    parts = next_line("terminals line").split(" ")
    if len(parts) != 3 or parts[0] != "terminals":
        raise GrammarError("bad terminals line")
    try:
        sigma = int(parts[1])
    except ValueError:
        raise GrammarError("bad terminal count") from None
    kind = parts[2]
    if kind not in ("bytes", "tokens") or sigma < 0:
        raise GrammarError("bad terminals line")
    terminals: list[int] = []
    if sigma:
        try:
            terminals = [int(v) for v in next_line("terminal values").split(" ")]
        except ValueError:
            raise GrammarError("non-numeric terminal value") from None
        if len(terminals) != sigma:
            raise GrammarError(f"expected {sigma} terminal values, got {len(terminals)}")
    parts = next_line("rules line").split(" ")
    if len(parts) != 2 or parts[0] != "rules":
        raise GrammarError("bad rules line")
    try:
        rule_count = int(parts[1])
    except ValueError:
        raise GrammarError("bad rule count") from None
    if rule_count < 0:
        raise GrammarError("bad rule count")
    rules = []
    for _ in range(rule_count):
        fields = next_line("rule body").split(" ")
        try:
            nums = [int(v) for v in fields]
        except ValueError:
            raise GrammarError("non-numeric rule body") from None
        if not nums or nums[0] != len(nums) - 1:
            raise GrammarError("rule body length prefix mismatch")
        rules.append(tuple(nums[1:]))
    fields = next_line("start line").split(" ")
    if len(fields) != 2 or fields[0] != "start":
        raise GrammarError("bad start line")
    if fields[1] == "empty":
        start = None
    else:
        try:
            start = int(fields[1])
        except ValueError:
            raise GrammarError("bad start symbol") from None
    try:
        next(it)
    except StopIteration:
        pass
    else:
        raise GrammarError("trailing data after start line")
    slp = Slp(kind, terminals, rules, start)
    check_structure(slp)
    return slp


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
    # phase, plus a final row after the loop; row i is the cost of stopping
    # at phase i and emitting the remaining text verbatim.
    phase_table: list[tuple[int, int]] = field(default_factory=list)
