"""Command-line front end: compress, decompress, stats, verify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import grammar as gr
from .alphabet import InputFormatError
from .driver import compress

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_WRITE_FAILURE = 3
EXIT_OVERFLOW = 4


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# Token text is runs of ASCII digits separated by the six ASCII whitespace
# bytes that ``bytes.split()`` splits on.  The class table maps each digit
# to ``1``, each whitespace byte to a space and every other byte to ``x``.
_BYTE_CLASS = bytes(
    ord("1") if chr(b) in "0123456789" else ord(" ") if chr(b) in " \t\n\r\v\f" else ord("x")
    for b in range(256)
)


def _parse_tokens(data: bytes) -> np.ndarray:
    """The token values of ``data``, checked once and parsed in one call.

    A numeral too long for ``int64`` saturates at ``2**63 - 1``; the range
    check of ``compress`` rejects it and ``verify`` reports a mismatch.
    """
    classes = data.translate(_BYTE_CLASS)
    if b"x" not in classes:
        fields = classes.count(b" 1") + classes.startswith(b"1")
        if not fields:
            # The parser reads a blank text as one zero.
            return np.empty(0, dtype=np.int64)
        tokens = np.fromstring(data, dtype=np.int64, sep=" ")
        if len(tokens) == fields:
            return tokens
    # Report the first offending token, as a left-to-right check would.
    for tok in data.split():
        if not tok.isdigit():
            if tok[:1] == b"-" and tok[1:].isdigit():
                raise InputFormatError("negative token value")
            raise InputFormatError(f"non-numeric token {tok[:20]!r}")
    # Every field is a numeral, so only the count check can have failed.
    raise InputFormatError(f"token text parsed into {len(tokens)} values, not {fields}")


def _expand(derive, slp: gr.Slp):
    """``derive(slp)``, or ``None`` after reporting why it cannot be held."""
    try:
        return derive(slp)
    except gr.ExpansionOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: expansion too large to hold in memory: {exc}", file=sys.stderr)
    return None


def _token_values(slp: gr.Slp) -> np.ndarray:
    return np.asarray(slp.terminals, dtype=np.int64)[gr.expand_ids(slp)]


def _token_text(slp: gr.Slp) -> bytes:
    return gr.format_tokens(slp.terminals, gr.expand_ids(slp))


def cmd_compress(args) -> int:
    try:
        raw = _read_bytes(args.input)
        data = raw if args.input_kind == "bytes" else _parse_tokens(raw)
        result = compress(data, mode=args.mode, kind=args.input_kind)
    except (OSError, InputFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        gr.dump(result.slp, args.output)
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                for trace in result.traces:
                    fh.write(json.dumps(dataclasses.asdict(trace)) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILURE
    slp, n = result.slp, result.input_length
    ratio = n / slp.size if slp.size else 1.0
    print(
        f"N={n} sigma={slp.terminal_count} phases={len(result.traces)} "
        f"rules={len(slp.counts)} size={slp.size} ratio={ratio:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_decompress(args) -> int:
    try:
        slp = gr.load(args.input)
    except (OSError, gr.GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    data = _expand(gr.expand if slp.kind == "bytes" else _token_text, slp)
    if data is None:
        return EXIT_OVERFLOW
    try:
        with open(args.output, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILURE
    return EXIT_OK


def cmd_stats(args) -> int:
    try:
        slp = gr.load(args.input)
        on_disk = os.path.getsize(args.input)
    except (OSError, gr.GrammarError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        length = 0 if slp.start is None else int(gr.symbol_lengths(slp)[slp.start])
    except gr.ExpansionOverflow:
        length = ">=2^63"
    print(f"rules {len(slp.counts)}")
    print(f"size {slp.size}")
    print(f"depth {gr.grammar_depth(slp)}")
    print(f"expansion {length}")
    print(f"bytes {on_disk}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        slp = gr.load(args.grammar)
        raw = _read_bytes(args.original)
        original = raw if slp.kind == "bytes" else _parse_tokens(raw)
    except (OSError, gr.GrammarError, InputFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    derived = _expand(gr.expand if slp.kind == "bytes" else _token_values, slp)
    if derived is None:
        return EXIT_OVERFLOW
    same = derived == original if slp.kind == "bytes" else np.array_equal(derived, original)
    if same:
        return EXIT_OK
    print("mismatch: expansion differs from original", file=sys.stderr)
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slpcompress",
        description="Grammar-based compression into straight-line programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into a grammar")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", choices=["plain", "improved"], default="improved")
    p.add_argument(
        "--input", dest="input_kind", choices=["bytes", "tokens"], default="bytes",
        help="treat the file as raw bytes or as decimal tokens separated by ASCII whitespace",
    )
    p.add_argument("--trace", default=None, help="write per-phase JSON lines here")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="expand a grammar back to the input")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("stats", help="print grammar statistics")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="check a grammar against the original file")
    p.add_argument("grammar")
    p.add_argument("original")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
