"""Spans around the package's public functions, wrapped from outside.

The program carries no tracing code of its own: the traced run replaces
module and class attributes with timing wrappers and puts the originals
back afterwards.  The driver looks its stage functions up in its own module
namespace, so those are wrapped on ``slpcompress.driver``.
"""

from __future__ import annotations

import functools
import json
import time

from slpcompress import driver, grammar, text

# (owner, attribute, span name).  A name missing from its owner stops the
# run, so a refactor cannot make a layer silently report zero time.
WRAPPED = [
    (driver, "compress", "driver.compress"),
    (driver, "run_phase", "driver.run_phase"),
    (driver, "ingest", "alphabet.ingest"),
    (driver, "rename_dense", "alphabet.rename_dense"),
    (driver, "scan_blocks", "blocks.scan_blocks"),
    (driver, "compress_blocks", "blocks.compress_blocks"),
    (driver, "build_adjacency", "pairs.build_adjacency"),
    (driver, "greedy_partition", "pairs.greedy_partition"),
    (driver, "compress_pairs", "pairs.compress_pairs"),
    (driver, "prune_unreachable", "grammar.prune_unreachable"),
    (text.WorkingText, "compact", "text.compact"),
    (grammar.Slp, "emit_pair_rules", "grammar.emit_pair_rules"),
    (grammar, "serialize", "grammar.serialize"),
    (grammar, "deserialize", "grammar.deserialize"),
    (grammar, "expand_ids", "grammar.expand_ids"),
    (grammar, "symbol_lengths", "grammar.symbol_lengths"),
]

# Spans that together should account for a whole compress call.  They never
# nest in one another; emit_pair_rules runs inside compress_pairs.
STAGES = {
    "alphabet.ingest",
    "alphabet.rename_dense",
    "blocks.scan_blocks",
    "blocks.compress_blocks",
    "pairs.build_adjacency",
    "pairs.greedy_partition",
    "pairs.compress_pairs",
    "text.compact",
    "grammar.prune_unreachable",
}

# Work counts read off return values at the same boundaries.
COUNTERS = {
    "pairs.build_adjacency": lambda out: {"distinct_pairs": len(out.pair_a)},
    "pairs.compress_pairs": lambda out: {"pairs_replaced": out.occurrences_replaced},
    "blocks.compress_blocks": lambda out: {"blocks_replaced": out.blocks_replaced},
    "driver.run_phase": lambda out: {
        "live_before": out.live_before,
        "cover_chosen": out.cover_chosen,
        "pair_slots": out.live_after_blocks - 1,
    },
    "driver.compress": lambda out: {
        "snapshot_copy_work": out.snapshot_copy_work,
        "phases": len(out.traces),
    },
}


class Tracer:
    """Records spans (id, parent, op, name, start, end, counts) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0  # spans of one top-level benchmark call share this id
        self._open: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.__exit__(None, None, None)
                raise RuntimeError(
                    f"traced function {owner.__name__}.{attr} no longer exists"
                )
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._open[-1] if self._open else None,
                "op": self.op,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span["counts"] = counter(out)
            return out

        return traced

    def call(self, fn, *args):
        """Run one top-level benchmark call under a fresh op id."""
        self.op += 1
        return fn(*args)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts from the spans of one traced round.

    The round holds exactly one compress, serialize, deserialize and expand
    call, so summing spans by name gives that round's time per function.
    """
    busy: dict[str, float] = {}
    counts: dict[str, int] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) + _duration(span)
        for key, value in span.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)
    compress_span = next(s for s in spans if s["name"] == "driver.compress")
    in_compress = [s for s in spans if s["op"] == compress_span["op"]]
    driver_self = sum(
        _duration(s) - child_time.get(s["id"], 0.0)
        for s in in_compress
        if s["name"] in ("driver.compress", "driver.run_phase")
    )
    stage_time = sum(_duration(s) for s in in_compress if s["name"] in STAGES)
    out = {
        name + "_s": t
        for name, t in busy.items()
        if name not in ("driver.compress", "driver.run_phase")
    }
    out.update(
        {
            "pairs.distinct_pairs": counts["distinct_pairs"],
            "pairs.pairs_replaced": counts["pairs_replaced"],
            "blocks.blocks_replaced": counts["blocks_replaced"],
            "text.live_symbols": counts["live_before"],
            "pairs.cover_ratio": counts["cover_chosen"] / counts["pair_slots"],
            "driver.self_s": driver_self,
            "driver.snapshot_copy_work": counts["snapshot_copy_work"],
            "driver.phases": counts["phases"],
            "trace.coverage": stage_time / _duration(compress_span),
        }
    )
    return out
