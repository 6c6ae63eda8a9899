"""Benchmark of slpcompress: compress, grammar I/O, expand and the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload random64 --seed 88 --seconds 35 --trace 0
    python3 perfbench/run.py --self-check

A run generates its workload from ``--seed``, sets up, measures
interleaved library and CLI rounds for ``--seconds`` seconds (at least two
of each), checks every output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from a
traced run.  The line before it holds the full record of the run (host,
every sample with its CPU time, grammar SHA-256, failures), which is also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None):
    """One benchmark run; returns (result line, full record)."""
    import harness

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    kwargs = {} if size is None else {"size": size}
    bench = harness.BenchRun(ROOT, workload, seed, seconds, **kwargs)
    try:
        bench.setup()
        measured = bench.per_layer() if trace else bench.end_to_end()
    finally:
        bench.close()
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }
    record = bench.record()
    record["trace"] = int(trace)
    line = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    return line, record


def self_check() -> list[str]:
    """Tiny inputs through both modes, plus deliberately corrupted outputs.

    Returns the problems found; an empty list means the harness emits every
    declared metric with its unit and counts corrupted results as failures.
    """
    import harness
    from slpcompress import grammar as gr

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in workloads:
        for trace in (False, True):
            line, _ = run(name, seed=1, seconds=0, trace=trace, size=3000)
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name}: {m['name']} missing or without its unit")
                elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    problems.append(f"{name}: {m['name']} is not a finite number")
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={int(trace)}: failures on correct code")

    bench = harness.BenchRun(ROOT, workloads[0], seed=1, seconds=0, size=3000)
    try:
        bench.setup()
        bench.library_round()
        bench.cli_round()
        real_expand, real_deserialize = gr.expand, gr.deserialize

        def corrupt_expand(slp):
            out = bytearray(real_expand(slp))
            out[0] ^= 1
            return bytes(out)

        def corrupt_deserialize(text):
            slp = real_deserialize(text)
            slp.rules[-1] = slp.rules[-1][::-1]
            return slp

        expected = {"expand", "compress_plain", "deserialize", "cli_decompress", "cli_verify"}
        gr.expand, gr.deserialize = corrupt_expand, corrupt_deserialize
        bench.plain = None  # so the plain grammar is expanded again
        try:
            bench.library_round()
        finally:
            gr.expand, gr.deserialize = real_expand, real_deserialize
        slp = bench.result.slp
        slp.rules[-1] = slp.rules[-1][::-1]
        bench.slp_path.write_text(gr.serialize(slp), encoding="utf-8")
        bench.op_cli_decompress()
        bench.op_cli_verify()
    finally:
        bench.close()
    failed_ops = {f.split(":")[0] for f in bench.failures}
    if failed_ops != expected:
        problems.append(f"corrupted outputs counted as {sorted(failed_ops)}, expected {sorted(expected)}")

    # A traced name that no longer exists must stop the run and leave every
    # other function unwrapped.
    import tracing
    originals = [getattr(owner, attr) for owner, attr, _ in tracing.WRAPPED]
    tracing.WRAPPED.append((tracing.driver, "no_such_stage", "driver.no_such_stage"))
    try:
        with tracing.Tracer():
            problems.append("a missing traced function went unnoticed")
    except RuntimeError:
        pass
    finally:
        tracing.WRAPPED.pop()
    if [getattr(owner, attr) for owner, attr, _ in tracing.WRAPPED] != originals:
        problems.append("a failed trace set-up left functions wrapped")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="random64")
    parser.add_argument("--seed", type=int, default=88)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run tiny inputs and check the harness itself")
    args = parser.parse_args(argv)

    # The benchmark measures the package in this checkout, never an
    # installed copy.
    if not (ROOT / "src" / "slpcompress" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'slpcompress'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.self_check:
        problems = self_check()
        for p in problems:
            print(f"self-check: {p}", file=sys.stderr)
        print("self-check " + ("failed" if problems else "passed"))
        return 1 if problems else 0

    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
