"""Paired A/B runs of the benchmark: a parent commit against the working tree.

Run from the repository root:

    python3 tools/ab_bench.py --parent HEAD --pairs 10 --dir /tmp/ab-parent

The parent commit is exported with ``git archive`` into ``--dir`` (a fresh
directory), so both sides run the same ``perfbench/run.py`` code path on
their own ``src/``.  Each pair runs ``perfbench/run.py`` once per side and
workload in a subprocess, one at a time, and alternates which side goes
first.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``, the run
length the benchmark itself uses.  For every workload and metric the
script prints each side's median and quartiles, the ratio of the change's
median to the parent's, and in how many pairs the change read better
(ties count for neither), with the direction of "better" taken from
``BENCHMARK.json``.  Then come the paired figures: the median and
quartiles of the per-pair ratio (change over parent), and the two-sided
p-value of a sign test over the pairs.  The two runs of a pair sit next to
each other in time, so a slow spell of the host that spans both cancels
in their ratio; the verdict below does not read these figures.  Without
``--trace 1`` each end-to-end metric also gets a verdict against its bound
in ``BENCHMARK.json`` (see ``verdict``), and after the tables one line per
verdict names the (workload, metric) pairs that read it; the exit status is 1 when any pair reads ``worse``.  It also
says whether the grammar digests of the two sides agree.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export_parent(rev: str, into: Path) -> Path:
    """The files of commit ``rev`` under ``into``, which must not hold files yet."""
    into.mkdir(parents=True, exist_ok=True)
    if any(into.iterdir()):
        raise SystemExit(f"error: {into} is not empty")
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its result line plus the grammar digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: benchmark failed in {tree}:\n{proc.stderr}")
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line), json.loads(result_line)
    result["grammar_sha256"] = record["grammar_sha256"]
    result["plain_grammar_sha256"] = record["plain_grammar_sha256"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change read better; ties count for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def paired_ratios(parent: list[float], change: list[float]) -> list[float]:
    """Each pair's change over parent; a pair whose parent reads 0 gives nan."""
    return [c / p if p else float("nan") for p, c in zip(parent, change)]


def sign_test(parent: list[float], change: list[float]) -> float:
    """Two-sided p-value of the sign test: do the pairs move one way more than chance?

    Ties are dropped.  Under the null hypothesis each remaining pair moves
    up or down with probability 1/2, so the p-value is twice the binomial
    tail beyond the larger count, at most 1.
    """
    up = sum(c > p for p, c in zip(parent, change))
    down = sum(c < p for p, c in zip(parent, change))
    n = up + down
    tail = sum(math.comb(n, k) for k in range(max(up, down), n + 1)) / 2**n
    return min(1.0, 2 * tail)


def summarize(parent: list[float], change: list[float], better: str) -> str:
    """Each side's median and quartiles, the ratio of medians, the change's
    wins, and the paired ratio's median and quartiles with the sign test."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    ratio = cm / pm if pm else float("nan")
    r1, rm, r3 = quartiles(paired_ratios(parent, change))
    return (f"{pm:10.5g} [{p1:.5g}, {p3:.5g}] -> {cm:10.5g} [{c1:.5g}, {c3:.5g}]  "
            f"x{ratio:.3f}  wins {wins(parent, change, better)}/{len(parent)}  "
            f"paired x{rm:.3f} [{r1:.3f}, {r3:.3f}] p={sign_test(parent, change):.3f}")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """How the change's runs of one metric read against the parent's.

    ``bound`` is relative to the parent's median.  In order:
    ``unresolved`` when the parent's quartile spread is wider than the
    bound, unless every change run beats every parent run; ``worse`` when
    the change's median is worse than the parent's by more than the bound;
    ``gain`` when the change wins at least 9 in 10 pairs and its median
    moved the better way by more than the parent's quartile spread; and
    ``within bound`` otherwise.
    """
    (p1, pm, p3), (_, cm, _) = quartiles(parent), quartiles(change)
    sign = 1 if better == "higher" else -1
    spread, moved, scale = p3 - p1, sign * (cm - pm), bound * abs(pm)
    if spread > scale and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    if moved < -scale:
        return "worse"
    if 10 * wins(parent, change, better) >= 9 * len(parent) and moved > spread:
        return "gain"
    return "within bound"


VERDICTS = ("gain", "within bound", "unresolved", "worse")


def summary(verdicts: dict[tuple[str, str], str]) -> list[str]:
    """One line per verdict, naming the (workload, metric) pairs that read it."""
    lines = []
    for name in VERDICTS:
        pairs = [f"{w} {m}" for (w, m), got in verdicts.items() if got == name]
        lines.append(f"{name}: {', '.join(pairs) or 'none'}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--dir", type=Path, required=True,
                        help="empty directory to export the parent commit into")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable); default: all of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=88)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workload or names
    trees = {"parent": export_parent(args.parent, args.dir), "change": ROOT}
    runs: dict[str, dict[str, list[dict]]] = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_once(trees[side], workload, args.seed, spec["run_seconds"], args.trace)
                )
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    verdicts: dict[tuple[str, str], str] = {}
    for workload in workloads:
        sides = runs[workload]
        print(f"\n{workload} (seed {args.seed}, {args.pairs} pairs, trace {args.trace})")
        for key in ("grammar_sha256", "plain_grammar_sha256"):
            digests = {r[key] for r in sides["parent"] + sides["change"]}
            print(f"  {key}: {'equal' if len(digests) == 1 else 'DIFFERENT'}")
        for name, metric in metrics.items():
            parent, change = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
            line = f"  {name:32s} {summarize(parent, change, metric['better'])}"
            if "bound" in metric:  # only end-to-end metrics have one
                got = verdict(parent, change, metric["better"], metric["bound"])
                verdicts[workload, name] = got
                line += f"  {got}"
            print(line)
        failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
        print(f"  failed operations: parent {failed['parent']}, change {failed['change']}")
    if verdicts:
        print("\nverdicts")
        for line in summary(verdicts):
            print(f"  {line}")
    return 1 if "worse" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
