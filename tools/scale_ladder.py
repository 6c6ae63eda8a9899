"""Compress cost per input symbol across input sizes, per workload.

Run from the repository root:

    python3 tools/scale_ladder.py --min-exp 16 --max-exp 22

The inputs are the benchmark workloads of ``perfbench/workloads.py`` at
``2**e`` symbols, seed 88.  For each workload and size the script prints
one row:

- compress throughput in Msym/s in improved and plain mode, each the
  median of 3 calls;
- the ``tracemalloc`` peak of one improved-mode compress, in bytes per
  input symbol, as ``tools/peak_stages.py`` and the benchmark's
  ``compress_peak_MB`` take it;
- each stage's ns per input symbol, from the ``PhaseTrace`` timings summed
  over the phases of a plain-mode call, the median over the calls.

A loop that is linear in its input keeps every column flat down a
workload's rows.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from peak_stages import traced_peak

ROOT = Path(__file__).resolve().parents[1]
SEED = 88
REPEAT = 3  # calls per mode; each row takes the median

# PhaseTrace's stage timings, in the order a phase runs them.
STAGES = ("blocks_s", "adjacency_s", "partition_s", "pairs_s", "compact_s", "rename_s")


def timed(call, *args):
    """The wall time of ``call(*args)`` in seconds, and what it returns."""
    start = time.perf_counter()
    out = call(*args)
    return time.perf_counter() - start, out


def ladder_row(data) -> dict:
    """Throughput in both modes, peak bytes and stage ns, all per symbol of ``data``."""
    from slpcompress import compress

    n = len(data)
    improved, plain = [], []
    stages = {name: [] for name in STAGES}  # of the plain calls, which run every phase
    for _ in range(REPEAT):
        improved.append(timed(compress, data, "improved")[0])
        seconds, result = timed(compress, data, "plain")
        plain.append(seconds)
        for name in STAGES:
            stages[name].append(sum(getattr(t, name) for t in result.traces))
    return {
        "improved_Msym_s": n / statistics.median(improved) / 1e6,
        "plain_Msym_s": n / statistics.median(plain) / 1e6,
        "peak_bytes": traced_peak(compress, data, "improved") / n,
        "stage_ns": {name[:-2]: statistics.median(s) / n * 1e9 for name, s in stages.items()},
    }


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--min-exp", type=int, default=16)
    parser.add_argument("--max-exp", type=int, default=22)
    args = parser.parse_args(argv)

    stages = [name[:-2] for name in STAGES]
    print(f"{'workload':12s} {'2^e':>3} {'improved':>9} {'plain':>7} {'peak':>6}  "
          + " ".join(f"{s:>9}" for s in stages))
    print(f"{'':12s} {'':3} {'Msym/s':>9} {'Msym/s':>7} {'B/sym':>6}  "
          + " ".join(f"{'ns/sym':>9}" for _ in stages))
    for name in sorted(workloads.GENERATORS):
        for e in range(args.min_exp, args.max_exp + 1):
            row = ladder_row(workloads.GENERATORS[name](SEED, 2**e))
            print(f"{name:12s} {e:3d} {row['improved_Msym_s']:9.2f} {row['plain_Msym_s']:7.2f} "
                  f"{row['peak_bytes']:6.1f}  "
                  + " ".join(f"{row['stage_ns'][s]:9.1f}" for s in stages), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
