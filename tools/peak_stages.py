"""Where compress memory goes: the traced bytes of every stage call.

Run from the repository root:

    python3 tools/peak_stages.py --workload random64 --seed 88

The input is the benchmark workload of ``perfbench/workloads.py``.  Like
``perfbench/tracing.py`` for time, the script wraps the driver's stage
functions and ``WorkingText.compact`` from outside and leaves the package
unchanged.  One ``compress`` call runs under ``tracemalloc``; for each stage
call the script records the bytes alive on entry and the peak inside the
call, and prints them largest peak first, after the peak of the whole call.
The call is in improved mode, as the benchmark's ``compress_peak_MB``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The stage functions the driver looks up in its own module namespace.
STAGES = (
    "ingest",
    "distinct_pairs",
    "scan_blocks",
    "compress_blocks",
    "build_adjacency",
    "greedy_partition",
    "compress_pairs",
    "rename_dense",
    "prune_unreachable",
)


def stage_peaks(data) -> tuple[int, list[tuple[int, str, int, int]]]:
    """The peak of one improved-mode ``compress(data)`` and a row per stage call.

    A row is ``(phase, stage, bytes alive on entry, peak bytes inside)``;
    phase 0 is outside every phase.  Each stage call resets the traced
    peak on entry, which is sound because the stage calls do not nest.
    Bytes count from those alive when the call starts, so tracing that is
    already on (``python -X tracemalloc``) gives the same figures.
    """
    from slpcompress import driver
    from slpcompress.text import WorkingText

    rows: list[tuple[int, str, int, int]] = []
    phase = [0]
    whole = [0]  # the peak of the compress call so far
    real_run_phase = driver.run_phase

    def wrap(fn, name):
        def traced(*args, **kwargs):
            entry, before = tracemalloc.get_traced_memory()
            whole[0] = max(whole[0], before)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                whole[0] = max(whole[0], peak)
                rows.append((phase[0], name, entry, peak))

        return traced

    def run_phase(text, grammar, phase_index):
        phase[0] = phase_index
        try:
            return real_run_phase(text, grammar, phase_index)
        finally:
            phase[0] = 0

    originals = [(driver, name, getattr(driver, name)) for name in STAGES]
    originals.append((WorkingText, "compact", WorkingText.compact))
    for owner, attr, fn in originals:
        setattr(owner, attr, wrap(fn, attr))
    originals.append((driver, "run_phase", real_run_phase))
    driver.run_phase = run_phase
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        driver.compress(data)
        whole[0] = max(whole[0], tracemalloc.get_traced_memory()[1])
    finally:
        if started:
            tracemalloc.stop()
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return whole[0] - base, [(p, name, entry - base, peak - base) for p, name, entry, peak in rows]


def report(title: str, data) -> None:
    """Print the compress peak of ``data`` and its stage calls, largest peak first."""
    peak, rows = stage_peaks(data)
    print(f"{title}, {len(data)} symbols, improved mode: "
          f"compress peak {peak / 1e6:.2f} MB, {peak / len(data):.1f} bytes per symbol")
    print(f"{'phase':>5}  {'stage':18s} {'entry MB':>9} {'peak MB':>9}")
    for phase, name, entry, stage_peak in sorted(rows, key=lambda r: -r[3]):
        print(f"{phase:5d}  {name:18s} {entry / 1e6:9.2f} {stage_peak / 1e6:9.2f}")


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="random64", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=88)
    args = parser.parse_args(argv)

    data = workloads.GENERATORS[args.workload](args.seed)
    try:
        report(f"{args.workload} (seed {args.seed})", data)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as ``| head`` does: nothing more is
        # read, and stdout goes to devnull so the flush at exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
