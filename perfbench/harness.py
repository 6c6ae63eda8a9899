"""One benchmark run: set-up, timed rounds with output checks, memory pass.

Load shape: a closed loop with one client.  A single process makes one
call at a time, and each CLI subprocess runs alone, so the two cores of a
small host never run two measured calls at once.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import fmean, median

import numpy as np

from slpcompress import driver
from slpcompress import grammar as gr

import tracing
import workloads

WARMUP_SYMBOLS = 1 << 14  # prefix used for the warm-up call on every path
MIN_ROUNDS = 2  # a run measures each part at least this often, however short
CLI_TIMEOUT_S = 120


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class BenchRun:
    """Generates one workload from its seed and runs it through every path.

    ``samples`` maps an operation to its (wall seconds, CPU seconds) pairs;
    every operation attempted is checked, and each mismatch, exception or
    non-zero CLI exit is recorded in ``failures``.
    """

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 size: int = workloads.SIZE):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.rounds: list[int] = []
        self.result = self.plain = self.text = None
        self.setup_times: list[float] = []
        self.input_sha256 = None
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        self.out_dir = out_dir
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
        self.input_path = self.work / "input"
        self.slp_path = self.work / "grammar.slp"
        self.decoded_path = self.work / "decoded"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- bookkeeping -------------------------------------------------------

    def attempt(self, op: str, body) -> None:
        """Run one checked operation; ``body`` returns a problem or None."""
        self.attempted += 1
        try:
            problem = body()
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc()
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{op}: {problem}")

    def timed(self, op: str, fn, *args):
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn(*args)
        t1, c1 = time.perf_counter(), time.process_time()
        self.samples.setdefault(op, []).append((t1 - t0, c1 - c0))
        return out

    def mean_wall(self, op: str) -> float:
        """The mean wall time of ``op`` over its samples in this run.

        A shared host's speed can swing by up to 2x in spells of seconds to
        minutes.  The samples of every call spread over the whole window, so
        their mean averages over the spells; across seeds it varied less than
        the least or the median sample did.
        """
        return fmean(w for w, _ in self.samples[op])

    def same_as_input(self, out) -> str | None:
        if self.kind == "bytes":
            ok = out == self.data
        else:
            ok = np.array_equal(np.asarray(out, dtype=np.int64), self.data)
        return None if ok else "expansion differs from the input"

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Generate the input, write the CLI input file and warm every path.

        Each call adds its time to ``setup_times``, whose median is
        ``setup_s``; generating the input again must give the same bytes.
        """
        t0 = time.perf_counter()
        data = workloads.GENERATORS[self.workload](self.seed, self.size)
        self.data = data
        self.kind = "bytes" if isinstance(data, bytes) else "tokens"
        if self.kind == "bytes":
            self.input_bytes = data
        else:
            self.input_bytes = (" ".join(map(str, data.tolist())) + "\n").encode("ascii")
        self.input_path.write_bytes(self.input_bytes)
        prefix = data[:WARMUP_SYMBOLS]
        slp = driver.compress(prefix).slp
        driver.compress(prefix, mode="plain")
        gr.deserialize(gr.serialize(slp))
        gr.expand(slp)
        self.cli_startup()
        self.setup_times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(self.input_bytes).hexdigest()
        if self.input_sha256 not in (None, digest):
            raise RuntimeError("workload generation is not deterministic")
        self.input_sha256 = digest

    # -- operations --------------------------------------------------------

    def cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def timed_cli(self, op: str, *args: str) -> subprocess.CompletedProcess:
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = self.cli(*args)
        t1, c1 = time.perf_counter(), _children_cpu()
        self.samples.setdefault(op, []).append((t1 - t0, c1 - c0))
        return proc

    def cli_startup(self, op: str | None = None) -> None:
        """Start an interpreter that imports the CLI, and check which copy."""
        code = "import slpcompress.cli as c; print(c.__file__)"
        proc = self.timed_cli(op, "-c", code) if op else self.cli("-c", code)
        expected = self.root / "src" / "slpcompress" / "cli.py"
        if proc.returncode != 0 or Path(proc.stdout.strip()) != expected:
            raise RuntimeError(f"CLI does not start from {expected}: {proc.stderr.strip()}")

    def op_compress(self) -> None:
        def body():
            self.result = self.timed("compress", driver.compress, self.data)
        self.attempt("compress", body)

    def op_compress_plain(self) -> None:
        def body():
            slp = self.timed("compress_plain", driver.compress, self.data, "plain").slp
            # Expanding once per run suffices: later calls must repeat it.
            if self.plain is not None:
                return None if slp == self.plain else "plain grammar changed between calls"
            self.plain = slp
            return self.same_as_input(gr.expand(slp))
        self.attempt("compress_plain", body)

    def op_expand(self) -> None:
        self.attempt("expand", lambda: self.same_as_input(
            self.timed("expand", gr.expand, self.result.slp)))

    def op_serialize(self) -> None:
        def body():
            text = self.timed("serialize", gr.serialize, self.result.slp)
            if self.text is not None and text != self.text:
                return "serialized grammar changed between calls"
            self.text = text
        self.attempt("serialize", body)

    def op_deserialize(self) -> None:
        def body():
            if self.timed("deserialize", gr.deserialize, self.text) != self.result.slp:
                return "deserialize(serialize(slp)) != slp"
        self.attempt("deserialize", body)

    def op_cli_compress(self) -> None:
        def body():
            args = ["-m", "slpcompress.cli", "compress", str(self.input_path), str(self.slp_path)]
            if self.kind == "tokens":
                args += ["--input", "tokens"]
            proc = self.timed_cli("cli_compress", *args)
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            if self.slp_path.read_text(encoding="utf-8") != self.text:
                return "CLI grammar differs from the library grammar"
        self.attempt("cli_compress", body)

    def op_cli_decompress(self) -> None:
        def body():
            proc = self.timed_cli("cli_decompress", "-m", "slpcompress.cli", "decompress",
                                  str(self.slp_path), str(self.decoded_path))
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            if self.decoded_path.read_bytes() != self.input_bytes:
                return "decompressed file differs from the input file"
        self.attempt("cli_decompress", body)

    def op_cli_stats(self) -> None:
        def body():
            proc = self.timed_cli("cli_stats", "-m", "slpcompress.cli", "stats", str(self.slp_path))
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
            slp = self.result.slp
            if not {f"rules {len(slp.rules)}", f"size {slp.size}"} <= set(proc.stdout.splitlines()):
                return "stats disagree with the grammar"
        self.attempt("cli_stats", body)

    def op_cli_verify(self) -> None:
        def body():
            proc = self.timed_cli("cli_verify", "-m", "slpcompress.cli", "verify",
                                  str(self.slp_path), str(self.input_path))
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()}"
        self.attempt("cli_verify", body)

    def library_round(self) -> None:
        self.op_compress()
        self.op_expand()
        self.op_compress_plain()
        self.op_serialize()
        self.op_deserialize()

    def cli_round(self) -> None:
        self.op_cli_compress()
        self.op_cli_decompress()
        self.op_cli_stats()
        self.op_cli_verify()

    # -- runs --------------------------------------------------------------

    def measure(self, *parts) -> None:
        """Run the parts for ``seconds``, each at least ``MIN_ROUNDS`` times.

        The part that has had the least time so far runs next, so each part
        gets an equal share of the window, with its samples spread across it.
        """
        spent = [0.0] * len(parts)
        self.rounds = [0] * len(parts)
        t0 = time.perf_counter()
        while min(self.rounds) < MIN_ROUNDS or time.perf_counter() - t0 < self.seconds:
            i = spent.index(min(spent))
            start = time.perf_counter()
            parts[i]()
            spent[i] += time.perf_counter() - start
            self.rounds[i] += 1
        self.measured_s = time.perf_counter() - t0

    def memory_pass(self) -> dict[str, float]:
        """Peak traced allocation of one compress and one expand; times nothing."""
        peaks = {}
        gc.collect()
        tracemalloc.start()
        try:
            slp = driver.compress(self.data).slp
            peaks["compress_peak_MB"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        gc.collect()
        tracemalloc.start()
        try:
            out = gr.expand(slp)
            peaks["expand_peak_MB"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        self.attempt("memory_pass", lambda: self.same_as_input(out))
        return peaks

    def end_to_end(self) -> dict[str, float]:
        """Untraced library and CLI rounds, then the memory pass.

        The set-up runs again after every CLI round, so its samples spread
        over the window like those of the calls.
        """
        self.measure(self.library_round, lambda: (self.cli_round(), self.setup()))
        msym = len(self.data) / 1e6
        text_mb = len(self.text) / 1e6
        metrics = {
            "compress_Msym_s": msym / self.mean_wall("compress"),
            "compress_plain_Msym_s": msym / self.mean_wall("compress_plain"),
            "expand_Msym_s": msym / self.mean_wall("expand"),
            "serialize_MB_s": text_mb / self.mean_wall("serialize"),
            "deserialize_MB_s": text_mb / self.mean_wall("deserialize"),
            "cli_compress_s": self.mean_wall("cli_compress"),
            "cli_decompress_s": self.mean_wall("cli_decompress"),
            "cli_stats_s": self.mean_wall("cli_stats"),
            "cli_verify_s": self.mean_wall("cli_verify"),
            "grammar_size": self.result.slp.size,
            "grammar_MB": text_mb,
            "setup_s": median(self.setup_times),
        }
        metrics.update(self.memory_pass())
        metrics["ok_ratio"] = (self.attempted - len(self.failures)) / self.attempted
        return metrics

    def traced_round(self, tracer: tracing.Tracer) -> None:
        self.op_compress()
        self.op_serialize()
        self.op_deserialize()
        self.op_expand()
        first = len(tracer.spans)

        def body():
            with tracer:
                res = tracer.call(self.timed, "traced_compress", driver.compress, self.data)
                text = tracer.call(gr.serialize, res.slp)
                slp = tracer.call(gr.deserialize, text)
                out = tracer.call(gr.expand, slp)
            if text != self.text:
                return "traced compress gave another grammar"
            return self.same_as_input(out)

        self.attempt("traced", body)
        self.cli_startup("cli_startup")
        self.op_cli_compress()
        self.op_cli_decompress()
        self.op_cli_verify()
        self.round_layers.append(tracing.layer_metrics(tracer.spans[first:]))

    def per_layer(self) -> dict[str, float]:
        """Traced rounds.

        Times are means over the rounds, like the end-to-end ones; counts
        repeat exactly, and ratios and differences are medians.
        """
        tracer = tracing.Tracer()
        self.round_layers: list[dict[str, float]] = []
        try:
            self.measure(lambda: self.traced_round(tracer))
        finally:
            tracer.write(self.out_dir / f"spans-{self.workload}-seed{self.seed}.jsonl")
        rounds = self.round_layers
        metrics = {
            key: (fmean if key.endswith("_s") else median)([r[key] for r in rounds])
            for key in rounds[0]
        }

        def per_round(op: str) -> list[float]:
            return [w for w, _ in self.samples[op]]

        # CLI time left after interpreter start-up and the in-process library
        # time of the same work, round by round.
        startup = per_round("cli_startup")
        lib_compress = [c + s for c, s in zip(per_round("compress"), per_round("serialize"))]
        lib_load = [d + e for d, e in zip(per_round("deserialize"), per_round("expand"))]

        def overhead(cli_op: str, lib: list[float]) -> float:
            return median([t - s - l for t, s, l in zip(per_round(cli_op), startup, lib)])

        metrics["cli.compress_overhead_s"] = overhead("cli_compress", lib_compress)
        metrics["cli.decompress_overhead_s"] = overhead("cli_decompress", lib_load)
        metrics["cli.verify_overhead_s"] = overhead("cli_verify", lib_load)
        metrics["cli.startup_s"] = fmean(startup)
        metrics["trace.overhead_ratio"] = median([
            t / u for t, u in zip(per_round("traced_compress"), per_round("compress"))
        ])
        slp = self.result.slp
        metrics["grammar.rules"] = len(slp.rules)
        metrics["grammar.depth"] = gr.grammar_depth(slp)
        return metrics

    def record(self) -> dict:
        """Everything a later change needs to compare runs on this host.

        The grammar digests let a change show that its grammars stay
        byte-identical; they are recorded, not checked.
        """
        def digest(slp) -> str | None:
            return None if slp is None else hashlib.sha256(gr.serialize(slp).encode()).hexdigest()

        return {
            "workload": self.workload,
            "seed": self.seed,
            "symbols": len(self.data),
            "input_sha256": self.input_sha256,
            "grammar_sha256": digest(self.result.slp if self.result else None),
            "plain_grammar_sha256": digest(self.plain),
            "rounds": self.rounds,
            "measured_s": self.measured_s,
            "setup_s": self.setup_times,
            "samples": {
                op: {
                    "count": len(s),
                    "mean_wall_s": fmean(w for w, _ in s),
                    "min_wall_s": min(w for w, _ in s),
                    "median_wall_s": median([w for w, _ in s]),
                    "wall_s": [w for w, _ in s],
                    "cpu_s": [c for _, c in s],
                }
                for op, s in self.samples.items()
            },
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failed_ratio": len(self.failures) / self.attempted,
            "failures": self.failures,
            "host": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "nproc": len(os.sched_getaffinity(0)),
            },
        }
