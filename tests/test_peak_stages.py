"""Smoke test of ``tools/peak_stages.py`` on a small input."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "peak_stages.py"
_SPEC = importlib.util.spec_from_file_location("peak_stages", _PATH)
peak_stages = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(peak_stages)


def test_every_stage_reports_a_peak_no_lower_than_its_entry(capsys):
    data = np.random.default_rng(5).integers(0, 64, 2**12, dtype=np.uint8).tobytes()
    peak_stages.report("random 64-value bytes", data)
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert "4096 symbols" in header and "compress peak" in header
    whole = float(header.split("compress peak ")[1].split()[0])
    assert columns.split() == ["phase", "stage", "entry", "MB", "peak", "MB"]
    seen = set()
    peaks = []
    for row in rows:
        phase, stage, entry, peak = row.split()
        seen.add(stage)
        peaks.append(float(peak))
        assert int(phase) >= 0 and 0 <= float(entry) <= float(peak) <= whole, row
    assert seen == {*peak_stages.STAGES, "compact"}
    assert peaks == sorted(peaks, reverse=True)


def test_a_closed_pipe_ends_the_report_quietly():
    proc = subprocess.Popen(
        [sys.executable, str(_PATH), "--workload", "runs_tokens"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # the reader is gone before the report prints
    try:
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == ""
