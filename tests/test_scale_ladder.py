"""Smoke test of ``tools/scale_ladder.py`` at 2^12 symbols."""

import scale_ladder


def test_one_row_per_workload_with_every_column(capsys):
    assert scale_ladder.main(["--min-exp", "12", "--max-exp", "12"]) == 0
    title, units, *rows = capsys.readouterr().out.splitlines()
    stages = [name[:-2] for name in scale_ladder.STAGES]
    assert title.split() == ["workload", "2^e", "improved", "plain", "peak", *stages]
    assert units.split() == ["Msym/s", "Msym/s", "B/sym"] + ["ns/sym"] * len(stages)
    assert [row.split()[:2] for row in rows] == [
        ["random64", "12"],
        ["runs_tokens", "12"],
        ["versions", "12"],
    ]
    for row in rows:
        figures = [float(x) for x in row.split()[2:]]
        assert len(figures) == 3 + len(stages) and all(f > 0 for f in figures), row


def test_a_row_is_per_symbol_of_its_input():
    row = scale_ladder.ladder_row(bytes(range(64)) * 64)
    assert set(row) == {"improved_Msym_s", "plain_Msym_s", "peak_bytes", "stage_ns"}
    assert set(row["stage_ns"]) == {name[:-2] for name in scale_ladder.STAGES}
    # The peak holds the phase-1 text at least: one cell per input symbol.
    assert row["peak_bytes"] >= 1
