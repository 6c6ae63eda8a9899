import random

import numpy as np
import pytest

from helpers import (
    kept_outside,
    live_list,
    live_positions,
    reference_replace_spans,
    reference_runs,
    replace_pair,
    replace_run,
)
from slpcompress.alphabet import rename_dense
from slpcompress.text import StaleTextError, WorkingText, concat_ranges, find_runs


def text_of(symbols, width: int) -> WorkingText:
    """A text of ``symbols`` whose alphabet is widened to ``width`` by ``mint``.

    ``replace_spans`` writes only symbols below the width, so the fresh
    symbols of a test must lie below it.
    """
    text = WorkingText(symbols)
    text.mint(np.arange(text.width, width))
    return text


class TestReplacePair:
    def test_basic(self):
        t = WorkingText([0, 1, 2])
        replace_pair(t, 0, 9)
        assert live_list(t) == [9, 2]
        assert len(t) == 2

    def test_adjacency_skips_dropped_cells(self):
        # Build [0, dropped, 1, 2], then the pair at position 2 is (1, 2).
        t = WorkingText([0, 5, 1, 2])
        replace_pair(t, 0, 0)
        assert not t.kept[1]
        replace_pair(t, 2, 9)
        assert live_list(t) == [0, 9]

    def test_disjoint_replacements_commute(self):
        a = WorkingText([0, 1, 2, 3])
        b = WorkingText([0, 1, 2, 3])
        replace_pair(a, 0, 8)
        replace_pair(a, 2, 9)
        replace_pair(b, 2, 9)
        replace_pair(b, 0, 8)
        assert live_list(a) == live_list(b) == [8, 9]

    def test_dead_position_rejected(self):
        t = WorkingText([0, 1, 2])
        replace_pair(t, 1, 9)
        with pytest.raises(ValueError):
            replace_pair(t, 2, 5)  # a dropped cell
        with pytest.raises(ValueError):
            replace_pair(t, 1, 5)  # last live cell, no successor


class TestReplaceRun:
    def test_basic(self):
        t = WorkingText([3, 3, 3, 5])
        replace_run(t, 0, 3, 8)
        assert live_list(t) == [8, 5]

    def test_full_text_run(self):
        t = WorkingText([4, 4])
        replace_run(t, 0, 2, 8)
        assert live_list(t) == [8]

    def test_length_one_rejected(self):
        t = WorkingText([4, 4])
        with pytest.raises(ValueError):
            replace_run(t, 0, 1, 8)

    def test_non_uniform_rejected(self):
        t = WorkingText([4, 5, 4])
        with pytest.raises(ValueError):
            replace_run(t, 0, 2, 8)

    def test_run_too_short_rejected(self):
        t = WorkingText([4, 4])
        with pytest.raises(ValueError):
            replace_run(t, 0, 3, 8)


class TestCompact:
    def test_keeps_surviving_cells_in_order(self):
        t = WorkingText([0, 1, 2, 2, 3])
        replace_pair(t, 0, 9)
        replace_run(t, 2, 2, 7)
        t.compact()
        assert live_list(t) == [9, 7, 3]
        assert len(t.cells) == 3

    def test_bumps_epoch(self):
        t = WorkingText([0, 1])
        e = t.epoch
        t.compact()
        assert t.epoch == e + 1


def _random_script(rng, oracle):
    """Pick a valid op against the plain-list oracle."""
    ops = []
    if len(oracle) >= 2:
        ops.append("pair")
        runs = [
            (i, length)
            for i in range(len(oracle))
            for length in (2, 3)
            if i + length <= len(oracle) and len(set(oracle[i : i + length])) == 1
        ]
        if runs:
            ops.append("run")
    if not ops:
        return None
    op = rng.choice(ops)
    if op == "pair":
        i = rng.randrange(len(oracle) - 1)
        return ("pair", i)
    i, length = runs[rng.randrange(len(runs))]
    return ("run", i, length)


def test_mixed_ops_match_list_oracle():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randrange(2, 40)
        syms = [rng.randrange(4) for _ in range(n)]
        text = WorkingText(syms)
        oracle = list(syms)
        fresh = 100
        for _ in range(rng.randrange(1, 12)):
            script = _random_script(rng, oracle)
            if script is None:
                break
            positions = live_positions(text)
            if script[0] == "pair":
                i = script[1]
                replace_pair(text, int(positions[i]), fresh)
                oracle[i : i + 2] = [fresh]
            else:
                i, length = script[1], script[2]
                replace_run(text, int(positions[i]), length, fresh)
                oracle[i : i + length] = [fresh]
            fresh += 1
            assert live_list(text) == oracle
        text.compact()
        assert live_list(text) == oracle


def test_bulk_runs_equal_scalar_sequence():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        syms = rng.integers(0, 3, n)
        a = text_of(syms, 1100)
        b = WorkingText(syms)
        # maximal runs of length >= 2
        starts, lengths = [], []
        i = 0
        lst = list(map(int, syms))
        while i < n:
            j = i
            while j < n and lst[j] == lst[i]:
                j += 1
            if j - i >= 2:
                starts.append(i)
                lengths.append(j - i)
            i = j
        fresh = [1000 + k for k in range(len(starts))]
        a.replace_spans(np.array(starts, dtype=np.int64), np.array(fresh, dtype=np.int64), kept_outside(n, starts, lengths))
        for s, l, f in zip(starts, lengths, fresh):
            replace_run(b, s, l, f)
        assert live_list(a) == live_list(b)


def test_bulk_pairs_equal_scalar_sequence():
    syms = [0, 1, 2, 3, 4, 5]
    a = text_of(syms, 13)
    b = WorkingText(syms)
    firsts = np.array([0, 2, 4], dtype=np.int64)
    fresh = np.array([10, 11, 12], dtype=np.int64)
    a.replace_spans(firsts, fresh, kept_outside(6, firsts, [2] * 3))
    for f, s in zip(firsts, fresh):
        replace_pair(b, int(f), int(s))
    assert live_list(a) == live_list(b) == [10, 11, 12]


def test_bulk_random_pairs_equal_scalar_sequence():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randrange(2, 60)
        syms = [rng.randrange(5) for _ in range(n)]
        a = text_of(syms, 200)
        b = WorkingText(syms)
        firsts = []
        i = rng.randrange(2)
        while i + 1 < n:
            firsts.append(i)
            i += rng.randrange(2, 5)
        fresh = [100 + k for k in range(len(firsts))]
        a.replace_spans(np.array(firsts, dtype=np.int64), np.array(fresh, dtype=np.int64), kept_outside(n, firsts, [2] * len(firsts)))
        for f, s in zip(firsts, fresh):
            replace_pair(b, f, s)
        assert live_list(a) == live_list(b)
        assert len(a) == len(b)


def test_random_disjoint_spans_match_list_reference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(0, 80))
        symbols = rng.integers(0, 4, n)
        starts, lengths = [], []
        i = int(rng.integers(0, 3))
        while i + 1 < n:
            length = int(rng.integers(2, min(6, n - i) + 1))
            starts.append(i)
            lengths.append(length)
            i += length + int(rng.integers(0, 3))
        order = rng.permutation(len(starts))  # the stages hand spans out of text order
        starts = np.array(starts, dtype=np.int64)[order]
        lengths = np.array(lengths, dtype=np.int64)[order]
        fresh = 100 + np.arange(len(starts))
        t = text_of(symbols, 100 + len(starts))
        t.replace_spans(starts, fresh, kept_outside(n, starts, lengths))
        want = reference_replace_spans(symbols.tolist(), starts.tolist(), lengths.tolist(), fresh.tolist())
        assert len(t) == len(want)
        t.compact()
        assert t.live().tolist() == want


def reference_concat_ranges(starts, counts) -> list[int]:
    return [i for start, count in zip(starts, counts) for i in range(start, start + count)]


@pytest.mark.parametrize(
    "starts,counts",
    [
        ([], []),
        ([5], [3]),
        ([5], [0]),
        ([0, 9, 4, 4], [2, 0, 3, 1]),
        ([3, 1, 7], [0, 0, 2]),
        ([2, 8], [4, 0]),
    ],
    ids=["empty", "single", "single-empty", "zero-inside", "zeros-first", "zero-last"],
)
def test_concat_ranges_matches_scalar_reference(starts, counts):
    got = concat_ranges(np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == reference_concat_ranges(starts, counts)


def test_random_concat_ranges_match_scalar_reference():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(0, 20))
        starts = rng.integers(0, 1000, k)
        counts = rng.integers(0, 5, k) * (rng.random(k) < 0.7)
        got = concat_ranges(starts, counts)
        assert got.tolist() == reference_concat_ranges(starts.tolist(), counts.tolist())


class TestDeadCells:
    def test_live_raises_while_a_write_is_pending(self):
        t = text_of([3, 3, 3, 5, 6], 10)
        assert t.live() is t.cells
        t.replace_spans(np.array([0]), np.array([8]), kept_outside(5, [0], [3]))
        with pytest.raises(StaleTextError):
            t.live()
        assert live_list(t) == [8, 5, 6]
        t.compact()
        assert t.live().tolist() == [8, 5, 6]
        t.replace_spans(np.array([1]), np.array([9]), kept_outside(3, [1], [2]))
        with pytest.raises(StaleTextError):
            t.live()
        t.compact()
        assert t.live().tolist() == [8, 9]

    def test_bulk_runs_reject_dead_cells(self):
        t = text_of([4, 4, 4, 4, 5], 10)
        t.replace_spans(np.array([0]), np.array([8]), kept_outside(5, [0], [2]))
        with pytest.raises(StaleTextError, match="pending"):
            t.replace_spans(np.array([0]), np.array([9]), kept_outside(5, [0], [3]))
        with pytest.raises(StaleTextError, match="pending"):
            t.replace_spans(np.array([1]), np.array([9]), kept_outside(5, [1], [2]))
        assert live_list(t) == [8, 4, 4, 5]

    def test_bulk_runs_reject_bad_lengths(self):
        t = text_of([4, 4, 5], 10)
        with pytest.raises(ValueError, match="shorter than 2"):
            t.replace_spans(np.array([0]), np.array([8]), np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="past the end"):
            t.replace_spans(np.array([2]), np.array([8]), kept_outside(3, [1], [2]))
        assert t.live().tolist() == [4, 4, 5]

    def test_bulk_pairs_reject_dead_cells(self):
        t = text_of([0, 1, 2, 3], 10)
        t.replace_spans(np.array([0]), np.array([9]), kept_outside(4, [0], [2]))
        for first in (0, 1):
            with pytest.raises(StaleTextError, match="pending"):
                t.replace_spans(np.array([first]), np.array([7]), kept_outside(4, [first], [2]))
        assert live_list(t) == [9, 2, 3]

    def test_rename_reads_a_compact_text(self):
        t = text_of([0, 1, 2], 4)
        t.replace_spans(np.array([0]), np.array([3]), kept_outside(3, [0], [2]))
        with pytest.raises(StaleTextError):
            rename_dense(t)
        t.compact()
        rename_dense(t)
        assert live_list(t) == [0, 1]
        assert t.alias.tolist() == [3, 2]


class TestSpanChecks:
    @pytest.mark.parametrize(
        "start,message",
        [
            (-2, "before the text"),  # would rewrite the last two cells
            (-1, "before the text"),  # would fuse the last cell with the first
            (4, "past the end"),  # a pair at the last cell has no second cell
        ],
    )
    def test_bad_positions_rejected_before_any_write(self, start, message):
        t = text_of([1, 2, 3, 4, 4], 10)
        with pytest.raises(ValueError, match=message):
            t.replace_spans([start], [9], kept_outside(5, [3], [2]))
        assert t.live().tolist() == [1, 2, 3, 4, 4]
        assert len(t) == 5

    @pytest.mark.parametrize(
        "symbols,starts,lengths,fresh,also_dropped,message",
        [
            ([0, 1, 2, 3], [1, 2], [2, 2], [8, 9], [], "another span drops"),  # pairs at p and p + 1
            ([4, 4, 4, 4, 5], [0, 1], [3, 2], [8, 9], [], "another span drops"),  # a run inside another
            ([4, 4, 4, 5], [0, 0], [2, 3], [8, 9], [], "given twice"),  # two spans, one start
            # Two drop runs for two starts, but both starts are cell 0 and cell 3 is in no span.
            ([0, 1, 2, 3], [0, 0], [2, 2], [8, 9], [3], "given twice"),
            ([0, 1, 2, 3], [0], [2], [8], [3], "lies in no span"),
            ([0, 1, 2, 3], [2], [2], [8], [0], "lies in no span"),  # a leading drop run
            ([0, 1, 2], [0], [2], [-5], [], "outside the working alphabet"),  # negative
            ([0, 1, 2], [0], [2], [10], [], "outside the working alphabet"),  # fresh == width
            ([0, 1, 2], [0], [2], [1.5], [], "must be integers"),  # truncated to 1 before
            ([0, 1, 2], [0], [2], [True], [], "must be integers"),  # read as 1 before
        ],
    )
    def test_bad_replacement_rejected_before_any_write(
        self, symbols, starts, lengths, fresh, also_dropped, message
    ):
        t = text_of(symbols, 10)
        kept = kept_outside(len(symbols), starts, lengths)
        kept[also_dropped] = False
        epoch = t.epoch
        with pytest.raises(ValueError, match=message):
            t.replace_spans(starts, fresh, kept)
        assert t.live().tolist() == symbols
        assert len(t) == len(symbols)
        assert t.epoch == epoch
        assert t.width == 10

    @pytest.mark.parametrize(
        "starts,fresh,kept,message",
        [
            ([0, 2], [8], [True, False, True, False, True], "one entry per span"),
            ([0], [8, 9], [True, False, True, False, True], "one entry per span"),
            ([0, 2], 8, [True, False, True, False, True], "must be a sequence"),
            ([0], [8], [True, False, True, True], "one bool per cell"),
            ([0], [8], [1, 0, 1, 1, 1], "one bool per cell"),
        ],
    )
    def test_one_entry_per_span_and_one_mask_cell_per_cell(self, starts, fresh, kept, message):
        t = text_of([0, 1, 2, 3, 4], 10)
        with pytest.raises(ValueError, match=message):
            t.replace_spans(starts, fresh, kept)
        assert t.live().tolist() == [0, 1, 2, 3, 4]
        assert len(t) == 5

    def test_empty_batch_writes_nothing(self):
        t = WorkingText([3, 3])
        t.replace_spans([], [], np.ones(2, dtype=bool))
        assert len(t) == 2
        t.compact()
        assert t.live().tolist() == [3, 3]


class TestFindRuns:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_matches_scalar_reference(self, dtype):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(0, 60))
            symbols = rng.integers(0, int(rng.integers(1, 5)), n).astype(dtype)
            heads, at, lengths = find_runs(symbols)
            want_heads, want_blocks = reference_runs(symbols.tolist())
            assert heads.dtype == dtype and heads.tolist() == want_heads
            assert list(zip(at.tolist(), lengths.tolist())) == want_blocks
            assert at.dtype.kind == lengths.dtype.kind == "u"

    def test_without_runs_the_heads_are_the_input(self):
        symbols = np.array([1, 2, 1, 3])
        heads, at, lengths = find_runs(symbols)
        assert heads is symbols and len(at) == len(lengths) == 0

    def test_narrow_columns(self):
        heads, at, lengths = find_runs(np.repeat(np.arange(300), 2))
        assert at.dtype == np.uint16 and lengths.dtype == np.uint8
        assert at.tolist() == list(range(300)) and set(lengths.tolist()) == {2}


class TestRunForm:
    def test_length_counts_each_run_at_its_length(self):
        t = WorkingText([0, 1, 0], runs=(np.array([0, 2]), np.array([3, 2])))
        assert len(t) == 6 and len(t.cells) == 3
        with pytest.raises(StaleTextError, match="runs are pending"):
            t.live()
        assert live_list(t) == [0, 0, 0, 1, 0, 0]
        assert t.canonical(np.int64).tolist() == [0, 0, 0, 1, 0, 0]

    def test_no_runs_is_a_compact_text(self):
        t = WorkingText([0, 1], runs=(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
        assert t.runs is None and t.live().tolist() == [0, 1]

    @pytest.mark.parametrize("runs, message", [
        (([0.0], [2]), "integer columns"),
        (([0, 1], [2]), "one head cell and one length"),
        (([3], [2]), "outside the text"),
        (([-1], [2]), "outside the text"),
        (([0], [1]), "length 2 or more"),
        (([1, 1], [2, 3]), "must increase"),
        (([2, 0], [2, 3]), "must increase"),
    ])
    def test_bad_runs_rejected(self, runs, message):
        with pytest.raises(ValueError, match=message):
            WorkingText([0, 1, 2], runs=tuple(np.asarray(c) for c in runs))

    def test_collapse_runs_keeps_the_text(self):
        t = WorkingText([2, 2, 0, 1, 1, 1, 0])
        epoch = t.epoch
        t.collapse_runs()
        assert t.cells.tolist() == [2, 0, 1, 0] and len(t) == 7
        assert [c.tolist() for c in t.runs] == [[0, 2], [2, 3]]
        assert t.epoch == epoch + 1
        t.collapse_runs()  # already in run form
        assert t.epoch == epoch + 1 and t.cells.tolist() == [2, 0, 1, 0]

    def test_collapse_runs_leaves_a_text_without_runs_alone(self):
        t = WorkingText([2, 0, 1, 0])
        cells, epoch = t.cells, t.epoch
        t.collapse_runs()
        assert t.runs is None and t.cells is cells and t.epoch == epoch

    def test_collapse_runs_refuses_a_pending_write(self):
        t = text_of([0, 1, 2], 4)
        t.replace_spans(np.array([0]), np.array([3]), kept_outside(3, [0], [2]))
        with pytest.raises(StaleTextError):
            t.collapse_runs()

    def test_replace_runs_in_any_order(self):
        t = text_of([2, 2, 0, 1, 1, 1, 0], 6)
        t.collapse_runs()
        t.replace_runs(np.array([2, 0], dtype=np.uint8), np.array([5, 4]))
        assert t.runs is None and t.live().tolist() == [4, 0, 5, 0]
        with pytest.raises(StaleTextError, match="no runs"):
            t.replace_runs(np.array([0]), np.array([4]))

    @pytest.mark.parametrize("heads, fresh, message", [
        ([0], [4], "one entry per pending run"),
        ([0, 2], [4], "one entry per pending run"),
        ([0, 4], [4, 5], "outside the text"),
        ([0, 1], [4, 5], "heads no pending run"),
        ([0, 0], [4, 5], "given twice"),
        ([0, 2], [4, 6], "outside the working alphabet"),
        ([0, 2], [4.0, 5.0], "integers"),
    ])
    def test_bad_writes_rejected_before_any_write(self, heads, fresh, message):
        t = text_of([2, 2, 0, 1, 1, 1, 0], 6)
        t.collapse_runs()
        with pytest.raises(ValueError, match=message):
            t.replace_runs(np.asarray(heads), np.asarray(fresh))
        assert t.cells.tolist() == [2, 0, 1, 0] and t.runs is not None

    def test_canonical_refuses_a_pending_write(self):
        t = text_of([0, 1, 2], 4)
        t.replace_spans(np.array([0]), np.array([3]), kept_outside(3, [0], [2]))
        with pytest.raises(StaleTextError):
            t.canonical(np.int64)
