import random

import numpy as np
import pytest

from helpers import (
    live_list,
    live_positions,
    reference_runs,
    replace_pair,
    replace_run,
)
from slpcompress.alphabet import rename_dense
from slpcompress.text import (
    StaleTextError,
    WorkingText,
    concat_ranges,
    find_runs,
    gather,
    narrow_dtype,
    scatter,
)


def text_of(symbols, width: int) -> WorkingText:
    """A text of ``symbols`` whose alphabet is widened to ``width`` by ``mint``.

    ``replace_pairs`` and ``replace_runs`` write only symbols below the
    width, so the fresh symbols of a test must lie below it.
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

    def test_new_cells_only_for_a_pending_write(self):
        t = WorkingText([0, 1, 2])
        cells = t.cells
        t.compact()
        assert t.cells is cells
        replace_pair(t, 0, 2)
        t.compact()
        assert t.cells is not cells and live_list(t) == [2, 2]


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
        a.collapse_runs()
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
        if starts:
            a.replace_runs(np.array(fresh, dtype=np.int64))
        for s, l, f in zip(starts, lengths, fresh):
            replace_run(b, s, l, f)
        assert live_list(a) == live_list(b)


def test_bulk_pairs_equal_scalar_sequence():
    syms = [0, 1, 2, 3, 4, 5]
    a = text_of(syms, 13)
    b = WorkingText(syms)
    firsts = np.array([0, 2, 4], dtype=np.int64)
    fresh = np.array([10, 11, 12], dtype=np.int64)
    a.replace_pairs(firsts, fresh)
    for f, s in zip(firsts, fresh):
        replace_pair(b, int(f), int(s))
    assert live_list(a) == live_list(b) == [10, 11, 12]


def test_random_disjoint_pairs_match_scalar_oracle():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(0, 80))
        symbols = rng.integers(0, 4, n)
        starts = []
        i = int(rng.integers(0, 3))
        while i + 1 < n:
            starts.append(i)
            i += 2 + int(rng.integers(0, 3))
        starts = rng.permutation(np.array(starts, dtype=np.int64))  # in any order
        width = 100 + len(starts)
        fresh = (100 + np.arange(len(starts))).astype(narrow_dtype(width))
        t = text_of(symbols, width)
        t.replace_pairs(starts, fresh)
        want = WorkingText(symbols)
        for start, f in zip(starts.tolist(), fresh.tolist()):
            replace_pair(want, start, f)
        assert len(t) == len(want)
        assert live_list(t) == live_list(want)
        t.compact()
        assert t.live().tolist() == live_list(want)


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
        t = text_of([3, 4, 3, 5, 6], 10)
        assert t.live() is t.cells
        t.replace_pairs(np.array([0]), np.array([8]))
        with pytest.raises(StaleTextError):
            t.live()
        assert live_list(t) == [8, 3, 5, 6]
        t.compact()
        assert t.live().tolist() == [8, 3, 5, 6]
        t.replace_pairs(np.array([1]), np.array([9]))
        with pytest.raises(StaleTextError):
            t.live()
        t.compact()
        assert t.live().tolist() == [8, 9, 6]

    def test_bulk_pairs_reject_dead_cells(self):
        t = text_of([0, 1, 2, 3], 10)
        t.replace_pairs(np.array([0]), np.array([9]))
        for first in (0, 1):
            with pytest.raises(StaleTextError, match="pending"):
                t.replace_pairs(np.array([first]), np.array([7]))
        assert live_list(t) == [9, 2, 3]

    def test_rename_reads_a_compact_text(self):
        t = text_of([0, 1, 2], 4)
        t.replace_pairs(np.array([0]), np.array([3]))
        with pytest.raises(StaleTextError):
            rename_dense(t)
        t.compact()
        rename_dense(t)
        assert live_list(t) == [0, 1]
        assert t.alias.tolist() == [3, 2]


def assert_unchanged(t, symbols, width):
    """``t`` is the compact text of ``symbols`` over ``width`` ids, with no write pending."""
    assert t.kept is None and t.runs is None
    assert t.live().tolist() == symbols
    assert len(t) == len(symbols)
    assert t.width == width


class TestPairChecks:
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
            t.replace_pairs([start], [9])
        assert_unchanged(t, [1, 2, 3, 4, 4], 10)

    @pytest.mark.parametrize(
        "symbols,starts,fresh,message",
        [
            ([0, 1, 2, 3], [1, 2], [8, 9], "another pair's second cell"),  # pairs at p and p + 1
            ([0, 1, 2, 3], [2, 1], [8, 9], "another pair's second cell"),  # the same, later pair first
            ([4, 4, 4, 5], [0, 0], [8, 9], "given twice"),
            ([0, 1, 2, 3], [0, 2, 0], [7, 8, 9], "given twice"),
            ([0, 1, 2], [0], [-5], "outside the working alphabet"),  # negative
            ([0, 1, 2], [0], [10], "outside the working alphabet"),  # fresh == width
            ([0, 1, 2], [0], [1.5], "must be integers"),  # truncated to 1 before
            ([0, 1, 2], [0], [True], "must be integers"),  # read as 1 before
            ([0, 1, 2], [0.0], [8], "must be integers"),
        ],
    )
    def test_bad_replacement_rejected_before_any_write(self, symbols, starts, fresh, message):
        t = text_of(symbols, 10)
        cells = t.cells
        with pytest.raises(ValueError, match=message):
            t.replace_pairs(starts, fresh)
        assert_unchanged(t, symbols, 10)
        assert t.cells is cells

    @pytest.mark.parametrize(
        "starts,fresh,message",
        [
            ([0, 2], [8], "one entry per pair"),
            ([0], [8, 9], "one entry per pair"),
            ([0, 2], 8, "must be a sequence"),
            ({0: 1}, [8], "must be a sequence"),
            (np.array([[0]]), [8], "flat sequence"),
        ],
    )
    def test_one_entry_per_pair(self, starts, fresh, message):
        t = text_of([0, 1, 2, 3, 4], 10)
        with pytest.raises(ValueError, match=message):
            t.replace_pairs(starts, fresh)
        assert_unchanged(t, [0, 1, 2, 3, 4], 10)

    def test_empty_batch_writes_nothing(self):
        t = WorkingText([3, 3])
        t.replace_pairs([], [])
        assert len(t) == 2
        t.compact()
        assert t.live().tolist() == [3, 3]


class TestGatherScatter:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_match_numpy_indexing_across_chunks(self, dtype):
        rng = np.random.default_rng(12)
        table = rng.integers(0, 2**40, 200)
        index = rng.integers(0, 200, 3 * 2**15 + 7).astype(dtype)
        got = gather(table, index)
        assert got.dtype == table.dtype and np.array_equal(got, table[index.astype(np.intp)])
        assert gather(table, index[:0]).shape == (0,)
        values = np.arange(len(index))
        target = np.full(200, -1)
        scatter(target, index, values)
        want = np.full(200, -1)
        for i, v in zip(index.tolist(), values.tolist()):
            want[i] = v  # the last write wins, across chunks too
        assert np.array_equal(target, want)


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
        compact = t.cells
        t.collapse_runs()
        assert t.cells.tolist() == [2, 0, 1, 0] and len(t) == 7
        assert [c.tolist() for c in t.runs] == [[0, 2], [2, 3]]
        cells, runs = t.cells, t.runs
        assert cells is not compact
        t.collapse_runs()  # already in run form
        assert t.cells is cells and t.runs is runs and t.cells.tolist() == [2, 0, 1, 0]

    def test_collapse_runs_leaves_a_text_without_runs_alone(self):
        t = WorkingText([2, 0, 1, 0])
        cells = t.cells
        t.collapse_runs()
        assert t.runs is None and t.cells is cells

    def test_collapse_runs_refuses_a_pending_write(self):
        t = text_of([0, 1, 2], 4)
        t.replace_pairs(np.array([0]), np.array([3]))
        with pytest.raises(StaleTextError):
            t.collapse_runs()

    def test_replace_runs_in_run_order(self):
        t = text_of([2, 2, 0, 1, 1, 1, 0], 6)
        t.collapse_runs()
        t.replace_runs(np.array([4, 5], dtype=np.uint8))
        assert t.runs is None and t.live().tolist() == [4, 0, 5, 0]
        with pytest.raises(StaleTextError, match="no runs"):
            t.replace_runs(np.array([4]))
        assert t.runs is None and t.live().tolist() == [4, 0, 5, 0]

    @pytest.mark.parametrize("fresh, message", [
        ([4], "one entry per pending run"),
        ([4, 5, 4], "one entry per pending run"),
        (4, "must be a sequence"),
        ([4, 6], "outside the working alphabet"),
        ([-1, 5], "outside the working alphabet"),
        ([4.0, 5.0], "integers"),
    ])
    def test_bad_writes_rejected_before_any_write(self, fresh, message):
        t = text_of([2, 2, 0, 1, 1, 1, 0], 6)
        t.collapse_runs()
        with pytest.raises(ValueError, match=message):
            t.replace_runs(fresh)
        assert t.cells.tolist() == [2, 0, 1, 0]
        assert [c.tolist() for c in t.runs] == [[0, 2], [2, 3]]

    def test_pair_write_refused_while_runs_are_pending(self):
        t = text_of([2, 2, 0, 1], 6)
        t.collapse_runs()
        with pytest.raises(StaleTextError, match="runs are pending"):
            t.replace_pairs([1], [5])
        assert t.kept is None and t.cells.tolist() == [2, 0, 1] and len(t) == 4

    def test_canonical_refuses_a_pending_write(self):
        t = text_of([0, 1, 2], 4)
        t.replace_pairs(np.array([0]), np.array([3]))
        with pytest.raises(StaleTextError):
            t.canonical(np.int64)
