import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SortRecord,
    canonical_of,
    radix_sort,
    reference_first_occurrence_ids,
    reference_rename_dense,
)

from slpcompress.alphabet import (
    AlphabetMap,
    InputFormatError,
    ingest,
    radix_argsort,
    rename_dense,
)


class TestIngest:
    def test_bytes_first_occurrence(self):
        text, amap = ingest(b"abab")
        assert text.to_list() == [0, 1, 0, 1]
        assert amap.terminal_count == 2
        assert amap.terminal_of_id == [ord("a"), ord("b")]

    def test_empty(self):
        text, amap = ingest(b"")
        assert text.to_list() == []
        assert amap.terminal_count == 0

    def test_first_occurrence_order_not_value_order(self):
        text, amap = ingest(b"cba")
        assert text.to_list() == [0, 1, 2]
        assert amap.terminal_of_id == [ord("c"), ord("b"), ord("a")]

    def test_tokens(self):
        text, amap = ingest([500, 7, 500, 9])
        assert text.to_list() == [0, 1, 0, 2]
        assert amap.terminal_of_id == [500, 7, 9]
        assert amap.input_kind == "tokens"

    def test_token_ceiling(self):
        ingest([2**32 - 1])  # at the ceiling: fine
        with pytest.raises(InputFormatError):
            ingest([2**32])
        with pytest.raises(InputFormatError):
            ingest([-1])

    @given(
        st.one_of(
            st.lists(st.floats(), min_size=1),
            st.lists(st.booleans(), min_size=1),
            st.lists(st.one_of(st.integers(0, 9), st.floats()), min_size=1).filter(
                lambda xs: any(isinstance(x, float) for x in xs)
            ),
            st.lists(st.integers(min_value=2**64), min_size=1),
            st.lists(st.integers(max_value=-(2**63) - 1), min_size=1),
            st.lists(st.text(), min_size=1),
            st.text(min_size=1),
            st.lists(st.floats(), min_size=1).map(np.asarray),
            st.lists(st.lists(st.integers(0, 9), min_size=1), min_size=1),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_non_integer_tokens_rejected(self, raw):
        # Silent truncation to int would break the round-trip promise.
        with pytest.raises(InputFormatError):
            ingest(raw)

    @given(
        st.lists(st.integers(0, 2**32 - 1), max_size=50),
        st.sampled_from([None, np.uint32, np.int64, np.uint64]),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_tokens_accepted_in_any_integer_dtype(self, values, dtype):
        raw = values if dtype is None else np.asarray(values, dtype=dtype)
        text, amap = ingest(raw)
        assert [amap.terminal_of_id[i] for i in text.to_list()] == values

    @pytest.mark.parametrize(
        "values",
        [
            [7],
            [7] * 5,
            list(range(40, 0, -1)),
            [0, 2**32 - 1, 0, 5, 2**32 - 1],
            [2**32 - 1, 3, 0],
            [i * 999_999_937 % 2**32 for i in (3, 1, 4, 1, 4, 2)],
        ],
        ids=["single", "single-run", "distinct", "extremes", "extremes-first", "strided"],
    )
    def test_tokens_match_comparison_sort_reference(self, values):
        arr = np.asarray(values, dtype=np.int64)
        want_ids, want_terminals = reference_first_occurrence_ids(arr)
        text, amap = ingest(arr, "tokens")
        assert text.to_list() == want_ids.tolist()
        assert amap.terminal_of_id == want_terminals
        assert arr.tolist() == values  # the caller's array is read, not reused

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_tokens_match_comparison_sort_reference(self, values):
        arr = np.asarray(values, dtype=np.int64)
        want_ids, want_terminals = reference_first_occurrence_ids(arr)
        text, amap = ingest(arr, "tokens")
        assert text.to_list() == want_ids.tolist()
        assert amap.terminal_of_id == want_terminals

    def test_sigma_bounded(self):
        text, amap = ingest(bytes(range(256)) * 3)
        assert amap.terminal_count == 256
        assert len(text) == 768


class TestRadixSort:
    def test_small_hand_case(self):
        recs = [SortRecord((2, 1)), SortRecord((1, 9)), SortRecord((2, 0))]
        out = radix_sort(recs, (3, 10))
        assert [r.key for r in out] == [(1, 9), (2, 0), (2, 1)]

    def test_already_sorted_and_stable(self):
        recs = [
            SortRecord((1, 1), "first"),
            SortRecord((1, 1), "second"),
            SortRecord((2, 0), "third"),
        ]
        out = radix_sort(recs, (3, 3))
        assert [r.payload for r in out] == ["first", "second", "third"]

    def test_random_matches_comparison_sort(self):
        rng = np.random.default_rng(42)
        keys = [(int(a), int(b)) for a, b in zip(
            rng.integers(0, 1000, 10**5), rng.integers(0, 70000, 10**5)
        )]
        recs = [SortRecord(k, i) for i, k in enumerate(keys)]
        out = radix_sort(recs, (1000, 70000))
        oracle = sorted(recs, key=lambda r: r.key)  # Timsort is stable too
        assert [r.payload for r in out] == [r.payload for r in oracle]

    def test_component_out_of_bound(self):
        with pytest.raises(ValueError):
            radix_sort([SortRecord((5,))], (5,))
        with pytest.raises(ValueError):
            radix_sort([SortRecord((-1,))], (5,))

    def test_bound_wider_than_63_bits(self):
        keys = np.array([2**63 - 1, 0], dtype=np.int64)
        with pytest.raises(ValueError):
            radix_argsort(keys, 2**63 + 1)
        assert radix_argsort(keys, 2**63).tolist() == [1, 0]

    def test_three_components(self):
        recs = [SortRecord((1, 0, 5)), SortRecord((0, 9, 9)), SortRecord((1, 0, 4))]
        out = radix_sort(recs, (2, 10, 10))
        assert [r.key for r in out] == [(0, 9, 9), (1, 0, 4), (1, 0, 5)]

    def test_empty(self):
        assert radix_sort([], (4,)) == []

    def test_key_width_mismatch(self):
        with pytest.raises(ValueError):
            radix_sort([SortRecord((1, 2))], (4,))

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 100000))))
    @settings(max_examples=60)
    def test_permutation_and_sorted(self, keys):
        recs = [SortRecord(k, i) for i, k in enumerate(keys)]
        out = radix_sort(recs, (31, 100001))
        assert sorted(r.payload for r in out) == list(range(len(keys)))
        assert [r.key for r in out] == sorted(keys)


def _synthetic_map(base, canon):
    amap = AlphabetMap(input_kind="tokens", terminal_of_id=list(range(max(canon) + 1 if canon else 0)))
    amap._rebase(base, np.asarray(canon, dtype=np.int64))
    return amap


class TestRenameDense:
    def test_hand_trace(self):
        # Working interval [5..9], aliases are the identity; next fresh id is 10.
        from slpcompress.text import WorkingText

        amap = _synthetic_map(5, [5, 6, 7, 8, 9])
        text = WorkingText([7, 9, 7])
        rename_dense(text, amap)
        assert text.to_list() == [10, 11, 10]
        assert canonical_of(amap, 10) == 7
        assert canonical_of(amap, 11) == 9

    def test_empty_text(self):
        from slpcompress.text import WorkingText

        amap = _synthetic_map(0, [0, 1])
        text = WorkingText([])
        rename_dense(text, amap)
        assert text.to_list() == []
        assert amap.next_working == 2

    def test_idempotence_up_to_offset(self):
        from slpcompress.text import WorkingText

        amap = _synthetic_map(0, list(range(4)))
        text = WorkingText([3, 1, 3, 0])
        rename_dense(text, amap)
        once = [s - min(text.to_list()) for s in text.to_list()]
        rename_dense(text, amap)
        twice = [s - min(text.to_list()) for s in text.to_list()]
        assert once == twice == [0, 1, 0, 2]

    def test_occurring_symbols_form_interval(self):
        from slpcompress.text import WorkingText

        rng = np.random.default_rng(3)
        for _ in range(25):
            width = int(rng.integers(1, 40))
            n = int(rng.integers(0, 200))
            syms = rng.integers(0, width, n)
            amap = _synthetic_map(0, list(range(width)))
            text = WorkingText(syms)
            rename_dense(text, amap)
            live = text.to_list()
            if live:
                distinct = sorted(set(live))
                assert distinct == list(range(min(live), max(live) + 1))
                # canonical ids are preserved through the rename
                originals = [canonical_of(amap, s) for s in live]
                assert originals == [int(s) for s in syms]

    def test_canonicals_recoverable_through_two_renames(self):
        from slpcompress.text import WorkingText

        amap = _synthetic_map(0, list(range(5)))
        text = WorkingText([4, 2, 4, 1])
        rename_dense(text, amap)
        rename_dense(text, amap)
        assert [canonical_of(amap, s) for s in text.to_list()] == [4, 2, 4, 1]


    def test_matches_reference_on_shifted_intervals(self):
        from slpcompress.text import WorkingText

        rng = np.random.default_rng(17)
        for _ in range(200):
            base = int(rng.integers(0, 5000))
            width = int(rng.integers(1, 300))
            canon = rng.choice(4 * width, width, replace=False)
            # Some ids of the interval do not occur in the text.
            used = base + rng.choice(width, int(rng.integers(1, width + 1)), replace=False)
            syms = rng.choice(used, int(rng.integers(0, 600)))
            got, want = WorkingText(syms), WorkingText(syms)
            got_map, want_map = _synthetic_map(base, canon.tolist()), _synthetic_map(base, canon.tolist())
            rename_dense(got, got_map)
            reference_rename_dense(want, want_map)
            assert np.array_equal(got.cells, want.cells)
            assert got_map.alias_base == want_map.alias_base
            assert np.array_equal(got_map.alias_table, want_map.alias_table)


class TestAllocateWorking:
    def test_alias_total_and_injective(self):
        amap = _synthetic_map(0, [0, 1, 2])
        fresh = amap.allocate_working(np.array([10, 11]))
        assert fresh.tolist() == [3, 4]
        assert canonical_of(amap, 3) == 10
        assert canonical_of(amap, 4) == 11
        seen = {canonical_of(amap, w) for w in range(amap.alias_base, amap.next_working)}
        assert len(seen) == amap.next_working - amap.alias_base

    def test_out_of_interval_rejected(self):
        amap = _synthetic_map(5, [0, 1])
        with pytest.raises(ValueError):
            canonical_of(amap, 4)
        with pytest.raises(ValueError):
            canonical_of(amap, 7)


def test_radix_argsort_matches_lexsort():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 50, 5000)
    b = rng.integers(0, 1 << 20, 5000)
    order = radix_argsort(a * (1 << 20) + b, 50 << 20)
    oracle = np.lexsort((np.arange(5000), b, a))
    assert np.array_equal(order, oracle)


def test_radix_argsort_multi_digit_component():
    # A 40-bit bound needs three 16-bit digit passes.
    rng = np.random.default_rng(12)
    a = rng.integers(0, 1 << 40, 3000)
    order = radix_argsort(a, 1 << 40)
    assert np.array_equal(a[order], np.sort(a))


def test_radix_argsort_pair_key_wider_than_16_bits():
    # Pair keys at the alphabet width of a late phase on 2M symbols: 33 bits,
    # so three digit passes where the two 17-bit columns took four.
    width = 78970
    rng = np.random.default_rng(13)
    a = rng.integers(0, width, 20000)
    b = rng.integers(0, width, 20000)
    order = radix_argsort(a * width + b, width * width)
    oracle = np.lexsort((np.arange(20000), b, a))
    assert np.array_equal(order, oracle)
