import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    SortRecord,
    canonical_of,
    live_list,
    radix_sort,
    reference_first_occurrence_ids,
    reference_rename_dense,
    reference_runs,
)

from slpcompress import alphabet
from slpcompress.alphabet import (
    InputFormatError,
    count_distinct,
    ingest,
    radix_argsort,
    rank_keys,
    rename_dense,
)
from slpcompress.text import StaleTextError, WorkingText, narrow_dtype


class TestIngest:
    def test_bytes_first_occurrence(self):
        text, kind, terminals = ingest(b"abab")
        assert live_list(text) == [0, 1, 0, 1]
        assert kind == "bytes"
        assert terminals == [ord("a"), ord("b")]
        assert text.width == 2

    def test_empty(self):
        text, _, terminals = ingest(b"")
        assert live_list(text) == []
        assert terminals == []
        assert text.width == 0

    def test_first_occurrence_order_not_value_order(self):
        text, _, terminals = ingest(b"cba")
        assert live_list(text) == [0, 1, 2]
        assert terminals == [ord("c"), ord("b"), ord("a")]

    def test_tokens(self):
        text, kind, terminals = ingest([500, 7, 500, 9])
        assert live_list(text) == [0, 1, 0, 2]
        assert terminals == [500, 7, 9]
        assert kind == "tokens"

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_byte_strings_accepted_as_bytes(self, wrap):
        text, kind, terminals = ingest(wrap(b"abca"), kind="bytes")
        assert (live_list(text), kind, terminals) == ([0, 1, 2, 0], "bytes", [97, 98, 99])

    @pytest.mark.parametrize(
        "raw, name", [(5, "int"), ([97, 98], "list"), ("ab", "str")], ids=["int", "list", "str"]
    )
    def test_other_bytes_input_rejected(self, raw, name):
        # bytes(5) is five zero bytes and bytes([97, 98]) is b"ab": never guess.
        with pytest.raises(InputFormatError, match=f"bytes input must be .*, not {name}$"):
            ingest(raw, kind="bytes")

    @pytest.mark.parametrize(
        "raw", [[1, True], [np.int64(3), True], [1, np.True_], [3, True, 3, 1]],
        ids=["True", "np.int64-True", "np.True_", "among-repeats"],
    )
    def test_bools_among_int_tokens_rejected(self, raw):
        # numpy reads such a list as int64, so True would become the token 1.
        with pytest.raises(InputFormatError, match="tokens must be integers, not bool"):
            ingest(raw)

    def test_tokens_must_be_flat(self):
        with pytest.raises(InputFormatError, match="flat sequence"):
            ingest(np.zeros((2, 2), dtype=np.int64))

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
        text, _, terminals = ingest(raw)
        assert [terminals[i] for i in live_list(text)] == values

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
        text, _, terminals = ingest(arr, "tokens")
        assert live_list(text) == want_ids.tolist()
        assert terminals == want_terminals
        assert arr.tolist() == values  # the caller's array is read, not reused

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_tokens_match_comparison_sort_reference(self, values):
        arr = np.asarray(values, dtype=np.int64)
        want_ids, want_terminals = reference_first_occurrence_ids(arr)
        text, _, terminals = ingest(arr, "tokens")
        assert live_list(text) == want_ids.tolist()
        assert terminals == want_terminals

    @staticmethod
    def runs(rng, run_mean, n):
        """``n`` seeded 32-bit tokens over 50 values, in geometric runs of mean ``run_mean``."""
        values = rng.integers(0, 2**32, 50)[rng.integers(0, 50, n)]
        return np.repeat(values, rng.geometric(1 / run_mean, n))[:n]

    @pytest.mark.parametrize(
        "shape", ["long-runs", "no-runs", "single-run", "runs-at-both-ends", "empty"]
    )
    def test_run_shapes_match_comparison_sort_reference(self, shape):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            if shape == "long-runs":
                arr = self.runs(rng, 30, n)
            elif shape == "no-runs":  # as in the golden corpus's wide_tokens
                arr = rng.integers(0, 2**32, n)
                arr = arr[np.append(True, arr[1:] != arr[:-1])]
            elif shape == "single-run":
                arr = np.full(n, rng.integers(0, 2**32))
            elif shape == "runs-at-both-ends":
                head, tail = rng.integers(0, 2**32, 2)
                arr = np.concatenate([np.full(n, head), self.runs(rng, 2, n), np.full(n, tail)])
            else:
                arr = np.empty(0, dtype=np.int64)
            want_ids, want_terminals = reference_first_occurrence_ids(arr)
            text, _, terminals = ingest(arr, "tokens")
            assert live_list(text) == want_ids.tolist()
            assert terminals == want_terminals
            assert text.width == len(want_terminals)

    @pytest.mark.parametrize(
        "raw",
        [5, 2.5, None, object(), {5: 1}, {5}, iter([5])],
        ids=["int", "float", "None", "object", "dict", "set", "iterator"],
    )
    @pytest.mark.parametrize("kind", ["tokens", None])
    def test_non_sequence_rejected(self, raw, kind):
        with pytest.raises(InputFormatError, match="tokens must be a sequence, not"):
            ingest(raw, kind=kind)

    def test_sigma_bounded(self):
        text, _, terminals = ingest(bytes(range(256)) * 3)
        assert len(terminals) == 256
        assert len(text) == 768


def run_form(text) -> tuple[list[int], list[tuple[int, int]]]:
    """The text's cells and its pending runs as (head cell, length) pairs."""
    at, lengths = text.runs if text.runs is not None else ([], [])
    return text.cells.tolist(), list(zip(np.asarray(at).tolist(), np.asarray(lengths).tolist()))


class TestIngestRuns:
    """``ingest`` keeps one cell per maximal run and hands on the runs of length >= 2."""

    CASES = {
        "empty": b"",
        "one-symbol": b"q",
        "unary-2": b"a" * 2,
        "unary-3": b"a" * 3,
        "unary-1023": b"a" * 1023,
        "unary-4096": b"a" * 4096,
        "no-runs": b"abcabacbca",
        "all-runs": b"aabbbaaaacccccbbzz",
        "runs-at-both-ends": b"xxxxabcyyy",
        "mixed": b"abbcccdaab",
    }

    @pytest.mark.parametrize("data", CASES.values(), ids=CASES.keys())
    def test_matches_scalar_reference(self, data):
        text, kind, terminals = ingest(data)
        heads, blocks = reference_runs(list(data))
        cells, runs = run_form(text)
        assert [terminals[i] for i in cells] == heads
        assert runs == blocks
        assert len(text) == len(data)
        assert live_list(text) == reference_first_occurrence_ids(np.frombuffer(data, np.uint8))[0].tolist()
        # Tokens of the same values give the same text and runs.
        tokens = [v * 2654435761 % 2**32 for v in data]
        token_text, token_kind, token_terminals = ingest(tokens)
        assert (kind, token_kind) == ("bytes", "tokens")
        assert run_form(token_text) == (cells, runs)
        assert token_terminals == [v * 2654435761 % 2**32 for v in terminals]

    def test_unary_words_are_one_run(self):
        for n in (2, 3, 5, 2**10 - 1, 2**10, 2**10 + 1, 2**17):
            text = ingest(b"a" * n)[0]
            assert run_form(text) == ([0], [(0, n)])
            assert len(text) == n

    def test_without_runs_the_text_is_compact(self):
        text = ingest([3, 1, 4, 1, 5, 9, 2, 6])[0]
        assert text.runs is None
        assert text.live().tolist() == [0, 1, 2, 1, 3, 4, 5, 6]

    def test_pending_runs_hold_the_text(self):
        text = ingest(b"aab")[0]
        with pytest.raises(StaleTextError, match="runs are pending"):
            text.live()
        spread = text.canonical(np.uint8)
        assert spread.dtype == np.uint8 and spread.tolist() == [0, 0, 1]
        assert len(text) == 3 and text.cells.tolist() == [0, 1]

    @given(st.lists(st.integers(0, 3), max_size=200), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_random_runs_match_scalar_reference(self, values, as_bytes):
        raw = bytes(values) if as_bytes else [v * 2654435761 % 2**32 for v in values]
        text, _, terminals = ingest(raw)
        heads, blocks = reference_runs(list(raw))
        cells, runs = run_form(text)
        assert [terminals[i] for i in cells] == heads
        assert runs == blocks
        assert len(text) == len(values)


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


def _text_over(symbols, canon):
    """A text of ``symbols`` whose working id ``w`` aliases canonical id ``canon[w]``."""
    text = WorkingText(symbols)
    text.alias = np.asarray(canon, dtype=np.int64)
    return text


class TestRenameDense:
    def test_hand_trace(self):
        # Working ids 0..4 alias canonical 5..9; 1 and 3 do not occur.
        text = _text_over([2, 4, 2], [5, 6, 7, 8, 9])
        rename_dense(text)
        assert live_list(text) == [0, 1, 0]
        assert text.width == 2
        assert canonical_of(text, 0) == 7
        assert canonical_of(text, 1) == 9

    def test_empty_text(self):
        text = _text_over([], [0, 1])
        rename_dense(text)
        assert live_list(text) == []
        assert text.width == 0

    def test_idempotent(self):
        text = _text_over([3, 1, 3, 0], list(range(4)))
        rename_dense(text)
        once = live_list(text)
        rename_dense(text)
        assert once == live_list(text) == [0, 1, 0, 2]
        assert text.width == 3

    def test_occurring_symbols_form_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            width = int(rng.integers(1, 40))
            n = int(rng.integers(0, 200))
            syms = rng.integers(0, width, n)
            text = _text_over(syms, list(range(width)))
            rename_dense(text)
            live = live_list(text)
            if live:
                assert sorted(set(live)) == list(range(text.width))
                # canonical ids are preserved through the rename
                originals = [canonical_of(text, s) for s in live]
                assert originals == [int(s) for s in syms]

    def test_canonicals_recoverable_through_two_renames(self):
        text = _text_over([4, 2, 4, 1], list(range(5)))
        rename_dense(text)
        rename_dense(text)
        assert [canonical_of(text, s) for s in live_list(text)] == [4, 2, 4, 1]

    def test_keeps_each_live_symbols_canonical_id(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            width = int(rng.integers(1, 60))
            canon = rng.choice(10 * width, width, replace=False)
            syms = rng.integers(0, width, int(rng.integers(1, 200)))
            text = _text_over(syms, canon)
            before = text.alias[text.live()].tolist()
            rename_dense(text)
            assert text.alias[text.live()].tolist() == before == canon[syms].tolist()

    def test_matches_reference_on_random_alias_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            width = int(rng.integers(1, 300))
            canon = rng.choice(40 * width, width, replace=False)
            # Some ids of the working alphabet do not occur in the text.
            used = rng.choice(width, int(rng.integers(1, width + 1)), replace=False)
            syms = rng.choice(used, int(rng.integers(0, 600)))
            got, want = _text_over(syms, canon), _text_over(syms, canon)
            rename_dense(got)
            reference_rename_dense(want)
            assert np.array_equal(got.cells, want.cells)
            assert np.array_equal(got.alias, want.alias)
            assert got.width == len(set(syms.tolist()))


class TestWorkingAlphabet:
    def test_new_text_alias_is_identity_over_its_symbols(self):
        text = WorkingText([3, 0, 3])
        assert text.alias.tolist() == [0, 1, 2, 3]
        assert text.width == 4
        assert WorkingText([]).width == 0

    def test_mint_continues_from_width(self):
        text = ingest(b"abcab")[0]
        assert text.mint(np.array([7])).tolist() == [3]
        text = _text_over([4, 2, 4], list(range(10, 15)))
        rename_dense(text)
        assert text.width == 2
        assert text.mint(np.array([20, 21])).tolist() == [2, 3]
        assert text.mint(np.empty(0, dtype=np.int64)).tolist() == []
        assert text.alias.tolist() == [14, 12, 20, 21]

    def test_alias_total_and_injective(self):
        text = WorkingText([0, 1, 2])
        fresh = text.mint(np.array([10, 11]))
        assert fresh.tolist() == [3, 4]
        assert canonical_of(text, 3) == 10
        assert canonical_of(text, 4) == 11
        seen = {canonical_of(text, w) for w in range(text.width)}
        assert len(seen) == text.width == 5

    @pytest.mark.parametrize(
        "canonical_ids,message",
        [
            ([1.5], "must be integers, not float"),  # aliased as 1 before
            ([True], "must be integers, not bool"),  # aliased as 1 before
            ([-3], "non-negative"),  # aliased as -3 before
            (np.array([2.5]), "must be integers, not float64"),
            (np.array([4, -1]), "non-negative"),
        ],
    )
    def test_mint_refuses_what_is_not_a_canonical_id(self, canonical_ids, message):
        text = WorkingText([0, 1])
        with pytest.raises(ValueError, match=message):
            text.mint(canonical_ids)
        assert text.width == 2
        assert text.alias.tolist() == [0, 1]

    @pytest.mark.parametrize(
        "symbols,message",
        [
            ([1.7, 2.9], "must be integers, not float"),  # truncated to [1, 2] before
            (np.array([1.5]), "must be integers, not float64"),
            (np.array([True, False]), "must be integers, not bool"),  # read as [1, 0] before
            ([1, True], "must be integers, not bool"),  # read as [1, 1] before
            (["1", "2"], "must be integers, not str"),  # parsed before
            ([0, -1], "non-negative"),
            (np.array([[0, 1]]), "flat sequence"),
            (5, "must be a sequence"),
        ],
    )
    def test_constructor_refuses_what_is_not_a_symbol(self, symbols, message):
        with pytest.raises(ValueError, match=message):
            WorkingText(symbols)

    @pytest.mark.parametrize("dtype", np.typecodes["AllInteger"])
    def test_constructor_reads_lists_and_every_integer_dtype_alike(self, dtype):
        symbols = [3, 0, 2, 0, 127]
        text = WorkingText(np.array(symbols, dtype=dtype))
        assert text.cells.dtype == np.uint8  # holds width 128, plus 2 runs and 2 pairs
        assert text.cells.tolist() == WorkingText(symbols).cells.tolist() == symbols
        assert text.width == WorkingText(symbols).width == 128
        assert WorkingText([np.int8(1), 2]).cells.tolist() == [1, 2]


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


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.uint32, np.uint64])
def test_radix_argsort_reads_narrow_keys_as_their_int64_copy(dtype):
    rng = np.random.default_rng(15)
    top = min(int(np.iinfo(dtype).max), 2**63 - 1)  # bound is at most 2**63
    keys = rng.integers(0, top, 4000, endpoint=True, dtype=dtype)
    order = radix_argsort(keys, top + 1)
    assert np.array_equal(order, radix_argsort(keys.astype(np.int64), top + 1))
    assert np.array_equal(order, np.argsort(keys, kind="stable"))


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


@pytest.mark.parametrize("bound", [1, 2**16, 2**16 + 1, 2**32, 2**63])
def test_radix_argsort_matches_stable_argsort(bound):
    rng = np.random.default_rng(14)
    assert radix_argsort(np.empty(0, dtype=np.int64), bound).tolist() == []
    # Few low digits under many high ones, so later passes must keep ties in order.
    high = rng.integers(0, max(bound >> 16, 1), 3000, dtype=np.int64)
    low = rng.integers(0, 3, 3000, dtype=np.int64)
    uniform = rng.integers(0, bound - 1, 3000, dtype=np.int64, endpoint=True)
    keys = np.concatenate([np.minimum((high << 16) | low, bound - 1), uniform, [0, bound - 1]])
    assert np.array_equal(radix_argsort(keys, bound), np.argsort(keys, kind="stable"))


def check_rank_keys(keys, bound):
    """``rank_keys`` and ``count_distinct`` against ``np.unique``.

    Returns whether they radix sorted.
    """
    calls = []

    def spy(*args):
        calls.append(args)
        return radix_argsort(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alphabet, "radix_argsort", spy)
        ranks, distinct, counts = rank_keys(keys, bound)
        ranked = len(calls)
        assert count_distinct(keys, bound) == len(distinct)
    assert len(calls) == 2 * ranked  # both took the same path
    oracle, inverse, oracle_counts = np.unique(keys, return_inverse=True, return_counts=True)
    assert ranks.dtype == narrow_dtype(len(distinct))
    assert distinct.dtype == np.asarray(keys).dtype
    assert counts.dtype == narrow_dtype(int(counts.max(initial=0)) + 1)
    assert ranks.tolist() == inverse.tolist()
    assert distinct.tolist() == oracle.tolist()
    assert counts.tolist() == oracle_counts.tolist()
    return bool(calls)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
@pytest.mark.parametrize("seed", range(3))
def test_rank_keys_counts_up_to_its_key_count_and_radix_sorts_past_it(dtype, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 250))  # so every bound below fits uint8 keys
    for bound, radix in [(n - 1, False), (n, False), (n + 1, True)]:
        keys = rng.integers(0, bound, n, dtype=dtype)
        keys[:2] = [0, bound - 1]
        assert check_rank_keys(keys, bound) is radix, bound


def test_rank_keys_wide_sparse_keys():
    # Many digit passes, few repeats, and more than 255 distinct keys.
    rng = np.random.default_rng(30)
    keys = rng.integers(0, 1 << 40, 3000, dtype=np.int64)
    keys[1000:1100] = keys[:100]
    assert check_rank_keys(keys, 1 << 40)


@pytest.mark.parametrize("bound", [0, 1, 5])
def test_rank_keys_empty(bound):
    check_rank_keys(np.empty(0, dtype=np.int64), bound)
