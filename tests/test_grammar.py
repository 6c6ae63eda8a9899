import random
import re
import tracemalloc

import numpy as np
import pytest
import test_golden
from helpers import (
    bodies,
    body_of,
    compress_in_reference_order,
    powers_of_two,
    reference_check_structure,
    reference_deserialize,
    reference_expand_ids,
    reference_grammar_depth,
    reference_prune_unreachable,
    reference_serialize,
    reference_symbol_lengths,
    slp_of,
)

from slpcompress import driver, grammar
from slpcompress.alphabet import TOKEN_VALUE_CEILING
from slpcompress.driver import compress
from slpcompress.grammar import (
    _BATCH,
    MAX_EXPANSION,
    ExpansionOverflow,
    GrammarError,
    Slp,
    deserialize,
    expand,
    expand_ids,
    format_tokens,
    grammar_depth,
    prune_unreachable,
    serialize,
    symbol_lengths,
)
from slpcompress.text import concat_ranges


def naive_expand(slp, symbol):
    """Independent recursive expansion oracle (terminal-id list)."""
    if symbol < slp.terminal_count:
        return [symbol]
    out = []
    for s in body_of(slp, symbol):
        out.extend(naive_expand(slp, s))
    return out


def unary_chain(rules):
    """Rule i derives a^(i+2): each rule is the one before it plus a letter."""
    slp = Slp("bytes", [ord("a")])
    slp.emit_rules(np.full(rules, 2), np.column_stack([np.arange(rules), np.zeros(rules, int)]).ravel())
    slp.start = rules
    return slp


def random_slp(rng, kind="bytes", max_rules=40, max_expansion=10**6):
    sigma = rng.randrange(1, 6)
    terminals = rng.sample(range(256), sigma)
    slp = Slp(kind, terminals)
    lengths = [1] * sigma
    for _ in range(rng.randrange(0, max_rules)):
        body = []
        total = 0
        for _ in range(rng.randrange(1, 5)):
            s = rng.randrange(slp.symbol_count)
            if total + lengths[s] > max_expansion:
                continue
            body.append(s)
            total += lengths[s]
        if not body:
            body = [rng.randrange(sigma)]
            total = 1
        slp.emit_rule(body)
        lengths.append(total)
    slp.start = rng.randrange(slp.symbol_count)
    return slp


class TestEmitRule:
    def test_ids_and_size(self):
        slp = Slp("bytes", [ord("a")])
        a2 = slp.emit_rule([0, 0])
        a4 = slp.emit_rule([a2, a2])
        assert (a2, a4) == (1, 2)
        assert slp.size == 4

    def test_forward_reference_rejected(self):
        slp = Slp("bytes", [ord("a")])
        with pytest.raises(GrammarError):
            slp.emit_rule([0, 2])  # id 2 not yet defined
        with pytest.raises(GrammarError):
            slp.emit_rule([1])  # self reference

    def test_empty_body_rejected(self):
        slp = Slp("bytes", [ord("a")])
        with pytest.raises(GrammarError):
            slp.emit_rule([])

    def test_bulk_append_matches_one_at_a_time(self):
        one = Slp("bytes", [ord("a"), ord("b")])
        for body in ([0, 1], [2, 2, 0], [3]):
            one.emit_rule(body)
        bulk = Slp("bytes", [ord("a"), ord("b")])
        assert bulk.emit_rules([2, 3, 1], [0, 1, 2, 2, 0, 3]).tolist() == [2, 3, 4]
        assert bodies(bulk) == bodies(one)
        assert bulk.size == one.size
        assert bulk.emit_rules([], []).tolist() == []

    @pytest.mark.parametrize(
        "counts,flat",
        [
            ([2, 0], [0, 1]),  # empty body
            ([2, 2], [0, 1, 0, 3]),  # self reference
            ([2, 1], [0, 4, 0]),  # forward reference
            ([2], [0, -1]),  # negative symbol
            ([2, 2], [0, 1, 0]),  # counts and symbols disagree
        ],
    )
    def test_bulk_append_rejects(self, counts, flat):
        slp = Slp("bytes", [ord("a"), ord("b")])
        with pytest.raises(GrammarError):
            slp.emit_rules(counts, flat)
        assert bodies(slp) == [] and slp.size == 0

    def test_pair_rules_match_one_at_a_time(self):
        rng = random.Random(12)
        for _ in range(50):
            one = Slp("tokens", [5, 7, 9])
            bulk = Slp("tokens", [5, 7, 9])
            firsts, seconds = [], []
            for i in range(rng.randrange(1, 30)):
                # A pair may use any earlier pair of the same batch.
                firsts.append(rng.randrange(3 + i))
                seconds.append(rng.randrange(3 + i))
            ids = [one.emit_rule((a, b)) for a, b in zip(firsts, seconds)]
            assert bulk.emit_pair_rules(np.array(firsts), np.array(seconds)).tolist() == ids
            assert np.array_equal(bulk.counts, one.counts)
            assert np.array_equal(bulk.flat, one.flat)

    def test_empty_pair_batch(self):
        slp = Slp("bytes", [ord("a")])
        empty = np.empty(0, dtype=np.int64)
        assert slp.emit_pair_rules(empty, empty).tolist() == []
        assert bodies(slp) == [] and slp.size == 0

    @pytest.mark.parametrize(
        "firsts,seconds,message",
        [
            ([0, -1], [1, 0], "rule 3 references symbol -1"),
            ([0, 1], [1, 3], "rule 3 references symbol 3"),  # itself
            ([0, 5], [1, 0], "rule 3 references symbol 5"),
        ],
    )
    def test_pair_rules_reject_undefined_symbols(self, firsts, seconds, message):
        slp = Slp("bytes", [ord("a"), ord("b")])
        with pytest.raises(GrammarError, match=message):
            slp.emit_pair_rules(np.array(firsts), np.array(seconds))
        assert bodies(slp) == [] and slp.size == 0

    def test_random_chains_validate(self):
        rng = random.Random(99)
        for _ in range(200):
            slp = random_slp(rng, max_rules=50)
            symbol_lengths(slp)


@pytest.mark.parametrize(
    "body", [(0.7, 1.2), (0.0, 1.0), ("0", "1")], ids=["float", "whole-float", "str"]
)
class TestNonIntegerBodySymbols:
    """Every way body symbols enter refuses non-integers instead of truncating them."""

    def test_constructor(self, body):
        with pytest.raises(GrammarError, match="must be integers"):
            slp_of("bytes", [97, 98], [(0, 1), body])

    def test_from_arrays(self, body):
        with pytest.raises(GrammarError, match="must be integers"):
            Slp.from_arrays("bytes", [97, 98], [2], list(body))

    def test_emit_rule(self, body):
        slp = Slp("bytes", [97, 98])
        with pytest.raises(GrammarError, match="must be integers"):
            slp.emit_rule(body)
        assert slp.size == 0

    def test_emit_rules(self, body):
        slp = Slp("bytes", [97, 98])
        with pytest.raises(GrammarError, match="must be integers"):
            slp.emit_rules([2], list(body))
        assert slp.size == 0

    def test_emit_pair_rules(self, body):
        slp = Slp("bytes", [97, 98])
        with pytest.raises(GrammarError, match="must be integers"):
            slp.emit_pair_rules(np.array(body[:1]), np.array(body[1:]))
        assert slp.size == 0

    def test_rule_write(self, body):
        slp = slp_of("bytes", [97, 98], [(0, 1)], start=2)
        with pytest.raises(GrammarError, match="must be integers"):
            slp.rules[0] = body
        assert bodies(slp) == [(0, 1)]


@pytest.mark.parametrize(
    "counts", [[1.7], [1.0], [True], np.array([1.9]), np.array([True]), np.array([1], dtype=object)],
    ids=["float", "whole-float", "bool", "float64", "bool-array", "object-array"],
)
class TestNonIntegerCounts:
    """Body counts are refused, not truncated, at both entry points that take them."""

    def test_emit_rules(self, counts):
        slp = Slp("bytes", [97, 98])
        with pytest.raises(GrammarError, match="rule body counts must be integers"):
            slp.emit_rules(counts, [0])
        assert (slp.size, len(slp.counts)) == (0, 0)

    def test_from_arrays(self, counts):
        with pytest.raises(GrammarError, match="rule body counts must be integers"):
            Slp.from_arrays("bytes", [97, 98], counts, [0])


class TestBodySymbolValues:
    """Bools among ints and integers outside int64 are refused by value."""

    @pytest.mark.parametrize("body", [(0, True), (False, 1), (0, np.True_)], ids=["True", "False", "np.True_"])
    def test_bools_among_ints(self, body):
        with pytest.raises(GrammarError, match="must be integers, not bool"):
            slp_of("bytes", [97, 98], [body])
        with pytest.raises(GrammarError, match="must be integers, not bool"):
            Slp.from_arrays("bytes", [97, 98], [2], list(body))
        slp = slp_of("bytes", [97, 98], [(0, 1)], start=2)
        with pytest.raises(GrammarError, match="must be integers, not bool"):
            slp.emit_rule(body)
        with pytest.raises(GrammarError, match="must be integers, not bool"):
            slp.rules[0] = body
        assert bodies(slp) == [(0, 1)]

    @pytest.mark.parametrize("value", [2**63, 2**64, -(2**63) - 1, 10**30])
    def test_integers_outside_int64(self, value):
        # numpy stores these lists as float64, uint64 or object arrays.
        for body in [(value,), (0, value), (value, 0)]:
            with pytest.raises(GrammarError, match=f"must fit in int64, not {value}$"):
                slp_of("bytes", [97], [body])
            with pytest.raises(GrammarError, match=f"must fit in int64, not {value}$"):
                Slp("bytes", [97]).emit_rules([len(body)], list(body))

    def test_uint64_array_above_int64(self):
        flat = np.array([0, 2**63 + 5], dtype=np.uint64)
        with pytest.raises(GrammarError, match=f"must fit in int64, not {2**63 + 5}$"):
            Slp.from_arrays("bytes", [97], [2], flat)
        with pytest.raises(GrammarError, match=f"rule body counts must fit in int64, not {2**64 - 1}$"):
            Slp.from_arrays("bytes", [97], np.array([2**64 - 1], dtype=np.uint64), [0])

    def test_int64_extremes_reach_the_body_check(self):
        for value in (2**63 - 1, -(2**63)):
            with pytest.raises(GrammarError, match=f"references symbol {value} "):
                Slp("bytes", [97]).emit_rule([0, value])

    def test_numpy_integers_accepted(self):
        slp = slp_of("bytes", [97], [(np.int64(0), np.uint8(0))], start=np.int32(1))
        assert bodies(slp) == [(0, 0)]
        slp.emit_rules(np.array([1], dtype=np.uint16), np.array([1], dtype=np.uint64))
        assert bodies(slp) == [(0, 0), (1,)]


class TestExpand:
    def test_power_chain_from_squares(self):
        # a2 -> aa, a3 -> a2 a, a6 -> a3 a3, a12 -> a6 a6 derives 12 a's.
        slp = Slp("bytes", [ord("a")])
        a2 = slp.emit_rule([0, 0])
        a3 = slp.emit_rule([a2, 0])
        a6 = slp.emit_rule([a3, a3])
        a12 = slp.emit_rule([a6, a6])
        slp.start = a12
        assert expand(slp) == b"a" * 12

    def test_terminal_start(self):
        slp = slp_of("bytes", [ord("x")], start=0)
        assert expand(slp) == b"x"

    def test_empty_start(self):
        slp = Slp("bytes", [])
        assert expand(slp) == b""

    def test_token_kind(self):
        slp = Slp("tokens", [42, 7])
        r = slp.emit_rule([0, 1, 0])
        slp.start = r
        assert expand(slp) == [42, 7, 42]

    def test_random_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            slp = random_slp(rng)
            ids = naive_expand(slp, slp.start)
            got = expand(slp)
            want = bytes(slp.terminals[i] for i in ids)
            assert got == want

    def test_deep_chain_no_recursion_limit(self):
        slp = Slp("bytes", [ord("a")])
        prev = 0
        for _ in range(5000):
            prev = slp.emit_rule([prev])
        slp.start = prev
        assert expand(slp) == b"a"

    def test_deep_unary_chain(self):
        # Rule i derives a^(i+1): every level grows by one letter.
        slp = unary_chain(20000)
        assert len(grammar._ranges(slp)) == 20000
        assert expand(slp) == b"a" * 20001
        assert symbol_lengths(slp).tolist() == reference_symbol_lengths(slp)
        assert grammar_depth(slp) == reference_grammar_depth(slp) == 20000
        slp.emit_rule([0, 0])  # unreachable
        assert prune_unreachable(slp) == reference_prune_unreachable(slp)

    def test_empty_body_from_unchecked_constructor(self):
        with pytest.raises(GrammarError, match="rule 1 has an empty body"):
            slp_of("bytes", [97], rules=[(), (0, 1, 0)], start=2)

    @pytest.mark.parametrize("symbol", [-1, -2, 4])
    def test_symbol_out_of_range(self, symbol):
        # Without a range check, -2 read as rule r (b"aa"), -1 as raw heap
        # words and 4 as a bare IndexError.
        slp = slp_of("bytes", [ord("a"), ord("b")], rules=[(0, 1), (2, 2, 2)], start=3)
        assert slp.symbol_count == 4
        with pytest.raises(GrammarError, match=f"symbol {symbol} outside"):
            expand(slp, symbol)
        with pytest.raises(GrammarError, match=f"symbol {symbol} outside"):
            expand_ids(slp, symbol)

    @pytest.mark.parametrize("start", [-1, 4, 1.0, True], ids=["-1", "symbol_count", "float", "bool"])
    @pytest.mark.parametrize("way_in", ["from_arrays", "assignment"])
    def test_unchecked_start_out_of_range(self, way_in, start):
        # A negative start would read the last symbol, and ``serialize`` would
        # write a start that ``load`` refuses.
        terminals, rules = [ord("a"), ord("b")], [(0, 1), (2, 2, 2)]
        slp = slp_of("bytes", terminals, rules, start=3)
        integer = not isinstance(start, (bool, float))
        message = f"symbol {start} outside" if integer else "must be an integer"
        with pytest.raises(GrammarError, match=message):
            if way_in == "from_arrays":
                Slp.from_arrays("bytes", terminals, slp.counts, slp.flat, start)
            else:
                slp.start = start
        # A refused assignment leaves the grammar as it was.
        assert slp.start == 3
        assert expand(slp) == b"ababab"
        assert deserialize(serialize(slp)) == slp

    def test_overflow_detected_before_streaming(self):
        slp = Slp("bytes", [ord("a")])
        prev = 0
        for _ in range(70):  # 2^70 letters
            prev = slp.emit_rule([prev, prev])
        slp.start = prev
        with pytest.raises(ExpansionOverflow):
            expand(slp)

    @pytest.mark.parametrize(
        "terminals",
        [[42, 7], np.array([42, 7], dtype=np.uint32), [np.int64(42), np.uint8(7)]],
    )
    def test_tokens_are_python_ints(self, terminals):
        slp = slp_of("tokens", terminals, rules=[(0, 1, 0)], start=2)
        got = expand(slp)
        assert got == [42, 7, 42]
        assert all(type(v) is int for v in got)

    def test_tokens_match_the_id_path_on_the_golden_corpus(self):
        for slp in golden_grammars():
            lut = np.asarray(slp.terminals, dtype=np.uint8 if slp.kind == "bytes" else np.int64)
            want = lut[expand_ids(slp)]
            got = expand(slp)
            assert got == (want.tobytes() if slp.kind == "bytes" else want.tolist())

    def test_token_list_shares_the_terminal_ints(self):
        # Boxing one int per output symbol took about 48 bytes a symbol.
        slp, chain = doubling_chain(16)
        slp = Slp.from_arrays("tokens", [70000, 80000, 90000], slp.counts, slp.flat, chain[-1])
        n = 2**16
        tracemalloc.start()
        try:
            got = expand(slp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == n and got[0] == 70000
        assert peak <= 24 * n


def assert_matches_reference(slp, symbol=None):
    got = expand_ids(slp, symbol)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_expand_ids(slp, symbol))


def doubling_chain(levels, base=(0,)):
    """Rules X_1..X_levels with X_i = X_{i-1} X_{i-1} and X_0 = ``base``; returns their ids.

    X_0 is a rule when ``base`` has two or more symbols, else terminal ``base[0]``.
    """
    slp = Slp("bytes", [ord("a"), ord("b"), ord("c")])
    x = slp.emit_rule(base) if len(base) > 1 else base[0]
    chain = [x]
    for _ in range(levels):
        chain.append(slp.emit_rule([chain[-1], chain[-1]]))
    return slp, chain


class TestExpandMatchesReference:
    """The batched expander against the memoized walk it replaced."""

    @pytest.fixture(autouse=True)
    def unwritten_cells_read_minus_7(self, monkeypatch):
        # A cell that expand_ids never writes, or a copy that reads one, then
        # shows as -7 instead of passing on stale heap contents.
        empty = np.empty

        def filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.array(-7).astype(out.dtype))
            return out

        monkeypatch.setattr(np, "empty", filled)

    def test_random_grammars_every_symbol(self):
        rng = random.Random(11)
        for _ in range(150):
            slp = random_slp(rng, max_rules=30)
            for symbol in range(slp.symbol_count):
                assert_matches_reference(slp, symbol)

    def test_start_body_split_across_batches(self):
        rng = random.Random(3)
        slp = Slp("bytes", [1, 2, 3])
        r1 = slp.emit_rule([0, 1])
        r2 = slp.emit_rule([r1, 2, r1])
        r3 = slp.emit_rule([r2] * 40)
        body = [rng.choice([0, 1, 2, r1, r2, r3]) for _ in range(3 * _BATCH + 17)]
        slp.start = slp.emit_rule(body)
        assert_matches_reference(slp)

    def test_short_slices_straddle_batch_boundaries(self):
        # m copies of one rule whose body has c symbols: the step after the
        # start holds m slices of c, and the _BATCH cut lands inside, at
        # the end of, or one and two slices before the end of that step.
        for c in (1, 2, 3, 7):
            slp = Slp("tokens", [10, 20, 30])
            rule = slp.emit_rule([i % 3 for i in range(c)])
            fit = -(-_BATCH // c)
            for m in (fit - 1, fit, fit + 1, fit + 2):
                slp.start = slp.emit_rule([rule] * m)
                assert_matches_reference(slp)
        # Bodies of 1..7 symbols, nested, so the cut falls among mixed slices.
        rng = random.Random(4)
        slp = Slp("tokens", [10, 20, 30])
        rules = [slp.emit_rule([rng.randrange(3) for _ in range(k)]) for k in range(1, 8)]
        mid = [slp.emit_rule([rng.choice(rules) for _ in range(rng.randrange(1, 8))])
               for _ in range(200)]
        for n_top in (_BATCH // 4 - 1, _BATCH // 3):
            slp.start = slp.emit_rule([rng.choice(mid + rules) for _ in range(n_top)])
            assert_matches_reference(slp)

    def test_doubling_chain_copies_at_every_level(self):
        # X_0 derives "abc", so a copy read from a shifted source shows.
        slp, chain = doubling_chain(16, base=(0, 1, 2))
        for symbol in chain[::5] + [chain[-1]]:
            assert_matches_reference(slp, symbol)
        # Every level once more, out of order and between terminals.
        slp.start = slp.emit_rule([chain[16], 1, chain[3], chain[12], 2, chain[15], chain[3]])
        assert_matches_reference(slp)

    def test_unit_rules_over_a_long_repeated_rule(self):
        # Y_k -> Y_{k-1} over a long X: equal lengths, and the copies of
        # each Y_k read the region that a copy of Y_{k-1} or X fills.
        slp = Slp("tokens", [10, 20, 30])
        x = slp.emit_rule([0, 1, 2, 1, 0, 2, 2, 1, 0, 1])
        ys = [x]
        for _ in range(4):
            ys.append(slp.emit_rule([ys[-1]]))
        slp.start = slp.emit_rule([ys[4], x, ys[1], 0, ys[4], ys[2], ys[3], x, ys[1]])
        assert_matches_reference(slp)
        slp.start = slp.emit_rule([ys[3], ys[4]] * 3)
        assert_matches_reference(slp)

    def test_long_rule_repeated_within_and_across_batches(self):
        rng = random.Random(5)
        slp = Slp("bytes", [1, 2, 3])
        short = slp.emit_rule([0, 1])
        long_ = slp.emit_rule([short, 2, short, 0, short, 1, 2])  # 10 symbols
        pair = slp.emit_rule([long_, 2, long_])
        body = [rng.choice([0, short, long_, pair]) for _ in range(2 * _BATCH + 9)]
        slp.start = slp.emit_rule(body)
        assert_matches_reference(slp)

    def test_copies_of_a_batch_or_more_and_cut_at_piece_ends(self):
        slp = Slp("tokens", [10, 20, 30])
        r9 = slp.emit_rule([0, 1, 2, 2, 1, 0, 1, 1, 2])
        # 4000 copies of 9 cells at one level cross the _BATCH piece ends
        # inside copies; a copy of _BATCH + 3 cells is cut where pieces end.
        many = slp.emit_rule([r9] * 4000)
        big = slp.emit_rule([r9] * (_BATCH // 9) + [r9, 0, 1])
        assert symbol_lengths(slp)[big] == _BATCH + 3
        slp.start = slp.emit_rule([many, 2, big, r9, big, many, 1, big])
        assert_matches_reference(slp)
        slp.start = slp.emit_rule([big] * 3 + [r9] * 5)
        assert_matches_reference(slp)

    def test_work_is_bounded_by_grammar_and_output(self, monkeypatch):
        # The tree walk gathers about 2N cells on this chain; copying bounds
        # the cells that expand_ids gathers by O(grammar size) + N.
        slp, chain = doubling_chain(16)
        slp.start = chain[-1]
        n = 2**16
        gathered = []

        def counting(starts, counts):
            cells = concat_ranges(starts, counts)
            gathered.append(len(cells))
            return cells

        monkeypatch.setattr(grammar, "concat_ranges", counting)
        assert np.array_equal(expand_ids(slp), np.zeros(n, dtype=np.int64))
        assert sum(gathered) <= 4 * slp.size + n

    @pytest.mark.parametrize("mode", ["plain", "improved"])
    def test_compress_output(self, mode):
        rng = np.random.default_rng(17)
        inputs = [
            rng.integers(0, 8, 30000, dtype=np.uint8).tobytes(),
            b"abracadabra" * 3000 + bytes(rng.integers(0, 4, 5000, dtype=np.uint8)),
            np.repeat(rng.integers(0, 50, 4000), rng.geometric(0.2, 4000)),
        ]
        for data in inputs:
            slp = compress(data, mode=mode).slp
            assert_matches_reference(slp)


class TestValidate:
    def test_valid(self):
        slp = Slp("bytes", [1, 2])
        slp.start = slp.emit_rule([0, 1])
        symbol_lengths(slp)

    def test_cycle_via_constructor(self):
        with pytest.raises(GrammarError):
            slp_of("bytes", [1], rules=[(1,)], start=1)

    def test_bad_start(self):
        with pytest.raises(GrammarError):
            slp_of("bytes", [1], rules=[(0, 0)], start=9)

    @pytest.mark.parametrize(
        "start", [1.0, 1.5, True, np.float64(1.0), "1"], ids=["float", "1.5", "bool", "np-float", "str"]
    )
    def test_non_integer_start_rejected(self, start):
        # serialize would write "start 1.0" or "start True", which load refuses.
        with pytest.raises(GrammarError, match="start symbol must be an integer"):
            slp_of("bytes", [97], rules=[(0, 0)], start=start)
        slp = slp_of("bytes", [97], rules=[(0, 0)], start=1)
        with pytest.raises(GrammarError, match="start symbol must be an integer"):
            slp.start = start
        with pytest.raises(GrammarError, match="symbol must be an integer"):
            expand(slp, start)

    @pytest.mark.parametrize("symbol", [1.0, False, np.float64(0.0)], ids=["float", "bool", "np-float"])
    def test_non_integer_symbol_rejected(self, symbol):
        slp = slp_of("bytes", [97], rules=[(0, 0)], start=1)
        with pytest.raises(GrammarError, match="symbol must be an integer"):
            expand_ids(slp, symbol)

    @pytest.mark.parametrize("start", [np.int64(1), np.uint8(1)])
    def test_numpy_integer_start_accepted(self, start):
        slp = slp_of("bytes", [97], rules=[(0, 0)], start=start)
        symbol_lengths(slp)
        assert expand(slp) == b"aa"
        assert deserialize(serialize(slp)) == slp

    def test_byte_terminal_range(self):
        with pytest.raises(GrammarError):
            slp_of("bytes", [999], rules=[], start=0)

    def test_length_table(self):
        slp = Slp("bytes", [1, 2])
        r1 = slp.emit_rule([0, 1])
        r2 = slp.emit_rule([r1, r1, 0])
        assert symbol_lengths(slp).tolist() == [1, 1, 2, 5]


class TestPrune:
    def test_identity_when_all_reachable(self):
        slp = Slp("bytes", [1, 2])
        r = slp.emit_rule([0, 1])
        slp.start = slp.emit_rule([r, r])
        pruned = prune_unreachable(slp)
        assert pruned == slp

    def test_one_dead_rule(self):
        slp = Slp("bytes", [1, 2])
        slp.emit_rule([0, 0, 0])  # dead
        slp.start = slp.emit_rule([0, 1])
        pruned = prune_unreachable(slp)
        assert len(pruned.counts) == 1
        assert pruned.size == slp.size - 3
        assert expand(pruned) == expand(slp)

    def test_random_snapshots_preserve_expansion(self):
        rng = random.Random(21)
        for _ in range(40):
            slp = random_slp(rng)
            pruned = prune_unreachable(slp)
            assert expand(pruned) == expand(slp)
            assert pruned.size <= slp.size
            symbol_lengths(pruned)

    def test_empty_start(self):
        slp = slp_of("bytes", [1], rules=[(0, 0)], start=None)
        pruned = prune_unreachable(slp)
        assert bodies(pruned) == []
        assert pruned.start is None


class TestSerialization:
    def test_format_shape(self):
        slp = Slp("bytes", [97, 98])
        r = slp.emit_rule([0, 1])
        slp.start = slp.emit_rule([r, r])
        text = serialize(slp)
        assert text == "SLP 1\nterminals 2 bytes\n97 98\nrules 2\n2 0 1\n2 2 2\nstart 3\n"

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(100):
            slp = random_slp(rng, kind=rng.choice(["bytes", "tokens"]))
            if slp.kind == "tokens":
                terminals = [v * 7 for v in range(slp.terminal_count)]
                slp = Slp.from_arrays("tokens", terminals, slp.counts, slp.flat, slp.start)
            text = serialize(slp)
            back = deserialize(text)
            assert back == slp
            assert serialize(back) == text

    def test_empty_marker_roundtrip(self):
        slp = Slp("bytes", [])
        text = serialize(slp)
        assert "start empty" in text
        back = deserialize(text)
        assert back.start is None
        assert expand(back) == b""

    @pytest.mark.parametrize(
        "payload",
        [
            "",
            "SLP 2\nterminals 0 bytes\nrules 0\nstart empty\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0\nstart 1\n",  # length prefix lies
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n1 1\nstart 1\n",  # self reference
            "SLP 1\nterminals 1 bytes\n97\nrules 2\n1 0\nstart 1\n",  # truncated
            "SLP 1\nterminals 1 bytes\nrules 0\nstart empty\n",  # missing terminals
            "SLP 1\nterminals 1 bytes\n97\nrules 0\nstart 5\n",  # start out of range
            # Numerals int() reads but serialize never writes.
            "SLP 1\nterminals 1 tokens\n9_7\nrules 0\nstart 0\n",
            "SLP 1\nterminals 1 tokens\n+2\nrules 0\nstart 0\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0_0 0\nstart 1\n",
            "SLP 1\nterminals 1 tokens\n\u0669\u0667\nrules 0\nstart 0\n",
            "SLP 1\nterminals 1 bytes\n97\nrules +1\n2 0 0\nstart 1\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 0\nstart -0\n",
            # Numerals and separators int() and split() read but serialize
            # never writes.
            "SLP 1\nterminals 1 bytes\n097\nrules 0\nstart 0\n",
            "SLP 1\nterminals 2 bytes\n97 98\nrules 1\n2 01 0\nstart 2\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0\t0\nstart 1\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 0\nstart 1\r\n",
            "SLP 1\nterminals  1 bytes\n97\nrules 0\nstart 0\n",
            "SLP 1\nterminals 2 bytes\n97  98\nrules 0\nstart 0\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 0 \nstart 1\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 0\nstart 0",  # no final newline
            # Token terminals above the ceiling ingest enforces.
            "SLP 1\nterminals 1 tokens\n4294967296\nrules 0\nstart 0\n",
            f"SLP 1\nterminals 1 tokens\n{10**22}\nrules 0\nstart 0\n",
            # Body numerals of 19 and 22 digits.
            f"SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 {10**18}\nstart 1\n",
            f"SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 {10**21}\nstart 1\n",
            "SLP 1\nterminals 1 bytes\n97\nrules 3\n2 0 0\n\n2 1 1\nstart 3\n",  # blank line
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 0\n2 1 1\nstart 2\n",  # a line more
            "SLP 1\nterminals 1 bytes\n97\nrules 2\n2 0 0\nstart 1\n",  # a line fewer
            "SLP 1\nterminals 1 bytes\n97\nrules 1\n0\nstart 1\n",  # empty body
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(GrammarError):
            deserialize(payload)

    @pytest.mark.parametrize(
        "values",
        [
            [0] + [v for k in range(1, 18) for v in (10**k - 1, 10**k)] + [10**18 - 1],
            [0, 7, 2**32 - 1],  # the largest value the uint32 digits hold
            [0, 7, 2**32 - 1, 2**32],  # one more, so the digits are uint64
            [],
        ],
    )
    def test_written_lines_match_str_join(self, values):
        rng = random.Random(len(values))
        values = values * 3
        rng.shuffle(values)
        ends = [i for i in range(len(values)) if rng.random() < 0.3 or i == len(values) - 1]
        want = "".join(f"{v}{chr(10) if i in ends else ' '}" for i, v in enumerate(values))
        got = grammar._write_lines(np.array(values, dtype=np.int64), np.array(ends, dtype=np.int64))
        assert got == want.encode("ascii")

    def test_every_byte_the_format_never_writes_is_refused(self):
        for byte in set(range(256)) - set(b"0123456789 \n"):
            text = f"SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 {chr(byte)}0\nstart 1\n"
            with pytest.raises(GrammarError, match="holds a character the format never writes"):
                deserialize(text)

    def test_eighteen_digit_numeral_read_exactly(self):
        # The nearest float64 to this id is ...680, so a parse through
        # floats would name another symbol in the message.
        big = 123456789012345678
        text = f"SLP 1\nterminals 1 bytes\n97\nrules 1\n2 0 {big}\nstart 1\n"
        with pytest.raises(GrammarError, match=f"references symbol {big} "):
            deserialize(text)

    def test_accepted_text_reserializes_to_itself(self):
        # Random edits of serialized grammars: whatever still loads must be
        # exactly the text serialize writes for the grammar it loads as.
        rng = random.Random(11)
        alphabet = "0123456789 \n\t\r\v_+-aes"
        accepted = 0
        for _ in range(3000):
            slp = random_slp(rng, kind=rng.choice(["bytes", "tokens"]), max_rules=6)
            text = serialize(slp)
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(len(text) + 1)
                edit = rng.randrange(3)
                if edit == 0:  # insert
                    text = text[:i] + rng.choice(alphabet) + text[i:]
                elif edit == 1:  # delete
                    text = text[:i] + text[i + 1 :]
                else:  # replace
                    text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
            try:
                back = deserialize(text)
            except GrammarError:
                continue
            accepted += 1
            assert serialize(back) == text
        assert accepted > 100


class TestStatsHelpers:
    def test_depth(self):
        slp = Slp("bytes", [97])
        a2 = slp.emit_rule([0, 0])
        a4 = slp.emit_rule([a2, a2])
        slp.start = a4
        assert grammar_depth(slp) == 2

    def test_expansion_length(self):
        slp = Slp("bytes", [97])
        a2 = slp.emit_rule([0, 0])
        slp.start = slp.emit_rule([a2, a2, 0])
        assert (symbol_lengths(slp)[slp.start], grammar_depth(slp)) == (5, 2)


def golden_grammars():
    for gen, seed, mode in sorted(test_golden.GOLDEN):
        yield compress(getattr(test_golden, gen)(seed), mode=mode).slp


def assert_matches_scalar_oracles(slp):
    """The flat-array routines against the scalar ones they replaced."""
    text = serialize(slp)
    assert text == reference_serialize(slp)
    back = deserialize(text)
    assert back == reference_deserialize(text) == slp
    assert bodies(back) == bodies(slp)
    reference_check_structure(slp.kind, slp.terminals, slp.counts, slp.flat, slp.start)
    lengths = reference_symbol_lengths(slp)
    assert symbol_lengths(slp).tolist() == lengths
    assert grammar_depth(slp) == reference_grammar_depth(slp)
    pruned = prune_unreachable(slp)
    assert pruned == reference_prune_unreachable(slp)
    assert serialize(pruned) == reference_serialize(pruned)


class TestFlatMatchesScalarOracles:
    def test_random_grammars(self):
        rng = random.Random(23)
        for _ in range(150):
            slp = random_slp(rng, kind=rng.choice(["bytes", "tokens"]))
            if rng.random() < 0.2:
                slp.start = None
            assert_matches_scalar_oracles(slp)

    def test_golden_corpus(self):
        for slp in golden_grammars():
            assert_matches_scalar_oracles(slp)

    def test_numerals_at_every_digit_count(self):
        # Terminal values on both sides of every digit-count boundary up to
        # the token ceiling, and body counts and ids past 9, 99 and 999.
        values = sorted({v for k in range(1, 10) for v in (10**k - 1, 10**k)} | {0, TOKEN_VALUE_CEILING})
        slp = Slp("tokens", values)
        sigma = len(values)
        rules = [slp.emit_rule([i % sigma for i in range(c)]) for c in (9, 10, 99, 100, 999, 1000)]
        while slp.symbol_count <= 1000:
            slp.emit_rule([slp.symbol_count - 1])
        slp.start = slp.emit_rule(rules + [9, 10, 99, 100, 999, 1000])
        assert_matches_scalar_oracles(slp)

    def test_start_body_longer_than_three_batches(self):
        rng = random.Random(8)
        slp = random_slp(rng, kind="tokens", max_rules=30)
        terminals = [v * 1000003 for v in range(slp.terminal_count)]
        slp = Slp.from_arrays("tokens", terminals, slp.counts, slp.flat, slp.start)
        body = [rng.randrange(slp.symbol_count) for _ in range(3 * _BATCH + 17)]
        slp.start = slp.emit_rule(body)
        assert_matches_scalar_oracles(slp)

    def test_token_text_matches_str_join(self):
        values = [0, 7, 10, 99, 100, 65535, 10**9, TOKEN_VALUE_CEILING]
        ids = np.random.default_rng(2).integers(0, len(values), 5000)
        want = " ".join(str(values[i]) for i in ids) + "\n"
        assert format_tokens(values, ids) == want.encode("ascii")
        assert format_tokens(values, ids[:1]) == f"{values[ids[0]]}\n".encode()
        assert format_tokens(values, ids[:0]) == b""


def renumbered(slp, rng):
    """``slp`` with its rules in a random topological order.

    Each step takes a random rule among those whose rule children are all
    placed, so the ranges of ``_ranges`` fall anywhere.
    """
    sigma, rules = slp.terminal_count, bodies(slp)
    waiting = [len({s for s in body if s >= sigma}) for body in rules]
    parents = [[] for _ in rules]
    for i, body in enumerate(rules):
        for s in {s for s in body if s >= sigma}:
            parents[s - sigma].append(i)
    ready = [i for i, w in enumerate(waiting) if w == 0]
    new_id = list(range(sigma)) + [None] * len(rules)
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        new_id[sigma + i] = sigma + len(order)
        order.append(i)
        for p in parents[i]:
            waiting[p] -= 1
            if waiting[p] == 0:
                ready.append(p)
    out = slp_of(slp.kind, slp.terminals, [tuple(new_id[s] for s in rules[i]) for i in order])
    out.start = None if slp.start is None else new_id[slp.start]
    return out


def assert_walk_matches_scalar_oracles(slp):
    """Lengths, depth, pruning and expansion from the range walk, against the oracles."""
    ranges = grammar._ranges(slp)
    sigma = slp.terminal_count
    rules = bodies(slp)
    cuts = [0] + [e for _, e, _, _ in ranges]
    assert [s for s, _, _, _ in ranges] == cuts[:-1] and cuts[-1] == len(rules)
    for s, e, children, firsts in ranges:
        assert s < e
        assert children.tolist() == [x for body in rules[s:e] for x in body]
        assert firsts.tolist() == np.cumsum([0] + [len(b) for b in rules[s : e - 1]]).tolist()
        assert all(x < sigma + s for x in children.tolist())  # children in earlier ranges
        if e < len(rules):  # maximal: the next rule names a rule of this range
            assert max(rules[e]) >= sigma + s
    try:
        lengths = reference_symbol_lengths(slp)
    except ExpansionOverflow as error:
        with pytest.raises(ExpansionOverflow, match=re.escape(str(error))):
            symbol_lengths(slp)
        lengths = None
    else:
        assert symbol_lengths(slp).tolist() == lengths
    assert grammar_depth(slp) == reference_grammar_depth(slp)
    length = None if lengths is None else 0 if slp.start is None else lengths[slp.start]
    assert prune_unreachable(slp) == reference_prune_unreachable(slp)
    if length is not None and length <= 10**5:
        assert expand_ids(slp).tolist() == reference_expand_ids(slp).tolist()


class TestRangeWalkMatchesScalarOracles:
    """``_ranges`` serves grammars in any topological order, not only the compressor's."""

    def test_reference_order_grammars(self):
        for gen, seed, mode in sorted(test_golden.GOLDEN):
            data = getattr(test_golden, gen)(seed)
            assert_walk_matches_scalar_oracles(compress_in_reference_order(data, mode).slp)

    def test_random_topological_renumberings(self):
        rng = random.Random(31)
        for _ in range(150):
            slp = random_slp(rng, kind=rng.choice(["bytes", "tokens"]))
            if rng.random() < 0.2:
                slp.start = None
            assert_walk_matches_scalar_oracles(slp)
            assert_walk_matches_scalar_oracles(renumbered(slp, rng))

    def test_renumbered_golden_grammars(self):
        rng = random.Random(32)
        for slp in golden_grammars():
            assert_walk_matches_scalar_oracles(renumbered(slp, rng))

    @pytest.mark.parametrize("rules", [1, 2, 3, 1000])
    def test_unary_chains(self, rules):
        slp = unary_chain(rules)
        assert len(grammar._ranges(slp)) == rules
        slp.emit_rule([0, 0])  # unreachable; it joins the start's range
        assert_walk_matches_scalar_oracles(slp)

    @pytest.mark.parametrize("terminals,start", [([], None), ([97], None), ([97, 98], 1)])
    def test_grammars_without_rules(self, terminals, start):
        slp = slp_of("bytes", terminals, start=start)
        assert grammar._ranges(slp) == []
        assert_walk_matches_scalar_oracles(slp)

    def test_overflow_inside_one_range(self):
        # Three rules of one range; the middle one wraps an int64 sum.
        slp = powers_of_two()
        slp.start = None
        first = slp.emit_rule([1, 1])
        wraps = slp.emit_rule([62] * 5)
        slp.emit_rule([2, 61])
        sigma = slp.terminal_count
        s, e = next((s, e) for s, e, _, _ in grammar._ranges(slp) if s <= wraps - sigma < e)
        assert s <= first - sigma and wraps + 1 - sigma < e
        with pytest.raises(ExpansionOverflow, match=f"rule {wraps} expands"):
            symbol_lengths(slp)
        slp.start = wraps
        assert_walk_matches_scalar_oracles(slp)


class TestExpansionCeiling:
    def test_exactly_the_ceiling_loads(self):
        slp = deserialize(serialize(powers_of_two()))
        assert symbol_lengths(slp)[slp.start] == MAX_EXPANSION == 2**63 - 1

    def test_one_past_the_ceiling_overflows(self):
        slp = powers_of_two(extra_terminals=1)
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(slp)
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(deserialize(serialize(slp)))

    def test_wrapping_sums_are_caught(self):
        # Five children of 2**62 each wrap an int64 sum to 2**62.
        slp = powers_of_two()
        slp.start = slp.emit_rule([62] * 5)
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(slp)


class TestTerminalCeiling:
    @pytest.mark.parametrize("value", [TOKEN_VALUE_CEILING + 1, 10**22, -1, -(10**22)])
    def test_token_terminal_out_of_range(self, value):
        with pytest.raises(GrammarError, match=f"token terminal {value} outside"):
            slp_of("tokens", [5, value], rules=[(0, 1)], start=2)
        # A float beside it does not change the message.
        with pytest.raises(GrammarError, match=f"token terminal {value} outside"):
            slp_of("tokens", [5, 1.5, value], rules=[(0, 1)], start=3)

    def test_token_terminal_at_ceiling(self):
        symbol_lengths(slp_of("tokens", [0, TOKEN_VALUE_CEILING], rules=[(0, 1)], start=2))

    @pytest.mark.parametrize(
        "kind,terminals",
        [
            ("tokens", [1.5, True]),
            ("tokens", [True]),
            ("bytes", [97.0]),
            ("tokens", np.array([3, 4], dtype=np.float64)),
            ("bytes", ["a"]),
            ("tokens", [None]),
            ("tokens", [1, "b"]),
        ],
    )
    def test_non_integer_terminals_rejected(self, kind, terminals):
        # serialize would write them as truncated integers.
        with pytest.raises(GrammarError, match="must be integers"):
            slp_of(kind, terminals, rules=[(0, 0)], start=len(terminals))
        with pytest.raises(GrammarError, match="must be integers"):
            Slp.from_arrays(kind, terminals, [2], [0, 0], len(terminals))

    @pytest.mark.parametrize("kind", ["bytes", "tokens"])
    @pytest.mark.parametrize("true", [True, np.True_], ids=["True", "np.True_"])
    def test_bool_terminals_among_ints_rejected(self, kind, true):
        # numpy reads True as 1, so ``serialize`` would write "97 1".
        with pytest.raises(GrammarError, match=f"{kind[:-1]} terminals must be integers, not bool"):
            slp_of(kind, [97, true], [(0, 1)], start=2)
        with pytest.raises(GrammarError, match=f"{kind[:-1]} terminals must be integers, not bool"):
            Slp.from_arrays(kind, [97, true], [2], [0, 1], 2)

    @pytest.mark.parametrize("kind", ["bytes", "tokens"])
    @pytest.mark.parametrize("terminals", [5, 2.5, None], ids=["int", "float", "None"])
    def test_non_sequence_terminals_rejected(self, kind, terminals):
        with pytest.raises(GrammarError, match=f"{kind[:-1]} terminals must be a sequence, not"):
            Slp(kind, terminals)
        with pytest.raises(GrammarError, match=f"{kind[:-1]} terminals must be a sequence, not"):
            Slp.from_arrays(kind, terminals, [], [])

    def test_numpy_integer_terminals_accepted(self):
        symbol_lengths(slp_of("tokens", np.array([3, 4], dtype=np.uint32), rules=[(0, 1)], start=2))


class TestRuleView:
    def grammar(self):
        slp = Slp("bytes", [ord("a"), ord("b")])
        ab = slp.emit_rule([0, 1])
        slp.start = slp.emit_rule([ab, 0, ab])
        return slp

    def test_reads_as_tuples(self):
        slp = self.grammar()
        assert len(slp.rules) == 2
        assert slp.rules[0] == (0, 1) and slp.rules[-1] == (2, 0, 2)
        # Iteration goes through integer indexing up to the IndexError.
        assert list(slp.rules) == [(0, 1), (2, 0, 2)]
        assert all(type(body) is tuple for body in slp.rules)
        for key in (2, -3):
            with pytest.raises(IndexError):
                slp.rules[key]

    def test_only_the_benchmark_reads(self):
        # ``perfbench`` counts the rules and reads and rewrites one body;
        # everything else reads ``counts`` and ``flat``.
        methods = {name for name, value in vars(grammar.RuleView).items() if callable(value)}
        assert methods == {"__init__", "__len__", "__getitem__", "__setitem__", "_span"}

    def test_write_goes_through(self):
        slp = self.grammar()
        text = serialize(slp)
        slp.rules[0] = slp.rules[0][::-1]
        assert slp.rules[0] == (1, 0)
        assert slp != self.grammar()
        assert serialize(slp) == text.replace("\n2 0 1\n", "\n2 1 0\n")
        assert expand(slp) == b"baaba"

    @pytest.mark.parametrize("body", [(0,), (0, 1, 0), ()])
    def test_write_of_another_length_raises(self, body):
        slp = self.grammar()
        with pytest.raises(ValueError):
            slp.rules[0] = body
        assert slp == self.grammar()


    @pytest.mark.parametrize("key,body", [(0, (0, 2)), (1, (0, 3, 0)), (-1, (-1, 0, 1))])
    def test_write_of_an_undefined_symbol_raises(self, key, body):
        # A rule that names itself or a later rule would make the range walk loop.
        slp = self.grammar()
        with pytest.raises(GrammarError, match="not yet defined"):
            slp.rules[key] = body
        assert slp == self.grammar()


class TestCheckedOnce:
    """An ``Slp`` is checked where it is built, and trusted from then on."""

    def spy(self, monkeypatch):
        calls = []
        check = grammar._check_bodies

        def counting(counts, flat, base):
            calls.append(len(counts))
            check(counts, flat, base)

        monkeypatch.setattr(grammar, "_check_bodies", counting)
        return calls

    @pytest.mark.parametrize("key", sorted(test_golden.GOLDEN))
    def test_one_body_check_per_grammar_built(self, monkeypatch, tmp_path, key):
        gen, seed, mode = key
        slp = compress(getattr(test_golden, gen)(seed), mode=mode).slp
        path = tmp_path / "g.slp"
        grammar.dump(slp, path)
        calls = self.spy(monkeypatch)
        loaded = grammar.load(path)
        assert calls == [len(slp.counts)]
        expand(loaded)
        expand_ids(loaded)
        grammar_depth(loaded)
        serialize(loaded)
        symbol_lengths(loaded)
        assert calls == [len(slp.counts)]
        assert prune_unreachable(loaded) is loaded  # every rule is reachable
        assert calls == [len(slp.counts)]
        loaded.emit_rule([0])  # unreachable
        assert calls == [len(slp.counts), 1]
        pruned = prune_unreachable(loaded)
        assert calls == [len(slp.counts), 1, len(pruned.counts)]
        assert pruned == slp

    @pytest.mark.parametrize("key", sorted(k for k in test_golden.GOLDEN if k[2] == "improved"))
    def test_snapshot_checks_only_its_text_rule(self, monkeypatch, key):
        # The snapshot takes a prefix of the driver's checked grammar: its
        # terminals and rules are not checked again, only the text rule.
        gen, seed, _ = key
        calls = self.spy(monkeypatch)
        terminals = []
        check_terminals = grammar._terminals
        monkeypatch.setattr(
            grammar, "_terminals", lambda kind, values: terminals.append(kind) or check_terminals(kind, values)
        )
        seen = []
        snapshot = driver._snapshot_grammar

        def spy(built, best):
            del calls[:], terminals[:]
            slp = snapshot(built, best)
            seen.append((list(calls), list(terminals), len(best.text_canonical), slp))
            return slp

        monkeypatch.setattr(driver, "_snapshot_grammar", spy)
        data = getattr(test_golden, gen)(seed)
        result = compress(data, mode="improved")
        [(body_checks, terminal_checks, text_length, slp)] = seen
        assert terminal_checks == []
        assert body_checks == ([1] if text_length else [])
        assert slp is result.slp and expand(slp) == data

    def test_constructor_builds_the_empty_grammar(self):
        slp = Slp("tokens", [500, 7])
        assert (len(slp.counts), slp.size, slp.start) == (0, 0, None)
        with pytest.raises(TypeError):
            Slp("tokens", [500, 7], [(0, 1)])  # bodies come in through from_arrays

    def test_prefix_is_a_copy_of_the_first_rules(self):
        slp = slp_of("tokens", [500, 7], [(0, 1), (2, 2), (3, 0)], start=4)
        for k in range(4):
            prefix = slp.prefix(k)
            assert bodies(prefix) == bodies(slp)[:k]
            assert prefix.terminals is slp.terminals and prefix.start is None
            assert prefix.kind == "tokens" and prefix.size == sum(map(len, bodies(slp)[:k]))
        prefix = slp.prefix(2)
        prefix.emit_rule([3, 3])  # appends to the copy only
        assert bodies(slp) == [(0, 1), (2, 2), (3, 0)]
        for k in (-1, 4):
            with pytest.raises(ValueError, match="no prefix"):
                slp.prefix(k)

    def test_views_are_read_only(self):
        slp = slp_of("bytes", [97, 98], [(0, 1), (2, 2)], start=3)
        for view in (slp.flat, slp.counts, slp.offsets):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            slp.flat[-1] = 3  # a rule naming itself: the range walk would not end
        with pytest.raises(AttributeError):
            slp.size = 1
        with pytest.raises((AttributeError, TypeError)):
            slp.terminals[0] = 1000
        with pytest.raises(AttributeError):
            slp.kind = "tokens"
        assert bodies(slp) == [(0, 1), (2, 2)] and slp.size == 4

    def test_wrapping_counts_refused(self):
        # Four counts of 2**62 sum to 0 in int64, and a body check over them
        # would ask numpy for 2**64 cells, which crashes the interpreter.
        with pytest.raises(GrammarError, match="counts do not match"):
            Slp("bytes", [97]).emit_rules([2**62] * 4, [])
        with pytest.raises(GrammarError, match="counts do not match"):
            Slp.from_arrays("bytes", [97], [2**63 - 1, 2**63 - 1, 3], [0])
