import random

import numpy as np
import pytest
import test_golden
from helpers import (
    body_of,
    powers_of_two,
    reference_check_structure,
    reference_deserialize,
    reference_expand_ids,
    reference_grammar_depth,
    reference_prune_unreachable,
    reference_serialize,
    reference_symbol_lengths,
)

from slpcompress.alphabet import TOKEN_VALUE_CEILING
from slpcompress.driver import compress
from slpcompress.grammar import (
    _BATCH,
    MAX_EXPANSION,
    ExpansionOverflow,
    GrammarError,
    Slp,
    check_structure,
    deserialize,
    expand,
    expand_ids,
    expansion_and_depth,
    expansion_length,
    format_tokens,
    grammar_depth,
    prune_unreachable,
    serialize,
    symbol_lengths,
    validate,
)


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
        assert bulk.rules == one.rules
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
        assert slp.rules == [] and slp.size == 0

    def test_random_chains_validate(self):
        rng = random.Random(99)
        for _ in range(200):
            slp = random_slp(rng, max_rules=50)
            validate(slp)


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
        slp = Slp("bytes", [ord("x")], start=0)
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
        assert expand(slp) == b"a" * 20001
        assert symbol_lengths(slp).tolist() == reference_symbol_lengths(slp)
        assert grammar_depth(slp) == reference_grammar_depth(slp) == 20000
        slp.emit_rule([0, 0])  # unreachable
        assert prune_unreachable(slp) == reference_prune_unreachable(slp)

    def test_empty_body_from_unchecked_constructor(self):
        slp = Slp("bytes", [97], rules=[(), (0, 1, 0)], start=2)
        with pytest.raises(GrammarError):
            expand(slp)

    @pytest.mark.parametrize("symbol", [-1, -2, 4])
    def test_symbol_out_of_range(self, symbol):
        # Without a range check, -2 read as rule r (b"aa"), -1 as raw heap
        # words and 4 as a bare IndexError.
        slp = Slp("bytes", [ord("a"), ord("b")], rules=[(0, 1), (2, 2, 2)], start=3)
        assert slp.symbol_count == 4
        with pytest.raises(GrammarError, match=f"symbol {symbol} outside"):
            expand(slp, symbol)
        with pytest.raises(GrammarError, match=f"symbol {symbol} outside"):
            expand_ids(slp, symbol)

    def test_unchecked_start_out_of_range(self):
        slp = Slp("bytes", [ord("a"), ord("b")], rules=[(0, 1), (2, 2, 2)], start=-1)
        with pytest.raises(GrammarError, match="symbol -1 outside"):
            expand(slp)
        with pytest.raises(GrammarError, match="symbol -1 outside"):
            expand_ids(slp)

    def test_overflow_detected_before_streaming(self):
        slp = Slp("bytes", [ord("a")])
        prev = 0
        for _ in range(70):  # 2^70 letters
            prev = slp.emit_rule([prev, prev])
        slp.start = prev
        with pytest.raises(ExpansionOverflow):
            expand(slp)


def assert_matches_reference(slp, symbol=None):
    got = expand_ids(slp, symbol)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_expand_ids(slp, symbol))


class TestExpandMatchesReference:
    """The batched expander against the memoized walk it replaced."""

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
        validate(slp)

    def test_cycle_via_constructor(self):
        slp = Slp("bytes", [1], rules=[(1,)], start=1)
        with pytest.raises(GrammarError):
            validate(slp)

    def test_bad_start(self):
        slp = Slp("bytes", [1], rules=[(0, 0)], start=9)
        with pytest.raises(GrammarError):
            validate(slp)

    def test_byte_terminal_range(self):
        slp = Slp("bytes", [999], rules=[], start=0)
        with pytest.raises(GrammarError):
            validate(slp)

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
        assert len(pruned.rules) == 1
        assert pruned.size == slp.size - 3
        assert expand(pruned) == expand(slp)

    def test_random_snapshots_preserve_expansion(self):
        rng = random.Random(21)
        for _ in range(40):
            slp = random_slp(rng)
            pruned = prune_unreachable(slp)
            assert expand(pruned) == expand(slp)
            assert pruned.size <= slp.size
            validate(pruned)

    def test_empty_start(self):
        slp = Slp("bytes", [1], rules=[(0, 0)], start=None)
        pruned = prune_unreachable(slp)
        assert pruned.rules == []
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
                slp.terminals = [v * 7 for v in range(slp.terminal_count)]
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
        assert expansion_length(slp) == 5


def golden_grammars():
    for gen, seed, mode in sorted(test_golden.GOLDEN):
        yield compress(getattr(test_golden, gen)(seed), mode=mode).slp


def assert_matches_scalar_oracles(slp):
    """The flat-array routines against the scalar ones they replaced."""
    text = serialize(slp)
    assert text == reference_serialize(slp)
    back = deserialize(text)
    assert back == reference_deserialize(text) == slp
    assert back.rules == list(slp.rules)
    reference_check_structure(slp)
    check_structure(slp)
    lengths = reference_symbol_lengths(slp)
    assert symbol_lengths(slp).tolist() == lengths
    assert grammar_depth(slp) == reference_grammar_depth(slp)
    length = 0 if slp.start is None else lengths[slp.start]
    assert expansion_and_depth(slp) == (length, reference_grammar_depth(slp))
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
        slp.terminals = [v * 1000003 for v in range(slp.terminal_count)]
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


class TestExpansionCeiling:
    def test_exactly_the_ceiling_loads(self):
        slp = deserialize(serialize(powers_of_two()))
        validate(slp)
        assert expansion_length(slp) == MAX_EXPANSION == 2**63 - 1

    def test_one_past_the_ceiling_overflows(self):
        slp = powers_of_two(extra_terminals=1)
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(slp)
        with pytest.raises(ExpansionOverflow):
            validate(deserialize(serialize(slp)))

    def test_wrapping_sums_are_caught(self):
        # Five children of 2**62 each wrap an int64 sum to 2**62.
        slp = powers_of_two()
        slp.start = slp.emit_rule([62] * 5)
        with pytest.raises(ExpansionOverflow):
            symbol_lengths(slp)


class TestTerminalCeiling:
    @pytest.mark.parametrize("value", [TOKEN_VALUE_CEILING + 1, 10**22, -1, -(10**22)])
    def test_token_terminal_out_of_range(self, value):
        with pytest.raises(GrammarError):
            validate(Slp("tokens", [5, value], rules=[(0, 1)], start=2))

    def test_token_terminal_at_ceiling(self):
        validate(Slp("tokens", [0, TOKEN_VALUE_CEILING], rules=[(0, 1)], start=2))


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
        assert slp.rules[:1] == [(0, 1)] and slp.rules[::-1] == [(2, 0, 2), (0, 1)]
        assert list(slp.rules) == [(0, 1), (2, 0, 2)]
        assert all(type(body) is tuple for body in slp.rules)
        assert slp.rules == [(0, 1), (2, 0, 2)] and slp.rules != [(0, 1)]
        assert slp.rules == self.grammar().rules
        with pytest.raises(IndexError):
            slp.rules[2]

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

