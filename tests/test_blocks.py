import math
import random

import pytest

from helpers import (
    bodies,
    body_of,
    canonical_of,
    live_list,
    reference_block_representation,
    reference_build_block_rules,
    reference_symbol_depths,
    rule_id_map,
)
from slpcompress.alphabet import ingest
from slpcompress.blocks import build_block_rules, compress_blocks, scan_blocks
from slpcompress.grammar import Slp, _ranges, expand
from slpcompress.text import StaleTextError, WorkingText


def naive_expand_ids(slp, symbol):
    if symbol < slp.terminal_count:
        return [symbol]
    out = []
    for s in body_of(slp, symbol):
        out.extend(naive_expand_ids(slp, s))
    return out


def one_letter_rules(grammar, letter, lengths):
    """The bulk builder on a one-letter table, as a length -> symbol map."""
    targets = build_block_rules(grammar, [letter] * len(lengths), lengths)
    return dict(zip(lengths, targets.tolist()))


def scanned(text):
    """(letter, length, head cell) of every block ``scan_blocks`` finds, sorted."""
    scan = scan_blocks(text)
    letters, lengths = scan.letters[scan.groups], scan.lengths[scan.groups]
    return sorted(zip(letters.tolist(), lengths.tolist(), text.runs[0].tolist()))


class TestScanBlocks:
    def test_hand_scan(self):
        # Positions are head cells of the run form "abab": aa at 0, bbb at 1.
        text = ingest(b"aabbbab")[0]
        assert scanned(text) == [(0, 2, 0), (1, 3, 1)]
        text = WorkingText([0, 0, 1, 1, 1, 0, 1])  # a compact text is collapsed first
        assert scanned(text) == [(0, 2, 0), (1, 3, 1)]
        assert text.cells.tolist() == [0, 1, 0, 1] and len(text) == 7

    def test_no_blocks(self):
        text = ingest(b"abab")[0]
        assert len(scan_blocks(text)) == 0

    def test_whole_text_is_one_block(self):
        text = ingest(b"aaaa")[0]
        assert scanned(text) == [(0, 4, 0)]

    def test_sorted_by_letter_then_length(self):
        text = ingest(b"bbb" + b"aa" + b"c" + b"aaa" + b"bb")[0]
        scan = scan_blocks(text)
        keys = list(zip(scan.letters.tolist(), scan.lengths.tolist()))
        assert keys == sorted(set(keys)) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert scan.groups.tolist() == [1, 2, 3, 0]  # bbb, aa, aaa, bb in run order

    def test_empty(self):
        text = ingest(b"")[0]
        assert len(scan_blocks(text)) == 0


class TestCompressBlocks:
    def test_hand_trace(self):
        text, _, terminals = ingest(b"aabbbab")
        grammar = Slp("bytes", terminals)
        scan = scan_blocks(text)
        result = compress_blocks(text, scan, grammar)
        assert result.blocks_replaced == 2
        live = live_list(text)
        # One fresh symbol per distinct block, then the unchanged a b tail.
        assert live[2:] == [0, 1]
        z1, z2 = live[0], live[1]
        assert expand(grammar, canonical_of(text, z1)) == b"aa"
        assert expand(grammar, canonical_of(text, z2)) == b"bbb"

    def test_equal_blocks_share_one_symbol(self):
        text, _, terminals = ingest(b"aabaabaa")
        grammar = Slp("bytes", terminals)
        compress_blocks(text, scan_blocks(text), grammar)
        live = live_list(text)
        assert live == [live[0], 1, live[0], 1, live[0]]
        assert len(grammar.counts) == 1  # one shared rule for the aa block

    def test_unary_power_of_two_rule_budget(self):
        n = 2**20
        text, _, terminals = ingest(b"a" * n)
        grammar = Slp("bytes", terminals)
        compress_blocks(text, scan_blocks(text), grammar)
        assert live_list(text) == [1]  # one fresh working symbol
        assert grammar.size <= 4 * 20 + 4
        from slpcompress.grammar import symbol_lengths

        assert symbol_lengths(grammar)[canonical_of(text, 1)] == n

    def test_no_blocks_no_rules(self):
        text, _, terminals = ingest(b"abab")
        grammar = Slp("bytes", terminals)
        result = compress_blocks(text, scan_blocks(text), grammar)
        assert result.blocks_replaced == 0
        assert bodies(grammar) == []
        assert live_list(text) == [0, 1, 0, 1]

    def test_stale_scan_rejected_before_any_rule(self):
        text, _, terminals = ingest(b"aabbbab")
        grammar = Slp("bytes", terminals)
        scan = scan_blocks(text)
        compress_blocks(text, scan, grammar)
        rules, cells = bodies(grammar), live_list(text)
        with pytest.raises(StaleTextError):  # the runs it groups are written
            compress_blocks(text, scan, grammar)
        assert bodies(grammar) == rules and live_list(text) == cells

    def test_no_equal_adjacent_after_stage(self):
        rng = random.Random(8)
        for _ in range(40):
            data = bytes(rng.choice(b"abc") for _ in range(rng.randrange(1, 120)))
            text, _, terminals = ingest(data)
            grammar = Slp("bytes", terminals)
            compress_blocks(text, scan_blocks(text), grammar)
            live = live_list(text)
            assert all(x != y for x, y in zip(live, live[1:]))

    def test_every_fresh_symbol_expands_to_its_block(self):
        rng = random.Random(9)
        for _ in range(30):
            data = bytes(rng.choice(b"ab") for _ in range(rng.randrange(2, 80)))
            text, _, terminals = ingest(data)
            original = live_list(text)
            grammar = Slp("bytes", terminals)
            compress_blocks(text, scan_blocks(text), grammar)
            # Re-expanding the live text through the aliases restores the input.
            restored = []
            for w in live_list(text):
                restored.extend(naive_expand_ids(grammar, canonical_of(text, w)))
            assert restored == original


class TestBlockRepresentation:
    def test_length_12_costs_8(self):
        grammar = Slp("bytes", [ord("a")])
        targets = one_letter_rules(grammar, 0, [12])
        assert grammar.size == 8
        assert expand(grammar, targets[12]) == b"a" * 12

    def test_length_2_costs_2(self):
        grammar = Slp("bytes", [ord("a")])
        targets = one_letter_rules(grammar, 0, [2])
        assert grammar.size == 2
        assert bodies(grammar) == [(0, 0)]
        assert expand(grammar, targets[2]) == b"aa"

    def test_chain_2_3_7(self):
        grammar = Slp("bytes", [ord("a")])
        targets = one_letter_rules(grammar, 0, [2, 3, 7])
        for length in (2, 3, 7):
            assert naive_expand_ids(grammar, targets[length]) == [0] * length

    def test_invalid_lengths(self):
        grammar = Slp("bytes", [ord("a")])
        with pytest.raises(ValueError):
            one_letter_rules(grammar, 0, [1, 3])
        with pytest.raises(ValueError):
            one_letter_rules(grammar, 0, [3, 3])
        with pytest.raises(ValueError):
            one_letter_rules(grammar, 0, [])

    def test_cost_bound_random_length_sets(self):
        rng = random.Random(10)
        for _ in range(80):
            k = rng.randrange(1, 8)
            lengths = sorted(rng.sample(range(2, 5000), k))
            grammar = Slp("bytes", [ord("a")])
            targets = one_letter_rules(grammar, 0, lengths)
            gaps = [lengths[0]] + [b - a for a, b in zip(lengths, lengths[1:])]
            bound = 4 * sum(1 + math.log2(g) if g > 1 else 1 for g in gaps)
            assert grammar.size <= bound
            for length in lengths:
                assert naive_expand_ids(grammar, targets[length]) == [0] * length

    def test_shared_gaps_reuse_symbols(self):
        grammar = Slp("bytes", [ord("a")])
        targets = one_letter_rules(grammar, 0, [2, 4, 6])
        # squares: a2; chains: a4 -> a2 a2, a6 -> a2 a4
        assert grammar.size == 6
        for length in (2, 4, 6):
            assert expand(grammar, targets[length]) == b"a" * length


class TestBulkMatchesReference:
    """``build_block_rules`` emits what a per-letter loop of the old builder did.

    The rules are the same, renumbered level by level: the grammars are
    equal under one rule-id map that sends target to target.  The
    letter-by-letter ``reference_build_block_rules`` still matches the
    per-letter loop id for id.
    """

    @staticmethod
    def check(sigma, table):
        """``table`` lists (canonical letter, increasing lengths) in group order."""
        expected = Slp("tokens", list(range(sigma)))
        targets = []
        for letter, lengths in table:
            by_length = reference_block_representation(expected, letter, lengths)
            targets.extend(by_length[length] for length in lengths)
        letters = [letter for letter, lengths in table for _ in lengths]
        lengths = [length for _, lengths in table for length in lengths]
        reference = Slp("tokens", list(range(sigma)))
        assert reference_build_block_rules(reference, letters, lengths).tolist() == targets
        assert bodies(reference) == bodies(expected)
        got = Slp("tokens", list(range(sigma)))
        got_targets = build_block_rules(got, letters, lengths).tolist()
        rule_id_map(got, expected, got_targets, targets)
        # Level by level: no rule names another of its id range, so each
        # chain of rules adds one range per rule and no more.
        assert len(_ranges(got)) <= 2 * max(reference_symbol_depths(got))

    @staticmethod
    def random_lengths(rng, k):
        kind = rng.randrange(4)
        if kind == 0:  # consecutive lengths: gaps of 1
            start = rng.randrange(2, 6)
            return list(range(start, start + k))
        if kind == 1:  # repeated and power-of-two gaps
            lengths = [rng.randrange(2, 9)]
            for _ in range(k - 1):
                lengths.append(lengths[-1] + rng.choice([1, 2, 3, 4, 8, 5, 5, 6]))
            return lengths
        if kind == 2:
            return sorted(rng.sample(range(2, 300), k))
        top = 2 ** rng.randrange(3, 62)
        return sorted({rng.randrange(2, top) for _ in range(k)})

    def test_random_tables(self):
        rng = random.Random(44)
        for _ in range(300):
            sigma = rng.randrange(1, 40)
            # Canonical letters in group order need not be in id order.
            letters = rng.sample(range(sigma), rng.randrange(1, sigma + 1))
            table = [(a, self.random_lengths(rng, rng.randrange(1, 9))) for a in letters]
            self.check(sigma, table)

    def test_single_lengths_and_unordered_letters(self):
        self.check(6, [(5, [2]), (0, [3]), (3, [4]), (1, [9])])

    def test_gaps_of_one_and_repeated_gaps(self):
        self.check(3, [(2, [2, 3, 4, 5]), (0, [3, 6, 9, 12, 13]), (1, [7, 14, 21, 22])])

    def test_power_of_two_gaps(self):
        self.check(2, [(1, [4, 8, 16, 32]), (0, [2, 4, 6, 14, 30])])

    def test_gap_above_2_pow_53(self):
        # Exact only in integer arithmetic: as floats, 2**53 + 1 rounds to
        # 2**53 (one set bit) and 2**54 - 1 to 2**54 (one bit longer).
        lengths = [2**53 + 1, 2**53 + 2**54, 2**62 + 2**54 + 2**53 + 1]
        self.check(2, [(1, [2, 3]), (0, lengths)])

    def test_invalid_tables(self):
        for letters, lengths in [([0, 1], [2, 1]), ([0, 0, 1], [2, 2, 5]), ([0, 0], [5, 3])]:
            with pytest.raises(ValueError):
                build_block_rules(Slp("bytes", [1, 2]), letters, lengths)
