import random

import pytest

from helpers import (
    block_oracle,
    canonical_of,
    live_list,
    maximal_block_lengths,
    pair_oracle,
    random_runslp,
    side_of,
    symbol_of_block,
    symbol_of_pair,
)
from rewriting_lab import (
    CreditMeter,
    Ref,
    Run,
    RunSlp,
    RunSlpError,
    compress_noncrossing_blocks,
    compress_noncrossing_pair,
    crossing_blocks_report,
    crossing_report,
    deserialize_runslp,
    explicit_block_lengths,
    first_last_letters,
    pop_boundary_runs,
    pop_letters,
    serialize_runslp,
)


class TestRunSlpBasics:
    def test_eval_and_lengths(self):
        slp = RunSlp([[Run(0, 2), Run(1, 1)], [Ref(0), Ref(0)]])
        assert slp.eval(0) == [0, 0, 1]
        assert slp.eval() == [0, 0, 1, 0, 0, 1]
        assert slp.eval_lengths() == [3, 6]

    def test_runs_normalized(self):
        slp = RunSlp([[Run(0, 2), Run(0, 3), Run(1, 1)]])
        assert slp.bodies[0] == [Run(0, 5), Run(1, 1)]

    def test_validation_rejects_upward_refs(self):
        slp = RunSlp([[Run(0, 1)], [Ref(1)]])
        with pytest.raises(RunSlpError):
            slp.validate()

    def test_validation_rejects_three_refs(self):
        slp = RunSlp([[Run(0, 1)], [Ref(0), Run(1, 1), Ref(0), Run(0, 1), Ref(0)]])
        with pytest.raises(RunSlpError):
            slp.validate()

    def test_eval_cap(self):
        slp = RunSlp([[Run(0, 10**6 + 1)]])
        with pytest.raises(RunSlpError):
            slp.eval()


class TestFirstLast:
    def test_explicit_rule(self):
        slp = RunSlp([[Run(0, 1), Run(1, 1)]])
        first, last, empty = first_last_letters(slp)
        assert (first[0], last[0], empty[0]) == (0, 1, False)

    def test_through_references(self):
        slp = RunSlp([[Run(0, 1), Run(1, 1)], [Ref(0), Ref(0)]])
        first, last, empty = first_last_letters(slp)
        assert (first[1], last[1]) == (0, 1)

    def test_random_against_expansion(self):
        rng = random.Random(12)
        for _ in range(40):
            slp = random_runslp(rng, max_rules=12, expansion_cap=10**4)
            first, last, empty = first_last_letters(slp)
            for i in range(len(slp.bodies)):
                ev = slp.eval(i)
                if ev:
                    assert first[i] == ev[0]
                    assert last[i] == ev[-1]
                    assert not empty[i]
                else:
                    assert empty[i]


class TestCrossingReports:
    def test_suffix_witness(self):
        # First rule derives "a"; "first-rule b" makes ab cross its boundary.
        slp = RunSlp([[Run(0, 1)], [Ref(0), Run(1, 1)]])
        report = crossing_report(slp, {0}, {1})
        assert len(report) == 1
        assert report[0].kind == "suffix"
        assert (report[0].left, report[0].right) == (0, 1)

    def test_prefix_and_bridge_witnesses(self):
        slp = RunSlp([[Run(1, 1)], [Run(0, 1), Ref(0)]])
        assert crossing_report(slp, {0}, {1})[0].kind == "prefix"
        slp2 = RunSlp([[Run(0, 1)], [Run(1, 1)], [Ref(0), Ref(1)]])
        assert crossing_report(slp2, {0}, {1})[0].kind == "bridge"

    def test_empty_grammar(self):
        assert crossing_report(RunSlp([]), {0}, {1}) == []
        assert crossing_blocks_report(RunSlp([])) == []

    def test_blocks_witness_is_equal_letter_boundary(self):
        slp = RunSlp([[Run(0, 2)], [Run(0, 1), Ref(0)]])
        report = crossing_blocks_report(slp)
        assert report and report[0].left == report[0].right == 0

    def test_explicit_pair_is_not_crossing(self):
        slp = RunSlp([[Run(0, 1), Run(1, 1)]])
        assert crossing_report(slp, {0}, {1}) == []


class TestPopLetters:
    def test_hand_trace_empties_and_removes(self):
        # Rules: first -> "b"; start -> "a" first.  Popping empties the first.
        slp = RunSlp([[Run(1, 1)], [Run(0, 1), Ref(0)]])
        out = pop_letters(slp, {0}, {1})
        assert out.removed[0]
        assert out.bodies[1] == [Run(0, 1), Run(1, 1)]
        assert out.eval() == slp.eval() == [0, 1]

    def test_empty_classes_identity(self):
        rng = random.Random(3)
        slp = random_runslp(rng, max_rules=8, expansion_cap=10**4)
        out = pop_letters(slp, set(), set())
        assert out.bodies == slp.bodies
        assert out.eval() == slp.eval()

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            pop_letters(RunSlp([[Run(0, 1)]]), {0}, {0})

    def test_random_eval_preserved_and_uncrossed(self):
        rng = random.Random(29)
        for _ in range(60):
            slp = random_runslp(rng, max_rules=15, expansion_cap=10**4)
            letters = list(range(slp.alphabet_size))
            rng.shuffle(letters)
            half = rng.randrange(len(letters) + 1)
            left, right = set(letters[:half]), set(letters[half:])
            meter = CreditMeter()
            out = pop_letters(slp, left, right, meter)
            assert out.eval() == slp.eval()
            assert crossing_report(out, left, right) == []
            assert all(v <= 4 for v in meter.per_rule.values())
            assert meter.issued <= 8 * len(slp.bodies)
            out.validate()


class TestCompressNoncrossingPair:
    def test_single_rule(self):
        slp = RunSlp([[Run(0, 1), Run(1, 1)]])
        out = compress_noncrossing_pair(slp, 0, 1, 5)
        assert out.eval() == [5]

    def test_absent_pair_identity(self):
        slp = RunSlp([[Run(1, 1), Run(0, 1)]])
        out = compress_noncrossing_pair(slp, 0, 1, 5)
        assert out.eval() == slp.eval()

    def test_crossing_pair_rejected(self):
        slp = RunSlp([[Run(0, 1)], [Ref(0), Run(1, 1)]])
        with pytest.raises(ValueError, match="crossing"):
            compress_noncrossing_pair(slp, 0, 1, 5)

    def test_equal_letters_rejected(self):
        with pytest.raises(ValueError):
            compress_noncrossing_pair(RunSlp([[Run(0, 2)]]), 0, 0, 5)

    def test_random_post_pop_matches_string_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            slp = random_runslp(rng, max_rules=15, expansion_cap=10**4)
            a = rng.randrange(slp.alphabet_size)
            b = rng.randrange(slp.alphabet_size)
            if a == b:
                continue
            popped = pop_letters(slp, {a}, {b})
            c = slp.alphabet_size
            meter = CreditMeter()
            out = compress_noncrossing_pair(popped, a, b, c, meter)
            want = pair_oracle(slp.eval(), a, b, c)
            assert out.eval() == want
            replaced = sum(
                1
                for j, body in enumerate(popped.bodies)
                if not popped.removed[j]
                for x, y in zip(body, body[1:])
                if isinstance(x, Run) and isinstance(y, Run)
                and x.sym == a and y.sym == b
            )
            assert meter.released == 4 * replaced
            out.validate()


class TestPopBoundaryRuns:
    def test_hand_trace(self):
        # First rule derives aa; start = a first b, so the start body
        # becomes the runs (a,3)(b,1) and the first rule disappears.
        slp = RunSlp([[Run(0, 2)], [Run(0, 1), Ref(0), Run(1, 1)]])
        out = pop_boundary_runs(slp)
        assert out.removed[0]
        assert out.bodies[1] == [Run(0, 3), Run(1, 1)]
        assert out.eval() == slp.eval() == [0, 0, 0, 1]

    def test_no_crossing_blocks_bodies_stable(self):
        slp = RunSlp([[Run(0, 1), Run(1, 2), Run(0, 1)], [Ref(0), Run(2, 1), Ref(0)]])
        out = pop_boundary_runs(slp)
        assert out.eval() == slp.eval()
        assert crossing_blocks_report(out) == []
        # interior of the popped rule survives; only its ends moved
        assert out.bodies[0] == [Run(1, 2)]

    def test_random_eval_preserved_no_crossing_blocks(self):
        rng = random.Random(59)
        for _ in range(60):
            slp = random_runslp(rng, max_rules=15, expansion_cap=10**4, big_runs=True)
            meter = CreditMeter()
            out = pop_boundary_runs(slp, meter)
            assert out.eval() == slp.eval()
            assert crossing_blocks_report(out) == []
            assert all(v <= 4 for v in meter.per_rule.values())
            assert meter.issued <= 8 * len(slp.bodies)
            out.validate()


class TestCompressNoncrossingBlocks:
    def test_single_run(self):
        slp = RunSlp([[Run(0, 3)]])
        out = compress_noncrossing_blocks(slp, 0, {3: 9})
        assert out.eval() == [9]

    def test_absent_letter_identity(self):
        slp = RunSlp([[Run(1, 1), Run(2, 2)]])
        out = compress_noncrossing_blocks(slp, 0, {})
        assert out.eval() == slp.eval()

    def test_crossing_block_rejected(self):
        slp = RunSlp([[Run(0, 2)], [Run(0, 1), Ref(0)]])
        with pytest.raises(ValueError, match="crossing"):
            compress_noncrossing_blocks(slp, 0, {2: 9})

    def test_missing_fresh_symbol_rejected(self):
        slp = RunSlp([[Run(0, 3)]])
        with pytest.raises(ValueError, match="fresh"):
            compress_noncrossing_blocks(slp, 0, {2: 9})

    def test_random_post_uncross_matches_string_oracle(self):
        rng = random.Random(71)
        for _ in range(60):
            slp = random_runslp(rng, max_rules=15, expansion_cap=10**4, big_runs=True)
            letter = rng.randrange(slp.alphabet_size)
            uncrossed = pop_boundary_runs(slp)
            lengths = explicit_block_lengths(uncrossed, letter)
            assert lengths == maximal_block_lengths(slp.eval(), letter)
            fresh = {l: slp.alphabet_size + i for i, l in enumerate(lengths)}
            out = compress_noncrossing_blocks(uncrossed, letter, fresh)
            assert out.eval() == block_oracle(slp.eval(), letter, fresh)
            out.validate()


class TestExponentialTowers:
    """Popped prefixes of exponential length must stay single run items."""

    def test_uniform_tower_collapses_to_one_run(self):
        depth = 19
        bodies = [[Run(0, 2)]]
        for i in range(depth):
            bodies.append([Ref(i), Ref(i)])
        slp = RunSlp(bodies, alphabet_size=1)
        meter = CreditMeter()
        out = pop_boundary_runs(slp, meter)
        assert all(out.removed[:-1])
        assert out.bodies[out.start] == [Run(0, 2** (depth + 1))]
        assert all(v <= 4 for v in meter.per_rule.values())
        fresh = {2 ** (depth + 1): 9}
        compressed = compress_noncrossing_blocks(out, 0, fresh)
        assert compressed.eval() == [9]

    def test_pair_tower_matches_oracle_at_scale(self):
        depth = 17
        bodies = [[Run(0, 1), Run(1, 1)]]
        for i in range(depth):
            bodies.append([Ref(i), Ref(i)])
        slp = RunSlp(bodies, alphabet_size=2)
        word = slp.eval()
        assert len(word) == 2** (depth + 1)
        popped = pop_letters(slp, {0}, {1})
        out = compress_noncrossing_pair(popped, 0, 1, 7)
        assert out.eval() == pair_oracle(word, 0, 1, 7)


class TestRunSlpSerialization:
    def test_run_rendering(self):
        slp = RunSlp([[Run(0, 3), Run(1, 1)], [Ref(0), Run(0, 2), Ref(0)]], alphabet_size=2)
        text = serialize_runslp(slp)
        assert text.splitlines()[4] == "2 0^3 1"
        assert text.splitlines()[5] == "3 2 0^2 2"
        back = deserialize_runslp(text)
        assert back.eval() == slp.eval()
        assert serialize_runslp(back) == text

    def test_removed_rules_compacted(self):
        slp = RunSlp([[Run(1, 1)], [Run(0, 1), Ref(0)]])
        out = pop_letters(slp, {0}, {1})
        text = serialize_runslp(out)
        back = deserialize_runslp(text)
        assert back.eval() == out.eval()
        assert len(back.bodies) == 1

    def test_random_roundtrip(self):
        rng = random.Random(83)
        for _ in range(40):
            slp = random_runslp(rng, max_rules=12, expansion_cap=10**4)
            back = deserialize_runslp(serialize_runslp(slp))
            assert back.eval() == slp.eval()

    def test_ref_with_multiplicity_rejected(self):
        text = "SLP 1\nterminals 1 tokens\n0\nrules 2\n1 0^2\n1 1^2\nstart 2\n"
        with pytest.raises(RunSlpError):
            deserialize_runslp(text)

    @pytest.mark.parametrize(
        "payload",
        [
            "SLP 1\nterminals 1 tokens\n0\nrules 1\n1 0^0\nstart 1\n",  # zero mult
            "SLP 1\nterminals 1 tokens\n0\nrules 1\n2 0\nstart 1\n",  # count lies
            "SLP 1\nterminals 1 tokens\n0\nrules 2\n1 0\nstart 2\n",  # truncated
            "SLP 1\nterminals 1 tokens\n0\nrules 1\n1 2\nstart 1\n",  # forward ref
            "SLP 1\nterminals 2 tokens\n0 5\nrules 0\nstart empty\n",  # non-identity
        ],
    )
    def test_malformed_rejected(self, payload):
        with pytest.raises(RunSlpError):
            deserialize_runslp(payload)


class TestSimulatedPhaseMatchesTextPhase:
    """One grammar-level phase equals the text-level phase on the expansion."""

    def test_random_instances(self):
        import numpy as np

        from slpcompress.blocks import compress_blocks, scan_blocks
        from slpcompress.grammar import Slp
        from slpcompress.pairs import build_adjacency, compress_pairs, greedy_partition
        from slpcompress.text import WorkingText

        rng = random.Random(97)
        done = 0
        while done < 25:
            slp = random_runslp(rng, max_rules=10, expansion_cap=5000, big_runs=True)
            s = slp.eval()
            if len(s) < 2:
                continue
            done += 1
            sigma = slp.alphabet_size
            # Text side: a new text's identity aliases keep the lab grammar's letters.
            text = WorkingText(np.array(s, dtype=np.int64))
            grammar = Slp("tokens", list(range(sigma)))
            blocks = compress_blocks(text, scan_blocks(text), grammar)
            text.compact()
            adj = build_adjacency(text)
            part = greedy_partition(adj)
            pairs = compress_pairs(text, part, adj, grammar)
            text.compact()
            text_canonical = [canonical_of(text, w) for w in live_list(text)]

            # Grammar side, reusing the text side's fresh names and split.
            g = pop_boundary_runs(slp)
            for letter in sorted(set(s)):
                fresh = {
                    length: sym
                    for (lt, length), sym in symbol_of_block(blocks).items()
                    if lt == letter
                }
                g = compress_noncrossing_blocks(g, letter, fresh)
            left = set()
            right = set()
            for w in range(text.width):
                side = side_of(part, w)
                if side == "left":
                    left.add(canonical_of(text, w))
                elif side == "right":
                    right.add(canonical_of(text, w))
            g = pop_letters(g, left, right)
            for (ca, cb), sym in sorted(symbol_of_pair(pairs).items()):
                g = compress_noncrossing_pair(g, ca, cb, sym)
            assert g.eval() == text_canonical
