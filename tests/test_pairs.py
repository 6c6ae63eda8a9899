import itertools
import math
import random

import numpy as np
import pytest

from helpers import (
    bodies,
    checked_split,
    left_of,
    live_list,
    pair_occurrences,
    partition_from_sets,
    right_of,
    side_of,
    total_occurrences,
)
from slpcompress import driver, pairs
from slpcompress.alphabet import ingest, rename_dense
from slpcompress.blocks import compress_blocks, scan_blocks
from slpcompress.grammar import Slp, expand
from slpcompress.pairs import (
    Partition,
    _pair_keys,
    build_adjacency,
    compress_pairs,
    distinct_pairs,
    greedy_partition,
)
from slpcompress.text import StaleTextError, WorkingText


def best_one_directional_cover(symbols):
    """Exhaustive oracle: max occurrences covered by any left/right split."""
    alphabet = sorted(set(symbols))
    best = 0
    for bits in itertools.product((0, 1), repeat=len(alphabet)):
        side = dict(zip(alphabet, bits))
        cover = sum(
            1
            for x, y in zip(symbols, symbols[1:])
            if side[x] == 0 and side[y] == 1
        )
        best = max(best, cover)
    return best


class TestBuildAdjacency:
    def test_hand_scan(self):
        text = ingest(b"abcab")[0]
        adj = build_adjacency(text)
        assert right_of(adj, 0) == [(1, [0, 3])]
        assert right_of(adj, 1) == [(2, [1])]
        assert right_of(adj, 2) == [(0, [2])]
        assert left_of(adj, 1) == [(0, [0, 3])]

    def test_single_symbol_all_lists_empty(self):
        text = ingest(b"a")[0]
        adj = build_adjacency(text)
        assert total_occurrences(adj) == 0
        assert right_of(adj, 0) == []

    def test_occurrence_lists_sum_to_length_minus_one(self):
        rng = random.Random(4)
        for _ in range(30):
            data = bytes(rng.choice(b"abcd") for _ in range(rng.randrange(1, 100)))
            # strip equal-adjacent repetitions to satisfy the precondition
            data = bytes(c for i, c in enumerate(data) if i == 0 or c != data[i - 1])
            text = ingest(data)[0]
            adj = build_adjacency(text)
            assert total_occurrences(adj) == max(0, len(text) - 1)

    def test_equal_adjacent_symbols_rejected(self):
        text = WorkingText([0, 0, 1])
        with pytest.raises(ValueError, match="block compression"):
            build_adjacency(text)

    def test_pair_occurrence_records(self):
        text = ingest(b"abcab")[0]
        adj = build_adjacency(text)
        recs = [(o.first, o.second, o.pos) for o in pair_occurrences(adj)]
        assert sorted(recs) == [(0, 1, 0), (0, 1, 3), (1, 2, 1), (2, 0, 2)]
        # each adjacent position appears exactly once
        assert sorted(r[2] for r in recs) == [0, 1, 2, 3]


    @pytest.mark.parametrize("seed", range(12))
    def test_counting_and_radix_paths_agree(self, seed):
        # One text, read at two widths: its own, where width**2 is at most
        # the adjacencies and the keys are counted, and one widened by ids
        # that do not occur, where they are radix sorted.
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, rng.integers(2, 13), rng.integers(200, 3000))
        symbols = symbols[np.r_[True, symbols[1:] != symbols[:-1]]]
        counted_text, sorted_text = WorkingText(symbols), WorkingText(symbols)
        sorted_text.mint(np.zeros(len(symbols), dtype=np.int64))
        assert counted_text.width ** 2 <= len(symbols) - 1 < sorted_text.width ** 2
        counted, radix = build_adjacency(counted_text), build_adjacency(sorted_text)
        for name in ("pair_a", "pair_b", "pair_count", "pair_of"):
            assert np.array_equal(getattr(counted, name), getattr(radix, name)), name
        pairs_at = list(zip(symbols[:-1].tolist(), symbols[1:].tolist()))
        distinct = sorted(set(pairs_at))
        assert list(zip(counted.pair_a.tolist(), counted.pair_b.tolist())) == distinct
        assert counted.pair_of.tolist() == [distinct.index(p) for p in pairs_at]
        assert counted.pair_count.tolist() == [pairs_at.count(p) for p in distinct]


class TestDistinctPairs:
    @staticmethod
    def oracle(text):
        lv = text.live().tolist()
        return len(set(zip(lv, lv[1:])))

    @staticmethod
    def text_of(data: bytes) -> WorkingText:
        """A compact text of ``data``, numbered by byte value, equal neighbours kept."""
        return WorkingText(np.unique(np.frombuffer(data, dtype=np.uint8), return_inverse=True)[1])

    @pytest.mark.parametrize("data", [b"", b"a", b"ab", b"aa", b"aaab", b"abab", b"aabbaabb"])
    def test_short_texts(self, data):
        text = self.text_of(data)
        assert distinct_pairs(text) == self.oracle(text)

    def test_equal_neighbours_count(self):
        rng = random.Random(8)
        for _ in range(200):
            runs = range(rng.randrange(60))
            data = b"".join(rng.choice([b"a", b"b", b"c", b"d"]) * rng.randrange(1, 5) for _ in runs)
            text = self.text_of(data)
            assert distinct_pairs(text) == self.oracle(text)

    def test_wide_interval_takes_three_radix_passes(self):
        width = 78970
        rng = np.random.default_rng(21)
        lv = rng.integers(0, width, 30000)
        lv[:4] = [0, 0, width - 1, width - 1]
        lv[100:200] = lv[300:400]  # repeated pairs
        text = WorkingText(lv)
        assert text.width == width
        bound = _pair_keys(text)[1]
        assert 32 < (bound - 1).bit_length() <= 48
        assert distinct_pairs(text) == self.oracle(text)


class TestGreedyPartition:
    def test_two_letter_trace(self):
        # a is a tie -> left; b then has a left count of 1 -> right.
        text = ingest(b"ab")[0]
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        assert side_of(part, 0) == "left"
        assert side_of(part, 1) == "right"
        assert part.cover_chosen == 1

    def test_alternating_word(self):
        text = ingest(b"ababab")[0]
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        assert part.cover_chosen >= math.ceil((6 - 1) / 4)
        # Deterministic outcome: repeated runs agree.
        text2 = ingest(b"ababab")[0]
        part2 = greedy_partition(build_adjacency(text2))
        assert side_of(part, 0) == side_of(part2, 0)
        assert side_of(part, 1) == side_of(part2, 1)

    def test_single_symbol_text(self):
        text = ingest(b"a")[0]
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        assert part.cover_chosen == 0
        assert part.cover_pre_swap == 0

    def test_against_exhaustive_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            sigma = rng.randrange(2, 9)
            n = rng.randrange(2, 60)
            data = []
            while len(data) < n:
                c = rng.randrange(sigma)
                if not data or data[-1] != c:
                    data.append(c)
            text = ingest(bytes(data))[0]
            adj = build_adjacency(text)
            part = greedy_partition(adj)
            m = len(data)
            assert part.cover_chosen >= math.ceil((m - 1) / 4)
            assert 2 * part.cover_pre_swap >= m - 1
            best = best_one_directional_cover(live_list(text))
            assert 2 * part.cover_pre_swap >= best

    def test_sides_disjoint_and_total(self):
        rng = random.Random(23)
        for _ in range(20):
            data = []
            for _ in range(rng.randrange(2, 50)):
                c = rng.randrange(5)
                if not data or data[-1] != c:
                    data.append(c)
            text = ingest(bytes(data))[0]
            part = greedy_partition(build_adjacency(text))
            for sym in set(live_list(text)):
                assert side_of(part, sym) in ("left", "right")
            assert not (part.in_left & part.in_right).any()


def adjacency_of(symbols, width):
    """The adjacency of a working text over ``[0, width)``."""
    text = WorkingText(np.asarray(symbols, dtype=np.int64))
    text.mint(np.arange(text.width, width))  # widen the alphabet to [0, width)
    return build_adjacency(text)


def inner_and_blocks(adj):
    """How many edges share a block, and how many blocks the split cuts."""
    shift = pairs._block_shift(len(adj.pair_a), adj.width)
    lo = np.minimum(adj.pair_a, adj.pair_b)
    hi = np.maximum(adj.pair_a, adj.pair_b)
    inner = int(np.count_nonzero(lo >> shift == hi >> shift))
    return inner, -(-adj.width // (1 << shift))


class TestBlockedSplit:
    """The blocked walk against the two-counter reference split.

    Lowering ``_EDGES_PER_BLOCK`` cuts hand-sized adjacencies into several
    blocks; the block size changes how the walk is cut, never its result.
    """

    @pytest.mark.parametrize("per_block", [1, 1024])
    @pytest.mark.parametrize(
        "symbols,width", [([], 0), ([], 1), ([0], 1), ([0], 2), ([0, 1], 2), ([1, 0], 2)]
    )
    def test_empty_and_tiny(self, monkeypatch, per_block, symbols, width):
        monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", per_block)
        part = checked_split(adjacency_of(symbols, width))
        assert len(part.in_left) == width

    def test_path_of_2_17_edges(self):
        # Only the edges across the block boundaries are outer.
        n = 2**17
        adj = adjacency_of(np.arange(n + 1), n + 1)
        inner, blocks = inner_and_blocks(adj)
        assert blocks >= 32 and inner == n - (blocks - 1)
        part = checked_split(adj)
        assert part.in_right[1::2].all() and part.in_left[0::2].all()

    def test_all_outer_bipartite(self):
        left, right = range(64), range(64, 128)
        adj = adjacency_of([x for a in left for b in right for x in (a, b)], 128)
        inner, blocks = inner_and_blocks(adj)
        assert len(adj.pair_a) > 4096 and blocks == 4 and inner == 0
        checked_split(adj)

    def test_tie_goes_left(self, monkeypatch):
        # 0 goes left and 1 right; 2 then meets each once, and the tie goes left.
        monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", 1)
        adj = adjacency_of([0, 1, 2, 0], 3)
        assert inner_and_blocks(adj) == (0, 3)
        balance = pairs._balances(adj.pair_a, adj.pair_b, adj.pair_count, adj.width)
        assert balance.tolist() == [0, -1, 0]
        part = checked_split(adj)
        assert side_of(part, 2) == side_of(part, 0) != side_of(part, 1)

    def test_ids_on_both_sides_of_a_block_boundary(self, monkeypatch):
        # Blocks [0, 4) and [4, 8); 3 and 4 meet three times.
        monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", 4)
        adj = adjacency_of([3, 4, 3, 5, 2, 4, 6, 1, 7, 0, 4, 1, 2, 3, 4, 5], 8)
        assert pairs._block_shift(len(adj.pair_a), adj.width) == 2
        inner, blocks = inner_and_blocks(adj)
        assert blocks == 2 and 0 < inner < len(adj.pair_a)
        checked_split(adj)

    def test_partial_last_block(self):
        width = 3001
        symbols = np.random.default_rng(5).integers(0, width, 20000)
        adj = adjacency_of(symbols[np.append(True, symbols[1:] != symbols[:-1])], width)
        shift = pairs._block_shift(len(adj.pair_a), width)
        inner, blocks = inner_and_blocks(adj)
        assert blocks > 8 and width % (1 << shift) and inner > 0
        checked_split(adj)

    def test_final_swap_fires(self, monkeypatch):
        # 0 left, 1 right, 2 left, 3 right: (3, 2) and (1, 0) run right to left.
        monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", 1)
        adj = adjacency_of([3, 2, 1, 0], 4)
        assert inner_and_blocks(adj) == (2, 2)
        part = checked_split(adj)
        assert part.swapped and part.cover_chosen == 2

    @pytest.mark.parametrize("per_block", [1, 2, 3, 16])
    def test_random_small_alphabets(self, monkeypatch, per_block):
        monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", per_block)
        rng = np.random.default_rng(per_block)
        swaps = 0
        for _ in range(60):
            width = int(rng.integers(2, 40))
            symbols = rng.integers(0, width, int(rng.integers(2, 300)))
            symbols = symbols[np.append(True, symbols[1:] != symbols[:-1])]
            swaps += checked_split(adjacency_of(symbols, width)).swapped
        assert swaps > 0


def many_block_inputs(n=2**15):
    rng = np.random.default_rng(2718)
    yield rng.integers(0, 64, n, dtype=np.uint8).tobytes()  # random bytes
    doc = rng.integers(97, 123, 2048, dtype=np.uint8)
    revisions = []
    for _ in range(n // len(doc)):  # revisions, a few point edits each
        doc = doc.copy()
        doc[rng.integers(0, len(doc), 3)] = rng.integers(97, 123, 3)
        revisions.append(doc)
    yield np.concatenate(revisions).tobytes()
    values = rng.zipf(1.3, n) % 2**32  # Zipf tokens in geometric runs
    yield np.repeat(values, rng.geometric(0.4, n))[:n].tolist()


def test_split_matches_reference_across_many_blocks(monkeypatch):
    """Whole compressions whose phases cut the alphabet into dozens of blocks.

    A smaller block target brings 2^15-symbol inputs to the block counts
    that 2^18-symbol ones reach at the module's own; the block size
    changes how the walk is cut, never its result.
    """
    monkeypatch.setattr(pairs, "_EDGES_PER_BLOCK", 256)
    most_blocks = 0

    def spy(adj):
        nonlocal most_blocks
        most_blocks = max(most_blocks, inner_and_blocks(adj)[1])
        return checked_split(adj)

    monkeypatch.setattr(driver, "greedy_partition", spy)
    for data in many_block_inputs():
        for mode in ("plain", "improved"):
            assert expand(driver.compress(data, mode=mode).slp) == data
    assert most_blocks >= 32


class TestCompressPairs:
    def test_hand_trace(self):
        text, _, terminals = ingest(b"abcab")
        grammar = Slp("bytes", terminals)
        adj = build_adjacency(text)
        part = partition_from_sets(text.width, left={0}, right={1, 2})
        result = compress_pairs(text, part, adj, grammar)
        assert result.occurrences_replaced == 2
        text.compact()
        live = live_list(text)
        assert live[0] == live[2] != 2 and live[1] == 2
        assert bodies(grammar) == [(0, 1)]

    def test_no_selected_pairs_is_identity(self):
        text, _, terminals = ingest(b"abcab")
        grammar = Slp("bytes", terminals)
        adj = build_adjacency(text)
        part = partition_from_sets(text.width, left={1, 2}, right=set())
        result = compress_pairs(text, part, adj, grammar)
        assert result.occurrences_replaced == 0
        assert bodies(grammar) == []
        assert live_list(text) == [0, 1, 2, 0, 1]

    def test_overlapping_selection_refused_before_the_write(self):
        # Classes that share a symbol select both (a, b) and (b, a) in "aba":
        # the occurrence at 1 starts on the cell that the one at 0 drops.
        text, _, terminals = ingest(b"aba")
        grammar = Slp("bytes", terminals)
        adj = build_adjacency(text)
        both = np.ones(text.width, dtype=bool)
        with pytest.raises(ValueError, match="another pair's second cell"):
            compress_pairs(text, Partition(both, both), adj, grammar)
        assert text.live().tolist() == [0, 1, 0]

    def test_fresh_symbols_not_recompressed(self):
        text, _, terminals = ingest(b"abab")
        grammar = Slp("bytes", terminals)
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        result = compress_pairs(text, part, adj, grammar)
        text.compact()
        for sym in set(live_list(text)):
            if sym >= 2:  # a fresh symbol
                assert side_of(part, sym) is None

    def test_stale_positions_rejected(self):
        text, _, terminals = ingest(b"abcabc")
        grammar = Slp("bytes", terminals)
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        compress_pairs(text, part, adj, grammar)
        rules = bodies(grammar)
        with pytest.raises(StaleTextError):  # the write is pending
            compress_pairs(text, part, adj, grammar)
        text.compact()
        with pytest.raises(StaleTextError):  # the write is applied
            compress_pairs(text, part, adj, grammar)
        assert bodies(grammar) == rules

    def test_coverage_accounting_matches_replacements(self):
        rng = random.Random(31)
        for _ in range(40):
            data = []
            for _ in range(rng.randrange(2, 200)):
                c = rng.randrange(6)
                if not data or data[-1] != c:
                    data.append(c)
            text, _, terminals = ingest(bytes(data))
            grammar = Slp("bytes", terminals)
            adj = build_adjacency(text)
            part = greedy_partition(adj)
            before = len(text)
            result = compress_pairs(text, part, adj, grammar)
            assert result.occurrences_replaced == part.cover_chosen
            assert len(text) == before - result.occurrences_replaced
            assert result.occurrences_replaced >= math.ceil((before - 1) / 4)


def test_rename_between_adjacency_and_pair_stage_refused():
    # A rename renumbers the cells that the adjacency's positions and pairs
    # describe, so a pair stage on the renamed text would write wrong rules.
    rng = random.Random(5)
    for _ in range(400):
        data = bytes(rng.choice(b"abcd") for _ in range(rng.randrange(8, 61)))
        text, _, terminals = ingest(data)
        grammar = Slp("bytes", terminals)
        driver.run_phase(text, grammar, 1)
        compress_blocks(text, scan_blocks(text), grammar)
        adj = build_adjacency(text)
        part = greedy_partition(adj)
        rename_dense(text)
        cells, alias, rules = text.cells.copy(), text.alias.copy(), bodies(grammar)
        with pytest.raises(StaleTextError):
            compress_pairs(text, part, adj, grammar)
        assert bodies(grammar) == rules, data
        assert text.kept is None and text.runs is None
        assert np.array_equal(text.cells, cells) and np.array_equal(text.alias, alias), data


def test_full_phase_pair_stage_after_blocks():
    # Fresh block symbols take part in the same phase's pair stage.
    text, _, terminals = ingest(b"aab")
    grammar = Slp("bytes", terminals)
    compress_blocks(text, scan_blocks(text), grammar)
    adj = build_adjacency(text)
    part = greedy_partition(adj)
    result = compress_pairs(text, part, adj, grammar)
    text.compact()
    assert result.occurrences_replaced == 1
    assert len(text) == 1
