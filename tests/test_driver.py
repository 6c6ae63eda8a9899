import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bodies
from slpcompress import driver
from slpcompress.alphabet import ingest
from slpcompress.driver import compress, run_phase
from slpcompress.grammar import Slp, expand, symbol_lengths
from slpcompress.text import StaleTextError


class TestPlainMode:
    def test_two_distinct_symbols(self):
        result = compress(b"ab", mode="plain")
        assert bodies(result.slp) == [(0, 1), (2,)]
        assert result.slp.start == 3
        assert result.slp.size == 3
        assert len(result.traces) == 1

    def test_two_equal_symbols_block_phase_alone(self):
        result = compress(b"aa", mode="plain")
        assert result.traces[0].blocks_compressed == 1
        assert result.traces[0].pairs_compressed == 0
        assert expand(result.slp) == b"aa"

    def test_unary_power_of_two_sizes(self):
        for exp in (10, 16, 20):
            result = compress(b"a" * 2**exp, mode="plain")
            assert result.slp.size <= 4 * exp + 16
            assert len(result.traces) == 1

    def test_empty_input(self):
        result = compress(b"", mode="plain")
        assert result.slp.start is None
        assert bodies(result.slp) == []
        assert expand(result.slp) == b""

    def test_single_symbol_input(self):
        result = compress(b"x", mode="plain")
        assert bodies(result.slp) == [(0,)]
        assert expand(result.slp) == b"x"


class TestImprovedMode:
    def test_dominates_plain_and_naive(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randrange(0, 300)
            data = bytes(rng.choice(b"abcd") for _ in range(n))
            plain = compress(data, mode="plain")
            improved = compress(data, mode="improved")
            assert improved.slp.size <= min(n + 1, plain.slp.size)
            assert expand(improved.slp) == data

    def test_best_phase_recorded(self):
        result = compress(b"ab" * 10, mode="improved")
        assert result.best_phase is not None
        live, cost = result.phase_table[result.best_phase]
        assert result.slp.size == live + cost

    def test_snapshot_copy_work_bounded(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(2, 500)
            data = bytes(rng.choice(b"ab") for _ in range(n))
            result = compress(data, mode="improved")
            assert result.snapshot_copy_work <= 4 * n

    def test_highly_compressible_prefers_late_phase(self):
        data = b"a" * 4096
        result = compress(data, mode="improved")
        assert result.slp.size < 4096
        assert expand(result.slp) == data

    def test_picks_first_minimum_of_stop_costs(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randrange(1, 400)
            data = bytes(rng.choice(b"abc") for _ in range(n))
            result = compress(data, mode="improved")
            stop_costs = [live + cost for live, cost in result.phase_table]
            assert result.slp.size <= min(stop_costs)
            assert result.best_phase == stop_costs.index(min(stop_costs))


class TestPhase:
    def test_shrink_invariant_on_fixed_seeds(self):
        for seed in (1, 7, 42):
            rng = random.Random(seed)
            data = bytes(rng.choice(b"abcdef") for _ in range(500))
            result = compress(data, mode="plain")
            for trace in result.traces:
                if trace.live_before >= 2:
                    assert trace.live_after <= 0.75 * trace.live_before + 0.25

    def test_phase_requires_two_symbols(self):
        text, _, terminals = ingest(b"a")
        grammar = Slp("bytes", terminals)
        with pytest.raises(ValueError):
            run_phase(text, grammar, 1)

    def test_phase_count_bound(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(2, 2000)
            data = bytes(rng.choice(b"ab") for _ in range(n))
            result = compress(data, mode="plain")
            assert len(result.traces) <= math.ceil(math.log(n, 4 / 3)) + 2

    def test_trace_bookkeeping_consistent(self):
        result = compress(b"abracadabra" * 20, mode="plain")
        for trace in result.traces:
            assert trace.live_after == trace.live_after_blocks - trace.pairs_compressed
            assert trace.live_after_blocks <= trace.live_before
            assert trace.size_after >= trace.size_before
            assert trace.cover_chosen == trace.pairs_compressed

    def test_size_and_phase_table_match_the_run(self):
        for mode in ("plain", "improved"):
            data = b"banana bandana" * 9
            result = compress(data, mode=mode)
            assert result.slp.size == sum(len(b) for b in bodies(result.slp))
            assert result.input_length == len(data) == result.phase_table[0][0]
            # one extra row for the state after the final phase
            assert len(result.phase_table) == len(result.traces) + 1

    def test_every_reader_sees_a_compact_text(self, monkeypatch):
        # Readers find no pending write and no pending runs.  The pair stage
        # leaves a write pending, and live() refuses the text until
        # run_phase compacts it.  The block scan reads a text in run form in
        # the first phase, as ingest leaves it, and a compact one later; the
        # block write leaves it compact.
        calls = []

        def reader(name):
            original = getattr(driver, name)

            def guarded(text, *args):
                assert text.kept is None and text.runs is None, f"{name} got a pending change"
                assert len(text.cells) == len(text)
                calls.append(name)
                return original(text, *args)

            monkeypatch.setattr(driver, name, guarded)

        scan = driver.scan_blocks

        def guarded_scan(text):
            assert text.kept is None
            calls.append(("scan_blocks", "runs" if text.runs is not None else "compact"))
            return scan(text)

        blocks = driver.compress_blocks

        def guarded_blocks(text, *args):
            epoch = text.epoch
            out = blocks(text, *args)
            assert text.epoch == epoch, "compress_blocks compacted the text itself"
            assert text.kept is None and text.runs is None
            assert len(text.cells) == len(text)
            calls.append("compress_blocks")
            return out

        pairs = driver.compress_pairs

        def guarded_pairs(text, *args):
            epoch = text.epoch
            out = pairs(text, *args)
            assert text.epoch == epoch, "compress_pairs compacted the text itself"
            if text.kept is not None:
                with pytest.raises(StaleTextError):
                    text.live()
                calls.append("compress_pairs")
            return out

        for name in ("rename_dense", "build_adjacency"):
            reader(name)
        monkeypatch.setattr(driver, "scan_blocks", guarded_scan)
        monkeypatch.setattr(driver, "compress_blocks", guarded_blocks)
        monkeypatch.setattr(driver, "compress_pairs", guarded_pairs)
        data = b"aaab" * 50 + b"abcabcbbbcca" * 40
        for mode in ("plain", "improved"):
            result = compress(data, mode=mode)
            assert expand(result.slp) == data
        assert set(calls) == {
            "rename_dense", "build_adjacency", "compress_blocks", "compress_pairs",
            ("scan_blocks", "runs"), ("scan_blocks", "compact"),
        }


class TestRoundtrip:
    @given(st.binary(max_size=2000))
    @settings(max_examples=150, deadline=None)
    def test_bytes_both_modes(self, data):
        for mode in ("plain", "improved"):
            result = compress(data, mode=mode)
            symbol_lengths(result.slp)
            assert expand(result.slp) == data

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_tokens_both_modes(self, data):
        for mode in ("plain", "improved"):
            result = compress(data, mode=mode, kind="tokens")
            symbol_lengths(result.slp)
            assert expand(result.slp) == data

    def test_structured_inputs(self):
        cases = [
            b"abcabcabcabc" * 50,
            bytes(range(256)) * 4,
            b"aabbccdd" * 100,
            b"x" + b"y" * 999,
            np.random.default_rng(0).integers(0, 2, 4096, dtype=np.uint8).tobytes(),
        ]
        for data in cases:
            for mode in ("plain", "improved"):
                result = compress(data, mode=mode)
                assert expand(result.slp) == data

    def test_all_distinct_tokens(self):
        # sigma == N: the widest possible alphabet, nothing compressible.
        data = [i * 977 for i in range(3000)]
        for mode in ("plain", "improved"):
            result = compress(data, mode=mode, kind="tokens")
            assert expand(result.slp) == data
        improved = compress(data, mode="improved", kind="tokens")
        assert improved.slp.size == 3000  # the verbatim snapshot wins

    def test_driver_output_serializes_bit_exact(self):
        from slpcompress.grammar import deserialize, serialize

        rng = random.Random(13)
        for kind in ("bytes", "tokens"):
            for mode in ("plain", "improved"):
                n = rng.randrange(0, 600)
                if kind == "bytes":
                    data = bytes(rng.randrange(7) for _ in range(n))
                else:
                    data = [rng.randrange(7) * 10**6 for _ in range(n)]
                slp = compress(data, mode=mode, kind=kind).slp
                text = serialize(slp)
                back = deserialize(text)
                assert back == slp
                assert serialize(back) == text
                assert expand(back) == data


def test_mode_validation():
    with pytest.raises(ValueError):
        compress(b"ab", mode="fast")
