"""Narrow working arrays: ids and positions in the narrowest dtype for their bound.

The text's cells take, when they are built, the narrowest unsigned dtype
that holds every id their phase can mint, so the stages write into them
without widening.  Pair and block keys take the narrowest dtype below their
bound, and the products that build them must not wrap in it.  The seeded
compressions below cross 2**8 and 2**16 inside one phase, where a dtype
chosen from the width at the phase's start alone would wrap.
"""

import random

import numpy as np
import pytest
from helpers import checked_split

from slpcompress import driver, pairs
from slpcompress.alphabet import radix_argsort
from slpcompress.blocks import scan_blocks
from slpcompress.grammar import expand
from slpcompress.pairs import build_adjacency, distinct_pairs
from slpcompress.text import WorkingText, narrow_dtype


def crossing_inputs():
    """Seeded inputs whose alphabet outgrows 2**8 or 2**16 inside a phase."""
    rng = random.Random(4093)
    for _ in range(4):  # bytes over 150 to 250 values: phase 1 mints past 256
        sigma = rng.randint(150, 250)
        yield bytes(rng.randrange(sigma) for _ in range(rng.randint(1500, 4000)))
    for _ in range(4):  # the same, with runs for the block stage
        sigma = rng.randint(150, 250)
        out = bytearray()
        while len(out) < 3000:
            out += bytes([rng.randrange(sigma)]) * rng.choice([1, 1, 1, 2, 3])
        yield bytes(out)
    # 60000 token values over 100000 tokens: phase 1 starts below 2**16 and
    # mints past it.
    yield [rng.randrange(60000) for _ in range(100000)]


def capacity(text: WorkingText) -> int:
    """How many ids the text's cells hold: ``[0, capacity)``."""
    return int(np.iinfo(text.cells.dtype).max) + 1


@pytest.mark.parametrize("mode", ["plain", "improved"])
def test_width_crosses_a_dtype_edge_inside_one_phase(monkeypatch, mode):
    """The cells hold every id a phase mints; splits and grammars stay right.

    Stage spies check, at the block and the pair stage, that the cells'
    dtype holds the width plus every id the stage and those after it in the
    phase can mint: one per pending run, and one per two cells.  The cells
    keep their dtype through the phase, and every split equals the
    two-counter reference.
    """
    run_phase, blocks = driver.run_phase, driver.compress_blocks
    compress_pairs = driver.compress_pairs
    phase = {}
    crossed = set()

    def spy_phase(text, *args):
        phase["dtype"], phase["width"] = text.cells.dtype, text.width
        return run_phase(text, *args)

    def spy_blocks(text, scan, grammar):
        assert text.cells.dtype == phase["dtype"]
        assert text.width + len(scan) + len(text.cells) // 2 <= capacity(text)
        return blocks(text, scan, grammar)

    def spy_pairs(text, part, adj, grammar):
        assert text.cells.dtype == phase["dtype"]
        assert text.width + len(text.live()) // 2 <= capacity(text)
        out = compress_pairs(text, part, adj, grammar)
        assert text.cells.dtype == phase["dtype"]
        for edge in (2**8, 2**16):
            if phase["width"] <= edge < text.width:
                crossed.add(edge)
        return out

    monkeypatch.setattr(driver, "run_phase", spy_phase)
    monkeypatch.setattr(driver, "compress_blocks", spy_blocks)
    monkeypatch.setattr(driver, "greedy_partition", checked_split)
    monkeypatch.setattr(driver, "compress_pairs", spy_pairs)
    for data in crossing_inputs():
        assert expand(driver.compress(data, mode=mode).slp) == data
    assert crossed == {2**8, 2**16}


def test_cells_take_the_narrowest_dtype_for_the_phase():
    # 200 ids, and up to 100 runs and 100 pairs: 400 ids need uint16.
    assert WorkingText(np.arange(200)).cells.dtype == np.uint16
    # 3 ids, 2 runs and 2 pairs: uint8.
    assert WorkingText([0, 1, 2, 1, 0]).cells.dtype == np.uint8
    # In run form the runs are known: 252 ids, 1 run and 3 pairs fit uint8,
    # where a compact text of 6 cells may hold 3 runs.
    symbols = [251, 250, 249, 248, 247, 0]
    assert WorkingText(symbols).cells.dtype == np.uint16
    assert WorkingText(symbols, runs=([0], [3])).cells.dtype == np.uint8


def test_mint_refuses_ids_the_cells_cannot_hold():
    text = WorkingText([0, 1, 2])
    assert text.cells.dtype == np.uint8
    fresh = text.mint(np.arange(253))
    assert fresh.dtype == np.uint8 and fresh[-1] == 255
    with pytest.raises(ValueError, match="below 256"):
        text.mint([7])
    assert text.width == 256


EDGE_WIDTHS = [100, 255, 256, 257, 65000, 65535, 65536, 65537]


@pytest.mark.parametrize("width", EDGE_WIDTHS)
def test_pair_keys_at_dtype_edges(width):
    top = width - 1
    symbols = [top, top - 1, top, 0, top, 1, 0, top - 1, top - 1, top, top]
    text = WorkingText(symbols)
    assert text.width == width
    keys, bound = pairs._pair_keys(text)
    assert bound == width * width and keys.dtype == narrow_dtype(bound)
    assert keys.tolist() == [a * width + b for a, b in zip(symbols, symbols[1:])]
    assert distinct_pairs(text) == len(set(zip(symbols, symbols[1:])))

    compact = [top, top - 1, top, 0, top, 1, 0, top - 1, top]  # no equal neighbours
    adj = build_adjacency(WorkingText(compact))
    at = list(zip(compact, compact[1:]))
    distinct = sorted(set(at))
    assert adj.pair_a.dtype == adj.pair_b.dtype == narrow_dtype(width)
    assert list(zip(adj.pair_a.tolist(), adj.pair_b.tolist())) == distinct
    assert adj.pair_count.tolist() == [at.count(p) for p in distinct]
    assert adj.pair_of.tolist() == [distinct.index(p) for p in at]


@pytest.mark.parametrize("width", EDGE_WIDTHS)
def test_block_keys_at_dtype_edges(width):
    top = width - 1
    symbols = [top] * 5 + [0, 0, top, top, 1, top, top, top, top, top, 0]
    text = WorkingText(symbols)
    scan = scan_blocks(text)
    got = list(zip(scan.letters[scan.groups].tolist(), scan.lengths[scan.groups].tolist()))
    assert got == [(top, 5), (0, 2), (top, 2), (top, 5)]
    assert scan.letters.tolist() == [0, top, top]
    assert scan.lengths.tolist() == [2, 2, 5]


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 65536, 65537])
def test_radix_order_takes_the_narrowest_dtype(n):
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 1 << 40, n)
    order = radix_argsort(keys, 1 << 40)
    assert order.dtype == narrow_dtype(n)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
