"""Compress memory: the traced peak per input symbol stays under fixed bounds.

The inputs are ``tests/test_golden.py``'s generators at 2^16 symbols.  The
pair stage's write has a bound of its own, in bytes per cell and per pair.

Each bound is the peak measured on these seeded inputs when the bound was
set, in bytes per input symbol, plus about 15%; numpy's own temporaries are
traced too, so a numpy upgrade may move the figures.  A change that grows
the peak past a bound should say why and set the bound anew from a
measurement, never from the input that failed.
"""

import numpy as np
import pytest
from peak_stages import traced_peak

from slpcompress import compress
from slpcompress.text import WorkingText
from test_golden import random_bytes, revised_text, token_runs

SIZE = 2**16


# (input, mode): bytes per input symbol.  Measured 22.3, 36.4, 12.9, 12.9,
# 17.6 and 17.6 with numpy 2.4.  Before the working text, the keys, the
# adjacency's columns and the radix order took narrow dtypes, they read
# 34.6, 41.4, 24.0, 23.3, 19.5 and 19.6; before the first phase started
# from the input's runs and the pair stage gathered in chunks, 37.2, 41.4,
# 25.6, 24.6, 22.4 and 22.4; before the stages released their arrays and
# the adjacency kept one pair index per position, 55.5, 54.1, 40.3, 32.3,
# 34.9 and 26.9.
BOUNDS = {
    (random_bytes, "improved"): 25.5,
    (random_bytes, "plain"): 42.0,
    (revised_text, "improved"): 15.0,
    (revised_text, "plain"): 15.0,
    (token_runs, "improved"): 20.0,
    (token_runs, "plain"): 20.0,
}


@pytest.mark.parametrize(
    "generate, mode", list(BOUNDS), ids=[f"{g.__name__}-{m}" for g, m in BOUNDS]
)
def test_compress_peak_per_symbol(generate, mode):
    data = generate(1, SIZE)
    per_symbol = traced_peak(compress, data, mode) / len(data)
    assert per_symbol <= BOUNDS[generate, mode], f"{per_symbol:.1f} bytes per symbol"


def test_pair_write_peak():
    """``replace_pairs`` holds 1 byte per cell and 1 per pair.

    They are the mask of kept cells and ``kept[starts]``: the fresh
    symbols, minted in the cells' narrow dtype, are written as they stand,
    with no copy.  The 8 kB slack covers array headers and the call's
    Python objects: it measured 2.0 kB with numpy 2.4, where the bound is
    325 kB.
    """
    n = 2**18
    rng = np.random.default_rng(7)
    text = WorkingText(rng.integers(0, 64, n))
    starts = 2 * np.flatnonzero(rng.random(n // 2) < 0.42)  # about 55k disjoint pairs
    fresh = text.mint(np.arange(len(starts)))
    assert text.cells.dtype == fresh.dtype == np.uint32
    peak = traced_peak(text.replace_pairs, starts, fresh)
    assert peak <= n + len(starts) + 8192, f"{peak} bytes for {len(starts)} pairs"
