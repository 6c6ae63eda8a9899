"""Compress memory: the traced peak per input symbol stays under fixed bounds.

The inputs are ``tests/test_golden.py``'s generators at 2^16 symbols.

Each bound is the peak measured on these seeded inputs when the bound was
set, in bytes per input symbol, plus about 15%; numpy's own temporaries are
traced too, so a numpy upgrade may move the figures.  A change that grows
the peak past a bound should say why and set the bound anew from a
measurement, never from the input that failed.
"""

import gc
import tracemalloc

import pytest

from slpcompress import compress
from test_golden import random_bytes, revised_text, token_runs

SIZE = 2**16


# (input, mode): bytes per input symbol.  Measured 35.7, 41.4, 23.1, 22.3,
# 19.5 and 19.6 with numpy 2.4.  Before the first phase started from the
# input's runs and the pair stage gathered in chunks, they read 37.2, 41.4,
# 25.6, 24.6, 22.4 and 22.4; before the stages released their arrays and
# the adjacency kept one pair index per position, 55.5, 54.1, 40.3, 32.3,
# 34.9 and 26.9.
BOUNDS = {
    (random_bytes, "improved"): 41.0,
    (random_bytes, "plain"): 48.0,
    (revised_text, "improved"): 26.5,
    (revised_text, "plain"): 25.5,
    (token_runs, "improved"): 22.5,
    (token_runs, "plain"): 22.5,
}


def compress_peak(data, mode):
    """The traced peak of one ``compress`` call over the bytes alive before it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        compress(data, mode)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "generate, mode", list(BOUNDS), ids=[f"{g.__name__}-{m}" for g, m in BOUNDS]
)
def test_compress_peak_per_symbol(generate, mode):
    data = generate(1, SIZE)
    per_symbol = compress_peak(data, mode) / len(data)
    assert per_symbol <= BOUNDS[generate, mode], f"{per_symbol:.1f} bytes per symbol"
