"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of the seed and the size, so the same
seed always yields the same input.  The compressor sees only the returned
bytes or token array.
"""

from __future__ import annotations

import numpy as np

# Input symbols (bytes or tokens) per workload.  A shared host's speed can
# swing by up to 2x within seconds, so a run must sample every call many
# times across its window: at 2**18 symbols a round of all calls takes a few
# seconds, where at 10**6 a run held only two samples per call.
SIZE = 2**18
# versions: 50 revisions, as in a 1 MB history of a 20 kB document.
REVISIONS = 50
# runs_tokens: Zipf exponent giving a few thousand distinct tokens, a long
# tail of rare ones, and a mean run length that makes the block stage work.
ZIPF_A = 1.3
MEAN_RUN = 4.0


def random64(seed: int, size: int = SIZE) -> bytes:
    """Uniform bytes over 0..63, drawn as in the linear-time acceptance test."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 64, size, dtype=np.uint8).tobytes()


def versions(seed: int, size: int = SIZE) -> bytes:
    """Successive revisions of one lowercase document, each with point edits.

    Revision ``i+1`` is revision ``i`` with one random letter replaced per
    1000 bytes, and the revisions are concatenated, so the text repeats with
    small differences, like a version history.
    """
    rng = np.random.default_rng(seed)
    doc_len = size // REVISIONS
    edits = max(1, doc_len // 1000)
    doc = rng.integers(ord("a"), ord("z") + 1, doc_len, dtype=np.uint8)
    out = np.empty(doc_len * REVISIONS, dtype=np.uint8)
    for i in range(REVISIONS):
        out[i * doc_len : (i + 1) * doc_len] = doc
        doc = doc.copy()
        doc[rng.integers(0, doc_len, edits)] = rng.integers(ord("a"), ord("z") + 1, edits)
    return out.tobytes()


def runs_tokens(seed: int, size: int = SIZE) -> np.ndarray:
    """Runs of 32-bit tokens: Zipf-drawn values, geometric run lengths.

    Zipf ranks are spread over ``[0, 2**32)`` by multiplying with an odd
    constant modulo ``2**32``, so distinct ranks stay distinct tokens.
    """
    rng = np.random.default_rng(seed)
    runs = int(size / MEAN_RUN * 1.2) + 16
    lengths = rng.geometric(1.0 / MEAN_RUN, runs)
    while lengths.sum() < size:
        lengths = np.concatenate([lengths, rng.geometric(1.0 / MEAN_RUN, runs)])
    ranks = rng.zipf(ZIPF_A, len(lengths)).astype(np.uint64)
    salt = np.uint64(rng.integers(0, 2**32))
    values = (ranks * np.uint64(2654435761) + salt) % np.uint64(2**32)
    return np.repeat(values.astype(np.int64), lengths)[:size]


GENERATORS = {"random64": random64, "versions": versions, "runs_tokens": runs_tokens}
