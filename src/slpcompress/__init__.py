"""Grammar-based compression via iterated block and pair compression.

Builds a straight-line program of size O(g log(N/g)) for an input string
in linear time.
"""

from .alphabet import InputFormatError, ingest, rename_dense
from .driver import CompressionResult, PhaseTrace, compress, run_phase
from .grammar import (
    ExpansionOverflow,
    GrammarError,
    Slp,
    deserialize,
    dump,
    expand,
    load,
    prune_unreachable,
    serialize,
)
from .text import WorkingText

__all__ = [
    "CompressionResult",
    "ExpansionOverflow",
    "GrammarError",
    "InputFormatError",
    "PhaseTrace",
    "Slp",
    "WorkingText",
    "compress",
    "deserialize",
    "dump",
    "expand",
    "ingest",
    "load",
    "prune_unreachable",
    "rename_dense",
    "run_phase",
    "serialize",
]
