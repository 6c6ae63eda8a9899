"""Phase orchestration: plain and improved (min-over-phases) compression.

A phase compresses all maximal blocks, then the pairs selected by the
greedy split, and ends by renaming the alphabet to ``0..k-1``, so every
phase starts on a text numbered in first-occurrence order (the first one
as ``ingest`` numbers it); the text
shrinks to at most ``3/4 |T| + 1/4`` per phase, so the total work is linear
in the input.  Improved mode additionally prices stopping at each phase
(remaining text emitted verbatim plus the rules so far) and returns the
cheapest snapshot, the first one of least cost.

Improved mode stops once no later phase can beat that snapshot.  If row
``k`` has text ``T_k`` of length ``L_k``, grammar size ``S_k`` and ``P_k``
distinct adjacent pairs (equal neighbours included), every later row ``j``
has ``L_j + S_j >= S_k + P_k + 1``: expanding the symbols minted after row
``k`` maps ``T_j`` onto ``T_k``, and each adjacency of ``T_k`` lies between
two neighbours of ``T_j`` (``L_j - 1`` places) or inside one new body
(``c - 1`` places per body of length ``c``), each place standing for one
pair type.  The snapshot changes only on a strictly smaller cost, so the
loop ends at the first row that is not a new best where this bound reaches
the best cost.  The grammar is that of a run through every phase; the
traces and the phase table end at the stop row.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .alphabet import ingest, rename_dense
from .blocks import compress_blocks, scan_blocks
from .grammar import Slp, prune_unreachable
from .pairs import build_adjacency, compress_pairs, distinct_pairs, greedy_partition
from .text import WorkingText, narrow_dtype


@dataclass
class PhaseTrace:
    phase: int
    live_before: int
    live_after_blocks: int
    blocks_compressed: int
    pairs_compressed: int
    cover_pre_swap: int
    cover_chosen: int
    live_after: int
    rules_before: int
    size_before: int
    rules_after: int
    size_after: int
    # Wall time of each stage, in seconds.
    rename_s: float
    blocks_s: float
    adjacency_s: float
    partition_s: float
    pairs_s: float
    compact_s: float  # both compactions: after the blocks and after the pairs

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class BestSnapshot:
    size: int
    phase: int
    text_canonical: np.ndarray  # live text at the snapshot, as canonical ids, in a narrow dtype
    rule_watermark: int


@dataclass
class CompressionResult:
    """The grammar, the per-phase traces, and the two facts neither holds.

    ``phase_table`` has one row ``(live symbols, grammar size)`` at the top
    of each phase, plus a final row where the loop stopped; row ``i`` is
    the cost of stopping at phase ``i`` and emitting the text verbatim.
    """

    slp: Slp
    traces: list[PhaseTrace]
    mode: str
    input_length: int
    phase_table: list[tuple[int, int]]
    best_phase: int | None = None
    snapshot_copy_work: int = 0


def run_phase(text: WorkingText, grammar: Slp, phase_index: int) -> PhaseTrace:
    """Execute one block-then-pair compression phase over the text.

    The text carries its working alphabet: each stage mints the working
    ids of the rules it emits into ``grammar`` on the text.  The text is
    compacted after each of the two stages, so every stage reads a compact
    text whose positions are plain indices.  The phase ends by renaming
    the text's symbols, and its alias table with them, to ``0..k-1`` in
    first-occurrence order, the numbering that ``ingest`` gives the first
    phase.
    """
    if len(text) < 2:
        raise ValueError("phases need at least two live symbols")
    live_before = len(text)
    rules_before = len(grammar.counts)
    size_before = grammar.size
    clock = [time.perf_counter()]
    # Each stage's arrays are dropped once read: no name holds the scan,
    # whose run-start mask is freed at the compaction, and the adjacency
    # and the split go before the second compaction.
    blocks_compressed = compress_blocks(text, scan_blocks(text), grammar).blocks_replaced
    clock.append(time.perf_counter())
    text.compact()
    clock.append(time.perf_counter())
    live_after_blocks = len(text)
    adj = build_adjacency(text)
    clock.append(time.perf_counter())
    part = greedy_partition(adj)
    clock.append(time.perf_counter())
    cover_pre_swap, cover_chosen = part.cover_pre_swap, part.cover_chosen
    pairs_compressed = compress_pairs(text, part, adj, grammar).occurrences_replaced
    del adj, part
    clock.append(time.perf_counter())
    text.compact()
    clock.append(time.perf_counter())
    rename_dense(text)
    clock.append(time.perf_counter())
    blocks_s, blocks_compact_s, adjacency_s, partition_s, pairs_s, compact_s, rename_s = (
        end - start for start, end in zip(clock, clock[1:])
    )
    return PhaseTrace(
        phase=phase_index,
        live_before=live_before,
        live_after_blocks=live_after_blocks,
        blocks_compressed=blocks_compressed,
        pairs_compressed=pairs_compressed,
        cover_pre_swap=cover_pre_swap,
        cover_chosen=cover_chosen,
        live_after=len(text),
        rules_before=rules_before,
        size_before=size_before,
        rules_after=len(grammar.counts),
        size_after=grammar.size,
        rename_s=rename_s,
        blocks_s=blocks_s,
        adjacency_s=adjacency_s,
        partition_s=partition_s,
        pairs_s=pairs_s,
        compact_s=blocks_compact_s + compact_s,
    )


def compress(data, mode: str = "improved", kind: str | None = None) -> CompressionResult:
    """Compress bytes or a token sequence into a straight-line program.

    ``mode`` is ``"plain"`` (run to a single symbol, emit everything) or
    ``"improved"`` (also track the cost of stopping at every phase, stop
    once no later phase can cost less, and return the cheapest snapshot
    grammar).
    """
    if mode not in ("plain", "improved"):
        raise ValueError(f"unknown mode {mode!r}")
    text, kind, terminals = ingest(data, kind=kind)
    grammar = Slp(kind, terminals)
    input_length = len(text)
    traces: list[PhaseTrace] = []
    phase_table: list[tuple[int, int]] = []
    best: BestSnapshot | None = None
    copy_work = 0
    while True:
        phase_table.append((len(text), grammar.size))
        if mode == "improved":
            candidate = len(text) + grammar.size
            if best is None or candidate < best.size:
                # Every canonical id lies below the symbol count.
                narrow = text.alias.astype(narrow_dtype(grammar.symbol_count))
                snapshot = narrow[text.live()]
                best = BestSnapshot(candidate, len(traces), snapshot, len(grammar.counts))
                copy_work += len(snapshot)
            elif grammar.size + distinct_pairs(text) + 1 >= best.size:
                break  # no later stop costs less than the best one
        if len(text) <= 1:
            break
        traces.append(run_phase(text, grammar, len(traces) + 1))
    if mode == "improved":
        slp = _snapshot_grammar(grammar, best)
        best_phase = best.phase
    else:
        final_canonical = text.alias[text.live()]
        if len(final_canonical):
            grammar.start = grammar.emit_rule(final_canonical)
        slp = grammar
        best_phase = None
    return CompressionResult(slp, traces, mode, input_length, phase_table, best_phase, copy_work)


def _snapshot_grammar(grammar: Slp, best: BestSnapshot) -> Slp:
    """Materialize the grammar for a snapshot: truncated rules + text rule."""
    slp = grammar.prefix(best.rule_watermark)
    if len(best.text_canonical):
        slp.start = slp.emit_rule(best.text_canonical)
    return prune_unreachable(slp)
