"""The inline SPMD transport, and what both transports share (paper
Sections V–VI, end to end).

:func:`repro.runtime.executor.execute` hands its resolved run to
:func:`run_inline` unless ``backend="process"`` was asked for.  It runs
the *whole* generated pipeline the way the emitted hybrid C program would
on an MPI cluster, entirely in-process: the load balancer's
Ehrhart-balanced assignment partitions the tiles into P ranks, the ranks
take turns round-robin through the one scheduling loop body
(:meth:`repro.runtime.executor._RunState.turn` — one tile per turn, or
one ready front when the run dispatches fronts) against one
shared scheduler, and every edge that crosses a rank boundary travels
through an explicit in-memory message queue whose send/recv ordering
mirrors the generated C's MPI protocol:

* **send** — at tile completion the producer rank packs each outgoing
  edge and posts cross-rank edges to the per-``(src, dst)`` FIFO
  channel, in lexicographic consumer order (the order the C runtime
  posts its ``MPI_Isend`` calls);
* **recv** — at the top of its scheduling turn a rank drains every
  inbound channel (ascending source rank, FIFO within a channel) before
  dispatching work, the analogue of the C runtime's message-progress
  poll before the next heap pop;
* **pending accounting** — a cross-rank edge decrements the consumer's
  pending counter only at *recv*, while local edges decrement at pack
  time, exactly like the generated program.

This module owns those two functions (``drain_inbox`` and ``post``,
closures of :func:`run_inline` over its FIFO deques), the round-robin
loop with its deadlock check, and each rank's heap working arena.  A
plain single-rank run is ``ranks=1`` of exactly this: no channel
exists, so neither function is ever reached.  It also owns what the
resolver settles identically for either transport before the first
turn — the rank assignment (:func:`spmd_rank_assignment`,
:func:`validate_rank_of`) and the arena sizing rule
(:func:`arena_capacities`).

The interleaving is deterministic, so the transition-event trace is
reproducible byte for byte.  Because every tile's numerics depend only
on its unpacked ghost cells — never on global scheduling order — the
objective value and every recorded cell are bit-identical at every rank
count, and tests pin ``execute(..., ranks=P)`` against ``ranks=1``
exactly.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Mapping, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from .fastpath import FRONT_MODES
from .graph import TileGraph
from .scheduler import rank_of_rows

if TYPE_CHECKING:
    from .executor import _RunState

__all__ = [
    "run_inline",
    "spmd_rank_assignment",
    "validate_rank_of",
    "arena_capacities",
]


def validate_rank_of(
    rank_of, graph: TileGraph, ranks: int
) -> np.ndarray:
    """Validate an explicit per-row rank assignment up front.

    Shape, dtype and range are checked *before* any scheduling state is
    built, so a bad override fails with a message naming the offending
    row instead of surfacing as an opaque downstream error (or worse, a
    silent misroute).
    """
    arr = np.asarray(rank_of)
    if arr.ndim != 1:
        raise RuntimeExecutionError(
            f"rank_of must be a 1-D per-row array, got shape "
            f"{tuple(arr.shape)}"
        )
    T = len(graph.tile_tuples)
    if arr.shape[0] != T:
        raise RuntimeExecutionError(
            f"rank_of covers {arr.shape[0]} rows but the graph has "
            f"{T} tiles"
        )
    if not np.issubdtype(arr.dtype, np.integer):
        raise RuntimeExecutionError(
            f"rank_of must hold integer ranks, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.int64)
    bad = np.flatnonzero((arr < 0) | (arr >= ranks))
    if bad.size:
        r = int(bad[0])
        raise RuntimeExecutionError(
            f"rank_of[{r}] = {int(arr[r])} assigns tile "
            f"{graph.tile_tuples[r]} outside 0..{ranks - 1}"
        )
    return arr


def spmd_rank_assignment(
    program: GeneratedProgram,
    params: Mapping[str, int],
    graph: TileGraph,
    ranks: int,
    lb_method: str = "dimension-cut",
) -> np.ndarray:
    """Per-row rank assignment from the load balancer.

    Feeds the balancer the slab work the graph already holds, then
    projects every tile row onto its lb slab's node — the exact
    assignment the generated C program computes at startup.
    """
    if ranks == 1:
        return np.zeros(len(graph.tile_tuples), dtype=np.int64)
    balance = program.load_balance(
        dict(params), ranks, method=lb_method, slab_work=graph.slab_work()
    )
    return rank_of_rows(graph, balance)


def arena_capacities(
    graph: TileGraph,
    rank_of: np.ndarray,
    ranks: int,
    resolved: str = "wavefront",
) -> List[int]:
    """Per-rank working-buffer plane counts — the one sizing rule of
    every transport.

    A front-dispatched rank evaluates whole fronts into its arena, so the
    arena needs one padded plane per tile of the rank's *widest* static
    wavefront level — fewer planes means two tiles of one batch would
    alias the same plane (a write-write overlap the static analyzer
    flags as ``RPR052``).  Per-tile engines reuse a single scratch
    plane; a rank that owns no tiles needs none.
    """
    rank_arr = np.asarray(rank_of, dtype=np.int64)
    caps: List[int] = []
    if resolved in FRONT_MODES:
        levels = graph.wavefront_levels()
        for r in range(ranks):
            mine = levels[rank_arr == r]
            caps.append(int(np.bincount(mine).max()) if mine.size else 0)
    else:
        for r in range(ranks):
            caps.append(1 if int((rank_arr == r).sum()) else 0)
    return caps


def run_inline(state: "_RunState") -> List[Dict[str, object]]:
    """Take every rank's turns round-robin in this thread.

    Cooperative and deterministic — the oracle the process transport is
    pinned against; ``tile_order`` is the global interleaved execution
    order.  Returns the one payload covering every rank.
    """
    ranks = state.config.ranks
    padded_shape = tuple(state.ce.program.layout.padded_shape)
    sched = state.begin(
        {
            r: np.empty((planes,) + padded_shape)
            for r, planes in enumerate(state.arena_planes)
        }
    )
    sched.seed()

    # One FIFO channel per (source, destination) rank pair; entries are
    # consumer rows whose edge buffer is already in the scheduler's
    # store.  Delivery (the pending decrement) happens at recv.
    channels: Dict[Tuple[int, int], Deque[int]] = {
        (src, dst): deque()
        for src in range(ranks)
        for dst in range(ranks)
        if src != dst
    }

    def drain_inbox(rank: int) -> bool:
        """Receive every queued cross-rank edge addressed to *rank*."""
        received = False
        for src in range(ranks):
            if src == rank:
                continue
            channel = channels[(src, rank)]
            while channel:
                sched.deliver_edge(channel.popleft())
                received = True
        return received

    def post(rank: int, dest: int, row: int, consumer: int, buffer) -> None:
        """Send one cross-rank edge: buffered (and recorded) here on the
        producer's side, queued for the destination's next recv."""
        sched.send_edge(row, consumer, buffer, len(buffer))
        channels[(rank, dest)].append(consumer)

    T = len(sched.tile_tuples)
    while sched.finished < T:
        progress = False
        for rank in range(ranks):
            if drain_inbox(rank):
                progress = True
            if state.turn(rank, post):
                progress = True
        if not progress:
            raise RuntimeExecutionError(
                f"SPMD deadlock: {sched.finished} of {T} tiles ran, no "
                "rank can make progress"
            )

    undelivered = sum(len(c) for c in channels.values())
    if undelivered:  # pragma: no cover - implied by finished == T
        raise RuntimeExecutionError(
            f"{undelivered} cross-rank messages were never received"
        )
    sched.verify_drained()
    return [state.payload()]
