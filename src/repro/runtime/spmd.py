"""Multi-rank SPMD execution harness (paper Sections V–VI, end to end).

``execute(..., ranks=P)`` runs the *whole* generated pipeline the way
the emitted hybrid C program would on an MPI cluster, entirely
in-process: the load balancer's Ehrhart-balanced assignment partitions
the tiles into P ranks, each rank drives its own priority-ordered
schedule against its own edge buffers, and every edge that crosses a
rank boundary travels through an explicit in-memory message queue whose
send/recv ordering mirrors the generated C's MPI protocol:

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

Ranks are interleaved deterministically (round-robin, one tile per
turn), so the transition-event trace is reproducible byte for byte.
Because every tile's numerics depend only on its unpacked ghost cells —
never on global scheduling order — the objective value and every
recorded cell are bit-identical to the single-rank executor; this
harness is the first end-to-end numerical validation of the
load-balance + packing + priority pipeline, and tests pin
``execute(..., ranks=P)`` against ``ranks=1`` exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..spec import Kernel
from .executor import ExecutionResult, compiled_executor
from .fastpath import WavefrontRun
from .graph import TileGraph, TileIndex, tile_graph
from .scheduler import TileScheduler, rank_of_rows

__all__ = ["run_spmd", "spmd_rank_assignment", "validate_rank_of"]

#: The two transports a multi-rank run can use: ``inline`` interleaves
#: ranks cooperatively in this thread (deterministic, the oracle);
#: ``process`` runs each rank as a real ``multiprocessing`` worker over
#: shared-memory segments (:mod:`repro.runtime.parallel`).
SPMD_BACKENDS = ("inline", "process")


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


def run_spmd(
    program: GeneratedProgram,
    params: Mapping[str, int],
    ranks: int,
    kernel: Optional[Kernel] = None,
    priority_scheme: str = "lb-first",
    record_values: bool = False,
    graph: Optional[TileGraph] = None,
    keep_edges: bool = False,
    mode: str = "auto",
    lb_method: str = "dimension-cut",
    record_events: bool = False,
    rank_of: Optional[np.ndarray] = None,
    backend: str = "inline",
    schedule: str = "dynamic",
) -> ExecutionResult:
    """Execute the program across *ranks* SPMD ranks.

    Same signature surface as :func:`repro.runtime.executor.execute`
    plus *lb_method* (how tiles are partitioned) and *rank_of* (an
    explicit per-row rank assignment overriding the load balancer —
    used by tests to probe pathological partitions).  Returns an
    :class:`ExecutionResult` whose per-rank fields
    (``memory_per_rank``, ``tiles_per_rank``, ``cross_rank_messages``)
    are filled in; ``tile_order`` is the global interleaved execution
    order, a valid topological order of the tile DAG.

    *backend* selects the transport: ``"inline"`` (this module — ranks
    interleaved cooperatively in one thread, the deterministic oracle)
    or ``"process"`` (:mod:`repro.runtime.parallel` — one OS process
    per rank over shared-memory segments, for real wall-clock
    parallelism; its ``tile_order`` is per-rank-grouped rather than a
    global interleaving).
    """
    if backend not in SPMD_BACKENDS:
        raise RuntimeExecutionError(
            f"unknown SPMD backend {backend!r}; expected one of "
            f"{SPMD_BACKENDS}"
        )
    if backend == "process":
        from .parallel import run_spmd_process

        return run_spmd_process(
            program,
            params,
            ranks=ranks,
            kernel=kernel,
            priority_scheme=priority_scheme,
            record_values=record_values,
            graph=graph,
            keep_edges=keep_edges,
            mode=mode,
            lb_method=lb_method,
            record_events=record_events,
            rank_of=rank_of,
            schedule=schedule,
        )
    if ranks < 1:
        raise RuntimeExecutionError(f"rank count must be >= 1, got {ranks}")
    ce = compiled_executor(program)
    resolved = ce.resolve_mode(mode, kernel)
    params = dict(params)
    if graph is None:
        graph = tile_graph(program, params)
    if rank_of is None:
        rank_of = spmd_rank_assignment(
            program, params, graph, ranks, lb_method=lb_method
        )
    else:
        rank_of = validate_rank_of(rank_of, graph, ranks)
    if resolved == "wavefront":
        return _run_spmd_wavefront(
            ce,
            program,
            params,
            ranks,
            graph,
            rank_of,
            priority_scheme,
            record_values,
            record_events,
            schedule,
            keep_edges,
        )

    layout = program.layout

    state = ce.make_run_state(params, kernel, resolved, record_values)
    sched = TileScheduler(
        graph,
        ranks=ranks,
        rank_of=rank_of,
        priority_scheme=priority_scheme,
        record_events=record_events,
        schedule=schedule,
    )
    sched.seed()

    tile_tuples = graph.tile_tuples
    T = len(tile_tuples)
    kept_edges: Optional[Dict[Tuple[TileIndex, TileIndex], np.ndarray]] = (
        {} if keep_edges else None
    )
    tile_order: List[TileIndex] = []

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

    while sched.finished < T:
        progress = False
        for rank in range(ranks):
            if drain_inbox(rank):
                progress = True
            row = sched.start_tile(rank)
            if row is None:
                continue
            progress = True
            tile = tile_tuples[row]
            tile_order.append(tile)
            array = np.full(layout.padded_shape, np.nan, dtype=np.float64)

            # Unpack incoming edges into the ghost margins.
            for producer, delta_id, buffer in sched.consume_edges(row):
                state.unpack_edge(
                    tile_tuples[producer], delta_id, buffer, array
                )

            state.execute_tile(tile, array)

            # Pack outgoing edges: local edges deliver immediately,
            # cross-rank edges post to the destination's FIFO channel.
            for consumer, delta_id, _, dest_rank in sched.outgoing(row):
                buffer = state.pack_edge(tile, delta_id, array)
                if kept_edges is not None:
                    kept_edges[(tile, tile_tuples[consumer])] = buffer
                sched.send_edge(row, consumer, buffer, len(buffer))
                if dest_rank == rank:
                    sched.deliver_edge(consumer)
                else:
                    channels[(rank, dest_rank)].append(consumer)
            sched.finish_tile(row)
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
    if state.cells_computed != graph.total_work():
        raise RuntimeExecutionError(
            f"computed {state.cells_computed} cells but the graph holds "
            f"{graph.total_work()} points"
        )

    return ExecutionResult(
        objective_point=state.objective,
        objective_value=state.objective_value,
        tiles_executed=len(tile_order),
        cells_computed=state.cells_computed,
        tile_order=tile_order,
        memory=sched.memory_snapshot(),
        values=state.values,
        edges=kept_edges,
        mode=resolved,
        ranks=ranks,
        memory_per_rank=sched.memory_per_rank(),
        tiles_per_rank=list(sched.finished_per_rank),
        cross_rank_messages=sched.cross_rank_messages,
        cross_rank_cells=sched.cross_rank_cells,
        events=sched.events,
        schedule=schedule,
        tile_widths=dict(program.spec.tile_widths),
    )


def _run_spmd_wavefront(
    ce,
    program: GeneratedProgram,
    params: Dict[str, int],
    ranks: int,
    graph: TileGraph,
    rank_of: np.ndarray,
    priority_scheme: str,
    record_values: bool,
    record_events: bool,
    schedule: str = "dynamic",
    keep_edges: bool = False,
) -> ExecutionResult:
    """The wavefront-fused SPMD driver: each rank drains whole fronts.

    Per scheduling turn a rank receives its inbound messages, pops every
    ready tile of its lowest static wavefront level
    (:meth:`~repro.runtime.scheduler.TileScheduler.start_batch`) and
    evaluates the batch in one fused operation.  Packed edges survive
    only at rank boundaries — exactly the edges the generated C sends
    over MPI: incoming cross-rank edges are consumed from the
    scheduler's store (:meth:`~TileScheduler.take_front_edges`) and unpacked
    into the batch's ghost margins, outgoing cross-rank edges are packed
    from the batch and posted to the FIFO channels.  Same-rank edges
    travel as array slices of retained interiors and are never packed,
    so edge-memory accounting here covers cross-rank traffic only —
    unless *keep_edges* is set, when same-rank edges take the packed
    route too and every edge is retained and accounted.
    """
    state = ce.make_run_state(params, None, "wavefront", record_values)
    sched = TileScheduler(
        graph,
        ranks=ranks,
        rank_of=rank_of,
        priority_scheme=priority_scheme,
        record_events=record_events,
        batch=True,
        schedule=schedule,
    )
    sched.seed()
    run = WavefrontRun(
        ce.wavefront_engine,
        graph,
        params,
        rank_of=rank_of,
        values=state.values,
        keep_edges=keep_edges,
    )

    tile_tuples = graph.tile_tuples
    T = len(tile_tuples)
    kept_edges: Optional[Dict[Tuple[TileIndex, TileIndex], np.ndarray]] = (
        {} if keep_edges else None
    )
    tile_order: List[TileIndex] = []

    channels: Dict[Tuple[int, int], Deque[int]] = {
        (src, dst): deque()
        for src in range(ranks)
        for dst in range(ranks)
        if src != dst
    }

    def drain_inbox(rank: int) -> bool:
        received = False
        for src in range(ranks):
            if src == rank:
                continue
            channel = channels[(src, rank)]
            while channel:
                sched.deliver_edge(channel.popleft())
                received = True
        return received

    while sched.finished < T:
        progress = False
        for rank in range(ranks):
            if drain_inbox(rank):
                progress = True
            rows = sched.start_batch(rank)
            if not rows:
                continue
            progress = True

            # The batch's packed incoming edges (cross-rank; all of
            # them under keep_edges) come out of the store; the rest
            # ghost-fill from retained interiors inside execute_batch.
            batch = run.execute_batch(
                rows, packed=sched.take_front_edges(rows, keep_edges)
            )

            for b, row in enumerate(rows):
                tile = tile_tuples[row]
                tile_order.append(tile)
                state.note_objective(tile, batch[b])
                for consumer, delta_id, _, dest_rank in sched.outgoing(row):
                    if keep_edges or dest_rank != rank:
                        buffer = state.pack_edge(tile, delta_id, batch[b])
                        if kept_edges is not None:
                            kept_edges[(tile, tile_tuples[consumer])] = buffer
                        sched.send_edge(row, consumer, buffer, len(buffer))
                    if dest_rank == rank:
                        sched.deliver_edge(consumer)
                    else:
                        channels[(rank, dest_rank)].append(consumer)
                sched.finish_tile(row)
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
    run.verify_drained()
    state.cells_computed = run.cells
    if state.cells_computed != graph.total_work():
        raise RuntimeExecutionError(
            f"computed {state.cells_computed} cells but the graph holds "
            f"{graph.total_work()} points"
        )

    return ExecutionResult(
        objective_point=state.objective,
        objective_value=state.objective_value,
        tiles_executed=len(tile_order),
        cells_computed=state.cells_computed,
        tile_order=tile_order,
        memory=sched.memory_snapshot(),
        values=state.values,
        edges=kept_edges,
        mode="wavefront",
        ranks=ranks,
        memory_per_rank=sched.memory_per_rank(),
        tiles_per_rank=list(sched.finished_per_rank),
        cross_rank_messages=sched.cross_rank_messages,
        cross_rank_cells=sched.cross_rank_cells,
        events=sched.events,
        schedule=schedule,
        tile_widths=dict(program.spec.tile_widths),
    )
