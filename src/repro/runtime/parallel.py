"""Process-parallel SPMD backend: one OS worker per rank, for real.

The inline harness (:mod:`repro.runtime.spmd`) validates the full MPI
protocol but interleaves ranks cooperatively in one thread, so
``ranks=4`` costs *more* wall-clock than ``ranks=1``.  This module runs
the same protocol across real ``multiprocessing`` workers:

* **Workers fork, artifacts are inherited.**  The parent resolves the
  engine, builds the tile graph, the rank assignment and every compiled
  artifact *before* forking, so each worker shares them copy-on-write —
  no pickling of programs, kernels or CSR arrays.  Each worker drives
  its own :class:`~repro.runtime.scheduler.TileScheduler` (wavefront-
  batched when the engine supports it, exactly like PR 5's fused path)
  restricted to its rank's tiles.

* **Ghost arrays live in ``multiprocessing.shared_memory``.**  The
  parent creates one segment per cross-rank ``(src, dst)`` channel —
  a flat float64 slab with a statically precomputed slot per cross-rank
  edge — plus one per-rank ghost-array arena sized for the rank's
  widest wavefront level, which the worker's
  :class:`~repro.runtime.fastpath.WavefrontRun` evaluates batches into
  directly (``arena=``).  All segments are created and unlinked by the
  parent under a ``finally`` guard, so repeated runs never leak
  ``/dev/shm`` entries even on worker crashes or KeyboardInterrupt.

* **Cross-rank edges travel through real queues.**  Each ``(src, dst)``
  channel is a one-way ``multiprocessing.Pipe``: the producer packs the
  edge into its shared-memory slot and posts a tiny
  ``(producer_row, consumer_row, cells)`` descriptor; the consumer
  drains its inbound channels in ascending source order at the top of
  every scheduling turn, copies the payload out of the slab, and only
  then decrements the pending counter — the same send/recv/pending
  discipline as the inline harness and the generated C's MPI protocol.
  Payloads never cross the pipe; pipe writes double as the
  happens-before barrier for the slab writes.

* **A dead or stalled worker cannot hang the parent.**  The parent
  multiplexes result pipes with every worker's ``sentinel``; a worker
  that exits without reporting raises a
  :class:`~repro.errors.RuntimeExecutionError` naming the rank, a
  worker that makes no progress for *timeout* seconds aborts itself,
  and the parent enforces an overall deadline.  Every exit path
  terminates stragglers and unlinks the segments.

The inline harness stays the deterministic oracle: objective values,
recorded cells and cross-rank message counts are pinned identical
between ``backend="inline"`` and ``backend="process"`` in
tests/test_parallel.py.  Two documented deviations from the inline
result shape: ``tile_order`` is the per-rank execution orders
concatenated in rank order (a real parallel run has no global
interleaving), and the aggregate ``memory`` snapshot is the field-wise
sum of the per-rank trackers (an upper bound — per-rank peaks need not
coincide).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..spec import Kernel
from .executor import ExecutionResult, compiled_executor
from .fastpath import WavefrontRun
from .graph import TileGraph, TileIndex, tile_graph
from .memory import EdgeMemoryTracker
from .scheduler import TileScheduler, TransitionEvent
from .spmd import spmd_rank_assignment, validate_rank_of

__all__ = ["run_spmd_process", "cross_edge_slots", "arena_capacities"]

#: Environment variable naming the worker's rank inside worker
#: processes — set before any tile executes, so kernels and tests can
#: observe (or sabotage) a specific rank.
RANK_ENV_VAR = "REPRO_SPMD_RANK"

#: Default no-progress / overall deadline in seconds.
DEFAULT_TIMEOUT = 300.0

#: How long an idle worker blocks on its inbound channels per turn.
_POLL_S = 0.05


def cross_edge_slots(graph: TileGraph, rank_of: np.ndarray):
    """Static slot layout of every cross-rank edge.

    Each cross-rank edge gets a fixed ``[offset, offset + capacity)``
    float64 slot in its ``(src, dst)`` channel slab, assigned by a
    prefix sum in edge order (each edge is packed exactly once per run,
    so slots are single-use and need no synchronization beyond the
    descriptor message).  Returns ``(channel_cells, slots)`` where
    ``channel_cells[(src, dst)]`` is the slab size in cells and
    ``slots[(producer_row, consumer_row)]`` is
    ``(src, dst, offset, capacity)``.

    Public because the static concurrency analyzer
    (:mod:`repro.analysis.concurrency`) audits exactly this layout for
    slot aliasing and unmatched send/recv pairs.
    """
    counts = np.diff(graph.cons_ptr)
    owner = np.repeat(np.arange(counts.size), counts)
    src = rank_of[owner]
    dst = rank_of[graph.cons_rows]
    cross = np.flatnonzero(src != dst)
    channel_cells: Dict[Tuple[int, int], int] = {}
    slots: Dict[Tuple[int, int], Tuple[int, int, int, int]] = {}
    cons_rows = graph.cons_rows
    cons_cells = graph.cons_cells
    for e in cross.tolist():
        key = (int(src[e]), int(dst[e]))
        offset = channel_cells.get(key, 0)
        capacity = int(cons_cells[e])
        slots[(int(owner[e]), int(cons_rows[e]))] = (
            key[0], key[1], offset, capacity
        )
        channel_cells[key] = offset + capacity
    return channel_cells, slots


def arena_capacities(
    graph: TileGraph,
    rank_of: np.ndarray,
    ranks: int,
    resolved: str = "wavefront",
) -> List[int]:
    """Per-rank ghost-arena plane counts for the process backend.

    A wavefront worker evaluates whole fronts into its arena, so the
    arena needs one padded plane per tile of the rank's *widest* static
    wavefront level — fewer planes means two tiles of one batch would
    alias the same plane (a write-write overlap the static analyzer
    flags as ``RPR052``).  Per-tile engines reuse a single scratch
    plane; a rank that owns no tiles needs none.
    """
    rank_arr = np.asarray(rank_of, dtype=np.int64)
    caps: List[int] = []
    if resolved == "wavefront":
        levels = graph.wavefront_levels()
        for r in range(ranks):
            mine = levels[rank_arr == r]
            caps.append(int(np.bincount(mine).max()) if mine.size else 0)
    else:
        for r in range(ranks):
            caps.append(1 if int((rank_arr == r).sum()) else 0)
    return caps


class _SegmentPool:
    """Parent-owned shared-memory segments, released on every exit path.

    ``allocate`` hands out numpy views over fresh segments;
    ``release`` closes and unlinks them all.  ``unlink`` always runs —
    even when a lingering view keeps the parent-side mapping alive
    (``BufferError`` on close) the name is removed from ``/dev/shm``,
    so nothing leaks across runs; the resource tracker backstops a
    hard-killed parent.
    """

    def __init__(self):
        self._segments: List[shared_memory.SharedMemory] = []

    def allocate(self, shape: Tuple[int, ...]) -> np.ndarray:
        size = max(8, int(np.prod(shape)) * 8)
        seg = shared_memory.SharedMemory(create=True, size=size)
        self._segments.append(seg)
        return np.ndarray(shape, dtype=np.float64, buffer=seg.buf)

    def release(self) -> None:
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


@dataclass
class _WorkerContext:
    """Everything one worker needs, inherited through fork (no pickling)."""

    program: GeneratedProgram
    graph: TileGraph
    params: Dict[str, int]
    ranks: int
    rank_of: List[int]
    resolved: str
    kernel: Optional[Kernel]
    priority_scheme: str
    record_values: bool
    record_events: bool
    keep_edges: bool
    slots: Dict[Tuple[int, int], Tuple[int, int, int, int]]
    channel_views: Dict[Tuple[int, int], np.ndarray]
    in_conns: Dict[int, mp_connection.Connection]
    out_conns: Dict[int, mp_connection.Connection]
    result_conn: mp_connection.Connection
    arena: Optional[np.ndarray]
    timeout: float
    parent_pid: int
    #: Messages this worker must receive per source rank (static, from
    #: the slot layout); a channel hitting EOF while still owed messages
    #: means the peer died mid-protocol — abort immediately instead of
    #: starving until *timeout*.
    expected_in: Dict[int, int]
    recv_counts: Dict[int, int]
    #: Other ranks' channel-pipe ends, inherited at fork.  The worker
    #: closes them on entry: a descriptor pipe must be held open only
    #: by its owning endpoints, or the reader never sees EOF when its
    #: peer dies and the fast-abort above can't fire.
    foreign_conns: Tuple[mp_connection.Connection, ...] = ()
    #: Schedule policy every worker builds its scheduler with.  All
    #: ranks must agree: the policy decides when tiles leave the ready
    #: set, and the cross-rank send/recv protocol stays FIFO-identical
    #: only when both endpoints run the same policy.
    schedule: str = "dynamic"


def _post_edge(ctx: _WorkerContext, row: int, consumer: int,
               buffer: np.ndarray) -> None:
    """Producer side of one cross-rank send: slab write, then descriptor."""
    src, dst, offset, capacity = ctx.slots[(row, consumer)]
    n = len(buffer)
    if n > capacity:
        raise RuntimeExecutionError(
            f"packed edge {(row, consumer)} holds {n} cells but its "
            f"shared-memory slot caps at {capacity}"
        )
    ctx.channel_views[(src, dst)][offset:offset + n] = buffer
    ctx.out_conns[dst].send((row, consumer, n))


def _drain_inbox(ctx: _WorkerContext, sched: TileScheduler) -> bool:
    """Receive every queued descriptor addressed to this worker.

    Channels drain in ascending source rank, FIFO within a channel —
    the inline harness's recv order.  Receiving copies the payload out
    of the shared slab, registers the buffer with the scheduler
    (charging this rank's tracker, counting the cross-rank message) and
    only then delivers the pending decrement, mirroring the generated
    C's recv-then-account discipline.
    """
    received = False
    for src in sorted(ctx.in_conns):
        conn = ctx.in_conns[src]
        while conn.poll():
            try:
                row, consumer, n = conn.recv()
            except EOFError:
                # The channel is drained *and* closed: the peer exited.
                # A finished peer owes nothing; one that still owes
                # messages died mid-protocol, so fail fast (naming the
                # peer) instead of starving until the timeout.
                del ctx.in_conns[src]
                owed = ctx.expected_in[src] - ctx.recv_counts[src]
                if owed > 0:
                    raise RuntimeExecutionError(
                        f"peer rank {src} closed its channel with {owed} "
                        "of its messages undelivered"
                    )
                break
            ctx.recv_counts[src] += 1
            s, d, offset, _ = ctx.slots[(row, consumer)]
            buffer = np.array(ctx.channel_views[(s, d)][offset:offset + n])
            sched.send_edge(row, consumer, buffer, n)
            sched.deliver_edge(consumer)
            received = True
    return received


def _idle_wait(ctx: _WorkerContext, rank: int, last_progress: float) -> None:
    """Block until a message may have arrived; abort on starvation."""
    if time.monotonic() - last_progress > ctx.timeout:
        raise RuntimeExecutionError(
            f"rank {rank} starved: no ready tiles and no inbound edges "
            f"for {ctx.timeout:.0f}s"
        )
    if os.getppid() != ctx.parent_pid:
        raise RuntimeExecutionError(
            f"rank {rank}: parent process exited; aborting"
        )
    conns = list(ctx.in_conns.values())
    if conns:
        mp_connection.wait(conns, timeout=_POLL_S)
    else:
        time.sleep(_POLL_S)


def _seed_rank(sched: TileScheduler, graph: TileGraph, rank: int) -> None:
    """Make this rank's zero-dependency tiles ready (other ranks' tiles
    execute in other processes and must not pollute this worker's
    buckets or event trace)."""
    rank_of = sched.rank_of
    for row in graph.initial_rows().tolist():
        if rank_of[row] == rank:
            sched.make_ready(row)


def _worker_run(
    rank: int,
    ctx: _WorkerContext,
    trace_out: Optional[List[Optional[List[TransitionEvent]]]] = None,
) -> Dict[str, object]:
    """One rank's whole run; returns the per-rank result payload.

    *trace_out*, when given, receives the scheduler's (live) event list
    as soon as the scheduler exists, so a failing worker can still ship
    the partial trace it recorded — the sanitizer's killed-worker
    classification depends on it.
    """
    program = ctx.program
    graph = ctx.graph
    params = ctx.params
    ce = compiled_executor(program)
    layout = program.layout
    tile_tuples = graph.tile_tuples
    wavefront = ctx.resolved == "wavefront"
    keep_edges = ctx.keep_edges

    sched = TileScheduler(
        graph,
        ranks=ctx.ranks,
        rank_of=ctx.rank_of,
        priority_scheme=ctx.priority_scheme,
        record_events=ctx.record_events,
        batch=wavefront,
        schedule=ctx.schedule,
    )
    if trace_out is not None:
        trace_out.append(sched.events)
    _seed_rank(sched, graph, rank)
    my_total = sum(1 for r in ctx.rank_of if r == rank)
    tile_order: List[TileIndex] = []

    state = ce.make_run_state(
        params, None if wavefront else ctx.kernel, ctx.resolved,
        ctx.record_values,
    )
    run: Optional[WavefrontRun] = None
    if wavefront:
        run = WavefrontRun(
            ce.wavefront_engine, graph, params, rank_of=ctx.rank_of,
            values=state.values, arena=ctx.arena, keep_edges=keep_edges,
        )
    kept_edges: Optional[Dict[Tuple[TileIndex, TileIndex], np.ndarray]] = (
        {} if keep_edges else None
    )
    scratch = ctx.arena[0] if (not wavefront and ctx.arena is not None) else None
    # A wavefront run's same-rank edges travel as retained-interior
    # slices; every other edge (all of them under keep_edges) is packed.
    slice_local = wavefront and not keep_edges

    def send_edges(row: int, tile: TileIndex, array: np.ndarray) -> None:
        """Pack and ship the finished tile's outgoing edges."""
        for consumer, delta_id, _, dest in sched.outgoing(row):
            if dest == rank and slice_local:
                sched.deliver_edge(consumer)
                continue
            buffer = state.pack_edge(tile, delta_id, array)
            if kept_edges is not None:
                kept_edges[(tile, tile_tuples[consumer])] = buffer
            if dest == rank:
                sched.send_edge(row, consumer, buffer, len(buffer))
                sched.deliver_edge(consumer)
            else:
                _post_edge(ctx, row, consumer, buffer)

    last_progress = time.monotonic()
    while sched.finished_per_rank[rank] < my_total:
        progress = _drain_inbox(ctx, sched)

        if wavefront:
            rows = sched.start_batch(rank)
            if rows:
                progress = True
                batch = run.execute_batch(
                    rows, packed=sched.take_front_edges(rows, keep_edges)
                )
                for b, row in enumerate(rows):
                    tile = tile_tuples[row]
                    tile_order.append(tile)
                    state.note_objective(tile, batch[b])
                    send_edges(row, tile, batch[b])
                    sched.finish_tile(row)
        else:
            row = sched.start_tile(rank)
            if row is not None:
                progress = True
                tile = tile_tuples[row]
                tile_order.append(tile)
                if scratch is not None:
                    array = scratch
                    array.fill(np.nan)
                else:
                    array = np.full(
                        layout.padded_shape, np.nan, dtype=np.float64
                    )
                for producer, delta_id, buffer in sched.consume_edges(row):
                    state.unpack_edge(
                        tile_tuples[producer], delta_id, buffer, array
                    )
                state.execute_tile(tile, array)
                send_edges(row, tile, array)
                sched.finish_tile(row)

        if progress:
            last_progress = time.monotonic()
        else:
            _idle_wait(ctx, rank, last_progress)

    sched.verify_rank_drained(rank)
    if wavefront:
        run.verify_drained()
        state.cells_computed = run.cells
    return {
        "objective_value": state.objective_value,
        "cells": state.cells_computed,
        "tiles": sched.finished_per_rank[rank],
        "tile_order": tile_order,
        "memory": sched.trackers[rank].snapshot(),
        "cross_rank_messages": sched.cross_rank_messages,
        "cross_rank_cells": sched.cross_rank_cells,
        "values": state.values,
        "events": sched.events,
        "edges": kept_edges,
    }


def _worker_main(rank: int, ctx: _WorkerContext) -> None:
    """Worker process entry point: run, then report exactly once.

    An error report carries the partial transition trace recorded so
    far (when ``record_events`` is on): the parent re-exports it as
    ``partial_events`` on the raised error so the trace sanitizer can
    classify a truncated run.
    """
    os.environ[RANK_ENV_VAR] = str(rank)
    for conn in ctx.foreign_conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    trace_out: List[Optional[List[TransitionEvent]]] = []
    try:
        payload = _worker_run(rank, ctx, trace_out)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        events = trace_out[0] if trace_out else None
        try:
            ctx.result_conn.send(
                ("error", rank,
                 {"message": f"{type(exc).__name__}: {exc}",
                  "events": events})
            )
        except Exception:  # pragma: no cover - parent already gone
            pass
        raise SystemExit(1)
    ctx.result_conn.send(("ok", rank, payload))
    ctx.result_conn.close()


#: How long the parent keeps draining surviving workers' reports after
#: the first failure, so partial traces reach ``partial_events``.
_FAILURE_GRACE_S = 1.5


def _collect_results(
    procs: Dict[int, multiprocessing.Process],
    result_conns: Dict[int, mp_connection.Connection],
    timeout: float,
) -> Dict[int, Dict[str, object]]:
    """Wait for every worker's payload without ever hanging.

    Multiplexes the result pipes with the workers' process sentinels:
    a worker that dies without reporting (crash, ``SIGKILL``) raises a
    :class:`RuntimeExecutionError` naming the rank, and an overall
    deadline bounds stalls.  On any failure the parent briefly keeps
    draining the *other* workers' reports, then raises an error whose
    ``partial_events`` attribute maps each reporting rank to the
    transition events it managed to record (``record_events`` runs
    only) — the trace sanitizer uses it to classify truncated runs.
    A dead-without-report rank wins the blame over a worker that merely
    reported the death of its peer.
    """
    deadline = time.monotonic() + timeout
    results: Dict[int, Dict[str, object]] = {}
    errors: Dict[int, str] = {}
    partial_events: Dict[int, List[TransitionEvent]] = {}
    dead: Dict[int, Optional[int]] = {}
    pending = dict(result_conns)

    def drain_ready() -> None:
        for r in sorted(pending):
            conn = pending[r]
            # Liveness is sampled before the poll: a worker found dead
            # here has already written whatever it was going to report,
            # so the poll below cannot miss a report sent just before
            # exit and blame the reporter for its peer's death.
            alive = procs[r].is_alive()
            got = False
            try:
                got = conn.poll()
            except (OSError, EOFError):  # pragma: no cover
                got = False
            if got:
                try:
                    status, _, payload = conn.recv()
                except EOFError:
                    # A pipe at EOF polls ready with nothing to read:
                    # the worker died without reporting.  Fall through
                    # to the death check below.
                    got = False
                else:
                    del pending[r]
                    if status == "error":
                        errors[r] = payload["message"]
                        if payload.get("events") is not None:
                            partial_events[r] = payload["events"]
                    else:
                        results[r] = payload
                        if payload.get("events") is not None:
                            partial_events[r] = payload["events"]
                    continue
            if not got and not alive:
                del pending[r]
                dead[r] = procs[r].exitcode

    def fail(message: str) -> "RuntimeExecutionError":
        grace_deadline = time.monotonic() + _FAILURE_GRACE_S
        while pending and time.monotonic() < grace_deadline:
            mp_connection.wait(
                list(pending.values())
                + [procs[r].sentinel for r in pending],
                timeout=0.05,
            )
            drain_ready()
        if dead:
            r = min(dead)
            message = (
                f"SPMD worker for rank {r} died (exit code {dead[r]}) "
                "before completing its tiles"
            )
        elif errors:
            # A worker that merely observed its peer's death (channel
            # EOF, broken descriptor pipe) is a symptom; blame the rank
            # whose failure is its own.
            def symptom(msg: str) -> bool:
                return "peer rank" in msg or "BrokenPipeError" in msg

            own = [r for r in sorted(errors) if not symptom(errors[r])]
            r = own[0] if own else min(errors)
            message = f"SPMD worker for rank {r} failed: {errors[r]}"
        err = RuntimeExecutionError(message)
        err.partial_events = dict(partial_events)
        return err

    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise fail(
                f"SPMD process backend timed out after {timeout:.0f}s "
                f"waiting for ranks {sorted(pending)}"
            )
        waitables = list(pending.values()) + [
            procs[r].sentinel for r in pending
        ]
        mp_connection.wait(waitables, timeout=min(remaining, 1.0))
        drain_ready()
        if dead or errors:
            raise fail("")
    if dead or errors:  # pragma: no cover - raised inside the loop
        raise fail("")
    return results


def run_spmd_process(
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
    timeout: float = DEFAULT_TIMEOUT,
    schedule: str = "dynamic",
) -> ExecutionResult:
    """Execute across *ranks* real worker processes over shared memory.

    Same signature surface as :func:`repro.runtime.spmd.run_spmd` plus
    *timeout*, the no-progress/overall deadline in seconds.  Objective
    values, recorded cells and cross-rank message counts are identical
    to the inline backend (and therefore to ``ranks=1``); see the
    module docstring for the two result-shape deviations
    (``tile_order`` grouping and aggregate ``memory``).
    """
    if ranks < 1:
        raise RuntimeExecutionError(f"rank count must be >= 1, got {ranks}")
    if "fork" not in multiprocessing.get_all_start_methods():
        raise RuntimeExecutionError(
            "the process SPMD backend needs the POSIX 'fork' start "
            "method (workers inherit the compiled program copy-on-"
            "write); use backend='inline' on this platform"
        )
    mp_ctx = multiprocessing.get_context("fork")

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
    rank_list = [int(r) for r in rank_of]

    # Touch every shared compiled artifact *before* forking so workers
    # inherit it copy-on-write instead of re-deriving it P times.
    graph.tile_tuples
    if schedule == "static":
        # The static policy derives its level barriers from these in
        # every worker's scheduler.
        graph.wavefront_levels()
        graph.dependency_count_array()
    if resolved == "wavefront":
        ce.wavefront_engine
        graph.wavefront_levels()
    else:
        if schedule == "dynamic":
            graph.priority_tuples(priority_scheme)
        if resolved == "vector":
            ce.vector_engine

    channel_cells, slots = cross_edge_slots(graph, rank_of)
    padded_shape = tuple(program.layout.padded_shape)
    caps = arena_capacities(graph, rank_of, ranks, resolved)
    expected_in_all: Dict[int, Dict[int, int]] = {r: {} for r in range(ranks)}
    for (src, dst) in channel_cells:
        expected_in_all[dst][src] = 0
    for (src, dst, _offset, _cap) in slots.values():
        expected_in_all[dst][src] += 1

    pool = _SegmentPool()
    procs: Dict[int, multiprocessing.Process] = {}
    parent_conns: List[mp_connection.Connection] = []
    try:
        channel_views = {
            key: pool.allocate((cells,))
            for key, cells in channel_cells.items()
        }
        # One descriptor pipe per (src, dst) channel, one result pipe
        # per worker.
        in_conns: Dict[int, Dict[int, mp_connection.Connection]] = {
            r: {} for r in range(ranks)
        }
        out_conns: Dict[int, Dict[int, mp_connection.Connection]] = {
            r: {} for r in range(ranks)
        }
        for (src, dst) in channel_cells:
            recv_end, send_end = mp_ctx.Pipe(duplex=False)
            in_conns[dst][src] = recv_end
            out_conns[src][dst] = send_end
            parent_conns.extend((recv_end, send_end))
        result_conns: Dict[int, mp_connection.Connection] = {}
        for r in range(ranks):
            recv_end, send_end = mp_ctx.Pipe(duplex=False)
            result_conns[r] = recv_end

            cap = caps[r]
            arena = pool.allocate((cap,) + padded_shape) if cap else None

            ctx = _WorkerContext(
                program=program,
                graph=graph,
                params=params,
                ranks=ranks,
                rank_of=rank_list,
                resolved=resolved,
                kernel=kernel,
                priority_scheme=priority_scheme,
                record_values=record_values,
                record_events=record_events,
                keep_edges=keep_edges,
                slots=slots,
                channel_views=channel_views,
                in_conns=in_conns[r],
                out_conns=out_conns[r],
                result_conn=send_end,
                arena=arena,
                timeout=timeout,
                parent_pid=os.getpid(),
                expected_in=expected_in_all[r],
                recv_counts={src: 0 for src in expected_in_all[r]},
                schedule=schedule,
                foreign_conns=tuple(
                    conn
                    for conn in parent_conns
                    if conn not in in_conns[r].values()
                    and conn not in out_conns[r].values()
                ),
            )
            proc = mp_ctx.Process(
                target=_worker_main, args=(r, ctx),
                name=f"repro-spmd-rank{r}", daemon=True,
            )
            proc.start()
            procs[r] = proc
            # The worker inherited its send end at fork; the parent's
            # copy would keep the pipe writable forever.
            send_end.close()

        # Every worker inherited its channel ends at fork; the parent's
        # copies would keep each descriptor pipe open even after its
        # writer dies, hiding the EOF the survivors' fast-abort needs.
        for conn in parent_conns:
            conn.close()

        payloads = _collect_results(procs, result_conns, timeout)
        parent_conns.extend(result_conns.values())
        for proc in procs.values():
            proc.join(timeout=10.0)
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate refused
                proc.kill()
                proc.join(timeout=5.0)
        for conn in parent_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        pool.release()

    return _merge_payloads(
        program, params, graph, ranks, resolved, payloads,
        record_values, record_events, keep_edges, len(slots),
        schedule=schedule,
    )


def _merge_payloads(
    program: GeneratedProgram,
    params: Dict[str, int],
    graph: TileGraph,
    ranks: int,
    resolved: str,
    payloads: Dict[int, Dict[str, object]],
    record_values: bool,
    record_events: bool,
    keep_edges: bool,
    n_cross_edges: int,
    schedule: str = "dynamic",
) -> ExecutionResult:
    """Fold per-rank payloads into one :class:`ExecutionResult`."""
    cells = sum(p["cells"] for p in payloads.values())
    if cells != graph.total_work():
        raise RuntimeExecutionError(
            f"workers computed {cells} cells but the graph holds "
            f"{graph.total_work()} points"
        )
    messages = sum(p["cross_rank_messages"] for p in payloads.values())
    if messages != n_cross_edges:
        raise RuntimeExecutionError(
            f"{messages} cross-rank messages were received but the "
            f"rank assignment cuts {n_cross_edges} edges"
        )

    objective_value: Optional[float] = None
    for r in sorted(payloads):
        v = payloads[r]["objective_value"]
        if v is not None:
            objective_value = v
            break

    tile_order: List[TileIndex] = []
    for r in sorted(payloads):
        tile_order.extend(payloads[r]["tile_order"])

    values = None
    if record_values:
        values = {}
        for r in sorted(payloads):
            values.update(payloads[r]["values"])

    events = None
    if record_events:
        events = []
        for r in sorted(payloads):
            for e in payloads[r]["events"]:
                events.append(replace(e, seq=len(events)))

    edges = None
    if keep_edges:
        edges = {}
        for r in sorted(payloads):
            edges.update(payloads[r]["edges"])

    memory_per_rank = [payloads[r]["memory"] for r in sorted(payloads)]
    return ExecutionResult(
        objective_point=program.spec.objective(params),
        objective_value=objective_value,
        tiles_executed=sum(p["tiles"] for p in payloads.values()),
        cells_computed=cells,
        tile_order=tile_order,
        memory=EdgeMemoryTracker.merge_snapshots(memory_per_rank),
        values=values,
        edges=edges,
        mode=resolved,
        backend="process",
        ranks=ranks,
        memory_per_rank=memory_per_rank,
        tiles_per_rank=[payloads[r]["tiles"] for r in sorted(payloads)],
        cross_rank_messages=messages,
        cross_rank_cells=sum(
            p["cross_rank_cells"] for p in payloads.values()
        ),
        events=events,
        schedule=schedule,
        tile_widths=dict(program.spec.tile_widths),
    )
