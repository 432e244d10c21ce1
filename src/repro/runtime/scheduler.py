"""The rank-aware tile-scheduling core (paper Sections V–VI).

The generated programs have exactly one scheduling protocol: tiles wait
in a pending table until every producer has delivered its packed edge,
move to a priority-ordered ready queue, execute, pack their outgoing
edges, and release — only edges stay buffered between tiles.  This
module owns that state machine once, driven directly off the CSR arrays
of :class:`~repro.runtime.graph.TileGraph`, so every runtime component
is a thin *driver* of the same engine instead of a re-implementation:

* the in-process executor (:mod:`repro.runtime.executor`) runs a single
  rank and plugs real numerics into ``tile_start``/``edge_sent``;
* the SPMD harness (:mod:`repro.runtime.spmd`) runs one logical rank
  per load-balancer node and routes cross-rank edges through explicit
  message queues, mirroring the generated C's MPI protocol;
* the discrete-event simulator (:mod:`repro.simulate.hybrid`) layers a
  :class:`~repro.simulate.machine.MachineModel` *timing policy* on the
  same transition stream — executed and simulated schedules are the
  same object by construction;
* solution recovery (:mod:`repro.runtime.recover`) replays the forward
  pass through the executor driver.

Ready-set management is a swappable *schedule policy*
(:class:`SchedulePolicy`): the paper's dynamic priority-queue protocol
(:class:`DynamicHeapPolicy`, the default) and a static wavefront
schedule (:class:`StaticWavefrontPolicy`) that precomputes per-rank
level buckets from the CSR graph and releases whole levels behind
arrival barriers — no heap, and no per-tile pending-counter updates in
the steady state.  Both policies drive the identical edge lifecycle
(``consume_edges``/``send_edge``/``deliver_edge``), so numerics are
bit-identical and cross-rank message counts match by construction; only
the *order* tiles leave the ready set differs.  See Jin et al.,
"Hybrid Static/Dynamic Schedules for Tiled Polyhedral Programs"
(arXiv:1610.07236) for the tradeoff, and :mod:`repro.runtime.tuner`
for the simulator-driven chooser.

State transitions are observable: with ``record_events=True`` the
scheduler appends one :class:`TransitionEvent` per transition
(``tile_ready``, ``tile_start``, ``edge_sent``, ``tile_done``), in a
deterministic total order (priority heaps break ties by lexicographic
tile rank, drivers sequence ranks deterministically), which tests pin
byte-for-byte across runs.

Edge-buffer accounting is per rank: each rank owns an
:class:`~repro.runtime.memory.EdgeMemoryTracker` charged for the edges
its tiles *consume* (an in-flight cross-rank edge counts against its
destination, the rank that must buffer it until the consumer runs),
plus one aggregate tracker across all ranks.
"""

from __future__ import annotations

import heapq
import re
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from .graph import TileGraph, TileIndex
from .memory import EdgeMemoryTracker

__all__ = [
    "TransitionEvent",
    "TileScheduler",
    "SchedulePolicy",
    "DynamicHeapPolicy",
    "StaticWavefrontPolicy",
    "SCHEDULE_POLICIES",
    "rank_of_rows",
    "encode_events",
    "decode_events",
    "TRACE_SCHEMA_VERSION",
    "EVENT_KINDS",
]

#: Schedule policies a :class:`TileScheduler` can be built with.  The
#: ``execute``/CLI layers additionally accept ``"auto"``, which resolves
#: to one of these through :mod:`repro.runtime.tuner` before a scheduler
#: is ever constructed.
SCHEDULE_POLICIES = ("dynamic", "static")

EVENT_KINDS = ("tile_ready", "tile_start", "edge_sent", "tile_done")

#: Version of the ``encode_events`` wire format.  The trace sanitizer
#: (:mod:`repro.analysis.tracecheck`) and any external consumer key on
#: this contract; bump it whenever the line layout of
#: :meth:`TransitionEvent.encode` changes.  The schema is documented in
#: ``docs/architecture.md`` ("The transition-trace schema").
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TransitionEvent:
    """One observable transition of the scheduling state machine.

    ``tile_ready``  — the tile's last pending edge was delivered;
    ``tile_start``  — the tile was popped from its rank's ready queue;
    ``edge_sent``   — the tile packed one outgoing edge (``dest``/
    ``dest_rank``/``cells`` describe the edge; a cross-rank send has
    ``dest_rank != rank``);
    ``tile_done``   — the tile released its state array.
    """

    seq: int
    kind: str
    tile: TileIndex
    rank: int
    dest: Optional[TileIndex] = None
    dest_rank: Optional[int] = None
    cells: int = 0

    def encode(self) -> str:
        """Stable one-line text form (the byte-identical trace unit)."""
        if self.kind == "edge_sent":
            return (
                f"{self.seq} {self.kind} {self.tile} r{self.rank} -> "
                f"{self.dest} r{self.dest_rank} cells={self.cells}"
            )
        return f"{self.seq} {self.kind} {self.tile} r{self.rank}"


def encode_events(events: Sequence[TransitionEvent]) -> bytes:
    """Serialize a transition trace to bytes for exact comparison."""
    return "\n".join(e.encode() for e in events).encode("ascii")


#: One encoded trace line (schema version 1).  ``tile``/``dest`` are the
#: ``repr`` of the tile-index tuple; the ``->`` tail appears on
#: ``edge_sent`` lines only.
_EVENT_LINE = re.compile(
    r"^(?P<seq>\d+) (?P<kind>[a-z_]+) (?P<tile>\(.*?\)) r(?P<rank>\d+)"
    r"(?: -> (?P<dest>\(.*?\)) r(?P<dest_rank>\d+) cells=(?P<cells>\d+))?$"
)


def _parse_tile(text: str) -> TileIndex:
    inner = text.strip("()")
    return tuple(int(p) for p in inner.split(",") if p.strip())


def decode_events(data: bytes) -> List[TransitionEvent]:
    """Parse an :func:`encode_events` trace back into events.

    The inverse of :func:`encode_events` under schema version
    :data:`TRACE_SCHEMA_VERSION`: ``encode_events(decode_events(b)) ==
    b`` for every encoded trace, which tests pin.  Raises
    :class:`RuntimeExecutionError` naming the offending line on any
    malformed input — the trace sanitizer turns that into a stable
    diagnostic rather than a crash.
    """
    events: List[TransitionEvent] = []
    if not data:
        return events
    for lineno, line in enumerate(data.decode("ascii").split("\n"), start=1):
        m = _EVENT_LINE.match(line)
        if m is None:
            raise RuntimeExecutionError(
                f"trace line {lineno} does not match schema version "
                f"{TRACE_SCHEMA_VERSION}: {line!r}"
            )
        kind = m.group("kind")
        if kind not in EVENT_KINDS:
            raise RuntimeExecutionError(
                f"trace line {lineno} has unknown event kind {kind!r}"
            )
        if (m.group("dest") is not None) != (kind == "edge_sent"):
            raise RuntimeExecutionError(
                f"trace line {lineno}: the '-> dest' tail is required "
                f"exactly on edge_sent lines: {line!r}"
            )
        events.append(
            TransitionEvent(
                seq=int(m.group("seq")),
                kind=kind,
                tile=_parse_tile(m.group("tile")),
                rank=int(m.group("rank")),
                dest=(
                    _parse_tile(m.group("dest"))
                    if m.group("dest") is not None
                    else None
                ),
                dest_rank=(
                    int(m.group("dest_rank"))
                    if m.group("dest_rank") is not None
                    else None
                ),
                cells=int(m.group("cells") or 0),
            )
        )
    return events


def rank_of_rows(graph: TileGraph, balance) -> np.ndarray:
    """Per-row owning rank from a load-balancer assignment.

    Projects every tile row onto the lb dimensions and looks its slab up
    in ``balance.slab_node`` — the vectorized twin of
    :meth:`repro.generator.loadbalance.LoadBalance.node_of_tile`.  The
    slab dict is scattered once into a dense array-indexed table over
    the slab bounding box, so the per-row lookup is one fancy-indexed
    gather instead of T hash probes.
    """
    slab_node = balance.slab_node
    keys = np.asarray(graph.lb_key_rows(), dtype=np.int64)
    if keys.ndim == 1:
        keys = keys[:, None]
    T = keys.shape[0]
    out = np.full(T, -1, dtype=np.int64)
    if slab_node:
        slab_keys = np.asarray(list(slab_node.keys()), dtype=np.int64)
        if slab_keys.ndim == 1:
            slab_keys = slab_keys[:, None]
        nodes = np.fromiter(
            slab_node.values(), dtype=np.int64, count=len(slab_node)
        )
        lo = slab_keys.min(axis=0)
        hi = slab_keys.max(axis=0)
        table = np.full(tuple((hi - lo + 1).tolist()), -1, dtype=np.int64)
        table[tuple((slab_keys - lo).T)] = nodes
        inside = np.flatnonzero(np.all((keys >= lo) & (keys <= hi), axis=1))
        if inside.size:
            out[inside] = table[tuple((keys[inside] - lo).T)]
    bad = np.flatnonzero(out < 0)
    if bad.size:
        r = int(bad[0])
        raise RuntimeExecutionError(
            f"tile {graph.tile_tuples[r]} projects to unassigned lb "
            f"slab {tuple(keys[r].tolist())}"
        )
    return out


class SchedulePolicy:
    """Ready-set management strategy of one :class:`TileScheduler`.

    The scheduler owns the edge lifecycle (buffers, trackers, message
    counts) and the transition trace; the policy owns only *which tiles
    are ready and in what order they leave*.  The contract every policy
    must honor:

    * ``make_ready(row)`` — a driver announced a zero-dependency tile;
    * ``deliver_edge(consumer)`` — one incoming edge arrived; returns
      True when the arrival made the consumer startable (its rank's
      ready set now contains it);
    * ``has_ready(rank)`` / ``pop_tile(rank)`` — per-tile drain;
    * ``pop_batch(rank)`` — whole-front drain for the wavefront-fused
      engine: every returned row belongs to one static wavefront level,
      in ascending row order.

    Policies emit ``tile_ready`` through ``sched._emit`` at the moment a
    tile enters the ready set (immediately for the dynamic policy, at
    its level's release barrier for the static one).  Numerics never
    depend on the policy: ghost cells fix every tile's inputs, so any
    topological execution order yields bit-identical values.
    """

    name = "?"

    def __init__(self, sched: "TileScheduler"):
        self.sched = sched

    def make_ready(self, row: int) -> None:
        raise NotImplementedError

    def deliver_edge(self, consumer: int) -> bool:
        raise NotImplementedError

    def has_ready(self, rank: int) -> bool:
        raise NotImplementedError

    def pop_tile(self, rank: int) -> Optional[int]:
        raise NotImplementedError

    def pop_batch(self, rank: int) -> List[int]:
        raise NotImplementedError


class DynamicHeapPolicy(SchedulePolicy):
    """The paper's dynamic protocol: pending counters + priority heaps.

    Every tile waits on a per-tile pending counter; the delivery that
    zeroes it pushes the tile onto its rank's priority heap (``(key,
    row)`` tuples, ties broken by lexicographic tile rank — identical
    ordering to the scalar heap of the generated C).  In batch mode the
    heap is replaced by per-level buckets plus a small per-level heap so
    the wavefront engine pops whole fronts without per-tile heap churn.
    """

    name = "dynamic"

    def __init__(self, sched: "TileScheduler"):
        super().__init__(sched)
        graph = sched.graph
        self._remaining = graph.dependency_count_array().tolist()
        self.ready: List[List[Tuple[tuple, int]]] = [
            [] for _ in range(sched.ranks)
        ]
        if sched.batch:
            self._levels = graph.wavefront_levels().tolist()
            self._buckets: List[Dict[int, List[int]]] = [
                {} for _ in range(sched.ranks)
            ]
            self._level_heaps: List[List[int]] = [
                [] for _ in range(sched.ranks)
            ]

    def make_ready(self, row: int) -> None:
        sched = self.sched
        rank = sched.rank_of[row]
        if sched.batch:
            level = self._levels[row]
            bucket = self._buckets[rank]
            rows = bucket.get(level)
            if rows is None:
                bucket[level] = [row]
                heapq.heappush(self._level_heaps[rank], level)
            else:
                rows.append(row)
        else:
            heapq.heappush(self.ready[rank], (sched.prio[row], row))
        sched._emit("tile_ready", row, rank)

    def deliver_edge(self, consumer: int) -> bool:
        remaining = self._remaining
        remaining[consumer] -= 1
        if remaining[consumer] == 0:
            self.make_ready(consumer)
            return True
        if remaining[consumer] < 0:
            raise RuntimeExecutionError(
                f"tile {self.sched.tile_tuples[consumer]} received more "
                "edges than it has producers"
            )
        return False

    def has_ready(self, rank: int) -> bool:
        if self.sched.batch:
            return bool(self._buckets[rank])
        return bool(self.ready[rank])

    def pop_tile(self, rank: int) -> Optional[int]:
        rq = self.ready[rank]
        if not rq:
            return None
        _, row = heapq.heappop(rq)
        return row

    def pop_batch(self, rank: int) -> List[int]:
        bucket = self._buckets[rank]
        if not bucket:
            return []
        level = heapq.heappop(self._level_heaps[rank])
        return sorted(bucket.pop(level))


class StaticWavefrontPolicy(SchedulePolicy):
    """Static wavefront schedule: precomputed level buckets + barriers.

    The per-rank execution order is fixed at construction from
    :meth:`~repro.runtime.graph.TileGraph.wavefront_levels`: each rank
    runs its level-``l`` rows in ascending row order, and a level is
    *released* once the rank has seen every arrival it statically
    expects for that level — one ``make_ready`` per zero-dependency row
    (level 0) or one ``deliver_edge`` per incoming edge (level > 0).
    The steady state is one dict-counter increment per edge: no heap of
    tiles, and no per-tile pending counters.

    Releases are per (rank, level) barriers, which is *coarser* than
    per-tile readiness — a level releases only after every one of its
    tiles is individually startable, so popping its rows in any order is
    safe.  Deadlock-freedom follows by induction on the globally lowest
    unfinished level: all its arrivals come from strictly lower levels,
    which any fair driver has already drained.  Cross-rank timing can
    release a rank's levels out of order; the released-level heap always
    pops the lowest, preserving the static order per rank.
    """

    name = "static"

    def __init__(self, sched: "TileScheduler"):
        super().__init__(sched)
        graph = sched.graph
        ranks = sched.ranks
        rank_of = sched.rank_of
        self._levels = graph.wavefront_levels().tolist()
        indeg = graph.dependency_count_array().tolist()
        # Per rank: unreleased level -> rows (ascending, by construction
        # since rows are appended in row order), and the arrival barrier
        # (expected counts) each level waits behind.
        buckets: List[Dict[int, List[int]]] = [{} for _ in range(ranks)]
        expected: List[Dict[int, int]] = [{} for _ in range(ranks)]
        for row, level in enumerate(self._levels):
            r = rank_of[row]
            rows = buckets[r].get(level)
            if rows is None:
                buckets[r][level] = [row]
            else:
                rows.append(row)
            # A zero-dependency row arrives once via make_ready; every
            # other row contributes one arrival per incoming edge.
            expected[r][level] = expected[r].get(level, 0) + (
                indeg[row] if indeg[row] else 1
            )
        self._buckets = buckets
        self._expected = expected
        self._arrived: List[Dict[int, int]] = [{} for _ in range(ranks)]
        self._released: List[Dict[int, Deque[int]]] = [
            {} for _ in range(ranks)
        ]
        self._released_heap: List[List[int]] = [[] for _ in range(ranks)]

    def _arrival(self, row: int) -> bool:
        """Count one arrival for *row*'s (rank, level) barrier; True when
        the arrival released the level (the row is now startable)."""
        sched = self.sched
        rank = sched.rank_of[row]
        level = self._levels[row]
        expected = self._expected[rank][level]
        arrived = self._arrived[rank]
        n = arrived.get(level, 0) + 1
        if n > expected:
            raise RuntimeExecutionError(
                f"tile {sched.tile_tuples[row]} received more edges "
                "than it has producers"
            )
        arrived[level] = n
        if n < expected:
            return False
        rows = self._buckets[rank].pop(level)
        for r in rows:
            sched._emit("tile_ready", r, rank)
        self._released[rank][level] = deque(rows)
        heapq.heappush(self._released_heap[rank], level)
        return True

    def make_ready(self, row: int) -> None:
        self._arrival(row)

    def deliver_edge(self, consumer: int) -> bool:
        return self._arrival(consumer)

    def has_ready(self, rank: int) -> bool:
        return bool(self._released[rank])

    def pop_tile(self, rank: int) -> Optional[int]:
        released = self._released[rank]
        if not released:
            return None
        heap = self._released_heap[rank]
        level = heap[0]
        dq = released[level]
        row = dq.popleft()
        if not dq:
            heapq.heappop(heap)
            del released[level]
        return row

    def pop_batch(self, rank: int) -> List[int]:
        released = self._released[rank]
        if not released:
            return []
        level = heapq.heappop(self._released_heap[rank])
        return list(released.pop(level))


_POLICY_CLASSES = {
    "dynamic": DynamicHeapPolicy,
    "static": StaticWavefrontPolicy,
}


class TileScheduler:
    """The pending → ready → running → done state machine over one graph.

    The scheduler owns *logical* scheduling state only — who is ready,
    which edges are buffered where, what transitioned when.  Drivers own
    time (the simulator), numerics (the executor/SPMD harness) and
    message transport (the SPMD queues), and call back in:

    ``make_ready(row)``
        push an unblocked tile onto its rank's priority heap (drivers
        decide *when*: the executor seeds immediately, the simulator at
        the event's simulated arrival time);
    ``start_tile(rank)``
        pop the highest-priority ready tile of one rank;
    ``consume_edges(row)``
        pop and un-account every incoming edge buffer of a starting tile;
    ``send_edge(producer, consumer, ...)``
        buffer one packed outgoing edge (accounted against the
        consumer's rank; cross-rank sends are counted);
    ``deliver_edge(consumer)``
        decrement the pending counter once an edge has *arrived*
        (immediately for local edges; after transport for cross-rank
        edges and simulated messages);
    ``finish_tile(row)``
        release the tile.

    Priority heaps hold ``(priority_key[row], row)``; because a row
    number is the tile's lexicographic rank, ordering is identical to
    the scalar ``(priority(tile), tile)`` heap of the generated C.

    *Which* tiles are ready and in what order they pop is delegated to a
    :class:`SchedulePolicy` selected by ``schedule`` (one of
    :data:`SCHEDULE_POLICIES`); everything above — edge buffers, memory
    trackers, message counts, the transition trace — is policy-blind.
    """

    def __init__(
        self,
        graph: TileGraph,
        ranks: int = 1,
        rank_of: Optional[Sequence[int]] = None,
        priority_scheme: str = "lb-first",
        record_events: bool = False,
        batch: bool = False,
        schedule: str = "dynamic",
    ):
        if ranks < 1:
            raise RuntimeExecutionError(f"rank count must be >= 1, got {ranks}")
        if schedule not in SCHEDULE_POLICIES:
            raise RuntimeExecutionError(
                f"unknown schedule policy {schedule!r}; expected one of "
                f"{SCHEDULE_POLICIES}"
            )
        self.graph = graph
        self.ranks = ranks
        self.tile_tuples = graph.tile_tuples
        T = len(self.tile_tuples)
        if rank_of is None:
            self.rank_of: List[int] = [0] * T
        else:
            self.rank_of = [int(r) for r in rank_of]
            if len(self.rank_of) != T:
                raise RuntimeExecutionError(
                    f"rank assignment covers {len(self.rank_of)} rows but "
                    f"the graph has {T} tiles"
                )
            for row, r in enumerate(self.rank_of):
                if not 0 <= r < ranks:
                    raise RuntimeExecutionError(
                        f"row {row} (tile {self.tile_tuples[row]}) assigned "
                        f"to rank {r} outside 0..{ranks - 1}"
                    )
        # The static policy never consults priority keys — skip deriving
        # them so "no heap" also means no priority-array build.
        self.prio = (
            graph.priority_tuples(priority_scheme)
            if schedule == "dynamic"
            else None
        )
        self._prod_ptr = graph.prod_ptr.tolist()
        self._prod_rows = graph.prod_rows.tolist()
        self._prod_delta = graph.prod_delta.tolist()
        self._cons_ptr = graph.cons_ptr.tolist()
        self._cons_rows = graph.cons_rows.tolist()
        self._cons_delta = graph.cons_delta.tolist()
        self._cons_cells = graph.cons_cells.tolist()
        # Batch mode: start_batch pops whole static wavefront levels at
        # once for the wavefront-fused engine, so the steady state does
        # list appends and one small per-level heap op instead of
        # per-tile heap churn.
        self.batch = batch
        self.schedule = schedule
        self.trackers = [EdgeMemoryTracker(rank=r) for r in range(ranks)]
        # Aggregate accounting across ranks; aliases rank 0's tracker in
        # the single-rank case so the hot path pays for one tracker only.
        self.tracker = self.trackers[0] if ranks == 1 else EdgeMemoryTracker()
        self._store: Dict[Tuple[int, int], np.ndarray] = {}
        self.started = 0
        self.finished = 0
        self.finished_per_rank = [0] * ranks
        self.cross_rank_messages = 0
        self.cross_rank_cells = 0
        self.events: Optional[List[TransitionEvent]] = (
            [] if record_events else None
        )
        self._seq = 0
        self.policy: SchedulePolicy = _POLICY_CLASSES[schedule](self)

    # -- event plumbing -------------------------------------------------------

    def _emit(
        self,
        kind: str,
        row: int,
        rank: int,
        dest: Optional[int] = None,
        dest_rank: Optional[int] = None,
        cells: int = 0,
    ) -> None:
        events = self.events
        if events is None:
            return
        tt = self.tile_tuples
        events.append(
            TransitionEvent(
                seq=self._seq,
                kind=kind,
                tile=tt[row],
                rank=rank,
                dest=tt[dest] if dest is not None else None,
                dest_rank=dest_rank,
                cells=cells,
            )
        )
        self._seq += 1

    # -- pending -> ready ------------------------------------------------------

    def seed(self) -> None:
        """Make every zero-dependency tile ready (drivers with their own
        notion of time call :meth:`make_ready` per row instead)."""
        for row in self.graph.initial_rows().tolist():
            self.make_ready(row)

    def make_ready(self, row: int) -> None:
        self.policy.make_ready(row)

    def deliver_edge(self, consumer: int) -> bool:
        """Record the arrival of one incoming edge; True when the
        consumer became startable (its rank's ready set now holds it —
        immediately under the dynamic policy, at its level's release
        barrier under the static one)."""
        return self.policy.deliver_edge(consumer)

    # -- ready -> running ------------------------------------------------------

    def has_ready(self, rank: int = 0) -> bool:
        return self.policy.has_ready(rank)

    def start_tile(self, rank: int = 0) -> Optional[int]:
        """Pop the next ready tile of *rank* (None = idle): the highest-
        priority one under the dynamic policy, the next row of the
        lowest released level under the static one."""
        if self.batch:
            raise RuntimeExecutionError(
                "scheduler is in batch mode; pop whole fronts with "
                "start_batch instead of start_tile"
            )
        row = self.policy.pop_tile(rank)
        if row is None:
            return None
        self.started += 1
        self._emit("tile_start", row, rank)
        return row

    def start_batch(self, rank: int = 0) -> List[int]:
        """Pop *every* ready tile of *rank*'s lowest wavefront level.

        The batch-drain API of the wavefront-fused executor: all rows of
        one static wavefront level (see
        :meth:`repro.runtime.graph.TileGraph.wavefront_levels`) that are
        currently ready on this rank, in ascending row (lexicographic
        tile) order.  Tiles of one level never depend on each other, so
        a drained batch is safe to evaluate as a single fused operation.
        Returns an empty list when the rank is idle.
        """
        if not self.batch:
            raise RuntimeExecutionError(
                "scheduler was not built with batch=True; start_batch "
                "needs the static wavefront buckets"
            )
        rows = self.policy.pop_batch(rank)
        self.started += len(rows)
        for row in rows:
            self._emit("tile_start", row, rank)
        return rows

    def consume_edges(
        self, row: int
    ) -> Iterator[Tuple[int, int, Optional[np.ndarray]]]:
        """Pop every incoming edge of a starting tile, releasing buffers.

        Yields ``(producer_row, delta_id, buffer)`` in the program's
        delta order — the order the unpack loop wants.  *buffer* is None
        for drivers that schedule without numerics (the simulator).
        """
        ptr = self._prod_ptr
        prod_rows = self._prod_rows
        prod_delta = self._prod_delta
        rank = self.rank_of[row]
        tracker = self.trackers[rank]
        aggregate = self.tracker
        store = self._store
        for e in range(ptr[row], ptr[row + 1]):
            producer = prod_rows[e]
            key = (producer, row)
            tracker.remove_edge(key)
            if aggregate is not tracker:
                aggregate.remove_edge(key)
            yield producer, prod_delta[e], store.pop(key, None)

    def take_edge(
        self, producer: int, consumer: int
    ) -> Optional[np.ndarray]:
        """Pop one buffered edge of a starting tile, releasing its memory.

        The single-edge twin of :meth:`consume_edges`; the
        wavefront-fused drivers take their packed edges a front at a
        time through :meth:`take_front_edges`.
        """
        key = (producer, consumer)
        tracker = self.trackers[self.rank_of[consumer]]
        tracker.remove_edge(key)
        if self.tracker is not tracker:
            self.tracker.remove_edge(key)
        return self._store.pop(key, None)

    def take_front_edges(
        self, rows: Sequence[int], include_local: bool = False
    ) -> Dict[Tuple[int, int], Optional[np.ndarray]]:
        """Pop the packed incoming edges of a started front.

        Returns ``{(producer_row, row): buffer}`` — the ``packed=``
        argument of :meth:`repro.runtime.fastpath.WavefrontRun.execute_batch`.
        Edges that crossed a rank boundary always travel packed;
        same-rank ones only when the run packs every edge
        (*include_local*, i.e. ``keep_edges``).
        """
        ptr = self._prod_ptr
        prod_rows = self._prod_rows
        rank_of = self.rank_of
        packed = {}
        for row in rows:
            rank = rank_of[row]
            for e in range(ptr[row], ptr[row + 1]):
                p = prod_rows[e]
                if include_local or rank_of[p] != rank:
                    packed[(p, row)] = self.take_edge(p, row)
        return packed

    # -- running -> done -------------------------------------------------------

    def outgoing(self, row: int) -> List[Tuple[int, int, int, int]]:
        """The tile's outgoing edges: ``(consumer_row, delta_id, cells,
        consumer_rank)`` in lexicographic consumer order — the order the
        generated C posts its sends."""
        ptr = self._cons_ptr
        rank_of = self.rank_of
        out = []
        for e in range(ptr[row], ptr[row + 1]):
            c = self._cons_rows[e]
            out.append(
                (c, self._cons_delta[e], self._cons_cells[e], rank_of[c])
            )
        return out

    def send_edge(
        self,
        row: int,
        consumer: int,
        buffer: Optional[np.ndarray] = None,
        cells: Optional[int] = None,
    ) -> None:
        """Buffer one packed edge, charged against the consumer's rank.

        *cells* defaults to the graph's packed size for the edge (pass
        ``len(buffer)`` to account the actual buffer).  Delivery is
        separate: call :meth:`deliver_edge` when the edge *arrives*.
        """
        key = (row, consumer)
        if cells is None:
            ptr = self._cons_ptr
            for e in range(ptr[row], ptr[row + 1]):
                if self._cons_rows[e] == consumer:
                    cells = self._cons_cells[e]
                    break
            else:
                raise RuntimeExecutionError(
                    f"tile {self.tile_tuples[row]} has no edge to "
                    f"{self.tile_tuples[consumer]}"
                )
        if buffer is not None:
            self._store[key] = buffer
        src_rank = self.rank_of[row]
        dst_rank = self.rank_of[consumer]
        tracker = self.trackers[dst_rank]
        tracker.add_edge(key, cells)
        if self.tracker is not tracker:
            self.tracker.add_edge(key, cells)
        if dst_rank != src_rank:
            self.cross_rank_messages += 1
            self.cross_rank_cells += cells
        self._emit(
            "edge_sent", row, src_rank, dest=consumer, dest_rank=dst_rank,
            cells=cells,
        )

    def finish_tile(self, row: int) -> None:
        rank = self.rank_of[row]
        self.finished += 1
        self.finished_per_rank[rank] += 1
        self._emit("tile_done", row, rank)

    # -- terminal checks -------------------------------------------------------

    def verify_drained(self) -> None:
        """Raise unless every tile ran and every edge was consumed."""
        T = len(self.tile_tuples)
        if self.finished != T:
            raise RuntimeExecutionError(
                f"executed {self.finished} of {T} tiles; the dependency "
                "graph deadlocked"
            )
        if self.tracker.live_edges:
            raise RuntimeExecutionError(
                f"{self.tracker.live_edges} edges were packed but never "
                "consumed"
            )
        if self._store:  # pragma: no cover - implied by live_edges == 0
            raise RuntimeExecutionError(
                f"{len(self._store)} edge buffers were never released"
            )

    def verify_rank_drained(self, rank: int) -> None:
        """Per-rank terminal check for distributed drivers.

        A process-backend worker owns exactly one rank of the run: the
        other ranks' tiles execute in other processes, so the global
        :meth:`verify_drained` invariant (``finished == T``) can never
        hold locally.  This checks the worker-local invariant instead —
        every tile *of this rank* ran, and the rank's tracker holds no
        live edge buffers.
        """
        mine = sum(1 for r in self.rank_of if r == rank)
        if self.finished_per_rank[rank] != mine:
            raise RuntimeExecutionError(
                f"rank {rank} executed {self.finished_per_rank[rank]} of "
                f"its {mine} tiles; the rank-local schedule deadlocked"
            )
        tracker = self.trackers[rank]
        if tracker.live_edges:
            raise RuntimeExecutionError(
                f"rank {rank} finished with {tracker.live_edges} edge "
                "buffers still live"
            )

    # -- reporting -------------------------------------------------------------

    def memory_snapshot(self) -> Dict[str, int]:
        """Aggregate edge-memory accounting across all ranks."""
        return self.tracker.snapshot()

    def memory_per_rank(self) -> List[Dict[str, int]]:
        return [t.snapshot() for t in self.trackers]
