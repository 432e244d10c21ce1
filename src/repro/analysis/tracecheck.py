"""Dynamic trace sanitizer (the ``RPR06x`` pass behind ``repro-racecheck``).

A ThreadSanitizer-style checker over the scheduler's transition traces
(:func:`repro.runtime.scheduler.encode_events`, schema version
:data:`repro.runtime.scheduler.TRACE_SCHEMA_VERSION`).  The trace is
split into per-rank streams; within one stream, order is program order,
and across streams the only happens-before edges are the send/recv
events of cross-rank edges — exactly the vector-clock model of the MPI
protocol.  Against that relation the sanitizer flags:

``RPR060``
    A consumer ``tile_start`` that is not happens-after every
    producer's pack/recv (a data race on the ghost cells), a tile that
    starts without ever becoming ready, a completed run with tiles
    that never ran (lost delivery), or a trace whose happens-before
    constraints are cyclic (no consistent interleaving exists).
``RPR061``
    Edge-buffer lifetime violations, replayed through a real
    :class:`~repro.runtime.memory.EdgeMemoryTracker`: an edge packed
    twice, packed before its producer started or after it released its
    state array (use-after-release), packed along a non-edge of the
    graph, or left unconsumed by a run that claims completion.
``RPR062``
    A FIFO inversion: two consumers fed entirely by one channel became
    ready in the opposite order of their final messages — impossible
    under the ascending-source FIFO recv discipline.
``RPR063`` (warning)
    The trace is truncated (dead ranks, an aborted run) but every
    event that *was* recorded satisfies the happens-before relation —
    the classification for a worker killed mid-protocol, as opposed to
    a false-positive race.
``RPR064``
    The trace itself is malformed: undecodable bytes, unknown tiles,
    events on the wrong rank, or duplicate lifecycle transitions.

Two trace dialects exist (*transport*): ``inline`` traces record a
cross-rank ``edge_sent`` at pack time in the **producer**'s stream;
``process`` traces record it at recv time in the **consumer**'s stream
(the producer posts through the shared-memory slab without touching its
scheduler).  Per-tile engines pack every edge (*packing* ``"full"``),
wavefront-fused engines pack only cross-rank edges (``"boundary"`` —
same-rank edges travel as array slices); ``"auto"`` infers the dialect
from the trace.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` values
with ``source="trace"``; nothing raises.  This pass *consumes* traces —
producing one requires executing the program, so it runs behind
``repro-racecheck`` (and :func:`racecheck_execution`), never inside
``repro-lint``'s static pipeline.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import (
    Counter as CounterType,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ReproError, RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..runtime.executor import RunConfig, execute
from ..runtime.graph import TileGraph, tile_graph
from ..runtime.memory import EdgeMemoryTracker
from ..runtime.scheduler import (
    EVENT_KINDS,
    TransitionEvent,
    decode_events,
)
from ..runtime.spmd import spmd_rank_assignment
from ..runtime.tuner import retile_program
from ..spec import Kernel
from .diagnostics import Diagnostic, make_diagnostic

__all__ = ["check_trace", "racecheck_execution"]

_MAX_PER_CODE = 5

Trace = Union[bytes, Sequence[TransitionEvent]]


class _Capped:
    """Append diagnostics, at most :data:`_MAX_PER_CODE` per code."""

    def __init__(self, diags: List[Diagnostic], problem: str):
        self._diags = diags
        self._problem = problem
        self._counts: CounterType[str] = Counter()

    def add(self, code: str, message: str) -> None:
        self._counts[code] += 1
        if self._counts[code] <= _MAX_PER_CODE:
            self._diags.append(
                make_diagnostic(
                    code, message, problem=self._problem, source="trace"
                )
            )

    def has(self, code: str) -> bool:
        return self._counts[code] > 0


class _TraceModel:
    """The decoded trace, indexed for happens-before queries.

    Every event gets a global id; ``pos[i] = (stream, index)`` places it
    in its rank stream (cross-rank sends of ``process`` traces stream
    with the *consumer*, everything else with ``event.rank``).
    """

    def __init__(self) -> None:
        self.events: List[TransitionEvent] = []
        self.rows: List[int] = []
        self.pos: List[Tuple[int, int]] = []
        self.streams: Dict[int, List[int]] = {}
        #: row -> kind -> global event id, for ready/start/done.
        self.lifecycle: Dict[int, Dict[str, int]] = {}
        #: (producer_row, consumer_row) -> global ids of its edge events.
        self.edge_events: Dict[Tuple[int, int], List[int]] = {}

    def place(self, event: TransitionEvent, row: int, stream: int) -> int:
        gid = len(self.events)
        self.events.append(event)
        self.rows.append(row)
        lane = self.streams.setdefault(stream, [])
        self.pos.append((stream, len(lane)))
        lane.append(gid)
        return gid

    def before(self, a: int, b: int) -> Optional[bool]:
        """Program-order comparison; None when in different streams."""
        sa, ia = self.pos[a]
        sb, ib = self.pos[b]
        if sa != sb:
            return None
        return ia < ib


def _build_model(
    events: Sequence[TransitionEvent],
    graph: TileGraph,
    rank_list: List[int],
    transport: str,
    out: _Capped,
) -> _TraceModel:
    """Validate events structurally (RPR064) and index the good ones."""
    model = _TraceModel()
    tt = graph.tile_tuples
    for event in events:
        if event.kind not in EVENT_KINDS:
            out.add("RPR064", f"unknown event kind {event.kind!r}")
            continue
        try:
            row = graph.row_of(event.tile)
        except RuntimeExecutionError:
            out.add(
                "RPR064",
                f"{event.kind} names {event.tile}, which is not a tile of "
                "the graph",
            )
            continue
        if event.rank != rank_list[row]:
            out.add(
                "RPR064",
                f"{event.kind} for {tt[row]} claims rank {event.rank} but "
                f"the assignment owns it on rank {rank_list[row]}",
            )
            continue
        if event.kind == "edge_sent":
            if event.dest is None:
                out.add(
                    "RPR064", f"edge_sent from {tt[row]} names no destination"
                )
                continue
            try:
                dest_row = graph.row_of(event.dest)
            except RuntimeExecutionError:
                out.add(
                    "RPR064",
                    f"edge_sent from {tt[row]} names {event.dest}, which is "
                    "not a tile of the graph",
                )
                continue
            if event.dest_rank != rank_list[dest_row]:
                out.add(
                    "RPR064",
                    f"edge_sent {tt[row]} -> {tt[dest_row]} claims "
                    f"destination rank {event.dest_rank} but the assignment "
                    f"owns it on rank {rank_list[dest_row]}",
                )
                continue
            stream = event.rank
            if transport == "process" and event.dest_rank != event.rank:
                stream = rank_list[dest_row]
            gid = model.place(event, row, stream)
            model.edge_events.setdefault((row, dest_row), []).append(gid)
        else:
            life = model.lifecycle.setdefault(row, {})
            if event.kind in life:
                out.add(
                    "RPR064",
                    f"duplicate {event.kind} for tile {tt[row]}",
                )
                continue
            gid = model.place(event, row, event.rank)
            life[event.kind] = gid
    return model


def _infer_packing(model: _TraceModel) -> str:
    for gid_list in model.edge_events.values():
        for gid in gid_list:
            e = model.events[gid]
            if e.dest_rank == e.rank:
                return "full"
    return "boundary"


def _graph_edge_set(graph: TileGraph) -> FrozenSet[Tuple[int, int]]:
    edges = set()
    for c in range(len(graph.tile_tuples)):
        for p, _delta in graph.producer_edges(c):
            edges.add((p, c))
    return frozenset(edges)


def _check_lifecycle_order(
    model: _TraceModel, tt: Sequence[Tuple[int, ...]], out: _Capped
) -> None:
    """ready < start < done within every tile's own stream (RPR060)."""
    for row, life in sorted(model.lifecycle.items()):
        start = life.get("tile_start")
        if start is None:
            continue
        ready = life.get("tile_ready")
        if ready is None:
            out.add(
                "RPR060",
                f"tile {tt[row]} started without ever becoming ready",
            )
        elif model.before(ready, start) is False:
            out.add(
                "RPR060",
                f"tile {tt[row]} started before its tile_ready transition",
            )
        done = life.get("tile_done")
        if done is not None and model.before(start, done) is False:
            out.add(
                "RPR060",
                f"tile {tt[row]} finished before it started",
            )


def _check_producer_ordering(
    model: _TraceModel,
    graph: TileGraph,
    rank_list: List[int],
    packing: str,
    transport: str,
    dead_ranks: FrozenSet[int],
    out: _Capped,
) -> None:
    """Every started consumer happens-after each producer (RPR060)."""
    tt = graph.tile_tuples
    for row, life in sorted(model.lifecycle.items()):
        start = life.get("tile_start")
        if start is None:
            continue
        for p, _delta in graph.producer_edges(row):
            cross = rank_list[p] != rank_list[row]
            packed = cross or packing == "full"
            if packed:
                sends = model.edge_events.get((p, row), ())
                if sends:
                    # Comparable when the edge event streams with the
                    # consumer (same-rank sends; process-transport
                    # recvs); inline cross sends are ordered by the
                    # global constraint graph instead.
                    if any(model.before(g, start) is False for g in sends):
                        out.add(
                            "RPR060",
                            f"tile {tt[row]} started before the edge from "
                            f"its producer {tt[p]} was packed/received "
                            "(data race on its ghost cells)",
                        )
                elif cross and transport == "inline" and (
                    rank_list[p] in dead_ranks
                ):
                    pass  # the send was recorded by a rank that died
                else:
                    what = "received" if transport == "process" and cross \
                        else "sent"
                    out.add(
                        "RPR060",
                        f"tile {tt[row]} started but the edge from its "
                        f"producer {tt[p]} was never {what} (lost "
                        "delivery / race on uninitialized ghost cells)",
                    )
            else:
                pstart = model.lifecycle.get(p, {}).get("tile_start")
                if pstart is None or model.before(pstart, start) is False:
                    out.add(
                        "RPR060",
                        f"tile {tt[row]} started before its same-rank "
                        f"producer {tt[p]} (race on the shared ghost "
                        "arrays)",
                    )


def _check_hb_acyclic(model: _TraceModel, out: _Capped) -> None:
    """Kahn over program order + send->ready edges (RPR060 on a cycle)."""
    n = len(model.events)
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for lane in model.streams.values():
        for a, b in zip(lane, lane[1:]):
            succs[a].append(b)
            indeg[b] += 1
    for (_p, c), gids in model.edge_events.items():
        ready = model.lifecycle.get(c, {}).get("tile_ready")
        if ready is None:
            continue
        for g in gids:
            if model.pos[g][0] != model.pos[ready][0]:
                succs[g].append(ready)
                indeg[ready] += 1
    frontier = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for s in succs[node]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if seen != n:
        out.add(
            "RPR060",
            "the trace's happens-before constraints are cyclic: no "
            "interleaving can realize the recorded send/ready order",
        )


def _check_lifetimes(
    model: _TraceModel,
    graph: TileGraph,
    rank_list: List[int],
    packing: str,
    transport: str,
    expect_complete: bool,
    edges: FrozenSet[Tuple[int, int]],
    out: _Capped,
) -> None:
    """Edge-buffer lifetime replay against EdgeMemoryTracker (RPR061)."""
    tt = graph.tile_tuples
    tracker = EdgeMemoryTracker()
    for (p, c), gids in sorted(model.edge_events.items()):
        if (p, c) not in edges:
            out.add(
                "RPR061",
                f"edge_sent {tt[p]} -> {tt[c]} packs a phantom edge the "
                "tile graph does not contain",
            )
            continue
        for gid in gids:
            try:
                tracker.add_edge((p, c), model.events[gid].cells)
            except RuntimeExecutionError as exc:
                out.add("RPR061", str(exc))
            event = model.events[gid]
            producer_recorded = not (
                transport == "process" and event.dest_rank != event.rank
            )
            if not producer_recorded:
                continue
            life = model.lifecycle.get(p, {})
            pstart = life.get("tile_start")
            pdone = life.get("tile_done")
            if pstart is None or model.before(pstart, gid) is False:
                out.add(
                    "RPR061",
                    f"edge {tt[p]} -> {tt[c]} was packed before its "
                    f"producer {tt[p]} started computing",
                )
            elif pdone is not None and model.before(pdone, gid) is True:
                out.add(
                    "RPR061",
                    f"edge {tt[p]} -> {tt[c]} was packed after its producer "
                    f"{tt[p]} released its state array (use-after-release)",
                )
    # Consumption: a started consumer releases every packed edge it saw.
    for row, life in sorted(model.lifecycle.items()):
        if "tile_start" not in life:
            continue
        for p, _delta in graph.producer_edges(row):
            if (p, row) in model.edge_events and (p, row) in edges:
                try:
                    tracker.remove_edge((p, row))
                except RuntimeExecutionError as exc:
                    out.add("RPR061", str(exc))
    if expect_complete:
        for p, c in tracker.live_edge_keys():
            out.add(
                "RPR061",
                f"edge {tt[p]} -> {tt[c]} was packed but never consumed in "
                "a run that claims completion",
            )
    # Producers that released without packing a required edge.
    if expect_complete:
        for row, life in sorted(model.lifecycle.items()):
            if "tile_done" not in life:
                continue
            for c in range(int(graph.cons_ptr[row]),
                           int(graph.cons_ptr[row + 1])):
                consumer = int(graph.cons_rows[c])
                cross = rank_list[consumer] != rank_list[row]
                if (cross or packing == "full") and (
                    (row, consumer) not in model.edge_events
                ):
                    out.add(
                        "RPR061",
                        f"tile {tt[row]} released its state array without "
                        f"packing its edge to {tt[consumer]}",
                    )


def _check_fifo(
    model: _TraceModel,
    graph: TileGraph,
    rank_list: List[int],
    out: _Capped,
) -> None:
    """Per-channel FIFO inversions (RPR062).

    A consumer fed *entirely* by one channel becomes ready exactly when
    its final message is received, and the channel delivers in send
    order — so across two such consumers, ready order must match the
    order of their final edge events.  Sound for both transports: the
    completion positions live in one stream (the producer rank's for
    inline sends, the consumer rank's for process recvs) and the ready
    positions in the consumer rank's stream.
    """
    tt = graph.tile_tuples
    by_channel: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], int]]] = {}
    for row, life in sorted(model.lifecycle.items()):
        ready = life.get("tile_ready")
        if ready is None:
            continue
        producers = graph.producer_edges(row)
        if not producers:
            continue
        srcs = {rank_list[p] for p, _ in producers}
        if len(srcs) != 1:
            continue
        src = srcs.pop()
        dst = rank_list[row]
        if src == dst:
            continue
        positions = []
        for p, _ in producers:
            gids = model.edge_events.get((p, row))
            if not gids:
                break
            positions.extend(model.pos[g] for g in gids)
        else:
            completion = max(positions)
            by_channel.setdefault((src, dst), []).append(
                (completion, row)
            )
    for (src, dst), entries in sorted(by_channel.items()):
        entries.sort()
        ready_pos = [
            (model.pos[model.lifecycle[row]["tile_ready"]], row)
            for _, row in entries
        ]
        for (pos1, r1), (pos2, r2) in zip(ready_pos, ready_pos[1:]):
            if pos2 < pos1:
                out.add(
                    "RPR062",
                    f"FIFO inversion on channel r{src}->r{dst}: "
                    f"{tt[r1]} completed its messages before {tt[r2]} "
                    f"but became ready after it",
                )


def _check_completion(
    model: _TraceModel,
    graph: TileGraph,
    rank_list: List[int],
    dead_ranks: FrozenSet[int],
    expect_complete: bool,
    out: _Capped,
) -> None:
    """RPR060 for completed runs with unrun tiles; RPR063 for truncation."""
    tt = graph.tile_tuples
    unfinished = [
        row
        for row in range(len(tt))
        if "tile_done" not in model.lifecycle.get(row, {})
    ]
    if not unfinished:
        return
    if expect_complete:
        for row in unfinished:
            life = model.lifecycle.get(row, {})
            if "tile_start" in life:
                what = "started but never finished"
            elif "tile_ready" in life:
                what = "became ready but never started"
            else:
                what = "never became ready"
            out.add(
                "RPR060",
                f"tile {tt[row]} {what} in a run that claims completion",
            )
    else:
        dead = sorted(dead_ranks)
        detail = (
            f" (dead ranks: {', '.join(f'r{r}' for r in dead)})"
            if dead
            else ""
        )
        races = out.has("RPR060") or out.has("RPR061") or out.has("RPR062")
        verdict = (
            "the recorded prefix violates happens-before (see errors)"
            if races
            else "the recorded prefix is race-free"
        )
        out.add(
            "RPR063",
            f"trace is truncated: {len(unfinished)} of {len(tt)} tiles "
            f"unfinished{detail}; {verdict}",
        )


def check_trace(
    graph: TileGraph,
    rank_of: Sequence[int],
    trace: Trace,
    problem: str = "",
    packing: str = "auto",
    transport: str = "inline",
    dead_ranks: Iterable[int] = (),
    expect_complete: Optional[bool] = None,
    schedule: str = "dynamic",
) -> List[Diagnostic]:
    """Sanitize one transition trace against its graph and assignment.

    *trace* is either an :func:`~repro.runtime.scheduler.encode_events`
    byte string or the event sequence itself.  *dead_ranks* names ranks
    whose events were lost (killed workers) — their missing cross-rank
    sends are excused rather than reported as races.  *expect_complete*
    defaults to "no dead ranks": a completed run must account for every
    tile, a truncated one earns an ``RPR063`` classification instead.
    *schedule* names the policy that produced the trace: under
    ``"static"`` the per-channel FIFO check (RPR062) is skipped, since
    its premise — a single-channel consumer becomes ready exactly when
    its final message arrives — does not hold when readiness is a
    (rank, level) barrier releasing whole levels in row order.
    """
    diags: List[Diagnostic] = []
    out = _Capped(diags, problem)
    dead = frozenset(int(r) for r in dead_ranks)
    if expect_complete is None:
        expect_complete = not dead

    if isinstance(trace, (bytes, bytearray)):
        try:
            events: Sequence[TransitionEvent] = decode_events(bytes(trace))
        except RuntimeExecutionError as exc:
            out.add("RPR064", str(exc))
            return diags
    else:
        events = trace

    rank_list = [int(r) for r in rank_of]
    if len(rank_list) != len(graph.tile_tuples):
        out.add(
            "RPR064",
            f"rank assignment covers {len(rank_list)} rows but the graph "
            f"has {len(graph.tile_tuples)} tiles",
        )
        return diags

    model = _build_model(events, graph, rank_list, transport, out)
    if out.has("RPR064"):
        # A structurally broken trace makes every downstream ordering
        # judgement unreliable; report the malformation alone.
        return diags

    resolved_packing = (
        _infer_packing(model) if packing == "auto" else packing
    )
    edges = _graph_edge_set(graph)
    tt = graph.tile_tuples

    _check_lifecycle_order(model, tt, out)
    _check_producer_ordering(
        model, graph, rank_list, resolved_packing, transport, dead, out
    )
    _check_hb_acyclic(model, out)
    _check_lifetimes(
        model, graph, rank_list, resolved_packing, transport,
        expect_complete, edges, out,
    )
    if schedule != "static":
        _check_fifo(model, graph, rank_list, out)
    _check_completion(model, graph, rank_list, dead, expect_complete, out)
    return diags


def racecheck_execution(
    program: GeneratedProgram,
    params: Mapping[str, int],
    config: RunConfig,
    kernel: Optional[Kernel] = None,
) -> List[Diagnostic]:
    """Execute with event recording, then sanitize the trace.

    The dynamic half of ``repro-racecheck``.  *config* is the one run
    description that feeds both halves: the program runs under it (with
    ``record_events`` on), and the rank assignment, transport and
    schedule policy :func:`check_trace` holds the trace to are derived
    from the same config as the run resolved it
    (``ExecutionResult.config``).  A failing run is *not* an analysis
    error — the partial traces the process backend attaches to its
    :class:`~repro.errors.RuntimeExecutionError` (``partial_events``)
    are sanitized under *config* as given with the non-reporting ranks
    marked dead, which is how a killed worker classifies as
    truncated-but-race-free.
    """
    problem = program.spec.name
    params = dict(params)
    events: List[TransitionEvent] = []
    dead: List[int] = []
    complete = True
    try:
        result = execute(
            program,
            params,
            kernel,
            config=replace(config, record_events=True),
        )
        events = result.events or []
        config = result.config
    except ReproError as exc:
        partial = getattr(exc, "partial_events", None)
        if partial is None:
            return [
                make_diagnostic(
                    "RPR064",
                    f"execution failed without a trace: {exc}",
                    problem=problem,
                    source="trace",
                )
            ]
        for r in sorted(partial):
            events.extend(partial[r])
        dead = sorted(set(range(config.ranks)) - set(partial))
        complete = False
    if config.tile_widths is not None:
        program = retile_program(program, config.tile_widths)
    graph = tile_graph(program, params)
    return check_trace(
        graph,
        spmd_rank_assignment(
            program, params, graph, config.ranks, lb_method=config.lb_method
        ),
        events,
        problem=problem,
        transport=config.backend,
        dead_ranks=dead,
        expect_complete=complete,
        schedule=config.schedule,
    )
