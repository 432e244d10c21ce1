"""In-process execution of a generated program (paper Section V).

This is the Python twin of the generated C runtime.  The scheduling
protocol — pending tiles, priority-ordered ready queues, packed-edge
buffering — lives in one place, :class:`repro.runtime.scheduler.TileScheduler`;
this module owns the *numeric driver* of that core, written once:
:meth:`_RunState.turn` starts what a rank can start, unpacks the
incoming edges into the ghost margins of a padded working array, scans
the local iteration space in the legal direction evaluating the user
kernel, packs the outgoing edges and releases the tile — only edges stay
buffered, which is the paper's memory-saving design (Section V-B).  It
is the single scheduling loop body of the runtime, as the generated C
has a single one with MPI compiled in or out around it: the transports
(:mod:`repro.runtime.spmd` inline, :mod:`repro.runtime.parallel` one
process per rank) only decide whose turn it is and what happens to an
edge that crosses a rank boundary, and a plain single-rank ``execute``
is ``ranks=1`` over the inline transport.  Who owns what:

* :class:`_RunState` — per run: the tile body, the edge pack/unpack,
  the rank turn, and (after ``begin``) the scheduler, the per-rank
  :class:`~repro.runtime.fastpath.WavefrontRun`, retained edges and
  tile order;
* :class:`CompiledExecutor` — per program, cached: every loop-invariant
  compiled artifact (local-space scanner, validity-check closures, the
  array engine) and the ``mode`` dispatch, so repeated runs
  (benchmarks, calibration sweeps) stop re-deriving them;
* :class:`RunConfig` — the run description: every option of a run,
  validated once, before a graph, an arena or a worker exists;
* :func:`execute` — the entry point and the single resolver: retile,
  tune, engine, graph, partition, arenas, then one of two transports;
* :func:`merge_payloads` — the one place a driver
  :class:`ExecutionResult` is built, for both transports.

Two evaluators share the turn:

* the **interpreter** evaluates the scalar Python kernel point by point
  (slow, obviously correct), and
* the **array engine** (:mod:`repro.runtime.fastpath`) evaluates whole
  intra-tile levels with one vector-kernel call each when the spec
  carries a vector kernel — dispatched a rank's whole ready front at a
  time (``"wavefront"``) or, through the same ``turn`` branch the
  interpreter takes, one tile at a time (``"vector"``).

:attr:`RunConfig.mode` selects among them.  Edges follow the
evaluator: the interpreter packs and unpacks through the generated
:class:`~repro.generator.packing.PackPlan` scans, the array engine
through array slices of the same face slabs (byte-identical buffers).

Every numerical result is produced here by actually evaluating the
recurrence; tests compare the outputs against independent brute-force
solvers, and the fast path is pinned bit-identical to the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..generator.priority import SCHEMES as PRIORITY_SCHEMES
from ..polyhedra.compile import compile_scanner
from ..spec import Kernel
from .fastpath import (
    FRONT_MODES,
    VectorTileEngine,
    WavefrontRun,
    vector_unsupported_reason,
)
from .graph import TileGraph, TileIndex, tile_graph
from .memory import EdgeMemoryTracker
from .native import NativeTileLibrary, load_tile_library
from .parallel import run_process
from .scheduler import SCHEDULE_POLICIES, TileScheduler, TransitionEvent
from .spmd import (
    arena_capacities,
    run_inline,
    spmd_rank_assignment,
    validate_rank_of,
)

EXECUTION_MODES = ("auto", "interpret", "vector", "wavefront", "native")

#: The two transports, by ``RunConfig.backend``: each takes the resolved
#: :class:`_RunState` and returns its ranks' payloads.
_TRANSPORTS = {"inline": run_inline, "process": run_process}
SPMD_BACKENDS = tuple(_TRANSPORTS)

#: The load balancers ``GeneratedProgram.load_balance`` dispatches on.
LB_METHODS = ("dimension-cut", "hyperplane")

#: Option name -> (what error messages call it, the values it accepts).
_CHOICES = {
    "mode": ("execution mode", EXECUTION_MODES),
    "backend": ("SPMD backend", SPMD_BACKENDS),
    "schedule": ("schedule", SCHEDULE_POLICIES + ("auto",)),
    "priority_scheme": ("priority scheme", PRIORITY_SCHEMES),
    "lb_method": ("load-balancing method", LB_METHODS),
}


@dataclass(frozen=True)
class RunConfig:
    """The description of one run: every option, checked once.

    ``__post_init__`` is the only place an option value is rejected, so
    a bad one raises the same :class:`RuntimeExecutionError` on every
    backend before a tile graph, a shared-memory segment or a worker
    process exists.  Frozen and hashable; all ranks of a run read the
    same instance.  :attr:`ExecutionResult.config` carries the config
    *as resolved* — ``mode``, ``schedule`` and ``tile_widths`` concrete
    — so ``execute(program, params, config=result.config)`` reproduces
    the run.
    """

    #: Evaluator and dispatch: ``"auto"`` (``"native"``, else
    #: ``"wavefront"``, else the interpreter), ``"interpret"`` (the
    #: scalar kernel, cell by cell), ``"wavefront"`` (the array
    #: evaluator over a rank's whole ready front), ``"native"`` (the
    #: same fronts through the emitted C tile body, compiled and
    #: loaded in process), or ``"vector"`` (the array evaluator
    #: dispatched tile at a time: 3.5-9.5x slower than ``wavefront`` on
    #: the suite instances; kept for trace parity with the interpreter).
    #: Forced modes raise when the program cannot run them.
    mode: str = "auto"
    #: SPMD rank count.  More than one partitions the tiles with the
    #: load balancer — same numbers, plus per-rank accounting and
    #: cross-rank message counts; one rank is the same loop with
    #: nothing to exchange.
    ranks: int = 1
    #: The transport: ``"inline"`` (ranks interleaved cooperatively in
    #: this thread, the deterministic oracle) or ``"process"`` (one OS
    #: worker per rank over ``multiprocessing.shared_memory``, for real
    #: multi-core wall-clock wins; see :mod:`repro.runtime.parallel`).
    backend: str = "inline"
    #: The scheduler's ready-set policy: ``"dynamic"`` (priority heaps),
    #: ``"static"`` (precomputed wavefront levels released behind
    #: arrival barriers), or ``"auto"`` (the simulator-driven tuner of
    #: :mod:`repro.runtime.tuner` picks policy *and* tile widths, cached
    #: on disk per program/params/machine).  All ranks must agree on
    #: it: the cross-rank send/recv protocol stays FIFO-identical only
    #: when both endpoints run the same policy.  Both policies produce
    #: bit-identical values.
    schedule: str = "dynamic"
    #: How the dynamic policy orders ready tiles (one of
    #: :data:`repro.generator.priority.SCHEMES`).
    priority_scheme: str = "lb-first"
    #: How the load balancer partitions tiles across ranks.
    lb_method: str = "dimension-cut"
    #: Tile-width override (an int applies to every loop var; a mapping
    #: is stored as a tuple of ``(loop var, width)`` pairs): the
    #: program is re-tiled through the generator, so pass it instead of
    #: — not alongside — a prebuilt graph.  None keeps the spec's.
    tile_widths: Union[None, int, Tuple[Tuple[str, int], ...]] = None
    #: Return every computed cell in ``ExecutionResult.values`` (small
    #: instances only).
    record_values: bool = False
    #: Return the scheduler's transition trace in
    #: ``ExecutionResult.events``.
    record_events: bool = False
    #: Retain every packed edge after the run — O(n^(d-1)) memory
    #: instead of the O(n^d) full space — enabling solution recovery by
    #: on-the-fly tile recomputation (paper Section VII-A; see
    #: :class:`repro.runtime.recover.SolutionRecovery`); works under
    #: every mode and does not change which one runs.
    keep_edges: bool = False
    #: Process transport only: a worker with no progress for this many
    #: seconds aborts itself, and the parent's overall deadline.
    timeout: float = 300.0

    def __post_init__(self) -> None:
        for name, (label, allowed) in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise RuntimeExecutionError(
                    f"unknown {label} {value!r}; expected one of {allowed}"
                )
        if self.ranks < 1:
            raise RuntimeExecutionError(
                f"rank count must be >= 1, got {self.ranks}"
            )
        if not self.timeout > 0:
            raise RuntimeExecutionError(
                f"timeout must be > 0 seconds, got {self.timeout}"
            )
        if isinstance(self.tile_widths, Mapping):
            # The hashable form; dict() of it is the mapping again.
            object.__setattr__(
                self, "tile_widths", tuple(self.tile_widths.items())
            )


@dataclass
class ExecutionResult:
    """Outcome of one in-process run."""

    objective_point: Dict[str, int]
    objective_value: Optional[float]
    tiles_executed: int
    cells_computed: int
    tile_order: List[TileIndex]
    memory: Dict[str, int]
    values: Optional[Dict[Tuple[int, ...], float]] = None
    #: With ``keep_edges=True``: every packed edge, keyed by
    #: (producer, consumer) — the raw material of solution recovery
    #: (paper Section VII-A).
    edges: Optional[Dict[Tuple[TileIndex, TileIndex], np.ndarray]] = None
    #: The run description as resolved: ``mode`` is what produced the
    #: numbers, ``schedule`` and ``tile_widths`` what the run actually
    #: used (the tuner's choice under ``schedule="auto"``).  The
    #: ``mode`` / ``backend`` / ``ranks`` / ``schedule`` /
    #: ``tile_widths`` attributes below read it.
    config: RunConfig = RunConfig(mode="interpret")
    #: Per-rank edge-memory snapshots (same keys as ``memory``, which
    #: aggregates across ranks).  Cells are float64 state-array elements;
    #: multiply by 8 for bytes.
    memory_per_rank: Optional[List[Dict[str, int]]] = None
    #: Tiles executed by each rank.
    tiles_per_rank: Optional[List[int]] = None
    #: Edges that crossed a rank boundary (one in-memory message each —
    #: the analogue of the generated C's MPI message count).
    cross_rank_messages: int = 0
    cross_rank_cells: int = 0
    #: With ``record_events=True``: the scheduler's transition trace.
    events: Optional[List[TransitionEvent]] = None

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def ranks(self) -> int:
        return self.config.ranks

    @property
    def schedule(self) -> str:
        return self.config.schedule

    @property
    def tile_widths(self) -> Optional[Dict[str, int]]:
        """The widths the run used, per loop var."""
        widths = self.config.tile_widths
        return None if widths is None else dict(widths)

    def value_at(self, point: Mapping[str, int], loop_vars) -> float:
        if self.values is None:
            raise RuntimeExecutionError(
                "run with record_values=True to query arbitrary points"
            )
        key = tuple(point[v] for v in loop_vars)
        return self.values[key]

    @property
    def peak_edge_cells_per_rank(self) -> Optional[List[int]]:
        if self.memory_per_rank is None:
            return None
        return [m["peak_cells"] for m in self.memory_per_rank]


def _compile_constraints(constraints):
    """Turn linear constraints into fast integer closures.

    One function per constraint, each mapping a global environment
    (loop vars + params) to bool.
    """
    fns = []
    for c in constraints:
        # Integral coefficients stay plain ints (the fast common case);
        # rational coefficients keep their exact Fraction so the
        # interpreter still evaluates the check correctly — the array
        # engine rejects such programs at construction and auto mode
        # falls back here.
        items = [
            (name, coef.numerator if coef.denominator == 1 else coef)
            for name, coef in c.expr.terms()
        ]
        const = c.expr.constant
        const_i = const.numerator if const.denominator == 1 else const
        is_eq = c.is_equality()

        def fn(env, items=tuple(items), const_i=const_i, is_eq=is_eq):
            total = const_i
            for name, coef in items:
                total += coef * env[name]
            return total == 0 if is_eq else total >= 0

        fns.append(fn)
    return fns


class _RunState:
    """The resolved run: the one tile body and the one rank turn.

    The numeric half — objective bookkeeping, the optional ``values``
    record, the interpreter's reused per-point environments,
    :meth:`execute_tile` and the edge transport
    :meth:`pack_edge`/:meth:`unpack_edge` (array slices for the array
    engine, the generated :class:`~repro.generator.packing.PackPlan`
    scans for the interpreter) — is all solution recovery needs: it
    builds one from its forward pass's ``result.config`` (*config*'s
    ``mode`` must be resolved, never ``"auto"``).  A driver run also
    carries what :func:`execute` resolved — ``graph``, ``rank_of``, the
    per-rank ``arena_planes`` and the ``config`` every rank reads — and
    its transport calls :meth:`begin`, after which the
    state owns the run's :class:`~repro.runtime.scheduler.TileScheduler`,
    one :class:`~repro.runtime.fastpath.WavefrontRun` per rank when the
    run resolved to ``wavefront``, the retained edges and the tile
    order, and :meth:`turn` is the only scheduling loop body in the
    runtime: every transport, at every rank count, takes its turns
    through it, which is what makes their numbers and traces identical.
    """

    def __init__(
        self,
        ce: "CompiledExecutor",
        params: Dict[str, int],
        kernel: Optional[Kernel],
        config: RunConfig,
        graph: Optional[TileGraph] = None,
        rank_of: Optional[np.ndarray] = None,
    ):
        spec = ce.spec
        interpret = config.mode == "interpret"
        if interpret and kernel is None:
            kernel = spec.kernel
            if kernel is None:
                raise RuntimeExecutionError(
                    f"problem {spec.name!r} has no Python kernel; "
                    "pass kernel="
                )
        self.ce = ce
        self.params = params
        self.kernel = kernel
        self.engine = None if interpret else ce.vector_engine
        self.native = ce.native_library if config.mode == "native" else None
        self.config = config
        # Read every turn: a plain attribute, not a config lookup.
        self.fronts = config.mode in FRONT_MODES
        self.graph = graph
        self.rank_of = rank_of
        #: Working-buffer planes each rank's arena needs; the transport
        #: allocates them (heap or shared memory) and hands them to
        #: :meth:`begin`.
        self.arena_planes: List[int] = (
            []
            if graph is None
            else arena_capacities(graph, rank_of, config.ranks, config.mode)
        )
        self.objective = spec.objective(params)
        self.objective_tile = ce.program.spaces.point_to_tile(self.objective)
        self.objective_value: Optional[float] = None
        self.values: Optional[Dict[Tuple[int, ...], float]] = (
            {} if config.record_values else None
        )
        self.cells_computed = 0
        # Reused per-point environments for the interpreter: one global
        # env for the validity checks (params + loop vars, updated in
        # place), one point dict for the kernel, one deps dict.  Nothing
        # is reallocated inside the inner loop.
        self._genv: Dict[str, int] = dict(params)
        self._point: Dict[str, int] = {}
        self._deps: Dict[str, Optional[float]] = {}
        # The scheduling half, filled in by begin().
        self.sched: Optional[TileScheduler] = None
        self.runs: Dict[int, WavefrontRun] = {}
        self.arenas: Dict[int, np.ndarray] = {}
        self.kept_edges: Optional[
            Dict[Tuple[TileIndex, TileIndex], np.ndarray]
        ] = None
        self.tile_order: List[TileIndex] = []

    def begin(self, arenas: Dict[int, np.ndarray]) -> TileScheduler:
        """Attach the scheduling half of a driver run; returns the
        scheduler (seeding it is the transport's call).

        *arenas* maps every rank this state takes turns for to its
        ``(planes, *padded_shape)`` float64 working buffer of
        ``arena_planes[rank]`` planes — the widest front for a wavefront
        run, one scratch plane reused by every tile under per-tile
        dispatch.  The transport decides where it lives: heap for the
        inline one, shared memory for the process one.
        """
        config = self.config
        self.sched = TileScheduler(
            self.graph,
            ranks=config.ranks,
            rank_of=self.rank_of,
            priority_scheme=config.priority_scheme,
            record_events=config.record_events,
            batch=self.fronts,
            schedule=config.schedule,
        )
        self.arenas = arenas
        self.kept_edges = {} if config.keep_edges else None
        if self.fronts:
            self.runs = {
                rank: WavefrontRun(
                    self.engine, self.graph, self.params,
                    rank_of=self.rank_of, values=self.values, arena=arena,
                    keep_edges=config.keep_edges, native=self.native,
                )
                for rank, arena in arenas.items()
            }
        return self.sched

    def turn(self, rank: int, post) -> bool:
        """One scheduling turn of *rank*; False when it had nothing ready.

        Start what the rank can start — one tile, or its whole lowest
        ready front when the run dispatches fronts — evaluate
        it, note the objective, then per started tile pack each outgoing
        edge, keep it under ``keep_edges``, hand it on, and release the
        tile.  A same-rank edge is buffered in the scheduler and
        delivered at once; a cross-rank edge goes to
        ``post(rank, dest_rank, row, consumer_row, buffer)``, the one
        step that differs between transports (delivery then happens at
        the destination's recv).
        """
        sched = self.sched
        tile_tuples = sched.tile_tuples
        if self.fronts:
            rows = sched.start_batch(rank)
            if not rows:
                return False
            # The front's packed incoming edges (cross-rank; all of them
            # under keep_edges) come out of the store; the rest
            # ghost-fill from retained interiors inside execute_batch.
            arrays = self.runs[rank].execute_batch(
                rows,
                packed=sched.take_front_edges(
                    rows, self.kept_edges is not None
                ),
            )
        else:
            row = sched.start_tile(rank)
            if row is None:
                return False
            rows = [row]
            array = self.arenas[rank][0]
            array.fill(np.nan)
            for producer, delta_id, buffer in sched.consume_edges(row):
                self.unpack_edge(
                    tile_tuples[producer], delta_id, buffer, array
                )
            self.execute_tile(tile_tuples[row], array)
            arrays = [array]

        kept_edges = self.kept_edges
        # A front-dispatched run's same-rank edges travel as slices of
        # retained interiors; every other edge (all of them under
        # keep_edges) takes the packed route.
        slice_local = self.fronts and kept_edges is None
        for row, array in zip(rows, arrays):
            tile = tile_tuples[row]
            self.tile_order.append(tile)
            self.note_objective(tile, array)
            for consumer, delta_id, _, dest in sched.outgoing(row):
                if dest == rank and slice_local:
                    sched.deliver_edge(consumer)
                    continue
                buffer = self.pack_edge(tile, delta_id, array)
                if kept_edges is not None:
                    kept_edges[(tile, tile_tuples[consumer])] = buffer
                if dest == rank:
                    sched.send_edge(row, consumer, buffer, len(buffer))
                    sched.deliver_edge(consumer)
                else:
                    post(rank, dest, row, consumer, buffer)
            sched.finish_tile(row)
        return True

    def payload(self) -> Dict[str, object]:
        """What this state's scheduler saw, in the shape
        :func:`merge_payloads` folds: the whole run for the inline
        transport, one rank's share (the other ranks' entries zero) for
        a process worker."""
        sched = self.sched
        for run in self.runs.values():
            run.verify_drained()
        return {
            "objective_value": self.objective_value,
            "cells": self.cells_computed
            + sum(run.cells for run in self.runs.values()),
            "tile_order": self.tile_order,
            "memory": sched.memory_snapshot(),
            "memory_per_rank": sched.memory_per_rank(),
            "tiles_per_rank": list(sched.finished_per_rank),
            "cross_rank_messages": sched.cross_rank_messages,
            "cross_rank_cells": sched.cross_rank_cells,
            "values": self.values,
            "events": sched.events,
            "edges": self.kept_edges,
        }

    def note_objective(self, tile: TileIndex, array: np.ndarray) -> None:
        """Record the objective cell if *tile* holds it.

        Read back from the tile's padded *array* after evaluation,
        whichever engine filled it; NaN means the objective point is
        outside the iteration space (prefix runs).
        """
        if tile != self.objective_tile:
            return
        spec = self.ce.spec
        widths = spec.tile_width_vector()
        local = tuple(
            self.objective[x] - widths[k] * tile[k]
            for k, x in enumerate(spec.loop_vars)
        )
        value = array[self.ce.program.layout.array_index(local)]
        if not np.isnan(value):
            self.objective_value = float(value)

    def _plan_args(self, tile: TileIndex, delta_id: int):
        """The interpreter's ``PackPlan`` and its producer environment."""
        program = self.ce.program
        env = dict(self.params)
        env.update(program.spaces.tile_env(tile))
        return program.pack_plans[program.deltas[delta_id]], env

    def pack_edge(
        self, tile: TileIndex, delta_id: int, array: np.ndarray
    ) -> np.ndarray:
        """Pack the edge *tile* sends along delta *delta_id* out of its
        padded *array*."""
        program = self.ce.program
        if self.engine is not None:
            return self.engine.pack_edge(
                tile, program.deltas[delta_id], array, self.params
            )
        plan, env = self._plan_args(tile, delta_id)
        return plan.pack(
            env, array, program.layout, program.spaces.local_vars
        )

    def unpack_edge(
        self,
        producer: TileIndex,
        delta_id: int,
        buffer: np.ndarray,
        array: np.ndarray,
    ) -> None:
        """Scatter *producer*'s packed edge into the ghost margin of the
        consumer's padded *array*."""
        program = self.ce.program
        if self.engine is not None:
            self.engine.unpack_edge(
                producer, program.deltas[delta_id], buffer, array,
                self.params,
            )
            return
        plan, env = self._plan_args(producer, delta_id)
        plan.unpack(
            env, buffer, array, program.layout, program.spaces.local_vars
        )

    def execute_tile(self, tile: TileIndex, array: np.ndarray) -> int:
        """Evaluate every in-space cell of *tile*; returns cells computed."""
        ce = self.ce
        spec = ce.spec
        layout = ce.program.layout
        widths = spec.tile_width_vector()
        values = self.values
        engine = self.engine
        if engine is not None:
            cells = engine.execute_tile(
                tile, array, self.params, values, self.native
            )
            self.cells_computed += cells
            return cells

        kernel = self.kernel
        genv = self._genv
        point = self._point
        deps = self._deps
        check_fns = ce.check_fns
        per_template = ce.per_template
        tile_env = dict(self.params)
        tile_env.update(ce.program.spaces.tile_env(tile))
        cells = 0
        for local in ce.scan(tile_env):
            for k, x in enumerate(spec.loop_vars):
                g = widths[k] * tile[k] + local[k]
                point[x] = g
                genv[x] = g
            # Key taken before the kernel call: a kernel mutating
            # its point dict must not corrupt the recorded cell.
            key = tuple(genv[x] for x in spec.loop_vars)
            for name, vec in ce.template_items:
                ok = all(
                    check_fns[idx](genv) for idx in per_template[name]
                )
                if ok:
                    ghost = tuple(i + r for i, r in zip(local, vec))
                    value = array[layout.array_index(ghost)]
                    if np.isnan(value):
                        raise RuntimeExecutionError(
                            f"tile {tile}: dependency {name} of "
                            f"point {dict(point)} is valid but its "
                            "value was never computed or delivered"
                        )
                    deps[name] = float(value)
                else:
                    deps[name] = None
            result = kernel(point, deps, self.params)
            array[layout.array_index(local)] = result
            cells += 1
            if values is not None:
                values[key] = float(result)
        self.cells_computed += cells
        return cells


class CompiledExecutor:
    """Per-program cache of every loop-invariant execution artifact.

    Construction compiles the local-space scanner and the validity-check
    closures exactly once; the array engine is built lazily on the
    first run that can use it.  One instance is cached on the program
    (see :func:`compiled_executor`), so benchmarks and calibration that
    execute the same program repeatedly pay the derivation cost once.
    """

    def __init__(self, program: GeneratedProgram):
        self.program = program
        self.spec = program.spec
        spaces = program.spaces
        directions_x = self.spec.scan_directions()
        self.local_directions = {
            spaces.local_vars[k]: directions_x[x]
            for k, x in enumerate(self.spec.loop_vars)
        }
        # Loop-invariant across tiles AND runs: compiled once here, never
        # inside the tile loop (it used to be recompiled per tile).
        self.scan = compile_scanner(spaces.local_nest, self.local_directions)
        self.check_fns = _compile_constraints(program.validity.checks)
        self.per_template = {
            name: tuple(ids)
            for name, ids in program.validity.per_template.items()
        }
        self.space_fns = _compile_constraints(self.spec.constraints)
        self.template_items = list(self.spec.templates.items())
        self._vector_engine: Optional[VectorTileEngine] = None
        self._vector_reason: Optional[str] = None
        self._vector_probed = False
        self._native: Optional[tuple] = None  # (library, reason), probed

    # -- public compiled artifacts --------------------------------------------

    @property
    def validity_checks(self):
        """The compiled validity checks: ``(check_fns, per_template)``.

        ``check_fns[i]`` maps a global environment (params + loop vars)
        to bool; ``per_template[name]`` lists the check ids guarding the
        template.  Public so solution recovery and analysis tooling
        reuse the executor's compiled closures instead of re-deriving
        them.
        """
        return self.check_fns, self.per_template

    def in_space(self, env: Mapping[str, int]) -> bool:
        """Whether *env* (params + loop vars) is an iteration-space
        point: ``spec.constraints.satisfied(env)`` through closures
        compiled like the validity checks, without its ``Fraction``
        arithmetic."""
        return all(fn(env) for fn in self.space_fns)

    # -- engine selection -----------------------------------------------------

    @property
    def vector_engine(self) -> Optional[VectorTileEngine]:
        """The array engine, or None with ``vector_reason`` set.

        Engine *construction* failures (e.g. non-integral check
        constraints the interval analysis cannot split) fold into the
        reason instead of escaping, so auto mode degrades to the
        interpreter rather than crashing after dispatch committed.
        """
        if not self._vector_probed:
            self._vector_probed = True
            self._vector_reason = vector_unsupported_reason(self.program)
            if self._vector_reason is None:
                try:
                    self._vector_engine = VectorTileEngine(self.program)
                except RuntimeExecutionError as exc:
                    self._vector_reason = (
                        f"array engine construction failed: {exc}"
                    )
        return self._vector_engine

    #: The same engine under the name benchmarks/suite reads.
    wavefront_engine = vector_engine

    @property
    def vector_reason(self) -> Optional[str]:
        self.vector_engine  # noqa: B018 - force the probe
        return self._vector_reason

    @property
    def native_library(self) -> Optional[NativeTileLibrary]:
        """The compiled tile body, or None with ``native_reason`` set.

        Probed on the first ``auto``/``native`` resolve (in the
        resolver, so before any fork), never by ``vector_engine``: the
        one property that may run the C compiler.  It evaluates over
        the array engine's geometry, so it needs that engine too.
        """
        if self._native is None:
            if self.vector_engine is None:
                self._native = (
                    None, f"no array engine to run on ({self._vector_reason})"
                )
            else:
                self._native = load_tile_library(self.program)
        return self._native[0]

    @property
    def native_reason(self) -> Optional[str]:
        self.native_library  # noqa: B018 - force the probe
        return self._native[1]

    def resolve_mode(self, mode: str, kernel: Optional[Kernel]) -> str:
        """Dispatch a :data:`EXECUTION_MODES` value to an evaluator and
        its dispatch granularity.

        Auto prefers the compiled tile body (``"native"``), then the
        array engine front at a time (``"wavefront"``), then the
        interpreter; each step down has a named reason
        (``native_reason``, ``vector_reason``), and a custom scalar
        kernel goes straight to the interpreter.  Forced modes raise
        the reason instead of degrading.  ``keep_edges`` plays no part:
        every mode can retain its packed edges.
        """
        if mode == "interpret":
            return "interpret"
        if kernel is not None and kernel is not self.spec.kernel:
            if mode != "auto":
                raise RuntimeExecutionError(
                    f"{mode} mode cannot run a custom scalar kernel; pass "
                    "mode='interpret' or a spec with a matching vector_kernel"
                )
            return "interpret"
        if mode in ("auto", "native"):
            if self.native_library is not None:
                return "native"
            if mode == "native":
                raise RuntimeExecutionError(
                    f"native mode unavailable: {self.native_reason}"
                )
        if self.vector_engine is None:
            if mode != "auto":
                raise RuntimeExecutionError(
                    f"{mode} mode unavailable: {self._vector_reason}"
                )
            return "interpret"
        return "vector" if mode == "vector" else "wavefront"


def compiled_executor(program: GeneratedProgram) -> CompiledExecutor:
    """The per-program :class:`CompiledExecutor`, built once and cached."""
    cached = getattr(program, "_compiled_executor", None)
    if cached is None:
        cached = CompiledExecutor(program)
        program._compiled_executor = cached
    return cached


def execute(
    program: GeneratedProgram,
    params: Mapping[str, int],
    kernel: Optional[Kernel] = None,
    *,
    graph: Optional[TileGraph] = None,
    rank_of: Optional[np.ndarray] = None,
    config: Optional[RunConfig] = None,
    **options,
) -> ExecutionResult:
    """Solve the problem instance and return the objective value.

    *kernel* defaults to the spec's Python kernel.  A prebuilt *graph*
    can be passed to amortize graph construction across runs with
    identical parameters.  *rank_of* is an explicit per-row rank
    assignment overriding the load balancer (tests probe pathological
    partitions with it).  Everything else about the run is a
    :class:`RunConfig` field: pass a *config*, field values as keywords
    (``mode=``, ``ranks=``, ...), or both — keywords override the
    config's fields.

    This is the single resolver.  In order: validate (constructing the
    config), retile, tune (``schedule="auto"``), engine, graph,
    partition, arena plane counts — then the transport
    ``config.backend`` names takes the resolved :class:`_RunState`.  The
    result's per-rank fields (``memory_per_rank``, ``tiles_per_rank``,
    ``cross_rank_messages``) are filled in at every rank count;
    ``tile_order`` is a valid topological order of the tile DAG.
    """
    from .tuner import retile_program, tune  # tuner -> simulate -> runtime

    config = replace(config or RunConfig(), **options)
    if config.tile_widths is not None:
        retiled = retile_program(program, config.tile_widths)
        if retiled is not program and graph is not None:
            raise RuntimeExecutionError(
                "a prebuilt graph fixes the tiling; pass either "
                "graph= or tile_widths=, not both"
            )
        program = retiled
    if config.schedule == "auto":
        # A prebuilt graph (or explicit widths) pins the tiling — the
        # tuner then only chooses the policy for those widths.
        pinned = graph is not None or config.tile_widths is not None
        decision = tune(
            program,
            params,
            quick=True,
            tile_width_candidates=(
                [dict(program.spec.tile_widths)] if pinned else None
            ),
        )
        config = replace(config, schedule=decision.schedule)
        program = retile_program(program, decision.tile_widths)
    ce = compiled_executor(program)
    config = replace(
        config,
        mode=ce.resolve_mode(config.mode, kernel),
        tile_widths=program.spec.tile_widths,
    )
    params = dict(params)
    if graph is None:
        graph = tile_graph(program, params)
    if rank_of is None:
        rank_of = spmd_rank_assignment(
            program, params, graph, config.ranks, config.lb_method
        )
    else:
        rank_of = validate_rank_of(rank_of, graph, config.ranks)
    state = _RunState(ce, params, kernel, config, graph, rank_of)
    return merge_payloads(state, _TRANSPORTS[config.backend](state))


def run_spmd(program, params, ranks, **options) -> ExecutionResult:
    """``execute(program, params, ranks=ranks, ...)`` under its old name."""
    return execute(program, params, ranks=ranks, **options)


def run_spmd_process(program, params, ranks, **options) -> ExecutionResult:
    """``execute(..., ranks=ranks, backend="process")`` under its old name."""
    return execute(program, params, ranks=ranks, backend="process", **options)


def merge_payloads(
    state: _RunState, payloads: List[Dict[str, object]]
) -> ExecutionResult:
    """Fold :meth:`_RunState.payload` dicts into the run's result.

    The inline transport hands over one payload covering every rank, the
    process transport one per worker in rank order.  Per-rank entries and
    totals sum (a worker's entries for the ranks it does not own are
    zero); tile orders, values, retained edges and event traces
    concatenate in payload order, events renumbered.
    """
    graph = state.graph
    cells = sum(p["cells"] for p in payloads)
    if cells != graph.total_work():
        raise RuntimeExecutionError(
            f"computed {cells} cells but the graph holds "
            f"{graph.total_work()} points"
        )
    first = payloads[0]
    values, edges, events = first["values"], first["edges"], first["events"]
    for p in payloads[1:]:
        if values is not None:
            values.update(p["values"])
        if edges is not None:
            edges.update(p["edges"])
    if events is not None and len(payloads) > 1:
        events = [
            replace(e, seq=seq)
            for seq, e in enumerate(e for p in payloads for e in p["events"])
        ]
    tiles_per_rank = [
        sum(tiles) for tiles in zip(*(p["tiles_per_rank"] for p in payloads))
    ]
    return ExecutionResult(
        objective_point=state.objective,
        objective_value=next(
            (
                p["objective_value"]
                for p in payloads
                if p["objective_value"] is not None
            ),
            None,
        ),
        tiles_executed=sum(tiles_per_rank),
        cells_computed=cells,
        tile_order=[t for p in payloads for t in p["tile_order"]],
        memory=EdgeMemoryTracker.merge_snapshots(
            [p["memory"] for p in payloads]
        ),
        values=values,
        edges=edges,
        config=state.config,
        memory_per_rank=[
            EdgeMemoryTracker.merge_snapshots(snaps)
            for snaps in zip(*(p["memory_per_rank"] for p in payloads))
        ],
        tiles_per_rank=tiles_per_rank,
        cross_rank_messages=sum(p["cross_rank_messages"] for p in payloads),
        cross_rank_cells=sum(p["cross_rank_cells"] for p in payloads),
        events=events,
    )


def solve_reference(
    program: GeneratedProgram,
    params: Mapping[str, int],
    kernel: Optional[Kernel] = None,
    record_values: bool = False,
):
    """Untiled oracle: scan the original iteration space in scan order.

    Exercises none of the tiling machinery — a second, independent path
    to the same numbers, used by tests to validate the tiled executor.
    """
    spec = program.spec
    if kernel is None:
        kernel = spec.kernel
    if kernel is None:
        raise RuntimeExecutionError("no kernel available")
    params = dict(params)
    check_fns, per_template = compiled_executor(program).validity_checks
    directions = spec.scan_directions()
    store: Dict[Tuple[int, ...], float] = {}
    objective = spec.objective(params)
    objective_key = tuple(objective[v] for v in spec.loop_vars)
    objective_value = None
    for env in program.spaces.original_nest.iterate(params, directions):
        point = {v: env[v] for v in spec.loop_vars}
        genv = dict(params)
        genv.update(point)
        deps: Dict[str, Optional[float]] = {}
        for name, vec in spec.templates.items():
            ok = all(check_fns[idx](genv) for idx in per_template[name])
            if ok:
                key = tuple(point[v] + r for v, r in zip(spec.loop_vars, vec))
                deps[name] = store[key]
            else:
                deps[name] = None
        value = float(kernel(point, deps, params))
        key = tuple(point[v] for v in spec.loop_vars)
        store[key] = value
        if key == objective_key:
            objective_value = value
    return ExecutionResult(
        objective_point=objective,
        objective_value=objective_value,
        tiles_executed=0,
        cells_computed=len(store),
        tile_order=[],
        memory={},
        values=store if record_values else None,
    )
