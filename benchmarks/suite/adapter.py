"""Every call the suite makes into ``repro`` lives in this file.

The README lists this surface; a refactor of ``execute()``'s keywords
(ROADMAP item 3) has to keep it working or change it here, and nowhere
else in the suite.
"""

from __future__ import annotations

import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
# repro imports scipy.optimize lazily inside the generator (~0.5 s the
# first time); importing it here keeps it off the set-up clock.
import scipy.optimize  # noqa: F401

from repro import generate
from repro.generator.cgen import emit_c_program
from repro.generator.packing import PackPlan
from repro.polyhedra.compile import COMPILE_STATS
from repro.problems import (
    delayed_two_arm_reference,
    delayed_two_arm_spec,
    edit_distance_reference,
    edit_distance_spec,
    lcs_reference,
    lcs_spec,
    random_sequence,
    two_arm_reference,
    two_arm_spec,
)
from repro.runtime import (
    SolutionRecovery,
    TileGraph,
    compiled_executor,
    execute,
    solve_reference,
    spmd_rank_assignment,
)
from repro.runtime import recover as _recover
from repro.runtime.fastpath import VectorTileEngine, WavefrontRun
from repro.runtime.scheduler import TileScheduler
from repro.simulate import MachineModel, simulate_program
from repro.simulate.calibrate import run_generated_c

from workloads import Workload

#: Ranks of the process workload and OpenMP threads of the C workload:
#: both equal this host's ``nproc``.
PARALLELISM = 2

SCHEDULER_METHODS = (
    "seed", "start_batch", "start_tile", "outgoing", "deliver_edge",
    "send_edge", "consume_edges", "finish_tile",
)


def input_strings(n: int, seed: int) -> Tuple[str, str]:
    """The two sequences of an LCS/edit instance, drawn from ``--seed``."""
    return random_sequence(n, seed=seed), random_sequence(n, seed=seed + 1)


def reference_objective(problem: str, n: int, seed: int) -> float:
    """The brute-force reference solvers bundled with ``repro.problems``.

    They share no code with the generator or the runtime.  LCS normally
    goes through the suite's own numpy oracle; ``lcs_reference`` is kept
    for cross-checking that oracle at small sizes.
    """
    if problem == "bandit2":
        return two_arm_reference(n)
    if problem == "delayed":
        return delayed_two_arm_reference(n)
    a, b = input_strings(n, seed)
    if problem == "edit":
        return edit_distance_reference(a, b)
    if problem == "lcs":
        return lcs_reference([a, b])
    raise ValueError(problem)


@dataclass
class Outcome:
    """What one op produced, for the caller to judge."""

    objective: Optional[float]
    cells: int
    #: Counters off the result object that feed per-layer metrics.
    info: Dict[str, float] = field(default_factory=dict)
    #: Full value plane, only with ``record_values=True``.
    values: Optional[Dict[Tuple[int, ...], float]] = None
    #: Traceback path of the recovery workload.
    path: Optional[List[Tuple[Dict[str, int], Optional[str]]]] = None


class Case:
    """One workload instance: its timed set-up and its op."""

    def __init__(self, workload: Workload, n: int, seed: int, workdir: Path):
        self.workload = workload
        self.n = n
        self.seed = seed
        self.workdir = workdir
        self.strings: Optional[Tuple[str, str]] = None
        if workload.problem in ("lcs", "edit"):
            self.strings = input_strings(n, seed)
        self.params = {
            "lcs": {"L1": n, "L2": n},
            "edit": {"LA": n, "LB": n},
            "bandit2": {"N": n},
            "delayed": {"N": n},
        }[workload.problem]
        self.stages: Dict[str, float] = {}
        self.source_bytes = 0
        self.generation_stats: Dict[str, float] = {}
        self.compile_stats: Dict[str, int] = {}

    # -- set-up ---------------------------------------------------------------

    def _spec(self):
        problem, width = self.workload.problem, self.workload.width
        if problem == "lcs":
            return lcs_spec(list(self.strings), tile_width=width)
        if problem == "edit":
            return edit_distance_spec(*self.strings, tile_width=width)
        if problem == "bandit2":
            return two_arm_spec(tile_width=width)
        return delayed_two_arm_spec(tile_width=width)

    @contextmanager
    def _stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        yield
        self.stages[name] = time.perf_counter() - t0

    def setup(self) -> float:
        """Spec to a ready-to-run engine; returns the wall-clock seconds.

        Stage times land in ``self.stages``.  Inputs already exist and
        imports are done: this is what a user pays once per problem.
        """
        before = dict(COMPILE_STATS)
        t0 = time.perf_counter()
        with self._stage("spec"):
            self.spec = self._spec()
        with self._stage("generate"):
            self.program = generate(self.spec)
        if self.workload.kind == "c":
            with self._stage("emit"):
                self.source_bytes = len(emit_c_program(self.program).encode())
            # Emits again, compiles, and runs the binary once at a size
            # that costs microseconds.
            with self._stage("cc"):
                run_generated_c(
                    self.program, {"N": 4}, threads=PARALLELISM,
                    workdir=self.workdir,
                )
        else:
            with self._stage("graph_build"):
                self.graph = TileGraph.build(self.program, self.params)
            with self._stage("levels"):
                self.graph.wavefront_levels()
            with self._stage("compile"):
                compiled_executor(self.program).wavefront_engine
            if self.workload.kind == "proc":
                # execute() redoes this per call; here it is on the clock.
                with self._stage("rank_assign"):
                    spmd_rank_assignment(
                        self.program, self.params, self.graph, PARALLELISM
                    )
        total = time.perf_counter() - t0
        stats = self.program.stats
        self.generation_stats = {
            "spaces_s": stats.spaces_s,
            "validity_s": stats.validity_s,
            "packing_s": stats.packing_s,
        }
        self.compile_stats = {
            k: COMPILE_STATS[k] - before[k] for k in COMPILE_STATS
        }
        return total

    def graph_shape(self) -> Dict[str, int]:
        fronts = np.bincount(self.graph.wavefront_levels())
        return {
            "tiles": len(self.graph.tile_tuples),
            "edges": self.graph.num_edges(),
            "levels": int(fronts.size),
            "max_front": int(fronts.max()),
        }

    # -- the op ---------------------------------------------------------------

    def op(self, **overrides) -> Outcome:
        """One solve.  *overrides* replace keywords of the workload's own
        call (``schedule=``, ``ranks=``, ``backend=``, ``record_values=``,
        ``threads=``) for the per-layer comparisons."""
        kind = self.workload.kind
        if kind == "c":
            return self._op_c(**overrides)
        if kind == "recover":
            return self._op_recover(**overrides)
        kwargs = {"mode": "wavefront", "schedule": "dynamic"}
        if kind == "proc":
            kwargs.update(ranks=PARALLELISM, backend="process")
        kwargs.update(overrides)
        result = execute(self.program, self.params, graph=self.graph, **kwargs)
        tiles_per_rank = result.tiles_per_rank or [result.tiles_executed]
        mean = sum(tiles_per_rank) / len(tiles_per_rank)
        return Outcome(
            objective=result.objective_value,
            cells=result.cells_computed,
            info={
                "tiles": result.tiles_executed,
                "peak_edge_cells": result.memory.get("peak_cells", 0),
                "cross_rank_messages": result.cross_rank_messages,
                "cross_rank_cells": result.cross_rank_cells,
                "rank_tile_imbalance": max(tiles_per_rank) / mean,
            },
            values=result.values,
        )

    def _op_recover(self, record_values: bool = False) -> Outcome:
        a, b = self.strings
        start = {"i": len(a), "j": len(b)}

        def policy(point, deps, value):
            i, j = point["i"], point["j"]
            if deps["diag"] is not None:
                cost = 0.0 if a[i - 1] == b[j - 1] else 1.0
                if value == deps["diag"] + cost:
                    return "diag"
            if deps["up"] is not None and value == deps["up"] + 1.0:
                return "up"
            if deps["left"] is not None and value == deps["left"] + 1.0:
                return "left"
            return None

        recovery = SolutionRecovery(self.program, self.params)
        path = recovery.traceback(policy, start=start)
        values = None
        if record_values:
            values = {}
            for tile in recovery.graph.tile_tuples:
                values.update(recovery.tile_values(tile))
        return Outcome(
            objective=recovery.value_at(start),
            cells=recovery.result.cells_computed,
            info={
                "tiles": recovery.result.tiles_executed,
                "peak_edge_cells": recovery.result.memory.get("peak_cells", 0),
                "path_len": len(path),
                "edge_memory_cells": recovery.edge_memory_cells,
            },
            values=values,
            path=path,
        )

    def _op_c(self, threads: int = PARALLELISM, n: Optional[int] = None) -> Outcome:
        run = run_generated_c(
            self.program, {"N": self.n if n is None else n}, threads=threads,
            workdir=self.workdir,
        )
        # run_generated_c does not return the objective; check_c reads it.
        return Outcome(
            objective=None,
            cells=run.cells,
            info={"tiles": run.tiles, "self_time_s": run.seconds},
        )

    # -- checks and comparisons ----------------------------------------------

    def reference_values(self) -> Dict[Tuple[int, ...], float]:
        """Full value plane from the untiled scan-order oracle."""
        return solve_reference(
            self.program, self.params, record_values=True
        ).values

    def binary_report(self, n: int, threads: int) -> Dict[str, float]:
        """Run the compiled binary directly and parse all it prints.

        ``run_generated_c`` keeps only tiles/cells/time; the objective
        and the init-scan / load-balance split are on the other lines.
        """
        run = subprocess.run(
            [str(self.workdir / self.spec.name), str(n)],
            capture_output=True, text=True, check=True,
            env={"OMP_NUM_THREADS": str(threads)},
        )
        tokens = run.stdout.split()
        report = {}
        for key in ("tiles", "cells", "time", "init_scan", "lb_time", "objective"):
            report[key] = float(tokens[tokens.index(key) + 1])
        return report

    def simulate(self) -> float:
        """Predicted makespan of this graph on one stock-model core."""
        machine = MachineModel(nodes=1, cores_per_node=1)
        return simulate_program(
            self.program, self.params, machine, graph=self.graph
        ).makespan_s

    def trace_points(self) -> List[Tuple[object, str, str, Optional[str]]]:
        """``(owner, attribute, span label, amount)`` for ``spans.Recorder``.

        *amount* names what the recorder counts per call besides time:
        ``lanes`` (kernel output size) or ``cells`` (packed buffer
        length).  ``consume_edges`` is a generator, so it gets one span
        per resume.
        """
        points: List[Tuple[object, str, str, Optional[str]]] = [
            (TileScheduler, m, f"runtime.scheduler.{m}", None)
            for m in SCHEDULER_METHODS
        ]
        points += [
            (WavefrontRun, "execute_batch", "runtime.fastpath.batch", None),
            (VectorTileEngine, "execute_tile", "runtime.fastpath.tile", None),
            (PackPlan, "pack", "generator.packing.pack", "cells"),
            (PackPlan, "unpack", "generator.packing.unpack", None),
            (SolutionRecovery, "__init__", "runtime.recover.forward", None),
            (SolutionRecovery, "traceback", "runtime.recover.traceback", None),
            # The forward pass of recovery reaches execute() through this
            # module-level name.
            (_recover, "execute", "runtime.executor.driver", None),
        ]
        if self.workload.kind != "c":
            engine = compiled_executor(self.program).vector_engine
            points.append((engine, "vector_kernel", "problems.kernel", "lanes"))
        return points
