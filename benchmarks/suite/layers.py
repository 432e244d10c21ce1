"""The traced pass: where one op's time goes, layer by layer.

Runs inside the workload's child process after the untraced window.
Each round times one plain op, one *companion* op (the same instance
with one keyword changed, for the static/dynamic, 2-rank/1-rank and
2-thread/1-thread ratios) and one op with the span recorder installed;
alternating them lets host drift hit all three equally.  Times are per
op; counts are per op and repeat exactly.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import median
from time import perf_counter
from typing import Dict, Optional

import adapter
from metrics import shm_entries
from spans import LabelTotals, Recorder

MIN_ROUNDS = 3
#: The keyword each kind of workload varies in its companion op.
COMPANION = {
    "wave": {"schedule": "static"},
    "proc": {"ranks": 1, "backend": "inline"},
    "c": {"threads": 1},
}
#: Instance of the process backend's fixed-cost probe (fork + shm +
#: pipes + join with next to no work).
FIXED_COST_N = 64


def traced_pass(session, seconds: float) -> Dict[str, Optional[float]]:
    case, workload = session.case, session.workload
    kind = workload.kind
    companion = COMPANION.get(kind)
    recorder = Recorder()
    points = case.trace_points()
    shm_before = shm_entries()

    plain, other, traced, infos = [], [], [], []
    outcome = None
    deadline = perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or perf_counter() < deadline:
        t, result, _ = session.run_op()
        plain.append(t)
        if result is not None:
            infos.append(result.info)
        if companion:
            other.append(session.run_op(**companion)[0])
        t, outcome, _ = session.run_op(tracing=recorder.tracing(points))
        traced.append(t)
    if session.failed or outcome is None:
        return {}

    rounds = len(traced)
    totals = recorder.summary()
    plain_s, traced_s = median(plain), median(traced)

    def per_op(label: str, field: str) -> Optional[float]:
        if label in recorder.missing:
            return None
        return getattr(totals.get(label, LabelTotals()), field) / rounds

    def summed(labels, field: str) -> Optional[float]:
        parts = [per_op(label, field) for label in labels]
        found = [p for p in parts if p is not None]
        return sum(found) if found else None

    m: Dict[str, Optional[float]] = {
        "host.import_s": session.import_s,
        "generator.generate_s": case.stages["generate"],
        "polyhedra.compile.counter_compiles": case.compile_stats["counter_compiles"],
        "polyhedra.compile.scanner_compiles": case.compile_stats["scanner_compiles"],
        "polyhedra.compile.memo_hits": (
            case.compile_stats["counter_memo_hits"]
            + case.compile_stats["scanner_memo_hits"]
        ),
        "runtime.executor.first_run_extra_s": session.first_op_s - plain_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.self_sum_over_op": (
            sum(t.self_s for t in totals.values()) / sum(traced)
        ),
    }
    for stat, value in case.generation_stats.items():
        m[f"generator.{stat}"] = value

    if kind == "c":
        self_time = median(info["self_time_s"] for info in infos)
        report = case.binary_report(case.n, adapter.PARALLELISM)
        # The numpy engine on the check-size instance of the same spec.
        numpy_case = adapter.Case(
            replace(workload, kind="wave"), workload.check_n, case.seed,
            case.workdir,
        )
        numpy_case.setup()
        numpy_case.op()
        numpy_s = median(_timed(numpy_case.op) for _ in range(3))
        c_small_s = case.op(threads=1, n=workload.check_n).info["self_time_s"]
        m.update({
            "generator.cgen.emit_s": case.stages["emit"],
            "generator.cgen.source_bytes": case.source_bytes,
            "generator.cgen.gcc_s": case.stages["cc"] - case.stages["emit"],
            "cgen.run.self_time_s": self_time,
            "cgen.run.init_scan_s": report["init_scan"],
            "cgen.run.lb_s": report["lb_time"],
            "cgen.run.process_overhead_s": plain_s - self_time,
            "cgen.run.omp2_over_omp1": median(other) / plain_s,
            "cgen.run.c_over_numpy": numpy_s / c_small_s,
        })
        return m

    info = outcome.info
    m.update({
        "runtime.graph.build_s": case.stages["graph_build"],
        "runtime.graph.levels_s": case.stages["levels"],
        "runtime.executor.compile_s": case.stages["compile"],
        "runtime.executor.driver_self_s": summed(
            ("op", "runtime.executor.driver"), "self_s"
        ),
        "runtime.memory.peak_edge_cells": info["peak_edge_cells"],
    })
    m.update({f"runtime.graph.{k}": v for k, v in case.graph_shape().items()})
    if kind != "proc":  # the process backend's workers are not traced
        scheduler = [f"runtime.scheduler.{x}" for x in adapter.SCHEDULER_METHODS]
        tile_calls = per_op("runtime.fastpath.tile", "calls")
        kernel = totals.get("problems.kernel", LabelTotals())
        m.update({
            "runtime.scheduler.self_s": summed(scheduler, "self_s"),
            "runtime.scheduler.calls": summed(scheduler, "calls"),
            "runtime.fastpath.batch_s": per_op("runtime.fastpath.batch", "total_s"),
            "runtime.fastpath.batch_self_s": per_op("runtime.fastpath.batch", "self_s"),
            "runtime.fastpath.batches": per_op("runtime.fastpath.batch", "calls"),
            "runtime.fastpath.fallback_tiles": tile_calls,
            "runtime.fastpath.fallback_tile_share": (
                None if tile_calls is None else tile_calls / info["tiles"]
            ),
            "runtime.fastpath.fallback_s": per_op("runtime.fastpath.tile", "total_s"),
            "runtime.fastpath.fallback_self_s": per_op("runtime.fastpath.tile", "self_s"),
            "problems.kernel_s": per_op("problems.kernel", "total_s"),
            "problems.kernel_calls": per_op("problems.kernel", "calls"),
            "problems.lanes_per_call": (
                kernel.amount / kernel.calls if kernel.calls else 0.0
            ),
            "generator.packing.pack_s": per_op("generator.packing.pack", "total_s"),
            "generator.packing.unpack_s": per_op("generator.packing.unpack", "total_s"),
            "generator.packing.pack_calls": per_op("generator.packing.pack", "calls"),
            "generator.packing.cells_packed": per_op("generator.packing.pack", "amount"),
        })

    if kind == "wave":
        t0 = perf_counter()
        predicted = case.simulate()
        m.update({
            "runtime.scheduler.static_over_dynamic": plain_s / median(other),
            "simulate.hybrid.simulate_s": perf_counter() - t0,
            "simulate.hybrid.predicted_over_measured": predicted / plain_s,
        })
    elif kind == "recover":
        m.update({
            "runtime.recover.forward_s": per_op("runtime.recover.forward", "total_s"),
            "runtime.recover.traceback_s": per_op("runtime.recover.traceback", "total_s"),
            "runtime.recover.path_len": info["path_len"],
            "runtime.recover.edge_memory_cells": info["edge_memory_cells"],
        })
    elif kind == "proc":
        one_rank_s = median(other)
        inline2_s = median(
            session.run_op(ranks=adapter.PARALLELISM, backend="inline")[0]
            for _ in range(2)
        )
        tiny = adapter.Case(workload, FIXED_COST_N, case.seed, case.workdir)
        tiny.setup()
        tiny.op()
        speedup = one_rank_s / plain_s
        m.update({
            "runtime.spmd.cross_rank_messages": info["cross_rank_messages"],
            "runtime.spmd.cross_rank_cells": info["cross_rank_cells"],
            "runtime.spmd.rank_tile_imbalance": info["rank_tile_imbalance"],
            "runtime.spmd.inline2_over_r1": inline2_s / one_rank_s,
            "runtime.parallel.fixed_cost_s": median(
                _timed(tiny.op) for _ in range(5)
            ),
            "runtime.parallel.speedup_p2": speedup,
            "runtime.parallel.efficiency_p2": speedup / adapter.PARALLELISM,
            "runtime.parallel.shm_leaked_segments": shm_entries() - shm_before,
        })
    return m


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0
