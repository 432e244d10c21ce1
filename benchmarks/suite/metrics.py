"""Names, units and directions of every metric the suite prints.

``BENCHMARK.json`` repeats these tables (``test_suite_smoke.py`` asserts
they agree).  The bounds are the share of the baseline median by which
an end-to-end metric may worsen; NOISE.md records the measured
run-to-run spread each one was set above.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, Tuple

import numpy as np

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "cells_per_s": ("cells/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.05),
}
#: Printed and gated by ``--compare`` (any rise regresses) but not listed
#: in BENCHMARK.json, whose metrics may never be 0; the driver reads the
#: same thing from ``failed``/``attempted``.
ERROR_RATE = ("error_rate", "failed/attempted", "lower")
#: ``setup_s`` is a few milliseconds on the 2-D workloads; below this
#: many seconds of difference ``--compare`` does not call a regression.
SETUP_ABS_SLACK_S = 0.02

#: name -> (unit, better).  Order is print order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "host.import_s": ("s", "lower"),
    "host.probe_s": ("s", "lower"),
    "generator.generate_s": ("s", "lower"),
    "generator.spaces_s": ("s", "lower"),
    "generator.validity_s": ("s", "lower"),
    "generator.packing_s": ("s", "lower"),
    "polyhedra.compile.counter_compiles": ("count", "lower"),
    "polyhedra.compile.scanner_compiles": ("count", "lower"),
    "polyhedra.compile.memo_hits": ("count", "higher"),
    "runtime.graph.build_s": ("s", "lower"),
    "runtime.graph.levels_s": ("s", "lower"),
    "runtime.graph.tiles": ("count", "lower"),
    "runtime.graph.edges": ("count", "lower"),
    "runtime.graph.levels": ("count", "lower"),
    "runtime.graph.max_front": ("count", "higher"),
    "runtime.executor.compile_s": ("s", "lower"),
    "runtime.executor.first_run_extra_s": ("s", "lower"),
    "runtime.executor.driver_self_s": ("s", "lower"),
    "runtime.scheduler.self_s": ("s", "lower"),
    "runtime.scheduler.calls": ("count", "lower"),
    "runtime.scheduler.static_over_dynamic": ("ratio", "higher"),
    "runtime.fastpath.batch_s": ("s", "lower"),
    "runtime.fastpath.batch_self_s": ("s", "lower"),
    "runtime.fastpath.batches": ("count", "lower"),
    "runtime.fastpath.fallback_tiles": ("count", "lower"),
    "runtime.fastpath.fallback_tile_share": ("ratio", "lower"),
    "runtime.fastpath.fallback_s": ("s", "lower"),
    "runtime.fastpath.fallback_self_s": ("s", "lower"),
    "problems.kernel_s": ("s", "lower"),
    "problems.kernel_calls": ("count", "lower"),
    "problems.lanes_per_call": ("count", "higher"),
    "generator.packing.pack_s": ("s", "lower"),
    "generator.packing.unpack_s": ("s", "lower"),
    "generator.packing.pack_calls": ("count", "lower"),
    "generator.packing.cells_packed": ("count", "lower"),
    "runtime.memory.peak_edge_cells": ("count", "lower"),
    "runtime.recover.forward_s": ("s", "lower"),
    "runtime.recover.traceback_s": ("s", "lower"),
    "runtime.recover.path_len": ("count", "lower"),
    "runtime.recover.edge_memory_cells": ("count", "lower"),
    "runtime.spmd.cross_rank_messages": ("count", "lower"),
    "runtime.spmd.cross_rank_cells": ("count", "lower"),
    "runtime.spmd.rank_tile_imbalance": ("ratio", "lower"),
    "runtime.spmd.inline2_over_r1": ("ratio", "lower"),
    "runtime.parallel.fixed_cost_s": ("s", "lower"),
    "runtime.parallel.speedup_p2": ("ratio", "higher"),
    "runtime.parallel.efficiency_p2": ("ratio", "higher"),
    "runtime.parallel.shm_leaked_segments": ("count", "lower"),
    "generator.cgen.emit_s": ("s", "lower"),
    "generator.cgen.source_bytes": ("bytes", "lower"),
    "generator.cgen.gcc_s": ("s", "lower"),
    "cgen.run.self_time_s": ("s", "lower"),
    "cgen.run.init_scan_s": ("s", "lower"),
    "cgen.run.lb_s": ("s", "lower"),
    "cgen.run.process_overhead_s": ("s", "lower"),
    "cgen.run.omp2_over_omp1": ("ratio", "higher"),
    "cgen.run.c_over_numpy": ("ratio", "lower"),
    "simulate.hybrid.simulate_s": ("s", "lower"),
    "simulate.hybrid.predicted_over_measured": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.self_sum_over_op": ("ratio", "higher"),
}

#: Counts that must repeat exactly between two runs of one commit.
EXACT_COUNTS = (
    "runtime.graph.tiles",
    "runtime.graph.edges",
    "runtime.graph.levels",
    "runtime.fastpath.fallback_tiles",
    "problems.kernel_calls",
    "runtime.spmd.cross_rank_messages",
    "generator.packing.cells_packed",
    "generator.cgen.source_bytes",
)


def shm_entries() -> int:
    """Entries under /dev/shm; the process backend must leave none behind."""
    return len(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else 0


#: What one ``host_probe()`` takes on this host when it is quiet.  Only
#: ratios of cells_per_s are ever compared, so on another host this is
#: just the unit in which that host's speed is expressed.
PROBE_REF_S = 0.025
_PROBE_ARRAY = np.arange(50_000, dtype=np.float64)


def host_probe() -> float:
    """Seconds for a fixed numpy + Python loop that calls no repo code.

    This shared 2-vCPU host runs the same code 10-30 % slower for
    seconds to minutes at a time.  The probe slows down with it
    (correlation 0.9 over 10 s windows), so timing it right after each
    op and scaling that op by ``PROBE_REF_S / probe`` removes most of
    the host's share from cells_per_s; NOISE.md has the numbers.
    """
    a = _PROBE_ARRAY
    t0 = perf_counter()
    total = 0.0
    for _ in range(300):
        total += float(np.maximum(a, a[::-1]).sum())
    for i in range(300_000):
        total += i * 0.5
    return perf_counter() - t0
