"""Calibrate the machine model against the real generated program.

The simulator's default constants approximate the paper's 2011 testbed.
When a C compiler is available, the cost model can instead be *measured*:
compile the generated program for a problem, run it single-threaded at a
couple of sizes, and fit

* ``sec_per_cell`` from the cells/second of the larger run, and
* ``tile_overhead_s`` from the per-tile residual between two runs with
  different tile counts.

The result is a :class:`~repro.simulate.machine.MachineModel` whose
single-core behaviour matches this host's compiled code, making the
simulated scaling curves host-grounded rather than purely synthetic.

Hosts without gcc can calibrate against the in-process runtime instead
(:func:`calibrate_machine_in_process`): the same two-run fit, but timing
``repro.runtime.execute``.  Repeated timing runs reuse the program's
cached :class:`~repro.runtime.executor.CompiledExecutor` and a prebuilt
tile graph, so only the steady-state execution loop is measured.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..generator.cgen import emit_c_program
from ..generator.pipeline import GeneratedProgram
from .machine import MachineModel


@dataclass(frozen=True)
class CalibrationRun:
    """One measured execution of the compiled generated program."""

    params: Mapping[str, int]
    tiles: int
    cells: int
    seconds: float

    @property
    def sec_per_cell(self) -> float:
        return self.seconds / self.cells if self.cells else 0.0


def gcc_available() -> bool:
    return shutil.which("gcc") is not None


def run_generated_c(
    program: GeneratedProgram,
    params: Mapping[str, int],
    threads: int = 1,
    workdir: Optional[Path] = None,
    extra_cflags: Sequence[str] = (),
) -> CalibrationRun:
    """Compile (once per program and flags per workdir) and run the
    generated C program.

    ``workdir/<spec.name>.sha256`` records what the binary beside it was
    built from; a different program or flag set under the same spec name
    rebuilds instead of running the stale binary.  Without a *workdir*
    the build lives in a temporary directory removed before returning.
    """
    if not gcc_available():
        raise SimulationError("calibration requires gcc")
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-cal-") as owned:
            return run_generated_c(
                program, params, threads, Path(owned), extra_cflags
            )
    spec = program.spec
    workdir = Path(workdir)
    cpath = workdir / f"{spec.name}.c"
    binpath = workdir / spec.name
    stamp = workdir / f"{spec.name}.sha256"
    flags = ["-O2", "-std=c99", "-fopenmp", *extra_cflags]
    # Emitting is deterministic per program; repeated runs (the suite's
    # timed op) reuse the first emission.
    source = getattr(program, "_emitted_c", None)
    if source is None:
        source = program._emitted_c = emit_c_program(program)
    digest = hashlib.sha256("\0".join((source, *flags)).encode()).hexdigest()
    if not (
        binpath.exists() and stamp.exists() and stamp.read_text() == digest
    ):
        cpath.write_text(source)
        build = subprocess.run(
            ["gcc", *flags, str(cpath), "-o", str(binpath), "-lm"],
            capture_output=True,
            text=True,
        )
        if build.returncode != 0:
            raise SimulationError(f"gcc failed:\n{build.stderr[-2000:]}")
        stamp.write_text(digest)
    args = [str(params[p]) for p in spec.params]
    run = subprocess.run(
        [str(binpath), *args],
        capture_output=True,
        text=True,
        env={"OMP_NUM_THREADS": str(threads)},
    )
    if run.returncode != 0:
        raise SimulationError(f"generated program failed:\n{run.stderr[-2000:]}")
    header = next(
        (l for l in run.stdout.splitlines() if l.startswith("tiles")), None
    )
    if header is None:
        raise SimulationError(f"unexpected program output:\n{run.stdout}")
    toks = header.split()
    return CalibrationRun(
        params=dict(params),
        tiles=int(toks[1]),
        cells=int(toks[3]),
        seconds=float(toks[5]),
    )


def run_in_process(
    program: GeneratedProgram,
    params: Mapping[str, int],
    mode: str = "auto",
    repeats: int = 1,
) -> CalibrationRun:
    """Time the in-process runtime on one instance (no gcc required).

    The tile graph is prebuilt and the program's cached compiled
    executor does all one-time derivation (under ``mode="auto"``
    including the native library's build) in the warm-up run, before
    the clock starts; the fastest of *repeats* timed runs is reported.
    """
    from ..runtime import execute, tile_graph

    graph = tile_graph(program, params)
    result = execute(program, params, graph=graph, mode=mode)  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = execute(program, params, graph=graph, mode=mode)
        best = min(best, time.perf_counter() - t0)
    return CalibrationRun(
        params=dict(params),
        tiles=result.tiles_executed,
        cells=result.cells_computed,
        seconds=best,
    )


def fit_machine(
    small: CalibrationRun,
    large: CalibrationRun,
    base: Optional[MachineModel] = None,
) -> MachineModel:
    """Fit per-cell and per-tile costs from two measured runs.

    Solves the 2x2 system ``seconds = cells * spc + tiles * overhead``;
    degenerate fits (negative overhead from noise, singular systems)
    clamp the overhead at zero and refit the per-cell cost alone.
    """
    base = base or MachineModel()
    det = small.cells * large.tiles - large.cells * small.tiles
    spc: float
    overhead: float
    if det != 0:
        spc = (
            small.seconds * large.tiles - large.seconds * small.tiles
        ) / det
        overhead = (
            small.cells * large.seconds - large.cells * small.seconds
        ) / det
    else:
        spc = large.sec_per_cell
        overhead = 0.0
    if spc <= 0 or overhead < 0:
        spc = large.sec_per_cell
        overhead = 0.0
    return base.with_(sec_per_cell=spc, tile_overhead_s=overhead)


def calibrate_machine(
    program: GeneratedProgram,
    small_params: Mapping[str, int],
    large_params: Mapping[str, int],
    base: Optional[MachineModel] = None,
) -> Tuple[MachineModel, CalibrationRun, CalibrationRun]:
    """Fit the cost model from two single-thread runs of the compiled C.

    Returns the fitted model plus both measurements.  Both runs share
    one temporary build directory, so the program is compiled once.
    """
    with tempfile.TemporaryDirectory(prefix="repro-cal-") as owned:
        small = run_generated_c(program, small_params, workdir=Path(owned))
        large = run_generated_c(program, large_params, workdir=Path(owned))
    return fit_machine(small, large, base), small, large


def calibrate_machine_in_process(
    program: GeneratedProgram,
    small_params: Mapping[str, int],
    large_params: Mapping[str, int],
    base: Optional[MachineModel] = None,
    mode: str = "auto",
    repeats: int = 1,
) -> Tuple[MachineModel, CalibrationRun, CalibrationRun]:
    """Like :func:`calibrate_machine`, but timing the Python runtime.

    Grounds the simulator on hosts without a C toolchain.  With
    ``mode="auto"`` the engine ``execute`` resolves to is measured —
    the compiled tile body where a C compiler exists, else the array
    engine, else the interpreter — which is the runtime users actually
    get.
    """
    small = run_in_process(program, small_params, mode=mode, repeats=repeats)
    large = run_in_process(program, large_params, mode=mode, repeats=repeats)
    return fit_machine(small, large, base), small, large
