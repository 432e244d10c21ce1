"""The six workloads: what each instance is and why it is in the suite.

Pure data plus closed-form cell counts; nothing here imports ``repro``.
``BENCHMARK.json`` repeats ``name``/``why`` and ``test_suite_smoke.py``
asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, Tuple

DEFAULT_SEED = 71


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Which call one op makes: ``wave`` = execute(mode="wavefront"),
    #: ``proc`` = the same over 2 process ranks, ``recover`` =
    #: SolutionRecovery + traceback, ``c`` = one run of the compiled
    #: generated C program.
    kind: str
    problem: str
    n: int
    width: int
    #: Instance size under ``--quick``.
    quick_n: int
    #: Reduced instance whose full value plane is compared with
    #: ``solve_reference`` before timing (the C workload instead checks
    #: the binary's objective at this size against the pinned oracle).
    check_n: int

    def size(self, quick: bool) -> int:
        return self.quick_n if quick else self.n


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "lcs2048_wave",
        "4225 dense 2-D tiles in 129 fronts on one rank: kernel calls and "
        "fused ghost-fill dominate, transport and generator idle (ROADMAP "
        "headline case)",
        "wave", "lcs", 2048, 32, 256, 128,
    ),
    Workload(
        "bandit2_n60_wave",
        "paper's 4-D 2-arm bandit: 330 ragged simplex tiles, 89% leave the "
        "fused path for the per-tile engine, so classification and fallback "
        "do the work",
        "wave", "bandit2", 60, 8, 16, 12,
    ),
    Workload(
        "delayed6d_n20_wave",
        "6-D delayed bandit with tiny tiles: the one case where generate and "
        "graph build (6-D Fourier-Motzkin) are the same order as a solve, so "
        "setup_s moves here",
        "wave", "delayed", 20, 4, 8, 6,
    ),
    Workload(
        "lcs2048_proc2",
        "workload 1's instance over 2 forked ranks with shared-memory "
        "arenas: same kernel, different transport, so a transport gain shows "
        "only here",
        "proc", "lcs", 2048, 32, 256, 128,
    ),
    Workload(
        "edit512_trace",
        "edit-distance recovery + traceback: keep_edges forces per-tile "
        "dispatch, real pack/unpack and interpreted recomputation, the path "
        "a wavefront-only change would starve",
        "recover", "edit", 512, 64, 96, 96,
    ),
    Workload(
        "bandit2_n240_c_omp2",
        "the paper's artifact: emitted C built with gcc -fopenmp, one run at "
        "N=240 on 2 threads; the only workload cgen can move and the ceiling "
        "for Python-side work",
        "c", "bandit2", 240, 8, 60, 60,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def cell_count(problem: str, n: int) -> int:
    """Closed-form number of iteration-space points of an instance."""
    if problem in ("lcs", "edit"):
        return (n + 1) ** 2
    if problem == "bandit2":
        return comb(n + 4, 4)
    if problem == "delayed":
        return comb(n + 6, 6)
    raise ValueError(problem)
