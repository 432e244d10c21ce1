"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's evaluation artifacts and
writes the reproduced rows/series to ``benchmarks/out/<exp>.txt`` so the
paper-vs-measured comparison in EXPERIMENTS.md can be refreshed by
re-running ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.generator import generate
from repro.problems import (
    delayed_two_arm_spec,
    lcs_spec,
    msa_spec,
    random_sequence,
    three_arm_spec,
    two_arm_spec,
)
from repro.runtime import TileGraph

OUT_DIR = Path(__file__).resolve().parent / "out"


def write_report(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@functools.lru_cache(maxsize=None)
def bandit2_program(tile_width: int = 10):
    return generate(two_arm_spec(tile_width=tile_width))


@functools.lru_cache(maxsize=None)
def bandit3_program(tile_width: int = 5):
    return generate(three_arm_spec(tile_width=tile_width))


@functools.lru_cache(maxsize=None)
def delayed_program(tile_width: int = 4):
    return generate(delayed_two_arm_spec(tile_width=tile_width))


@functools.lru_cache(maxsize=None)
def lcs3_program(length: int = 220, tile_width: int = 16):
    strings = [random_sequence(length + 8 * k, seed=900 + k) for k in range(3)]
    return generate(lcs_spec(strings, tile_width=tile_width))


@functools.lru_cache(maxsize=None)
def msa3_program(length: int = 60, tile_width: int = 10):
    strings = [random_sequence(length + 4 * k, seed=900 + k) for k in range(3)]
    return generate(msa_spec(strings, tile_width=tile_width))


@functools.lru_cache(maxsize=None)
def graph_for(kind: str, n: int):
    """Cached tile graphs keyed by problem kind and size."""
    if kind == "bandit2":
        program = bandit2_program()
        params = {"N": n}
    elif kind == "bandit3":
        program = bandit3_program()
        params = {"N": n}
    elif kind == "delayed":
        program = delayed_program()
        params = {"N": n}
    elif kind == "lcs3":
        program = lcs3_program()
        params = {
            p: min(n, v)
            for p, v in zip(
                program.spec.params,
                (len(s) for s in _lcs_strings(program)),
            )
        }
    else:
        raise ValueError(kind)
    return program, params, TileGraph.build(program, params)


def _lcs_strings(program):
    # lengths recorded in the objective point
    return [
        "x" * program.spec.objective_point[v] for v in program.spec.loop_vars
    ]
