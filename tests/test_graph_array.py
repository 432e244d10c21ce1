"""The array-native tile graph against the dict-based reference oracle.

The CSR/SoA builder (:meth:`TileGraph.build`) must agree field for field
with the legacy per-tile dict builder
(:func:`build_tile_graph_dicts`, below — this file is its only user, so
it lives here rather than in the runtime) on every bundled
problem and on randomly-parameterized small instances — and the executor
and simulator must produce bit-identical schedules whichever builder fed
them.  The compile memo and per-program graph cache are covered at the
bottom.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Mapping, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.generator.loadbalance import compute_slab_work
from repro.generator.pipeline import GeneratedProgram
from repro.generator.tile_deps import delta_between
from repro.problems import (
    edit_distance_spec,
    random_sequence,
    two_arm_spec,
)
from repro.runtime import (
    Edge,
    TileGraph,
    TileIndex,
    execute,
    tile_graph,
)
from repro.simulate import MachineModel, simulate, simulate_program

CASES = [
    ("bandit2_program", {"N": 7}),
    ("bandit3_program", {"N": 5}),
    ("delayed_program", {"N": 6}),
    ("edit_program", {"LA": 14, "LB": 11}),
    ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10}),
    ("msa3_program", {"L1": 8, "L2": 9, "L3": 10}),
]


def build_tile_graph_dicts(
    program: GeneratedProgram, params: Mapping[str, int]
):
    """The dict-based builder, kept here as the reference oracle.

    Enumerates tiles one by one and probes dicts per tile/edge — the
    pre-array-native algorithm, deterministic (tiles scanned in sorted
    order).  Returns ``(tiles, producers, consumers, work, edge_cells)``
    dicts matching the :class:`TileGraph` views field for field.
    """
    params = dict(params)
    spaces = program.spaces
    deltas = program.deltas
    tiles = set(spaces.tiles(params))
    if not tiles:
        raise RuntimeExecutionError(
            f"problem {program.spec.name!r} has no tiles for params {params}"
        )
    producers: Dict[TileIndex, Tuple[TileIndex, ...]] = {}
    consumers: Dict[TileIndex, List[TileIndex]] = {t: [] for t in sorted(tiles)}
    for tile in sorted(tiles):
        prods = []
        for delta in deltas:
            p = tuple(t + d for t, d in zip(tile, delta))
            if p in tiles:
                prods.append(p)
                consumers[p].append(tile)
        producers[tile] = tuple(prods)

    work: Dict[TileIndex, int] = {
        t: spaces.tile_point_count(t, params) for t in sorted(tiles)
    }

    edge_cells: Dict[Edge, int] = {}
    for consumer in sorted(tiles):
        for producer in producers[consumer]:
            delta = delta_between(consumer, producer)
            plan = program.pack_plans[delta]
            env = dict(params)
            env.update(spaces.tile_env(producer))
            edge_cells[(producer, consumer)] = plan.region_size(env)

    return (
        tiles,
        producers,
        {t: tuple(c) for t, c in consumers.items()},
        work,
        edge_cells,
    )


def graph_from_dicts(
    program: GeneratedProgram,
    params: Mapping[str, int],
    tiles: Set[TileIndex],
    producers: Mapping[TileIndex, Tuple[TileIndex, ...]],
    work: Mapping[TileIndex, int],
    edge_cells: Mapping[Edge, int],
) -> TileGraph:
    """Canonicalize a dict-shaped graph (the reference builder's output).

    Lets the executor/simulator run off the dict-based path; the arrays
    come out in the same canonical order :meth:`TileGraph.build`
    produces, so schedules are directly comparable.
    """
    tile_list = sorted(tiles)
    tile_array = np.asarray(tile_list, dtype=np.int64)
    T = len(tile_list)
    row = {t: r for r, t in enumerate(tile_list)}
    work_array = np.asarray([work[t] for t in tile_list], dtype=np.int64)
    delta_pos = {d: i for i, d in enumerate(program.deltas)}
    cons_e: List[int] = []
    prod_e: List[int] = []
    did_e: List[int] = []
    cell_e: List[int] = []
    for t in tile_list:
        for p in producers[t]:
            cons_e.append(row[t])
            prod_e.append(row[p])
            did_e.append(delta_pos[delta_between(t, p)])
            cell_e.append(edge_cells[(p, t)])
    cons_a = np.asarray(cons_e, dtype=np.int64)
    prod_a = np.asarray(prod_e, dtype=np.int64)
    did_a = np.asarray(did_e, dtype=np.int64)
    cell_a = np.asarray(cell_e, dtype=np.int64)
    order = np.lexsort((did_a, cons_a))
    prod_ptr = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(cons_a, minlength=T), out=prod_ptr[1:])
    order2 = np.lexsort((cons_a, prod_a))
    cons_ptr = np.zeros(T + 1, dtype=np.int64)
    np.cumsum(np.bincount(prod_a, minlength=T), out=cons_ptr[1:])
    return TileGraph(
        program=program,
        params=dict(params),
        tile_array=tile_array,
        work_array=work_array,
        prod_ptr=prod_ptr,
        prod_rows=prod_a[order],
        prod_delta=did_a[order],
        cons_ptr=cons_ptr,
        cons_rows=cons_a[order2],
        cons_delta=did_a[order2],
        cons_cells=cell_a[order2],
    )


def assert_graph_matches_oracle(program, params):
    graph = TileGraph.build(program, params)
    tiles, producers, consumers, work, edge_cells = build_tile_graph_dicts(
        program, params
    )
    assert graph.tiles == tiles
    assert graph.producers == producers
    assert graph.consumers == consumers
    assert graph.work == work
    assert graph.edge_cells == edge_cells


class TestOracleEquality:
    @pytest.mark.parametrize("fixture,params", CASES)
    def test_bundled_problem(self, request, fixture, params):
        program = request.getfixturevalue(fixture)
        assert_graph_matches_oracle(program, params)

    def test_row_order_is_lexicographic(self, bandit2_program):
        graph = TileGraph.build(bandit2_program, {"N": 7})
        tt = graph.tile_tuples
        assert tt == sorted(tt)

    def test_from_dicts_roundtrip(self, bandit2_program):
        params = {"N": 7}
        built = TileGraph.build(bandit2_program, params)
        tiles, producers, _, work, edge_cells = build_tile_graph_dicts(
            bandit2_program, params
        )
        redone = graph_from_dicts(
            bandit2_program, params, tiles, producers, work, edge_cells
        )
        for name in (
            "tile_array",
            "work_array",
            "prod_ptr",
            "prod_rows",
            "prod_delta",
            "cons_ptr",
            "cons_rows",
            "cons_delta",
            "cons_cells",
        ):
            assert np.array_equal(
                getattr(built, name), getattr(redone, name)
            ), name


@functools.lru_cache(maxsize=None)
def _two_arm(width: int):
    return generate(two_arm_spec(tile_width=width))


@functools.lru_cache(maxsize=None)
def _edit(width: int):
    a = random_sequence(9, seed=5)
    b = random_sequence(7, seed=6)
    return generate(edit_distance_spec(a, b, tile_width=width))


class TestOracleEqualityRandom:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        width=st.integers(min_value=2, max_value=4),
        n=st.integers(min_value=1, max_value=9),
    )
    def test_two_arm_random(self, width, n):
        assert_graph_matches_oracle(_two_arm(width), {"N": n})

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        width=st.integers(min_value=2, max_value=4),
        la=st.integers(min_value=1, max_value=9),
        lb=st.integers(min_value=1, max_value=7),
    )
    def test_edit_distance_random(self, width, la, lb):
        assert_graph_matches_oracle(_edit(width), {"LA": la, "LB": lb})


class TestPinnedSchedules:
    """Array-built and dict-built graphs drive identical executions."""

    @pytest.fixture(scope="class")
    def pair(self, bandit2_program):
        params = {"N": 7}
        built = TileGraph.build(bandit2_program, params)
        tiles, producers, _, work, edge_cells = build_tile_graph_dicts(
            bandit2_program, params
        )
        legacy = graph_from_dicts(
            bandit2_program, params, tiles, producers, work, edge_cells
        )
        return bandit2_program, params, built, legacy

    def test_executor_schedule_identical(self, pair):
        program, params, built, legacy = pair
        res_a = execute(program, params, graph=built)
        res_d = execute(program, params, graph=legacy)
        assert res_a.tile_order == res_d.tile_order
        assert res_a.objective_value == res_d.objective_value

    @pytest.mark.parametrize("scheme", ["column-major", "lb-first"])
    def test_simulator_trace_identical(self, pair, scheme):
        program, params, built, legacy = pair
        machine = MachineModel(nodes=1, cores_per_node=4)
        res_a = simulate(
            built, machine, priority_scheme=scheme, trace=True
        )
        res_d = simulate(
            legacy, machine, priority_scheme=scheme, trace=True
        )
        assert res_a.makespan_s == res_d.makespan_s
        assert [s.tile for s in res_a.spans] == [
            s.tile for s in res_d.spans
        ]

    def test_multinode_simulation_identical(self, pair):
        program, params, built, legacy = pair
        machine = MachineModel(nodes=2, cores_per_node=2)
        res_a = simulate_program(program, params, machine, graph=built)
        res_d = simulate_program(program, params, machine, graph=legacy)
        assert res_a.makespan_s == res_d.makespan_s
        assert res_a.tiles_per_node == res_d.tiles_per_node
        assert res_a.messages == res_d.messages


class TestSlabWork:
    @pytest.mark.parametrize(
        "fixture,params",
        [("bandit2_program", {"N": 7}), ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10})],
    )
    def test_graph_slab_work_matches_compiled_scan(
        self, request, fixture, params
    ):
        program = request.getfixturevalue(fixture)
        graph = TileGraph.build(program, params)
        assert graph.slab_work() == compute_slab_work(
            program.spaces, params
        )

    def test_load_balance_agrees(self, bandit2_program):
        params = {"N": 7}
        graph = TileGraph.build(bandit2_program, params)
        from_graph = bandit2_program.load_balance(
            params, 2, slab_work=graph.slab_work()
        )
        from_scan = bandit2_program.load_balance(params, 2)
        assert from_graph.slab_node == from_scan.slab_node


class TestCompileMemo:
    def test_structurally_equal_nests_compile_once(self):
        from repro.polyhedra.compile import (
            COMPILE_STATS,
            clear_compile_memo,
            compile_counter,
            compile_scanner,
            reset_compile_stats,
        )

        p1 = generate(two_arm_spec(tile_width=5))
        p2 = generate(two_arm_spec(tile_width=5))
        assert p1.spaces.local_nest is not p2.spaces.local_nest
        clear_compile_memo()
        reset_compile_stats()
        c1 = compile_counter(p1.spaces.local_nest)
        c2 = compile_counter(p2.spaces.local_nest)
        assert c1 is c2
        assert COMPILE_STATS["counter_compiles"] == 1
        assert COMPILE_STATS["counter_memo_hits"] == 1
        s1 = compile_scanner(p1.spaces.tile_nest)
        s2 = compile_scanner(p2.spaces.tile_nest)
        assert s1 is s2
        assert COMPILE_STATS["scanner_compiles"] == 1
        assert COMPILE_STATS["scanner_memo_hits"] == 1


class TestGraphCache:
    def test_same_params_same_object(self, bandit2_program):
        g1 = tile_graph(bandit2_program, {"N": 6})
        g2 = tile_graph(bandit2_program, {"N": 6})
        g3 = tile_graph(bandit2_program, {"N": 4})
        assert g1 is g2
        assert g3 is not g1

    def test_execute_and_simulate_share_one_build(
        self, monkeypatch, bandit2_w4_program
    ):
        program = bandit2_w4_program
        if hasattr(program, "_tile_graph_cache"):
            program._tile_graph_cache.clear()
        calls = []
        real_build = TileGraph.build

        def counting_build(prog, params):
            calls.append(dict(params))
            return real_build(prog, params)

        monkeypatch.setattr(TileGraph, "build", staticmethod(counting_build))
        params = {"N": 8}
        execute(program, params)
        execute(program, params)
        simulate_program(
            program, params, MachineModel(nodes=2, cores_per_node=2)
        )
        assert calls == [params]
