"""Front-at-a-time dispatch of the array engine: parity, determinism,
degradation.

Dispatching the array evaluator a whole ready front at a time is a pure
performance transformation — it must be *bit-identical* to per-tile
dispatch (``mode="vector"``), the interpreter and the untiled
``solve_reference`` oracle on every bundled problem, at every tile
width, across every rank count.  This suite pins exactly that, plus
the dispatch/degradation contract (``mode="auto"`` never raises), the
masked lane gather's own contract (a front never goes through the
per-tile entry point, masks equal to the interpreter's compiled checks
cell by cell, the sub-batch lane list equal to a scan per level, the
one-tile case byte-identical to the batched one, sub-batching invisible,
a front wider than its arena rejected), the compiled tile body's
contract (``mode="native"`` equal to wavefront mode in values, cells,
tile order, edge bytes and trace hashes), the array
pack/unpack contract (byte-for-byte the ``PackPlan`` scans; wavefront
runs retain interpreter-identical edges under ``keep_edges``), the
deadlock-free guarantee of batch draining under pathological rank
partitions, and the static wavefront level invariants the batch
scheduler relies on.
"""

import ast
import dataclasses
import hashlib
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError, RuntimeExecutionError
from repro.generator import generate
from repro.generator.validity import ValiditySet
from repro.polyhedra import Constraint
from repro.polyhedra.linexpr import LinExpr
from repro.problems import (
    bandit,
    damerau_spec,
    edit_distance_spec,
    lcs_spec,
    msa_spec,
    smith_waterman_spec,
)
from repro.runtime import (
    compiled_executor,
    execute,
    run_spmd,
    solve_reference,
    tile_graph,
)
from repro.runtime import fastpath
from repro.runtime.fastpath import LaneGather, VectorTileEngine, WavefrontRun
from repro.runtime.scheduler import TileScheduler, encode_events
from repro.runtime.spmd import spmd_rank_assignment

from .conftest import auto_mode, require_native


def _problem_matrix():
    """Every vector-capable bundled problem at >= 2 tile widths.

    Nine shapes (Viterbi has no vector kernel); each pair of widths
    holds one that does not divide the instance extent.
    """
    out = []
    for w in (3, 4):
        out.append((f"bandit2-w{w}", bandit.two_arm_spec(tile_width=w), {"N": 7}))
    for w in (2, 3):
        out.append((f"bandit3-w{w}", bandit.three_arm_spec(tile_width=w), {"N": 4}))
    for w in (2, 3):
        out.append(
            (
                f"delayed-w{w}",
                bandit.delayed_two_arm_spec(tile_width=w),
                {"N": 5},
            )
        )
    a, b = "kitten", "sitting"
    ab = {"LA": len(a), "LB": len(b)}
    for w in (3, 4):
        out.append((f"edit-w{w}", edit_distance_spec(a, b, tile_width=w), ab))
    for w in (2, 4):
        out.append(
            (f"sw-w{w}", smith_waterman_spec(a, b, tile_width=w), ab)
        )
    for w in (2, 4):
        out.append((f"damerau-w{w}", damerau_spec(a, b, tile_width=w), ab))
    s1, s2 = "ACGTACGTTGACA", "GATTACAGGTACG"
    for w in (4, 5):
        out.append(
            (
                f"lcs2-w{w}",
                lcs_spec([s1, s2], tile_width=w),
                {"L1": len(s1), "L2": len(s2)},
            )
        )
    for w in (2, 3):
        out.append(
            (
                f"lcs3-w{w}",
                lcs_spec(["ACGTA", "GATTA", "CGTAT"], tile_width=w),
                {"L1": 5, "L2": 5, "L3": 5},
            )
        )
    for w in (2, 3):
        out.append(
            (
                f"msa3-w{w}",
                msa_spec(["ACGTA", "GATTA", "CGTAT"], tile_width=w),
                {"L1": 5, "L2": 5, "L3": 5},
            )
        )
    return out


MATRIX = _problem_matrix()
MATRIX_IDS = [name for name, _, _ in MATRIX]


@pytest.fixture(scope="module", params=MATRIX, ids=MATRIX_IDS)
def case(request):
    name, spec, params = request.param
    return generate(spec), params


class TestEngineParity:
    """wavefront == vector == interpreter == solve_reference, exactly."""

    def test_all_engines_bit_identical(self, case):
        program, params = case
        wave = execute(
            program, params, mode="wavefront", record_values=True
        )
        vec = execute(program, params, mode="vector", record_values=True)
        interp = execute(
            program, params, mode="interpret", record_values=True
        )
        ref = solve_reference(program, params, record_values=True)
        assert wave.mode == "wavefront"
        assert wave.objective_value == vec.objective_value
        assert wave.objective_value == interp.objective_value
        assert wave.objective_value == ref.objective_value
        assert wave.cells_computed == vec.cells_computed
        assert wave.cells_computed == interp.cells_computed
        # Every recorded cell, not just the objective: dict equality is
        # exact float comparison.
        assert wave.values == vec.values
        assert wave.values == interp.values
        assert wave.values == ref.values

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_spmd_ranks_bit_identical(self, case, ranks):
        program, params = case
        single = execute(
            program, params, mode="wavefront", record_values=True
        )
        multi = run_spmd(
            program, params, ranks=ranks, record_values=True
        )
        assert multi.mode == auto_mode(program)
        assert multi.objective_value == single.objective_value
        assert multi.values == single.values
        assert multi.cells_computed == single.cells_computed
        assert sum(multi.tiles_per_rank) == multi.tiles_executed

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("ranks", [1, 2, 3])
    def test_native_equals_wavefront_and_reference(
        self, case, ranks, schedule
    ):
        # The compiled tile body is one more evaluator under the same
        # front dispatch: nothing a run reports may tell them apart.
        program, params = case
        require_native(program)
        native, wave = (
            execute(
                program, params, mode=mode, ranks=ranks, schedule=schedule,
                record_values=True, keep_edges=True,
            )
            for mode in ("native", "wavefront")
        )
        ref = solve_reference(program, params, record_values=True)
        assert native.mode == "native"
        assert native.values == wave.values == ref.values
        assert native.objective_value == ref.objective_value
        assert native.cells_computed == wave.cells_computed
        assert native.tile_order == wave.tile_order
        assert list(native.edges) == list(wave.edges)
        for key, buf in wave.edges.items():
            assert native.edges[key].tobytes() == buf.tobytes()

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_event_trace_deterministic(self, case, ranks):
        program, params = case
        runs = [
            execute(
                program,
                params,
                ranks=ranks,
                mode="wavefront",
                record_events=True,
            )
            for _ in range(2)
        ]
        first, second = (encode_events(r.events) for r in runs)
        assert first == second
        # The batch trace keeps the full ready/start/done protocol; only
        # interior edge_sent transitions disappear (nothing is packed
        # within a rank).
        graph = tile_graph(program, params)
        T = len(graph.tile_tuples)
        kinds = [e.kind for e in runs[0].events]
        assert kinds.count("tile_ready") == T
        assert kinds.count("tile_start") == T
        assert kinds.count("tile_done") == T
        assert kinds.count("edge_sent") == runs[0].cross_rank_messages


@st.composite
def _bandit_case(draw):
    width = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=2, max_value=8))
    return width, n


class TestPropertySweep:
    """Randomized instance sweep: the batched path never diverges."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_bandit_case())
    def test_bandit2_sweep(self, case):
        width, n = case
        program = generate(bandit.two_arm_spec(tile_width=width))
        wave = execute(
            program, {"N": n}, mode="wavefront", record_values=True
        )
        vec = execute(
            program, {"N": n}, mode="vector", record_values=True
        )
        assert wave.objective_value == vec.objective_value
        assert wave.values == vec.values

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    def test_edit_distance_prefix_sweep(self, la, lb):
        # Prefix runs: the objective tile may be partially out of space,
        # so ragged tiles share a front with full ones.
        program = generate(
            edit_distance_spec("kitten", "sitting", tile_width=4)
        )
        params = {"LA": la, "LB": lb}
        wave = execute(
            program, params, mode="wavefront", record_values=True
        )
        vec = execute(program, params, mode="vector", record_values=True)
        assert wave.objective_value == vec.objective_value
        assert wave.values == vec.values


class TestMaskedLaneGather:
    """The one evaluation path of wavefront mode, ragged tiles included."""

    @pytest.mark.parametrize("ranks", [1, 2])
    def test_never_falls_back_to_per_tile_engine(
        self, case, ranks, monkeypatch
    ):
        def execute_tile(*args, **kwargs):
            raise AssertionError(
                "wavefront mode called VectorTileEngine.execute_tile"
            )

        monkeypatch.setattr(VectorTileEngine, "execute_tile", execute_tile)
        program, params = case
        wave = execute(
            program, params, mode="wavefront", ranks=ranks,
            record_values=True,
        )
        ref = solve_reference(program, params, record_values=True)
        assert wave.mode == "wavefront"
        assert wave.objective_value == ref.objective_value
        assert wave.values == ref.values

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_masks_equal_per_tile_engine(self, case, data):
        program, params = case
        graph = tile_graph(program, params)
        ce = compiled_executor(program)
        engine = ce.vector_engine
        # Tiles one step beyond the graph's bounding box too: wholly
        # out-of-space boxes must classify uniformly false.
        tiles = data.draw(
            st.lists(
                st.tuples(
                    *(
                        st.integers(int(lo) - 1, int(hi) + 1)
                        for lo, hi in zip(
                            graph.tile_array.min(axis=0),
                            graph.tile_array.max(axis=0),
                        )
                    )
                ),
                min_size=1,
                max_size=4,
            )
        )
        masks = LaneGather(engine, params)._masks(
            np.array(tiles, dtype=np.int64)
        )
        # The oracle shares no code with the engine: the interpreter's
        # compiled closures, cell by cell, over the box in level order
        # (C order, stably sorted by the direction-weighted level).
        spec = program.spec
        widths = spec.tile_width_vector()
        directions = spec.scan_directions()
        box = sorted(
            itertools.product(*map(range, widths)),
            key=lambda local: sum(
                directions[x] * i for x, i in zip(spec.loop_vars, local)
            ),
        )
        check_fns, per_template = ce.validity_checks
        env = dict(params)
        for b, tile in enumerate(tiles):
            for c, local in enumerate(box):
                env.update(
                    (x, w * t + i)
                    for x, w, t, i in zip(spec.loop_vars, widths, tile, local)
                )
                assert masks[0, b, c] == ce.in_space(env)
                for t, name in enumerate(spec.templates.names()):
                    assert masks[1 + t, b, c] == all(
                        check_fns[idx](env) for idx in per_template[name]
                    )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_lane_list_slices_are_the_per_level_scans(self, case, data):
        program, params = case
        graph = tile_graph(program, params)
        engine = compiled_executor(program).vector_engine
        # Random sub-batches: out-of-box tiles (no lane at all) beside
        # the graph's last tile, a single-cell corner wherever the width
        # leaves a remainder of one (edit-w3, bandit2's simplex tips).
        tiles = data.draw(
            st.lists(
                st.tuples(
                    *(
                        st.integers(int(lo) - 1, int(hi) + 1)
                        for lo, hi in zip(
                            graph.tile_array.min(axis=0),
                            graph.tile_array.max(axis=0),
                        )
                    )
                ),
                max_size=4,
            )
        ) + [graph.tile_tuples[-1]]
        run = LaneGather(engine, params)
        space = run._masks(np.array(tiles, dtype=np.int64))[0]
        cells, owners, cuts = run._lanes(space)
        assert len(cuts) == len(engine._level_ends) + 1
        assert (cuts[0], cuts[-1]) == (0, cells.size)
        assert cells.size == np.count_nonzero(space)
        lo = 0
        for level, hi in enumerate(engine._level_ends):
            # The formulation this list replaced: one strided scan per
            # level, lanes tile-major.
            bi, ci = np.nonzero(space[:, lo:hi])
            ci += lo
            lo = hi
            mine_c = cells[cuts[level]:cuts[level + 1]]
            mine_b = owners[cuts[level]:cuts[level + 1]]
            # Listed cell-major, each lane once ...
            assert np.all(np.diff(mine_c * len(tiles) + mine_b) > 0)
            # ... and, put tile-major, the scan element for element.
            order = np.lexsort((mine_c, mine_b))
            assert np.array_equal(mine_b[order], bi)
            assert np.array_equal(mine_c[order], ci)

    @pytest.mark.parametrize("name", ["bandit2-w3", "lcs2-w5"])
    def test_one_tile_case_is_the_batched_case(self, name):
        _, spec, params = MATRIX[MATRIX_IDS.index(name)]
        program = generate(spec)
        graph = tile_graph(program, params)
        engine = compiled_executor(program).vector_engine
        run = WavefrontRun(engine, graph, params, values={})
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        one_values = {}
        one_cells = 0
        while True:
            rows = sched.start_batch(0)
            if not rows:
                break
            batch = run.execute_batch(rows)
            for row, plane in zip(rows, batch):
                # The tile's ghost-filled padded array as the front saw
                # it: the same margins, the interior not yet computed.
                array = plane.copy()
                array[engine.interior_slices] = np.nan
                one_cells += engine.execute_tile(
                    graph.tile_tuples[row], array, params, one_values
                )
                assert array.tobytes() == plane.tobytes()
            assert one_cells == run.cells
            for row in rows:
                for consumer, _, _, _ in sched.outgoing(row):
                    sched.deliver_edge(consumer)
                sched.finish_tile(row)
        assert one_cells == int(graph.work_array.sum())
        assert one_values == run.values

    def test_front_wider_than_the_arena_is_rejected(self, bandit2_program):
        params = {"N": 7}
        graph = tile_graph(bandit2_program, params)
        engine = compiled_executor(bandit2_program).vector_engine
        arena = np.empty((1,) + engine.padded_shape)
        run = WavefrontRun(engine, graph, params, arena=arena)
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        with pytest.raises(RuntimeExecutionError) as err:
            while True:
                rows = sched.start_batch(0)
                assert rows, "no front was wider than one tile"
                run.execute_batch(rows)
                for row in rows:
                    for consumer, _, _, _ in sched.outgoing(row):
                        sched.deliver_edge(consumer)
                    sched.finish_tile(row)
        assert len(rows) > 1
        assert str(err.value) == (
            f"front of {len(rows)} tiles exceeds the wavefront arena's "
            "capacity of 1"
        )

    def test_poisoned_interior_names_tile_template_point(
        self, bandit2_program
    ):
        self._poisoned_interior(bandit2_program, native=None)

    def test_poisoned_interior_names_tile_template_point_native(
        self, bandit2_program
    ):
        # The compiled body names the first poisoned read in the tile's
        # scan order, the level loop the first in level order: possibly
        # different points, the same contract.
        require_native(bandit2_program)
        self._poisoned_interior(
            bandit2_program,
            native=compiled_executor(bandit2_program).native_library,
        )

    def _poisoned_interior(self, bandit2_program, native):
        params = {"N": 8}
        spec = bandit2_program.spec
        graph = tile_graph(bandit2_program, params)
        engine = compiled_executor(bandit2_program).vector_engine
        tiles = graph.tile_tuples
        ragged = {
            row
            for row, tile in enumerate(tiles)
            if engine._in_space_mask(tile, params) is not None
        }

        def consumers(row):
            return set(
                graph.cons_rows[
                    graph.cons_ptr[row]:graph.cons_ptr[row + 1]
                ].tolist()
            )

        # A producer that feeds ragged boundary tiles only.
        victim = next(
            row
            for row in range(len(tiles))
            if consumers(row) and consumers(row) <= ragged
        )
        run = WavefrontRun(engine, graph, params, native=native)
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        with pytest.raises(RuntimeExecutionError) as err:
            while True:
                rows = sched.start_batch(0)
                assert rows, "drained without reading the poisoned interior"
                run.execute_batch(rows)
                if victim in rows:
                    run._store[victim].fill(np.nan)
                for row in rows:
                    for consumer, _, _, _ in sched.outgoing(row):
                        sched.deliver_edge(consumer)
                    sched.finish_tile(row)
        found = re.fullmatch(
            r"tile (\(.*\)): dependency (\w+) of point (\{.*\}) is valid "
            r"but its value was never computed or delivered",
            str(err.value),
        )
        assert found, str(err.value)
        tile = ast.literal_eval(found.group(1))
        vec = dict(spec.templates.items())[found.group(2)]
        point = ast.literal_eval(found.group(3))
        coords = [point[x] for x in spec.loop_vars]
        widths = spec.tile_width_vector()
        # The consumer tile holds the named point, and the named
        # template reaches from it into the poisoned producer.
        assert tiles.index(tile) in consumers(victim)
        assert tuple(c // w for c, w in zip(coords, widths)) == tile
        assert (
            tuple((c + r) // w for c, r, w in zip(coords, vec, widths))
            == tiles[victim]
        )

    @pytest.mark.parametrize(
        "program_fixture, params",
        [("bandit2_w4_program", {"N": 16}), ("delayed_program", {"N": 8})],
    )
    def test_sub_batching_is_invisible(
        self, program_fixture, params, request, monkeypatch
    ):
        program = request.getfixturevalue(program_fixture)

        def run():
            return execute(
                program, params, mode="wavefront", record_values=True,
                record_events=True,
            )

        default = run()
        # One tile's worth of box cells: every front splits per tile.
        monkeypatch.setattr(
            fastpath,
            "CELL_BUDGET",
            int(np.prod(program.spec.tile_width_vector())),
        )
        split = run()
        assert encode_events(split.events) == encode_events(default.events)
        assert split.cells_computed == default.cells_computed
        assert split.values == default.values
        assert split.objective_value == default.objective_value


class TestArrayPackUnpack:
    """Array-sliced edges are the ``PackPlan`` scans, byte for byte."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.data())
    def test_pack_and_unpack_equal_packplan(self, case, data):
        program, params = case
        graph = tile_graph(program, params)
        engine = compiled_executor(program).vector_engine
        layout = program.layout
        local_vars = program.spaces.local_vars
        tile = data.draw(st.sampled_from(graph.tile_tuples))
        delta = data.draw(st.sampled_from(program.deltas))
        plan = program.pack_plans[delta]
        env = dict(params)
        env.update(program.spaces.tile_env(tile))
        # Every padded cell distinct, so a misplaced cell cannot hide.
        array = (
            np.arange(layout.cells, dtype=np.float64) + 0.5
        ).reshape(layout.padded_shape)

        want = plan.pack(env, array, layout, local_vars)
        got = engine.pack_edge(tile, delta, array, params)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

        # Unpack writes PackPlan.unpack's cells and nothing else.
        scan = np.full(layout.padded_shape, np.nan)
        sliced = np.full(layout.padded_shape, np.nan)
        plan.unpack(env, want, scan, layout, local_vars)
        engine.unpack_edge(tile, delta, got, sliced, params)
        assert sliced.tobytes() == scan.tobytes()

        with pytest.raises(GenerationError, match="iteration spaces diverged"):
            engine.unpack_edge(
                tile, delta, np.append(got, 1.0), sliced, params
            )

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("ranks", [1, 2])
    @pytest.mark.parametrize("mode", ["auto", "wavefront"])
    def test_keep_edges_stays_on_the_fused_front(
        self, case, mode, ranks, schedule
    ):
        program, params = case
        ref = execute(program, params, mode="interpret", keep_edges=True)
        wave = execute(
            program, params, mode=mode, ranks=ranks, schedule=schedule,
            keep_edges=True,
        )
        assert wave.mode == (
            auto_mode(program) if mode == "auto" else "wavefront"
        )
        assert wave.objective_value == ref.objective_value
        assert list(sorted(wave.edges)) == list(sorted(ref.edges))
        for key, buf in ref.edges.items():
            assert wave.edges[key].tobytes() == buf.tobytes()
        assert len(wave.edges) == wave.memory["total_edges"]
        assert (
            sum(len(buf) for buf in wave.edges.values())
            == wave.memory["total_packed_cells"]
        )

    def test_keep_edges_never_scans_a_packplan(self, case, monkeypatch):
        from repro.generator.packing import PackPlan

        def scan(*args, **kwargs):
            raise AssertionError("array engine walked a PackPlan scan")

        program, params = case
        ref = execute(program, params, mode="interpret", keep_edges=True)
        monkeypatch.setattr(PackPlan, "pack", scan)
        monkeypatch.setattr(PackPlan, "unpack", scan)
        for kwargs in ({"mode": "wavefront"}, {"mode": "vector"},
                       {"mode": "wavefront", "ranks": 2}):
            res = execute(program, params, keep_edges=True, **kwargs)
            assert res.objective_value == ref.objective_value
            assert all(
                res.edges[key].tobytes() == buf.tobytes()
                for key, buf in ref.edges.items()
            )

    def test_edge_for_another_front_is_rejected(self, bandit2_program):
        params = {"N": 7}
        graph = tile_graph(bandit2_program, params)
        engine = compiled_executor(bandit2_program).vector_engine
        run = WavefrontRun(engine, graph, params, keep_edges=True)
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        rows = sched.start_batch(0)
        # An edge whose consumer is not in the front being evaluated.
        stray = next(
            row for row in range(len(graph.tile_tuples))
            if graph.producer_edges(row) and row not in rows
        )
        producer = graph.producer_edges(stray)[0][0]
        tiles = graph.tile_tuples
        with pytest.raises(RuntimeExecutionError) as err:
            run.execute_batch(rows, packed={(producer, stray): np.zeros(1)})
        assert str(tiles[producer]) in str(err.value)
        assert str(tiles[stray]) in str(err.value)

    #: sha256 prefixes of ``encode_events`` recorded before wavefront
    #: mode learned to keep edges: runs that do not keep them must not
    #: have moved by a byte.
    PINNED_TRACES = {
        ("bandit2-w3", 1, "dynamic"): "4856b64f1297e1cf",
        ("bandit2-w3", 1, "static"): "e507f9359bb75e74",
        ("bandit2-w3", 2, "dynamic"): "d51b8363c4e5cf09",
        ("bandit2-w3", 2, "static"): "b53df89f2189da45",
        ("lcs2-w5", 1, "dynamic"): "e7567ce9daa999aa",
        ("lcs2-w5", 1, "static"): "629f617b261b963d",
        ("lcs2-w5", 2, "dynamic"): "a8bb2635f79daf83",
        ("lcs2-w5", 2, "static"): "fe3d7b6c0ea0a76a",
        # Recorded at the last commit with five hand-written driver
        # loops, before they became one rank turn: the per-tile engines
        # (key + mode), and wavefront runs that keep their edges (key +
        # mode + "keep_edges"; the second digest is over the sorted
        # retained edges, see _edges_digest).
        ("bandit2-w3", 1, "dynamic", "interpret"): "2170fc74a4d283e1",
        ("bandit2-w3", 1, "static", "interpret"): "5dde3c0870caa30f",
        ("bandit2-w3", 2, "dynamic", "interpret"): "0ef56b2064f0eb36",
        ("bandit2-w3", 2, "static", "interpret"): "7e93f7f2f1e0a982",
        ("bandit2-w3", 1, "dynamic", "vector"): "2170fc74a4d283e1",
        ("bandit2-w3", 1, "static", "vector"): "5dde3c0870caa30f",
        ("bandit2-w3", 2, "dynamic", "vector"): "0ef56b2064f0eb36",
        ("bandit2-w3", 2, "static", "vector"): "7e93f7f2f1e0a982",
        ("bandit2-w3", 1, "dynamic", "wavefront", "keep_edges"): (
            "d83a2c60085771d8", "d32eab90ae469f3e",
        ),
        ("bandit2-w3", 1, "static", "wavefront", "keep_edges"): (
            "17a978d77da3bf2e", "d32eab90ae469f3e",
        ),
        ("bandit2-w3", 2, "dynamic", "wavefront", "keep_edges"): (
            "1c74d8f0da91fec5", "d32eab90ae469f3e",
        ),
        ("bandit2-w3", 2, "static", "wavefront", "keep_edges"): (
            "4b7b3ea92c04c426", "d32eab90ae469f3e",
        ),
        ("lcs2-w5", 1, "dynamic", "interpret"): "24e338400c5df1ae",
        ("lcs2-w5", 1, "static", "interpret"): "4b76831a7dd2e8d6",
        ("lcs2-w5", 2, "dynamic", "interpret"): "d26b86ebb37303d1",
        ("lcs2-w5", 2, "static", "interpret"): "87a06965e0e6e9d4",
        ("lcs2-w5", 1, "dynamic", "vector"): "24e338400c5df1ae",
        ("lcs2-w5", 1, "static", "vector"): "4b76831a7dd2e8d6",
        ("lcs2-w5", 2, "dynamic", "vector"): "d26b86ebb37303d1",
        ("lcs2-w5", 2, "static", "vector"): "87a06965e0e6e9d4",
        ("lcs2-w5", 1, "dynamic", "wavefront", "keep_edges"): (
            "97b762788b9d4ac6", "c80cb2459ce58b17",
        ),
        ("lcs2-w5", 1, "static", "wavefront", "keep_edges"): (
            "62d12466d33c13c4", "c80cb2459ce58b17",
        ),
        ("lcs2-w5", 2, "dynamic", "wavefront", "keep_edges"): (
            "73a09e504aee9f5f", "c80cb2459ce58b17",
        ),
        ("lcs2-w5", 2, "static", "wavefront", "keep_edges"): (
            "7a2ec8b9c9f76597", "c80cb2459ce58b17",
        ),
    }

    @staticmethod
    def _edges_digest(edges):
        h = hashlib.sha256()
        for key, buffer in sorted(edges.items()):
            h.update(repr(key).encode())
            h.update(buffer.tobytes())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize(
        "key", sorted(PINNED_TRACES, key=str),
        ids=lambda key: "-".join(map(str, key)),
    )
    def test_traces_without_keep_edges_unchanged(self, key):
        name, ranks, schedule = key[:3]
        mode = key[3] if len(key) > 3 else "wavefront"
        keep_edges = len(key) > 4
        _, spec, params = MATRIX[MATRIX_IDS.index(name)]
        res = execute(
            generate(spec), params, mode=mode, ranks=ranks,
            schedule=schedule, record_events=True, keep_edges=keep_edges,
        )
        digest = hashlib.sha256(encode_events(res.events)).hexdigest()[:16]
        if keep_edges:
            digest = (digest, self._edges_digest(res.edges))
        else:
            assert res.edges is None
        assert digest == self.PINNED_TRACES[key]


    @pytest.mark.parametrize(
        "key",
        sorted(
            (k for k in PINNED_TRACES if len(k) == 3 or k[3] == "wavefront"),
            key=str,
        ),
        ids=lambda key: "-".join(map(str, key)),
    )
    def test_native_traces_hash_to_the_wavefront_pins(self, key):
        # No constants of its own: the scheduler cannot tell the two
        # evaluators of a front apart.
        name, ranks, schedule = key[:3]
        keep_edges = len(key) > 4
        _, spec, params = MATRIX[MATRIX_IDS.index(name)]
        program = generate(spec)
        require_native(program)
        res = execute(
            program, params, mode="native", ranks=ranks,
            schedule=schedule, record_events=True, keep_edges=keep_edges,
        )
        digest = hashlib.sha256(encode_events(res.events)).hexdigest()[:16]
        if keep_edges:
            digest = (digest, self._edges_digest(res.edges))
        assert digest == self.PINNED_TRACES[key]


class TestBatchDrainLiveness:
    """Batch draining never deadlocks, whatever the rank partition."""

    def _parity_partitions(self, graph, ranks):
        T = len(graph.tile_tuples)
        levels = graph.wavefront_levels()
        rng = np.random.default_rng(7)
        return [
            np.arange(T, dtype=np.int64) % ranks,  # round-robin rows
            levels % ranks,  # whole levels per rank (serializes fronts)
            (np.arange(T) >= T // 2).astype(np.int64)
            * (ranks - 1),  # block split: first half rank 0, rest last
            rng.integers(0, ranks, size=T),  # adversarial random
        ]

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_pathological_rank_of_completes(self, bandit2_program, ranks):
        params = {"N": 8}
        graph = tile_graph(bandit2_program, params)
        base = execute(
            bandit2_program, params, mode="wavefront", record_values=True
        )
        for rank_of in self._parity_partitions(graph, ranks):
            res = run_spmd(
                bandit2_program,
                params,
                ranks=ranks,
                rank_of=rank_of,
                record_values=True,
            )
            assert res.mode == auto_mode(bandit2_program)
            assert res.objective_value == base.objective_value
            assert res.values == base.values

    def test_single_tile_islands(self, bandit2_program):
        # Every tile on its own "virtual" rank pattern: ranks collapse
        # to 2 but the assignment isolates the initial tile, forcing
        # every edge of the first front across the boundary.
        params = {"N": 7}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        rank_of = np.ones(T, dtype=np.int64)
        rank_of[graph.initial_rows()] = 0
        base = execute(bandit2_program, params, mode="wavefront")
        res = run_spmd(bandit2_program, params, ranks=2, rank_of=rank_of)
        assert res.objective_value == base.objective_value
        assert res.cross_rank_messages > 0


class TestWavefrontLevels:
    """Static level invariants the batch scheduler relies on."""

    def test_levels_topological_and_tight(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 8})
        levels = graph.wavefront_levels()
        assert np.all(levels[graph.initial_rows()] == 0)
        # Every edge strictly increases the level (consumers run in a
        # strictly later front than each producer)...
        counts = np.diff(graph.cons_ptr)
        producers = np.repeat(np.arange(counts.size), counts)
        assert np.all(levels[graph.cons_rows] > levels[producers])
        # ...and levels are *longest-path* tight: some producer sits
        # exactly one front earlier.
        tight = levels[graph.cons_rows] == levels[producers] + 1
        per_consumer = np.zeros(counts.size, dtype=bool)
        np.logical_or.at(per_consumer, graph.cons_rows, tight)
        has_producer = np.diff(graph.prod_ptr) > 0
        assert np.all(per_consumer[has_producer])

    def test_batch_matches_levels(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 6})
        levels = graph.wavefront_levels()
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        seen = []
        while True:
            rows = sched.start_batch(0)
            if not rows:
                break
            lvl = {int(levels[r]) for r in rows}
            assert len(lvl) == 1, "one batch spans one static level"
            seen.append((lvl.pop(), rows))
            for row in rows:
                for consumer, _, _, _ in sched.outgoing(row):
                    sched.deliver_edge(consumer)
                sched.finish_tile(row)
        drained_levels = [lvl for lvl, _ in seen]
        assert drained_levels == sorted(drained_levels)
        assert sum(len(rows) for _, rows in seen) == len(graph.tile_tuples)
        # A full single-rank drain pops exactly the static level sets.
        for lvl, rows in seen:
            assert rows == sorted(np.flatnonzero(levels == lvl).tolist())

    def test_start_tile_rejected_in_batch_mode(self, bandit2_program):
        graph = tile_graph(bandit2_program, {"N": 5})
        sched = TileScheduler(graph, batch=True)
        sched.seed()
        with pytest.raises(RuntimeExecutionError, match="batch mode"):
            sched.start_tile(0)
        plain = TileScheduler(graph)
        plain.seed()
        with pytest.raises(RuntimeExecutionError, match="batch=True"):
            plain.start_batch(0)


class _RawConstraint(Constraint):
    """A constraint that skips integral normalization — stands in for a
    derived validity check carrying rational coefficients."""

    @staticmethod
    def _normalize(expr, kind):
        return expr


class TestAutoDegradation:
    """mode="auto" never raises: construction failures fold into reasons."""

    def _rational_program(self, bandit2_program):
        # Inject a fractional-coefficient check that is always true over
        # the bandit domain (s1/2 + N >= 0), so the numbers must not
        # change — only the engine dispatch.
        validity = bandit2_program.validity
        frac = _RawConstraint(
            LinExpr({"s1": Fraction(1, 2), "N": Fraction(1)}), ">="
        )
        idx = len(validity.checks)
        return dataclasses.replace(
            bandit2_program,
            validity=ValiditySet(
                checks=tuple(validity.checks) + (frac,),
                per_template={
                    name: tuple(ids) + (idx,)
                    for name, ids in validity.per_template.items()
                },
            ),
        )

    def test_rational_check_degrades_to_interpreter(self, bandit2_program):
        program = self._rational_program(bandit2_program)
        ce = compiled_executor(program)
        assert ce.vector_engine is None
        assert "non-integral" in ce.vector_reason
        res = execute(program, {"N": 5}, record_values=True)
        assert res.mode == "interpret"
        # The fraction evaluates exactly in the interpreter closures:
        # same numbers as the unmodified program.
        base = execute(bandit2_program, {"N": 5}, record_values=True)
        assert res.objective_value == base.objective_value
        assert res.values == base.values

    def test_forced_modes_report_reason(self, bandit2_program):
        program = self._rational_program(bandit2_program)
        for mode in ("vector", "wavefront"):
            with pytest.raises(
                RuntimeExecutionError, match="non-integral"
            ):
                execute(program, {"N": 5}, mode=mode)

    def test_auto_never_raises_on_example_specs(self, tmp_path):
        import glob

        from repro.analysis.probe import default_params
        from repro.spec import ensure_kernel, parse_spec_file

        specs = glob.glob("examples/*.spec")
        assert specs, "bundled example specs missing"
        for path in specs:
            spec = parse_spec_file(path)
            kernel = ensure_kernel(spec)
            program = generate(spec)
            res = execute(program, default_params(spec), kernel=kernel)
            assert res.objective_value is not None


class TestRankOfValidation:
    """Explicit rank_of overrides fail fast with a named offending row."""

    def test_shape_validated(self, bandit2_program):
        params = {"N": 6}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        with pytest.raises(RuntimeExecutionError, match="1-D"):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros((T, 2), dtype=np.int64),
            )
        with pytest.raises(
            RuntimeExecutionError, match=f"covers {T - 1} rows"
        ):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros(T - 1, dtype=np.int64),
            )

    def test_dtype_validated(self, bandit2_program):
        params = {"N": 6}
        T = len(tile_graph(bandit2_program, params).tile_tuples)
        with pytest.raises(RuntimeExecutionError, match="integer"):
            run_spmd(
                bandit2_program,
                params,
                ranks=2,
                rank_of=np.zeros(T, dtype=np.float64),
            )

    def test_range_validated_names_row(self, bandit2_program):
        params = {"N": 6}
        graph = tile_graph(bandit2_program, params)
        T = len(graph.tile_tuples)
        bad = np.zeros(T, dtype=np.int64)
        bad[3] = 9
        with pytest.raises(
            RuntimeExecutionError, match=r"rank_of\[3\] = 9 assigns tile "
        ):
            run_spmd(bandit2_program, params, ranks=2, rank_of=bad)


class TestRankAssignmentVectorized:
    """rank_of_rows matches the scalar per-tile load-balancer lookup."""

    @pytest.mark.parametrize("ranks", [2, 3, 5])
    def test_matches_node_of_tile(self, bandit2_program, ranks):
        params = {"N": 9}
        graph = tile_graph(bandit2_program, params)
        assignment = spmd_rank_assignment(
            bandit2_program, params, graph, ranks
        )
        balance = bandit2_program.load_balance(
            params, ranks, slab_work=graph.slab_work()
        )
        spaces = bandit2_program.spaces
        for row, tile in enumerate(graph.tile_tuples):
            assert assignment[row] == balance.node_of_tile(tile, spaces)

    def test_unassigned_slab_diagnosed(self, bandit2_program):
        from repro.runtime import rank_of_rows

        params = {"N": 9}
        graph = tile_graph(bandit2_program, params)
        balance = bandit2_program.load_balance(
            params, 2, slab_work=graph.slab_work()
        )
        missing = next(iter(balance.slab_node))
        balance.slab_node.pop(missing)
        with pytest.raises(
            RuntimeExecutionError, match="unassigned lb slab"
        ):
            rank_of_rows(graph, balance)
