"""The tiled in-process runtime vs independent reference solvers."""

import dataclasses

import pytest

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.problems import (
    delayed_two_arm_reference,
    edit_distance_reference,
    lcs_reference,
    msa_reference,
    three_arm_reference,
    two_arm_reference,
    two_arm_spec,
)
from repro.runtime import (
    RunConfig,
    TileGraph,
    execute,
    run_spmd,
    run_spmd_process,
    solve_reference,
)

from .conftest import auto_mode


class TestBandit2:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_oracle(self, bandit2_program, n):
        res = execute(bandit2_program, {"N": n})
        assert res.objective_value == pytest.approx(
            two_arm_reference(n), abs=1e-12
        )

    def test_matches_untiled_scan_exactly(self, bandit2_program):
        tiled = execute(bandit2_program, {"N": 8}, record_values=True)
        untiled = solve_reference(bandit2_program, {"N": 8}, record_values=True)
        assert tiled.values == untiled.values

    def test_tile_width_invariance(self):
        values = []
        for w in (2, 3, 5, 9):
            program = generate(two_arm_spec(tile_width=w))
            values.append(execute(program, {"N": 8}).objective_value)
        assert len(set(values)) == 1

    def test_priority_scheme_invariance(self, bandit2_program):
        values = {
            scheme: execute(
                bandit2_program, {"N": 7}, priority_scheme=scheme
            ).objective_value
            for scheme in ("column-major", "level-set", "lb-first", "lb-last")
        }
        assert len(set(values.values())) == 1

    def test_execution_respects_dependencies(self, bandit2_program):
        res = execute(bandit2_program, {"N": 7})
        graph = TileGraph.build(bandit2_program, {"N": 7})
        position = {t: i for i, t in enumerate(res.tile_order)}
        for tile in graph.tiles:
            for producer in graph.producers[tile]:
                assert position[producer] < position[tile]

    def test_counts(self, bandit2_program):
        res = execute(bandit2_program, {"N": 7})
        graph = TileGraph.build(bandit2_program, {"N": 7})
        assert res.tiles_executed == len(graph.tiles)
        assert res.cells_computed == graph.total_work()

    def test_prebuilt_graph_reused(self, bandit2_program):
        graph = TileGraph.build(bandit2_program, {"N": 6})
        a = execute(bandit2_program, {"N": 6}, graph=graph)
        b = execute(bandit2_program, {"N": 6})
        assert a.objective_value == b.objective_value

    def test_value_at(self, bandit2_program):
        res = execute(bandit2_program, {"N": 5}, record_values=True)
        v = res.value_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0},
            bandit2_program.spec.loop_vars,
        )
        assert v == res.objective_value

    def test_value_at_requires_recording(self, bandit2_program):
        res = execute(bandit2_program, {"N": 5})
        with pytest.raises(RuntimeExecutionError):
            res.value_at(
                {"s1": 0, "f1": 0, "s2": 0, "f2": 0},
                bandit2_program.spec.loop_vars,
            )


class TestOtherProblems:
    def test_bandit3(self, bandit3_program):
        res = execute(bandit3_program, {"N": 5})
        assert res.objective_value == pytest.approx(
            three_arm_reference(5), abs=1e-12
        )

    def test_delayed(self, delayed_program):
        res = execute(delayed_program, {"N": 6})
        assert res.objective_value == pytest.approx(
            delayed_two_arm_reference(6), abs=1e-12
        )

    def test_edit_distance(self, edit_program, edit_strings):
        a, b = edit_strings
        res = execute(edit_program, {"LA": len(a), "LB": len(b)})
        assert res.objective_value == edit_distance_reference(a, b)

    def test_edit_distance_prefix(self, edit_program, edit_strings):
        # Running with smaller parameters solves the prefix problem.
        a, b = edit_strings
        res = execute(
            edit_program,
            {"LA": 6, "LB": 5},
            record_values=True,
        )
        assert res.values[(6, 5)] == edit_distance_reference(a[:6], b[:5])

    def test_lcs3(self, lcs3_program, lcs3_strings):
        params = {f"L{k+1}": len(s) for k, s in enumerate(lcs3_strings)}
        res = execute(lcs3_program, params)
        assert res.objective_value == lcs_reference(lcs3_strings)

    def test_msa3(self, msa3_program, lcs3_strings):
        params = {f"L{k+1}": len(s) for k, s in enumerate(lcs3_strings)}
        res = execute(msa3_program, params)
        assert res.objective_value == pytest.approx(
            msa_reference(lcs3_strings), abs=1e-9
        )

    def test_every_cell_matches_reference_scan(self, lcs3_program, lcs3_strings):
        params = {f"L{k+1}": len(s) for k, s in enumerate(lcs3_strings)}
        tiled = execute(lcs3_program, params, record_values=True)
        untiled = solve_reference(lcs3_program, params, record_values=True)
        assert tiled.values == untiled.values


class TestKernelHandling:
    def test_missing_kernel_rejected(self, bandit2_spec):
        import dataclasses

        spec = dataclasses.replace(
            bandit2_spec, kernel=None, vector_kernel=None
        )
        program = generate(spec)
        with pytest.raises(RuntimeExecutionError):
            execute(program, {"N": 4})

    def test_vector_kernel_alone_suffices(self, bandit2_spec):
        # A spec with only a vector kernel is runnable: auto mode picks
        # the fast path, which needs no Python kernel.
        import dataclasses

        spec = dataclasses.replace(bandit2_spec, kernel=None)
        program = generate(spec)
        res = execute(program, {"N": 4})
        assert res.mode == auto_mode(program)
        assert res.mode != "interpret"
        assert res.objective_value == pytest.approx(
            two_arm_reference(4), abs=1e-12
        )

    def test_kernel_override(self, bandit2_program):
        # Count reachable cells instead of solving the bandit.
        res = execute(
            bandit2_program, {"N": 5}, kernel=lambda point, deps, params: 1.0
        )
        assert res.objective_value == 1.0

    def test_kernel_sees_validity_none(self, bandit2_program):
        seen = []

        def probe(point, deps, params):
            if all(v == 0 for v in point.values()):
                seen.append(dict(deps))
            return 0.0

        execute(bandit2_program, {"N": 3}, kernel=probe)
        assert len(seen) == 1
        assert all(v is not None for v in seen[0].values())

    def test_kernel_sees_none_at_boundary(self, bandit2_program):
        rows = []

        def probe(point, deps, params):
            total = sum(point.values())
            if total == params["N"]:
                rows.append(all(v is None for v in deps.values()))
            return 0.0

        execute(bandit2_program, {"N": 3}, kernel=probe)
        assert rows and all(rows)


class TestObjectiveHandling:
    def test_objective_outside_run_is_none(self, edit_program):
        # Prefix run: the spec's objective cell (full lengths) is never
        # computed, so the result reports None rather than a stale value.
        res = execute(edit_program, {"LA": 3, "LB": 2})
        assert res.objective_value is None

    def test_zero_size_instance(self, bandit2_program):
        res = execute(bandit2_program, {"N": 0})
        assert res.cells_computed == 1
        assert res.objective_value == 0.0

    def test_memory_snapshot_keys(self, bandit2_program):
        res = execute(bandit2_program, {"N": 5})
        assert set(res.memory) == {
            "live_cells",
            "live_edges",
            "peak_cells",
            "peak_edges",
            "total_packed_cells",
            "total_edges",
        }

    def test_keep_edges_returns_buffers(self, bandit2_program):
        res = execute(bandit2_program, {"N": 5}, keep_edges=True)
        assert res.edges is not None
        assert len(res.edges) == res.memory["total_edges"]
        assert sum(len(b) for b in res.edges.values()) == res.memory[
            "total_packed_cells"
        ]

    def test_edges_not_kept_by_default(self, bandit2_program):
        assert execute(bandit2_program, {"N": 5}).edges is None


class TestRankCount:
    @pytest.mark.parametrize("ranks", [0, -3])
    @pytest.mark.parametrize("entry", [execute, run_spmd, run_spmd_process])
    def test_rank_count_below_one_rejected(
        self, bandit2_program, entry, ranks
    ):
        # execute() used to run these as a single rank without a word.
        with pytest.raises(
            RuntimeExecutionError, match="rank count must be >= 1"
        ):
            entry(bandit2_program, {"N": 5}, ranks=ranks)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"mode": "simd"}, "unknown execution mode 'simd'"),
            ({"backend": "threads"}, "unknown SPMD backend 'threads'"),
            ({"schedule": "greedy"}, "unknown schedule 'greedy'"),
            ({"priority_scheme": "bogus"}, "unknown priority scheme 'bogus'"),
            ({"lb_method": "bogus"}, "unknown load-balancing method 'bogus'"),
            ({"ranks": 0}, "rank count must be >= 1, got 0"),
            ({"timeout": 0}, "timeout must be > 0 seconds, got 0"),
            ({"timeout": -2.5}, "timeout must be > 0 seconds, got -2.5"),
        ],
        ids=[
            "mode", "backend", "schedule", "priority_scheme", "lb_method",
            "ranks", "timeout-zero", "timeout-negative",
        ],
    )
    def test_bad_option_fails_the_same_before_anything_exists(
        self, bandit2_program, bad, message, monkeypatch
    ):
        # Every option is checked where the RunConfig is built: a typo
        # used to pass (priority_scheme under schedule="static"), or
        # surface from inside a forked worker after the shared-memory
        # segments existed, depending on the backend.
        import multiprocessing.process

        import repro.runtime.executor as executor_mod
        import repro.runtime.parallel as parallel

        def unreachable(*args, **kwargs):
            raise AssertionError("validation must come first")

        monkeypatch.setattr(executor_mod, "tile_graph", unreachable)
        monkeypatch.setattr(parallel._SegmentPool, "allocate", unreachable)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", unreachable
        )
        messages = []
        for backend in ("inline", "process"):
            options = {
                "backend": backend, "ranks": 2, "schedule": "static", **bad
            }
            with pytest.raises(RuntimeExecutionError) as exc_info:
                execute(bandit2_program, {"N": 6}, **options)
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(message)

    def test_run_config_is_one_frozen_hashable_value(self):
        config = RunConfig(ranks=2, tile_widths={"s1": 3, "f1": 3})
        assert hash(config) == hash(
            RunConfig(ranks=2, tile_widths={"s1": 3, "f1": 3})
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.ranks = 3
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "mode", "ranks", "backend", "schedule", "priority_scheme",
            "lb_method", "tile_widths", "record_values", "record_events",
            "keep_edges", "timeout",
        ]
        # A worker reads the options from the state it inherits; its
        # context repeats none of them.
        from repro.runtime.parallel import _WorkerContext

        assert not {f.name for f in dataclasses.fields(_WorkerContext)} & {
            f.name for f in dataclasses.fields(RunConfig)
        }

    def test_keywords_override_the_config_one_field_at_a_time(
        self, bandit2_program
    ):
        config = RunConfig(mode="interpret", schedule="static")
        res = execute(bandit2_program, {"N": 5}, config=config, ranks=2)
        assert res.config == dataclasses.replace(
            config, ranks=2, tile_widths=bandit2_program.spec.tile_widths
        )
        with pytest.raises(TypeError, match="bogus"):
            execute(bandit2_program, {"N": 5}, config=config, bogus=1)


class TestCompiledArtifactCaching:
    def test_scanner_compiled_once_per_program(self, monkeypatch):
        # The local-space scanner is loop-invariant: one compilation per
        # program, shared by every tile of every run — not one per tile
        # (the old behaviour) and not one per execute() call either.
        import repro.runtime.executor as executor_mod

        real = executor_mod.compile_scanner
        calls = []

        def counting(nest, directions=None):
            calls.append(1)
            return real(nest, directions)

        monkeypatch.setattr(executor_mod, "compile_scanner", counting)
        program = generate(two_arm_spec(tile_width=3))
        execute(program, {"N": 7}, mode="interpret")
        assert len(calls) == 1
        execute(program, {"N": 7}, mode="interpret")
        assert len(calls) == 1  # cached CompiledExecutor reused

    def test_compiled_executor_cached_on_program(self, bandit2_program):
        from repro.runtime import compiled_executor

        assert compiled_executor(bandit2_program) is compiled_executor(
            bandit2_program
        )


class TestInterpreterEnvReuse:
    def test_kernel_observes_correct_params_and_points(self, bandit2_program):
        # The interpreter reuses its env dicts across points; a kernel
        # must still see pristine params and per-point coordinates.
        seen_points = []

        def probe(point, deps, params):
            assert set(params) == {"N"}
            assert params["N"] == 6
            seen_points.append(tuple(point[v] for v in "s1 f1 s2 f2".split()))
            return float(sum(point.values()))

        res = execute(
            bandit2_program, {"N": 6}, kernel=probe, record_values=True
        )
        assert len(seen_points) == len(set(seen_points)) == res.cells_computed
        for key, value in res.values.items():
            assert value == float(sum(key))

    def test_point_mutation_by_kernel_is_harmless(self, bandit2_program):
        # A kernel that mutates its point dict must not corrupt later
        # points (each point's coordinates are rewritten in full).
        def vandal(point, deps, params):
            out = float(sum(point.values()))
            for k in point:
                point[k] = -999
            return out

        res = execute(bandit2_program, {"N": 5}, kernel=vandal,
                      record_values=True)
        for key, value in res.values.items():
            assert value == float(sum(key))
