"""Solution recovery (Section VII-A): saved edges + tile recomputation."""

import ast
import dataclasses
import itertools
import re

import numpy as np
import pytest

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.generator.packing import PackPlan
from repro.problems import (
    edit_distance_reference,
    random_hmm,
    two_arm_reference,
    viterbi_spec,
)
from repro.runtime import (
    SolutionRecovery,
    compiled_executor,
    execute,
    solve_reference,
)

from .conftest import auto_mode, require_native


@pytest.fixture(scope="module")
def bandit_recovery(bandit2_program):
    return SolutionRecovery(bandit2_program, {"N": 7})


class TestPointQueries:
    def test_objective_matches_forward_pass(self, bandit_recovery):
        assert bandit_recovery.value_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        ) == pytest.approx(two_arm_reference(7), abs=1e-12)

    def test_every_point_matches_recorded_values(
        self, bandit2_program, bandit_recovery
    ):
        full = execute(bandit2_program, {"N": 7}, record_values=True)
        loop_vars = bandit2_program.spec.loop_vars
        for key, value in full.values.items():
            point = dict(zip(loop_vars, key))
            assert bandit_recovery.value_at(point) == pytest.approx(
                value, abs=1e-12
            )

    def test_outside_point_rejected(self, bandit_recovery):
        with pytest.raises(RuntimeExecutionError):
            bandit_recovery.value_at({"s1": 8, "f1": 0, "s2": 0, "f2": 0})

    def test_in_space_predicate_is_the_specs(
        self, bandit2_program, bandit_recovery
    ):
        # The compiled integer predicate `_locate` uses, against the
        # Fraction-arithmetic ConstraintSystem it replaced there.
        spec = bandit2_program.spec
        in_space = compiled_executor(bandit2_program).in_space
        inside = 0
        for key in itertools.product(range(-1, 5), repeat=4):
            env = dict(zip(spec.loop_vars, key), N=3)
            assert in_space(env) == spec.constraints.satisfied(env)
            inside += in_space(env)
        assert 0 < inside < 6 ** 4
        with pytest.raises(
            RuntimeExecutionError,
            match=r"point \{.*'s1': 8.*\} is outside the iteration space",
        ):
            bandit_recovery.value_at({"s1": 8, "f1": 0, "s2": 0, "f2": 0})

    def test_invalid_tile_rejected(self, bandit_recovery):
        with pytest.raises(RuntimeExecutionError):
            bandit_recovery.tile_values((9, 9, 9, 9))

    def test_dependencies_at(self, bandit_recovery):
        deps = bandit_recovery.dependencies_at(
            {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        )
        assert set(deps) == {"succ1", "fail1", "succ2", "fail2"}
        assert all(v is not None for v in deps.values())
        boundary = bandit_recovery.dependencies_at(
            {"s1": 7, "f1": 0, "s2": 0, "f2": 0}
        )
        assert all(v is None for v in boundary.values())

    def test_edge_memory_far_below_full_space(self, bandit2_program):
        rec = SolutionRecovery(bandit2_program, {"N": 9})
        total = bandit2_program.spaces.total_points({"N": 9})
        assert 0 < rec.edge_memory_cells < total


class TestTraceback:
    def test_optimal_bandit_policy_walk(self, bandit_recovery):
        """Walk the optimal allocation assuming every pull succeeds."""

        def policy(point, deps, value):
            # choose the arm the optimal policy would pull, then follow
            # the success branch.
            best_name, best_v = None, None
            for arm in (1, 2):
                s, f = point[f"s{arm}"], point[f"f{arm}"]
                p = (s + 1.0) / (s + f + 2.0)
                sv, fv = deps[f"succ{arm}"], deps[f"fail{arm}"]
                if sv is None:
                    continue
                v = p * (1.0 + sv) + (1.0 - p) * fv
                if best_v is None or v > best_v:
                    best_v, best_name = v, f"succ{arm}"
            return best_name

        path = bandit_recovery.traceback(policy)
        # N pulls then stop at the exhausted state.
        assert len(path) == 8
        assert path[-1][1] is None
        final = path[-1][0]
        assert sum(final.values()) == 7

    def test_edit_distance_alignment_recovery(self, edit_program, edit_strings):
        a, b = edit_strings
        rec = SolutionRecovery(
            edit_program, {"LA": len(a), "LB": len(b)}
        )
        assert rec.value_at(
            {"i": len(a), "j": len(b)}
        ) == edit_distance_reference(a, b)

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

        path = rec.traceback(
            policy, start={"i": len(a), "j": len(b)}
        )
        # The walk must end at the origin, and the edit operations it
        # took must sum to the edit distance.
        assert path[-1][0] == {"i": 0, "j": 0}
        ops = 0
        for point, choice in path[:-1]:
            if choice in ("up", "left"):
                ops += 1
            elif choice == "diag":
                i, j = point["i"], point["j"]
                ops += 0 if a[i - 1] == b[j - 1] else 1
        assert ops == edit_distance_reference(a, b)

    def test_vector_kernel_only_spec_recovers_on_the_array_engine(
        self, edit_program, edit_strings
    ):
        a, b = edit_strings
        params = {"LA": len(a), "LB": len(b)}
        spec = dataclasses.replace(edit_program.spec, kernel=None)
        rec = SolutionRecovery(generate(spec), params)
        full = SolutionRecovery(edit_program, params)
        assert rec.result.mode == auto_mode(edit_program)
        for tile in full.graph.tile_tuples:
            assert rec.tile_values(tile) == full.tile_values(tile)

        def policy(point, deps, value):
            return next(
                (n for n in ("diag", "up", "left") if deps[n] is not None),
                None,
            )

        path = rec.traceback(policy)
        assert path[-1] == ({"i": 0, "j": 0}, None)

    def test_runaway_policy_detected(self, bandit_recovery):
        # A policy that never stops but keeps moving along valid
        # templates will hit the boundary where all deps are None -- so
        # force a loop via max_steps on a policy that stalls.
        def policy(point, deps, value):
            return next(
                (n for n, v in deps.items() if v is not None), None
            )

        path = bandit_recovery.traceback(policy)
        assert path[-1][1] is None

    def test_cache_is_bounded(self, bandit2_program):
        rec = SolutionRecovery(bandit2_program, {"N": 7}, cache_tiles=2)
        for tile in list(rec.graph.tiles)[:5]:
            rec.tile_values(tile)
        assert len(rec._cache) <= 2


@pytest.fixture(scope="module")
def viterbi_program():
    prior, trans, emit, obs = random_hmm(3, 4, 14, seed=21)
    return generate(viterbi_spec(prior, trans, emit, obs, tile_width_t=4))


def _scalar_twin(program):
    """A kernel that is not the spec's own object: forces the
    interpreted forward pass and interpreted recomputation."""
    kernel = program.spec.kernel
    return lambda point, deps, params: kernel(point, deps, params)


class TestRecomputation:
    """Tiles are recomputed by the executor's own tile body."""

    @pytest.mark.parametrize(
        "fixture, params, mode",
        [
            ("edit_program", {"LA": 14, "LB": 11}, "wavefront"),
            ("bandit2_program", {"N": 7}, "wavefront"),
            ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10}, "wavefront"),
            # No vector kernel: the interpreted fallback.
            ("viterbi_program", {"T": 13}, "interpret"),
        ],
    )
    def test_full_value_plane_matches_reference(
        self, request, fixture, params, mode
    ):
        program = request.getfixturevalue(fixture)
        rec = SolutionRecovery(program, params)
        # "wavefront" rows: whichever evaluator auto prefers on fronts.
        assert rec.result.mode == (
            auto_mode(program) if mode == "wavefront" else mode
        )
        plane = {}
        for tile in rec.graph.tile_tuples:
            plane.update(rec.tile_values(tile))
        ref = solve_reference(program, params, record_values=True)
        assert plane == ref.values
        assert rec.recomputed_tiles == len(rec.graph.tile_tuples)

    @pytest.mark.parametrize(
        "fixture, params",
        [
            ("edit_program", {"LA": 14, "LB": 11}),
            ("bandit2_program", {"N": 7}),
            ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10}),
        ],
    )
    def test_native_recomputation_equals_the_interpreters(
        self, request, fixture, params, monkeypatch
    ):
        program = request.getfixturevalue(fixture)
        require_native(program)
        rec = SolutionRecovery(program, params)
        interp = SolutionRecovery(
            program, params, kernel=_scalar_twin(program)
        )
        assert (rec.result.mode, interp.result.mode) == ("native", "interpret")
        # Recomputation is the one-tile case of the compiled body: the
        # level loop's kernel is never reached.
        monkeypatch.setattr(
            compiled_executor(program).vector_engine, "vector_kernel", None
        )
        for tile in rec.graph.tile_tuples:
            assert rec.tile_values(tile) == interp.tile_values(tile)

    def test_custom_kernel_recomputes_interpreted(self, bandit2_program):
        rec = SolutionRecovery(
            bandit2_program, {"N": 7}, kernel=_scalar_twin(bandit2_program)
        )
        assert rec.result.mode == "interpret"
        origin = {"s1": 0, "f1": 0, "s2": 0, "f2": 0}
        assert rec.value_at(origin) == pytest.approx(
            two_arm_reference(7), abs=1e-12
        )

    def test_dependencies_read_from_ghost_margins(self, bandit_recovery):
        # Every dependency of every point, answered from the point's own
        # tile, equals the value the neighbouring tile recomputes.
        spec = bandit_recovery.program.spec
        full = execute(
            bandit_recovery.program, {"N": 7}, record_values=True
        ).values
        for key in full:
            point = dict(zip(spec.loop_vars, key))
            deps = bandit_recovery.dependencies_at(point)
            for name, vec in spec.templates.items():
                target = tuple(x + r for x, r in zip(key, vec))
                assert deps[name] == full.get(target)

    def test_array_path_never_scans_a_packplan(
        self, bandit2_program, monkeypatch
    ):
        def scan(*args, **kwargs):
            raise AssertionError("array recovery walked a PackPlan scan")

        monkeypatch.setattr(PackPlan, "pack", scan)
        monkeypatch.setattr(PackPlan, "unpack", scan)
        rec = SolutionRecovery(bandit2_program, {"N": 7})
        assert rec.result.mode == auto_mode(bandit2_program)
        path = rec.traceback(
            lambda point, deps, value: next(
                (n for n, v in deps.items() if v is not None), None
            )
        )
        assert path[-1][1] is None
        assert rec.value_at(path[0][0]) == pytest.approx(
            two_arm_reference(7), abs=1e-12
        )

    def test_traceback_recomputes_only_the_tiles_it_enters(
        self, edit_program, edit_strings
    ):
        a, b = edit_strings
        rec = SolutionRecovery(
            edit_program, {"LA": len(a), "LB": len(b)}, cache_tiles=64
        )
        assert (rec.recomputed_tiles, rec.cache_hits) == (0, 0)
        # Always step diagonally while possible, then along an axis:
        # every step peeks at all three neighbours.
        path = rec.traceback(
            lambda point, deps, value: next(
                (n for n in ("diag", "up", "left") if deps[n] is not None),
                None,
            ),
            start={"i": len(a), "j": len(b)},
        )
        entered = {
            edit_program.spaces.point_to_tile(point) for point, _ in path
        }
        assert rec.recomputed_tiles == len(entered)
        assert rec.cache_hits == len(path) - len(entered)


class TestDamagedEdges:
    """A missing or corrupt saved edge is an error, never a silent NaN."""

    @pytest.fixture(params=["array", "interpret", "native"])
    def recovery(self, request, bandit2_program, monkeypatch):
        program, kernel, mode = bandit2_program, None, request.param
        if mode == "array":
            # A fresh program probed with no compiler in sight: auto
            # steps down to the array engine's own evaluator.
            monkeypatch.setattr("shutil.which", lambda *a, **k: None)
            program, mode = generate(program.spec), "wavefront"
        elif mode == "native":
            require_native(program)
        else:
            kernel = _scalar_twin(program)
        rec = SolutionRecovery(program, {"N": 7}, kernel=kernel)
        assert rec.result.mode == mode
        return rec

    def test_poisoned_edge_names_tile_template_point(self, recovery):
        (producer, consumer), buf = next(iter(recovery.result.edges.items()))
        recovery.result.edges[(producer, consumer)] = np.full_like(buf, np.nan)
        with pytest.raises(RuntimeExecutionError) as err:
            recovery.tile_values(consumer)
        found = re.fullmatch(
            r"tile (\(.*\)): dependency (\w+) of point (\{.*\}) is valid "
            r"but its value was never computed or delivered",
            str(err.value),
        )
        assert found, str(err.value)
        spec = recovery.program.spec
        assert ast.literal_eval(found.group(1)) == consumer
        vec = dict(spec.templates.items())[found.group(2)]
        point = ast.literal_eval(found.group(3))
        widths = spec.tile_width_vector()
        assert tuple(
            (point[x] + r) // w
            for x, r, w in zip(spec.loop_vars, vec, widths)
        ) == producer
        # The failure is not cached as a result.
        with pytest.raises(RuntimeExecutionError):
            recovery.value_at(point)

    def test_deleted_edge_names_both_tiles(self, recovery):
        producer, consumer = next(iter(recovery.result.edges))
        del recovery.result.edges[(producer, consumer)]
        with pytest.raises(RuntimeExecutionError) as err:
            recovery.tile_values(consumer)
        assert str(consumer) in str(err.value)
        assert str(producer) in str(err.value)


class TestViterbiPathRecovery:
    def test_best_path_logprob_reconstructed(self):
        """Recover the Viterbi path itself via saved-edge tracebacks."""
        from repro.generator import generate
        from repro.problems import random_hmm, viterbi_reference, viterbi_spec

        prior, trans, emit, obs = random_hmm(3, 4, 14, seed=21)
        program = generate(viterbi_spec(prior, trans, emit, obs, tile_width_t=4))
        T = len(obs) - 1
        rec = SolutionRecovery(program, {"T": T})

        # Best final state by querying the last column.
        finals = {s: rec.value_at({"t_step": T, "s_state": s}) for s in range(3)}
        best_state = max(finals, key=finals.get)
        best_ref, path_ref = viterbi_reference(prior, trans, emit, obs)
        assert finals[best_state] == pytest.approx(best_ref, abs=1e-9)
        assert best_state == path_ref[-1]

        # Walk backwards: at each step choose the predecessor state that
        # explains the current delta value.
        def policy(point, deps, value):
            t, s = point["t_step"], point["s_state"]
            if t == 0:
                return None
            e = emit[s, obs[t]]
            for off in range(-2, 3):
                sp = s + off
                if not 0 <= sp < 3:
                    continue
                name = f"from_{'m' if off < 0 else 'p'}{abs(off)}"
                v = deps.get(name)
                if v is None:
                    continue
                if abs(value - (e + trans[sp, s] + v)) < 1e-9:
                    return name
            raise AssertionError(f"no predecessor explains {point}")

        path = rec.traceback(
            policy, start={"t_step": T, "s_state": best_state}
        )
        states = [p["s_state"] for p, _ in path][::-1]
        # The recovered path must have the optimal log-probability (may
        # differ from path_ref on exact ties, so compare scores).
        logp = prior[states[0]] + emit[states[0], obs[0]]
        for t in range(1, len(obs)):
            logp += trans[states[t - 1], states[t]] + emit[states[t], obs[t]]
        assert logp == pytest.approx(best_ref, abs=1e-9)
