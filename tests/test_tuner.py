"""Simulator-driven schedule/width tuning (`runtime/tuner.py`).

The tuner's contract: the untuned default (current widths, dynamic
policy) is always in the sweep and wins ties, so the predicted
makespan never regresses; decisions round-trip through the on-disk
registry keyed by structural signature + params + machine; infeasible
width candidates (cyclic tile graphs) are skipped, not fatal; and
`execute(schedule="auto", tile_widths=...)` applies the decision
without changing the numerics.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.problems import random_hmm, viterbi_spec
from repro.analysis import default_params
from repro.runtime import (
    EXECUTION_MODES,
    SCHEDULE_POLICIES,
    encode_events,
    execute,
    run_spmd,
)
from repro.runtime.tuner import (
    TuningDecision,
    candidate_tile_widths,
    default_tuning_machine,
    heuristic_tile_widths,
    normalize_tile_widths,
    retile_program,
    structural_signature,
    tune,
    tuning_cache_key,
)


@pytest.fixture(scope="module")
def viterbi_program():
    prior, trans, emit, obs = random_hmm(4, 6, 40, seed=9)
    return generate(viterbi_spec(prior, trans, emit, obs, tile_width_t=4))


class TestWidthHeuristics:
    def test_normalize_int_and_partial(self, bandit2_program):
        spec = bandit2_program.spec
        full = normalize_tile_widths(spec, 8)
        assert full == {v: 8 for v in spec.loop_vars}
        first = spec.loop_vars[0]
        partial = normalize_tile_widths(spec, {first: 9})
        assert partial[first] == 9
        for v in spec.loop_vars[1:]:
            assert partial[v] == spec.tile_widths[v]
        with pytest.raises(RuntimeExecutionError, match="unknown loop var"):
            normalize_tile_widths(spec, {"nope": 4})

    def test_heuristic_respects_reach_and_extent(self, bandit2_program):
        spec = bandit2_program.spec
        widths = heuristic_tile_widths(spec, {"N": 30})
        reach = spec.templates.max_reach()
        for v, w in widths.items():
            assert w >= max(1, reach.get(v, 1))
            assert w >= 1
        assert sorted(widths) == sorted(spec.loop_vars)

    def test_candidates_lead_with_current(self, bandit2_program):
        spec = bandit2_program.spec
        current = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
        cands = candidate_tile_widths(spec, {"N": 30})
        assert cands[0] == current
        keys = [tuple(sorted(c.items())) for c in cands]
        assert len(keys) == len(set(keys))  # deduped
        quick = candidate_tile_widths(spec, {"N": 30}, quick=True)
        assert len(quick) <= 2

    def test_retile_is_memoized_and_identity(self, bandit2_program):
        spec = bandit2_program.spec
        current = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
        assert retile_program(bandit2_program, current) is bandit2_program
        a = retile_program(bandit2_program, 5)
        b = retile_program(bandit2_program, 5)
        assert a is b
        assert all(w == 5 for w in a.spec.tile_widths.values())


class TestCacheKey:
    def test_signature_excludes_tile_widths(self, bandit2_program):
        retiled = retile_program(bandit2_program, 5)
        assert structural_signature(bandit2_program.spec) == (
            structural_signature(retiled.spec)
        )

    def test_key_varies_with_params_and_machine(self, bandit2_program):
        spec = bandit2_program.spec
        m = default_tuning_machine()
        k1 = tuning_cache_key(spec, {"N": 10}, m)
        k2 = tuning_cache_key(spec, {"N": 11}, m)
        assert k1 != k2
        from repro.simulate import MachineModel

        k3 = tuning_cache_key(
            spec, {"N": 10}, MachineModel(nodes=2, cores_per_node=4)
        )
        assert k3 != k1


class TestTune:
    def test_never_regresses_and_caches(self, bandit2_program, tmp_path):
        cache = tmp_path / "tuning.json"
        decision = tune(
            bandit2_program, {"N": 12}, quick=True, cache_path=cache
        )
        assert isinstance(decision, TuningDecision)
        assert decision.schedule in ("dynamic", "static")
        assert decision.predicted_makespan_s <= decision.default_makespan_s
        assert decision.candidates >= 2
        assert not decision.cache_hit
        # Round-trip: the second call is a pure registry read.
        again = tune(
            bandit2_program, {"N": 12}, quick=True, cache_path=cache
        )
        assert again.cache_hit
        assert again.schedule == decision.schedule
        assert again.tile_widths == decision.tile_widths
        assert again.predicted_makespan_s == decision.predicted_makespan_s
        # And the file is the documented envelope.
        doc = json.loads(cache.read_text())
        assert doc["schema_version"] == 1
        assert decision.cache_key in doc["decisions"]

    def test_no_cache_mode_never_writes(self, bandit2_program, tmp_path):
        cache = tmp_path / "tuning.json"
        tune(
            bandit2_program, {"N": 10}, quick=True,
            use_cache=False, cache_path=cache,
        )
        assert not cache.exists()

    def test_infeasible_candidates_skipped(self, viterbi_program, tmp_path):
        # The heuristic wants to split viterbi's s_state dimension; the
        # bidirectional +-3 templates make every such tiling cyclic.
        # The sweep must skip those candidates and still decide.
        decision = tune(
            viterbi_program,
            {"T": 40},
            cache_path=tmp_path / "t.json",
        )
        assert decision.predicted_makespan_s <= decision.default_makespan_s
        # The chosen tiling actually executes.
        prog = retile_program(viterbi_program, decision.tile_widths)
        res = execute(prog, {"T": 40}, schedule=decision.schedule)
        assert res.objective_value is not None

    def test_pinned_candidates(self, bandit2_program, tmp_path):
        spec = bandit2_program.spec
        current = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
        decision = tune(
            bandit2_program,
            {"N": 10},
            cache_path=tmp_path / "t.json",
            tile_width_candidates=[current],
        )
        assert decision.tile_widths == current


class TestExecuteIntegration:
    def test_auto_matches_dynamic(
        self, bandit2_program, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        base = execute(bandit2_program, {"N": 10}, record_values=True)
        auto = execute(
            bandit2_program, {"N": 10}, record_values=True, schedule="auto"
        )
        assert auto.objective_value == base.objective_value
        assert auto.values == base.values
        assert auto.schedule in ("dynamic", "static")

    def test_tile_widths_override_retiles(self, bandit2_program):
        res = execute(bandit2_program, {"N": 10}, tile_widths=5)
        assert res.tile_widths == {
            v: 5 for v in bandit2_program.spec.loop_vars
        }
        base = execute(bandit2_program, {"N": 10})
        assert res.objective_value == base.objective_value

    def test_graph_and_widths_conflict(self, bandit2_program):
        from repro.runtime import tile_graph

        graph = tile_graph(bandit2_program, {"N": 10})
        with pytest.raises(RuntimeExecutionError, match="prebuilt graph"):
            execute(
                bandit2_program, {"N": 10}, graph=graph, tile_widths=5
            )

    def test_auto_pins_widths_with_prebuilt_graph(
        self, bandit2_program, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        from repro.runtime import tile_graph

        graph = tile_graph(bandit2_program, {"N": 10})
        res = execute(
            bandit2_program, {"N": 10}, graph=graph, schedule="auto"
        )
        assert res.tile_widths == dict(bandit2_program.spec.tile_widths)

    @pytest.mark.parametrize("schedule", ["dynamic", "static", "auto"])
    @pytest.mark.parametrize("ranks", [1, 2])
    @pytest.mark.parametrize(
        "program_fixture,params",
        [("bandit2_program", {"N": 10}), ("lcs3_program", None)],
        ids=["bandit2", "lcs"],
    )
    def test_result_config_reproduces_the_run(
        self, program_fixture, params, ranks, schedule, request, tmp_path,
        monkeypatch,
    ):
        # ExecutionResult.config is the run as resolved: nothing is left
        # for a second resolver (or the tuner) to decide differently.
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        program = request.getfixturevalue(program_fixture)
        if params is None:
            params = default_params(program.spec)
        first = execute(
            program, params, ranks=ranks, schedule=schedule,
            record_values=True, record_events=True,
        )
        config = first.config
        assert config.mode in EXECUTION_MODES and config.mode != "auto"
        assert config.schedule in SCHEDULE_POLICIES
        assert dict(config.tile_widths) == first.tile_widths
        assert set(first.tile_widths) == set(program.spec.loop_vars)
        again = execute(program, params, config=config, record_events=True)
        assert again.config == config
        assert encode_events(again.events) == encode_events(first.events)
        assert again.values == first.values

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_auto_through_the_old_entry_point(
        self, bandit2_program, backend, tmp_path, monkeypatch
    ):
        # run_spmd used to hand "auto" straight to TileScheduler (or to
        # a forked worker's), which rejected what execute() accepts.
        monkeypatch.setenv("REPRO_TUNE_CACHE", str(tmp_path / "t.json"))
        res = run_spmd(
            bandit2_program, {"N": 10}, ranks=2, schedule="auto",
            backend=backend,
        )
        assert res.schedule in SCHEDULE_POLICIES
        assert res.objective_value == execute(
            bandit2_program, {"N": 10}
        ).objective_value

    def test_result_config_reproduces_a_process_run(self, bandit2_program):
        # Workers have no global interleaving, so the replayed trace is
        # compared per tile; the values are compared exactly.
        first = execute(
            bandit2_program, {"N": 10}, ranks=2, backend="process",
            schedule="static", record_values=True, record_events=True,
        )
        again = execute(bandit2_program, {"N": 10}, config=first.config)
        assert again.config == first.config
        assert again.values == first.values
        assert sorted((e.kind, e.tile) for e in again.events) == sorted(
            (e.kind, e.tile) for e in first.events
        )
