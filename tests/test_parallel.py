"""The process SPMD backend against its oracle, the inline harness.

The inline harness (tests/test_scheduler.py pins it against ``ranks=1``)
is the deterministic reference; here every observable of a
``backend="process"`` run — objective value, full value dict, cross-rank
message and cell counts, per-rank tile counts, retained edges — is
pinned identical to the inline backend across problems, rank counts and
engine modes.  Failure injection checks the other half of the contract:
a worker that dies or raises mid-run must surface as a fast
:class:`RuntimeExecutionError` naming the rank, never a hang, and no
``/dev/shm`` segment may survive any exit path (tests/conftest.py's
autouse leak fixture checks that after every test of the suite).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeExecutionError
from repro.runtime import (
    execute,
    run_spmd,
    run_spmd_process,
    solve_reference,
    tile_graph,
)
from repro.simulate import MachineModel, simulate_program

from .conftest import auto_mode, require_native


def _assert_same_run(proc, inline):
    assert proc.backend == "process"
    assert proc.objective_value == inline.objective_value
    assert proc.cells_computed == inline.cells_computed
    assert proc.tiles_executed == inline.tiles_executed
    assert proc.cross_rank_messages == inline.cross_rank_messages
    assert proc.cross_rank_cells == inline.cross_rank_cells
    assert proc.tiles_per_rank == inline.tiles_per_rank
    if inline.values is not None:
        assert proc.values == inline.values


class TestProcessParity:
    """process == inline == ranks=1, cell for cell and message for message."""

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=1, max_value=9),
        ranks=st.sampled_from([1, 2, 4]),
    )
    def test_bandit2_sweep(self, bandit2_program, n, ranks):
        single = execute(bandit2_program, {"N": n}, record_values=True)
        inline = execute(
            bandit2_program, {"N": n}, ranks=ranks, record_values=True
        )
        proc = execute(
            bandit2_program, {"N": n}, ranks=ranks, record_values=True,
            backend="process",
        )
        _assert_same_run(proc, inline)
        assert proc.objective_value == single.objective_value
        assert proc.values == single.values

    @pytest.mark.parametrize("fixture,params", [
        ("edit_program", {"LA": 14, "LB": 11}),
        ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10}),
        ("msa3_program", {"L1": 8, "L2": 9, "L3": 10}),
        ("bandit3_program", {"N": 5}),
        ("delayed_program", {"N": 6}),
    ])
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_bundled_problems(self, request, fixture, params, ranks):
        program = request.getfixturevalue(fixture)
        single = execute(program, params, record_values=True)
        inline = execute(
            program, params, ranks=ranks, record_values=True
        )
        proc = execute(
            program, params, ranks=ranks, record_values=True,
            backend="process",
        )
        _assert_same_run(proc, inline)
        assert proc.objective_value == single.objective_value
        assert proc.values == single.values

    @pytest.mark.parametrize("mode", ["interpret", "vector", "wavefront"])
    def test_every_engine_mode(self, bandit2_program, mode):
        inline = execute(
            bandit2_program, {"N": 8}, ranks=3, mode=mode,
            record_values=True,
        )
        proc = execute(
            bandit2_program, {"N": 8}, ranks=3, mode=mode,
            record_values=True, backend="process",
        )
        assert proc.mode == mode
        _assert_same_run(proc, inline)

    def test_messages_match_simulator(self, bandit2_w4_program):
        # The same partition drives the simulator, the inline harness
        # and the workers: all three must count the same cut edges.
        params = {"N": 15}
        proc = execute(
            bandit2_w4_program, params, ranks=4, backend="process"
        )
        sim = simulate_program(
            bandit2_w4_program, params,
            MachineModel(nodes=4, cores_per_node=4),
        )
        assert sim.messages == proc.cross_rank_messages
        assert sim.bytes_sent == (
            proc.cross_rank_cells * sim.machine.bytes_per_cell
        )

    def test_pathological_round_robin(self, bandit2_program):
        # Round-robin scatters edges in every direction between ranks;
        # the shared-memory protocol must still deliver each exactly
        # once.
        params = {"N": 7}
        graph = tile_graph(bandit2_program, params)
        rank_of = np.arange(len(graph.tile_tuples), dtype=np.int64) % 3
        inline = run_spmd(
            bandit2_program, params, ranks=3, rank_of=rank_of,
            record_values=True,
        )
        proc = run_spmd(
            bandit2_program, params, ranks=3, rank_of=rank_of,
            record_values=True, backend="process",
        )
        _assert_same_run(proc, inline)

    def test_keep_edges_parity(self, bandit2_program):
        inline = execute(
            bandit2_program, {"N": 7}, ranks=2, mode="vector",
            keep_edges=True,
        )
        proc = execute(
            bandit2_program, {"N": 7}, ranks=2, mode="vector",
            keep_edges=True, backend="process",
        )
        assert set(proc.edges) == set(inline.edges)
        for key, buf in inline.edges.items():
            assert np.array_equal(proc.edges[key], buf)

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("mode", ["interpret", "vector"])
    def test_per_tile_scratch_plane_keeps_its_edges(
        self, bandit2_program, mode, schedule
    ):
        # A per-tile rank evaluates every tile in one reused scratch
        # plane while its same-rank edges sit buffered in the scheduler
        # and its retained edges in the result: both must be copies.
        kwargs = dict(
            ranks=2, mode=mode, schedule=schedule, record_values=True,
            keep_edges=True,
        )
        inline = execute(bandit2_program, {"N": 7}, **kwargs)
        proc = execute(
            bandit2_program, {"N": 7}, backend="process", **kwargs
        )
        _assert_same_run(proc, inline)
        assert proc.values == solve_reference(
            bandit2_program, {"N": 7}, record_values=True
        ).values
        assert sorted(proc.edges) == sorted(inline.edges)
        for key, buf in inline.edges.items():
            assert proc.edges[key].tobytes() == buf.tobytes()

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("ranks", [1, 2])
    @pytest.mark.parametrize("mode", ["auto", "wavefront"])
    @pytest.mark.parametrize(
        "fixture, params",
        [
            ("bandit2_program", {"N": 7}),
            ("edit_program", {"LA": 14, "LB": 11}),
        ],
    )
    def test_wavefront_keep_edges_equals_interpreter(
        self, request, fixture, params, mode, ranks, schedule
    ):
        # keep_edges stays on the fused front in the workers too: every
        # edge is array-packed there and comes back byte-identical to
        # the interpreter's PackPlan scan, with full accounting.
        program = request.getfixturevalue(fixture)
        ref = execute(program, params, mode="interpret", keep_edges=True)
        proc = execute(
            program, params, mode=mode, ranks=ranks, schedule=schedule,
            keep_edges=True, backend="process",
        )
        assert proc.mode == (
            auto_mode(program) if mode == "auto" else "wavefront"
        )
        assert proc.backend == "process"
        assert proc.objective_value == ref.objective_value
        assert sorted(proc.edges) == sorted(ref.edges)
        for key, buf in ref.edges.items():
            assert proc.edges[key].tobytes() == buf.tobytes()
        assert len(proc.edges) == proc.memory["total_edges"]
        assert (
            sum(len(buf) for buf in proc.edges.values())
            == proc.memory["total_packed_cells"]
        )

    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    @pytest.mark.parametrize("fixture,params", [
        ("bandit2_program", {"N": 7}),
        ("bandit3_program", {"N": 5}),
        ("delayed_program", {"N": 6}),
        ("edit_program", {"LA": 14, "LB": 11}),
        ("lcs3_program", {"L1": 8, "L2": 9, "L3": 10}),
        ("msa3_program", {"L1": 8, "L2": 9, "L3": 10}),
    ])
    def test_native_workers_equal_inline_and_reference(
        self, request, fixture, params, schedule
    ):
        # The library is built in the resolver, before the fork: the
        # workers inherit the mapping and evaluate their fronts with it.
        program = request.getfixturevalue(fixture)
        require_native(program)
        inline, proc = (
            execute(
                program, params, mode="native", ranks=2, schedule=schedule,
                record_values=True, keep_edges=True, backend=backend,
            )
            for backend in ("inline", "process")
        )
        assert (proc.mode, proc.backend) == ("native", "process")
        _assert_same_run(proc, inline)
        assert proc.values == solve_reference(
            program, params, record_values=True
        ).values
        assert sorted(proc.edges) == sorted(inline.edges)
        for key, buf in inline.edges.items():
            assert proc.edges[key].tobytes() == buf.tobytes()

    def test_event_trace_is_complete(self, bandit2_program):
        # No global interleaving exists across workers, so the trace is
        # compared as a multiset per tile, resequenced 0..n-1.
        inline = execute(
            bandit2_program, {"N": 7}, ranks=2, record_events=True
        )
        proc = execute(
            bandit2_program, {"N": 7}, ranks=2, record_events=True,
            backend="process",
        )
        assert [e.seq for e in proc.events] == list(range(len(proc.events)))
        assert sorted((e.kind, e.tile) for e in proc.events) == sorted(
            (e.kind, e.tile) for e in inline.events
        )

    def test_memory_totals_conserved(self, bandit2_program):
        # Per-tile engine packs every edge exactly once whatever the
        # transport; peaks may differ (cross edges are charged at recv
        # in a worker, at send inline) but totals cannot.
        inline = execute(bandit2_program, {"N": 8}, ranks=3, mode="vector")
        proc = execute(
            bandit2_program, {"N": 8}, ranks=3, mode="vector",
            backend="process",
        )
        assert proc.memory["total_edges"] == inline.memory["total_edges"]
        assert proc.memory["total_packed_cells"] == (
            inline.memory["total_packed_cells"]
        )
        assert proc.memory["live_cells"] == 0
        assert proc.memory["live_edges"] == 0
        assert len(proc.memory_per_rank) == 3

    def test_unknown_backend_rejected(self, bandit2_program):
        with pytest.raises(RuntimeExecutionError, match="unknown SPMD"):
            execute(bandit2_program, {"N": 5}, backend="threads")

    def test_single_rank_process_run(self, bandit2_program):
        # ranks=1 is a degenerate but legal process run: one worker, no
        # channels, everything still crosses the fork boundary.
        base = execute(bandit2_program, {"N": 6}, record_values=True)
        proc = execute(
            bandit2_program, {"N": 6}, ranks=1, backend="process",
            record_values=True,
        )
        assert proc.backend == "process"
        assert proc.objective_value == base.objective_value
        assert proc.values == base.values


def _rank1_killer(point, deps, params):
    """A kernel that SIGKILLs its own process on rank 1."""
    if os.environ.get("REPRO_SPMD_RANK") == "1":
        os.kill(os.getpid(), signal.SIGKILL)
    vals = [v for v in deps.values() if v is not None]
    return max(vals) + 1 if vals else 0.0


def _rank1_raiser(point, deps, params):
    """A kernel that raises on rank 1."""
    if os.environ.get("REPRO_SPMD_RANK") == "1":
        raise ValueError("injected kernel fault")
    vals = [v for v in deps.values() if v is not None]
    return max(vals) + 1 if vals else 0.0


class TestWorkerFailure:
    """Dead or broken workers surface fast, named, and leak-free."""

    def _round_robin(self, program, params, ranks):
        graph = tile_graph(program, params)
        return np.arange(len(graph.tile_tuples), dtype=np.int64) % ranks

    def test_killed_worker_raises_fast(self, bandit2_program):
        # SIGKILL mid-run: the parent must detect the dead rank through
        # its sentinel, not wait on a result that can never arrive.
        params = {"N": 12}
        rank_of = self._round_robin(bandit2_program, params, 2)
        start = time.monotonic()
        with pytest.raises(RuntimeExecutionError, match=r"rank 1 died"):
            run_spmd(
                bandit2_program, params, ranks=2, kernel=_rank1_killer,
                mode="interpret", rank_of=rank_of, backend="process",
            )
        assert time.monotonic() - start < 30.0

    def test_worker_exception_names_rank_and_cause(self, bandit2_program):
        params = {"N": 12}
        rank_of = self._round_robin(bandit2_program, params, 2)
        with pytest.raises(RuntimeExecutionError) as exc_info:
            run_spmd(
                bandit2_program, params, ranks=2, kernel=_rank1_raiser,
                mode="interpret", rank_of=rank_of, backend="process",
            )
        message = str(exc_info.value)
        assert "rank 1" in message
        assert "injected kernel fault" in message

    def test_keyboard_interrupt_cleans_up(self, bandit2_program, monkeypatch):
        # Simulate ^C while the parent waits for results: the finally
        # block must still terminate workers and unlink every segment
        # (the autouse fixture asserts /dev/shm afterwards).
        import repro.runtime.parallel as parallel

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(parallel, "_collect_results", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_spmd_process(bandit2_program, {"N": 10}, ranks=2)

    def test_starved_worker_times_out(self, bandit2_program):
        # A worker whose inbound edges never arrive must abort itself
        # instead of spinning forever: kill rank 1 and give rank 0 tiles
        # that depend on it.  Rank 0's starvation is masked by the
        # parent seeing rank 1's death first — either way the run fails
        # fast with a named rank.
        params = {"N": 12}
        rank_of = self._round_robin(bandit2_program, params, 2)
        with pytest.raises(RuntimeExecutionError, match="rank 1"):
            run_spmd_process(
                bandit2_program, params, ranks=2, kernel=_rank1_killer,
                mode="interpret", rank_of=rank_of, timeout=20.0,
            )
