"""The dynamic trace sanitizer (RPR06x) on real and corrupted traces.

Clean executions — every backend, several rank counts — sanitize clean.
Each seeded defect then mutates one recorded clean trace in a concrete
way (drop a send, move it past the producer's release, duplicate it,
invert a channel's ready order, truncate a rank, corrupt the bytes) and
asserts the expected stable code in both the text and JSON renderings.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import (
    check_trace,
    default_params,
    racecheck_execution,
    render_json,
    render_text,
)
from repro.runtime import (
    RunConfig,
    decode_events,
    encode_events,
    run_spmd,
    spmd_rank_assignment,
    tile_graph,
)

PARAMS = {"N": 9}


def codes(diags):
    return {d.code for d in diags}


def assert_code_in_renderings(diags, code):
    assert code in codes(diags)
    assert code in render_text(diags)
    doc = json.loads(render_json(diags))
    assert any(d["code"] == code for d in doc["diagnostics"])
    assert doc["clean"] is False


@pytest.fixture(scope="module")
def graph(bandit2_program):
    return tile_graph(bandit2_program, PARAMS)


@pytest.fixture(scope="module")
def rank_of(bandit2_program, graph):
    return spmd_rank_assignment(bandit2_program, PARAMS, graph, 2)


@pytest.fixture(scope="module")
def clean_trace(bandit2_program, graph, rank_of):
    """A clean 2-rank inline run with per-tile (full) packing."""
    result = run_spmd(
        bandit2_program,
        PARAMS,
        ranks=2,
        rank_of=np.asarray(rank_of),
        mode="interpret",
        record_events=True,
        graph=graph,
    )
    return list(result.events)


def mutated(events):
    return [dataclasses.replace(e) for e in events]


def find(events, kind, tile=None):
    for i, e in enumerate(events):
        if e.kind == kind and (tile is None or e.tile == tile):
            return i
    raise AssertionError(f"no {kind} event for {tile}")


class TestCleanRuns:
    def test_clean_trace_sanitizes_clean(self, graph, rank_of, clean_trace):
        assert check_trace(graph, rank_of, clean_trace) == []

    def test_bytes_roundtrip(self, graph, rank_of, clean_trace):
        blob = encode_events(clean_trace)
        assert decode_events(blob) == clean_trace
        assert check_trace(graph, rank_of, blob) == []

    @pytest.mark.parametrize("ranks,backend", [
        (1, "inline"),
        (2, "inline"),
        (4, "inline"),
        (2, "process"),
        (4, "process"),
    ])
    def test_racecheck_execution_clean(self, bandit2_program, ranks, backend):
        diags = racecheck_execution(
            bandit2_program, PARAMS, RunConfig(ranks=ranks, backend=backend)
        )
        assert not diags, render_text(diags)

    def test_racecheck_execution_edit_process(self, edit_program):
        diags = racecheck_execution(
            edit_program,
            default_params(edit_program.spec),
            RunConfig(ranks=2, backend="process"),
        )
        assert not diags, render_text(diags)

    def test_run_and_audit_share_the_lb_method(self, bandit2_program):
        # lb_method used to reach the audit's rank assignment but not
        # the run, which kept dimension-cut: its trace was then held to
        # the hyperplane assignment (five false RPR064s on this case).
        params = {"N": 12}
        graph = tile_graph(bandit2_program, params)
        cut, plane = (
            spmd_rank_assignment(
                bandit2_program, params, graph, 3, lb_method=method
            )
            for method in ("dimension-cut", "hyperplane")
        )
        assert (cut != plane).any()
        diags = racecheck_execution(
            bandit2_program,
            params,
            RunConfig(ranks=3, lb_method="hyperplane"),
        )
        assert not diags, render_text(diags)


class TestSeededRaces:
    def test_dropped_send_is_rpr060(self, graph, rank_of, clean_trace):
        # Lose one cross-rank delivery: its consumer still starts, now
        # reading ghost cells nothing ever wrote.
        events = mutated(clean_trace)
        victim = next(
            i for i, e in enumerate(events)
            if e.kind == "edge_sent" and e.dest_rank != e.rank
        )
        del events[victim]
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR060")
        assert any("never sent" in d.message for d in diags)

    def test_start_before_ready_is_rpr060(self, graph, rank_of, clean_trace):
        events = mutated(clean_trace)
        tile = events[find(events, "tile_start")].tile
        i = find(events, "tile_ready", tile)
        j = find(events, "tile_start", tile)
        events[i], events[j] = events[j], events[i]
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR060")

    def test_early_release_is_rpr061(self, graph, rank_of, clean_trace):
        # Move a producer's tile_done ahead of its sends: the pack now
        # reads a state array that was already released.
        events = mutated(clean_trace)
        send = next(
            i for i, e in enumerate(events) if e.kind == "edge_sent"
        )
        done = find(events, "tile_done", events[send].tile)
        assert done > send
        events.insert(send, events.pop(done))
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR061")
        assert any("use-after-release" in d.message for d in diags)

    def test_duplicate_send_is_rpr061(self, graph, rank_of, clean_trace):
        events = mutated(clean_trace)
        send = next(
            i for i, e in enumerate(events) if e.kind == "edge_sent"
        )
        events.insert(send, events[send])
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR061")

    def test_phantom_edge_is_rpr061(self, graph, rank_of, clean_trace):
        # Pack an edge the tile graph does not contain (self-loop).
        events = mutated(clean_trace)
        send = next(e for e in events if e.kind == "edge_sent")
        events.append(
            dataclasses.replace(
                send, dest=send.tile, dest_rank=send.rank, cells=1
            )
        )
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR061")
        assert any("phantom edge" in d.message for d in diags)


class TestSeededFifoInversion:
    @pytest.fixture(scope="class")
    def checkerboard(self, graph):
        # Every tile's producers sit on the opposite parity, so every
        # consumer qualifies for the per-channel FIFO check.
        return [sum(t) % 2 for t in graph.tile_tuples]

    @pytest.fixture(scope="class")
    def board_trace(self, bandit2_program, graph, checkerboard):
        result = run_spmd(
            bandit2_program,
            PARAMS,
            ranks=2,
            rank_of=np.asarray(checkerboard, dtype=np.int64),
            mode="interpret",
            record_events=True,
            graph=graph,
        )
        return list(result.events)

    def test_checkerboard_run_is_clean(self, graph, checkerboard, board_trace):
        assert check_trace(graph, checkerboard, board_trace) == []

    def test_swapped_ready_order_is_rpr062(
        self, graph, checkerboard, board_trace
    ):
        # Swap the ready transitions of two consumers fed by the same
        # channel: delivery completion order no longer matches.
        events = mutated(board_trace)
        readies = [
            i for i, e in enumerate(events)
            if e.kind == "tile_ready"
            and e.rank == 1
            and graph.producer_edges(graph.row_of(e.tile))
        ]
        assert len(readies) >= 2
        i, j = readies[0], readies[1]
        events[i], events[j] = events[j], events[i]
        diags = check_trace(graph, checkerboard, events)
        assert_code_in_renderings(diags, "RPR062")
        assert any("FIFO inversion" in d.message for d in diags)


class TestTruncatedTraces:
    def test_dead_rank_is_rpr063_warning(self, graph, rank_of, clean_trace):
        # Drop everything rank 1 recorded (a killed worker): the prefix
        # classifies as truncated-but-race-free, not as a race.
        events = [e for e in clean_trace if e.rank != 1]
        diags = check_trace(graph, rank_of, events, dead_ranks=(1,))
        assert codes(diags) == {"RPR063"}
        assert all(d.severity == "warning" for d in diags)
        assert any("r1" in d.message for d in diags)
        assert any("race-free" in d.message for d in diags)

    def test_truncation_with_completion_claim_is_rpr060(
        self, graph, rank_of, clean_trace
    ):
        events = [e for e in clean_trace if e.rank != 1]
        diags = check_trace(
            graph, rank_of, events, dead_ranks=(1,), expect_complete=True
        )
        assert_code_in_renderings(diags, "RPR060")
        assert any("claims completion" in d.message for d in diags)

    def test_truncated_racy_prefix_keeps_errors(
        self, graph, rank_of, clean_trace
    ):
        # A truncated trace whose surviving prefix also has a race gets
        # both the errors and the "violates happens-before" verdict.
        events = [
            dataclasses.replace(e) for e in clean_trace if e.rank != 1
        ]
        victim = next(
            i for i, e in enumerate(events) if e.kind == "edge_sent"
            and e.dest_rank == e.rank
        )
        del events[victim]
        diags = check_trace(graph, rank_of, events, dead_ranks=(1,))
        assert "RPR060" in codes(diags)
        assert any(
            "violates happens-before" in d.message
            for d in diags if d.code == "RPR063"
        )


class TestMalformedTraces:
    def test_garbage_bytes_are_rpr064(self, graph, rank_of):
        diags = check_trace(graph, rank_of, b"0 tile_exploded (0, 0) r0\n")
        assert_code_in_renderings(diags, "RPR064")

    def test_unknown_tile_is_rpr064(self, graph, rank_of, clean_trace):
        events = mutated(clean_trace)
        events[0] = dataclasses.replace(events[0], tile=(99, 99))
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR064")
        # Malformation suppresses the downstream ordering judgements.
        assert codes(diags) == {"RPR064"}

    def test_wrong_rank_claim_is_rpr064(self, graph, rank_of, clean_trace):
        events = mutated(clean_trace)
        events[0] = dataclasses.replace(events[0], rank=events[0].rank ^ 1)
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR064")
        assert any("claims rank" in d.message for d in diags)

    def test_duplicate_lifecycle_is_rpr064(self, graph, rank_of, clean_trace):
        events = mutated(clean_trace)
        i = find(events, "tile_start")
        events.append(events[i])
        diags = check_trace(graph, rank_of, events)
        assert_code_in_renderings(diags, "RPR064")

    def test_short_rank_assignment_is_rpr064(self, graph, clean_trace):
        diags = check_trace(graph, [0, 1], clean_trace)
        assert_code_in_renderings(diags, "RPR064")
