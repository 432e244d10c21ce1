"""In-process tiled runtime: the Python twin of the generated C program."""

from .graph import Edge, TileGraph, TileIndex, tile_graph
from .memory import EdgeMemoryTracker
from .scheduler import (
    EVENT_KINDS,
    SCHEDULE_POLICIES,
    TRACE_SCHEMA_VERSION,
    DynamicHeapPolicy,
    SchedulePolicy,
    StaticWavefrontPolicy,
    TileScheduler,
    TransitionEvent,
    decode_events,
    encode_events,
    rank_of_rows,
)
from .executor import (
    EXECUTION_MODES,
    LB_METHODS,
    SPMD_BACKENDS,
    CompiledExecutor,
    ExecutionResult,
    RunConfig,
    compiled_executor,
    execute,
    run_spmd,
    run_spmd_process,
    solve_reference,
)
from .fastpath import (
    VectorTileEngine,
    WavefrontRun,
    vector_unsupported_reason,
)
from .spmd import spmd_rank_assignment, validate_rank_of
from .parallel import arena_capacities, cross_edge_slots
from .recover import Policy, SolutionRecovery
from .tuner import (
    TuningDecision,
    candidate_tile_widths,
    heuristic_tile_widths,
    retile_program,
    tune,
)

__all__ = [
    "TileGraph",
    "TileIndex",
    "Edge",
    "tile_graph",
    "EdgeMemoryTracker",
    "TileScheduler",
    "SchedulePolicy",
    "DynamicHeapPolicy",
    "StaticWavefrontPolicy",
    "SCHEDULE_POLICIES",
    "TransitionEvent",
    "encode_events",
    "decode_events",
    "EVENT_KINDS",
    "TRACE_SCHEMA_VERSION",
    "rank_of_rows",
    "CompiledExecutor",
    "compiled_executor",
    "ExecutionResult",
    "RunConfig",
    "EXECUTION_MODES",
    "LB_METHODS",
    "execute",
    "solve_reference",
    "VectorTileEngine",
    "WavefrontRun",
    "vector_unsupported_reason",
    "run_spmd",
    "run_spmd_process",
    "cross_edge_slots",
    "arena_capacities",
    "spmd_rank_assignment",
    "validate_rank_of",
    "SPMD_BACKENDS",
    "SolutionRecovery",
    "Policy",
    "TuningDecision",
    "tune",
    "heuristic_tile_widths",
    "candidate_tile_widths",
    "retile_program",
]
