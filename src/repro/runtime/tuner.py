"""Simulator-driven auto-tuning of schedule policy and tile widths.

The runtime exposes two schedule policies (see
:data:`repro.runtime.scheduler.SCHEDULE_POLICIES`) and takes tile
widths as user input — historically guesswork.  This module replaces
both knobs with a measurement: sweep candidate tile widths x both
policies through the calibrated discrete-event simulator
(:func:`repro.simulate.hybrid.simulate_program`) and return the
combination with the smallest predicted makespan as a
:class:`TuningDecision`.

The dynamic-vs-static tradeoff the sweep resolves is the one Jin et
al. ("Hybrid Static/Dynamic Schedules for Tiled Polyhedral Programs",
arXiv:1610.07236) measure: a static wavefront schedule skips the
shared ready-queue critical section every tile otherwise pays, but
inherits level-barrier slack; which side wins depends on tile
granularity, machine shape and frontier width — exactly what the
simulator computes.  Tile-width candidates come from
:func:`heuristic_tile_widths`, which sizes tiles off the instance's
actual iteration-space extents (targeting O(10^2..10^3) tiles) instead
of a hardcoded constant.

Decisions are cached in an on-disk JSON registry keyed by the
*structural* compile signature of the spec (tile widths excluded — they
are what is being tuned), the concrete parameter values, and a machine
fingerprint, so repeated ``execute(schedule="auto")`` calls and the
``repro-tune`` CLI pay the sweep once per (program, params, machine).
The default machine fingerprint is deterministic (one node,
``os.cpu_count()`` cores, stock cost constants); pass an explicitly
calibrated :class:`~repro.simulate.machine.MachineModel` to tune for
measured hardware.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import PolyhedronError, ReproError, RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram, generate
from ..polyhedra.vertices import vertex_bounding_box
from ..simulate.machine import MachineModel
from ..spec import ProblemSpec
from .scheduler import SCHEDULE_POLICIES

__all__ = [
    "TuningDecision",
    "tune",
    "heuristic_tile_widths",
    "candidate_tile_widths",
    "normalize_tile_widths",
    "retile_program",
    "default_tuning_machine",
    "structural_signature",
    "tuning_cache_key",
    "default_cache_path",
    "TUNING_CACHE_VERSION",
    "CACHE_ENV_VAR",
]

#: Version of the on-disk tuning-registry schema; entries written under
#: a different version are ignored (and rewritten on the next store).
TUNING_CACHE_VERSION = 1

#: Environment override for the registry location (CI points this at a
#: workspace-local file; tests at tmp paths).
CACHE_ENV_VAR = "REPRO_TUNE_CACHE"

#: A tile-width override: one width for every loop var, a (partial)
#: per-var mapping, or that mapping's ``(loop var, width)`` pairs — the
#: hashable form :class:`repro.runtime.executor.RunConfig` stores.
TileWidths = Union[int, Mapping[str, int], Iterable[Tuple[str, int]]]

#: How many tiles the width heuristic aims for: enough parallelism for
#: any bundled machine shape, small enough that per-tile overhead stays
#: amortized (O(10^2..10^3) tiles).
DEFAULT_TARGET_TILES = 256


@dataclass(frozen=True)
class TuningDecision:
    """The tuner's verdict for one (program, params, machine)."""

    #: Chosen schedule policy ("dynamic" or "static").
    schedule: str
    #: Chosen per-loop-var tile widths.
    tile_widths: Dict[str, int]
    #: Simulated makespan of the chosen configuration.
    predicted_makespan_s: float
    #: Simulated makespan of the untuned default: the program's current
    #: widths under the dynamic policy.  Always >= predicted (the
    #: default is in the sweep).
    default_makespan_s: float
    #: How many (schedule, widths) configurations were simulated.
    candidates: int
    #: The registry key this decision is stored under.
    cache_key: str
    #: True when the decision was served from the on-disk registry
    #: instead of a fresh sweep.
    cache_hit: bool = False

    @property
    def predicted_speedup(self) -> float:
        """Predicted makespan improvement over the untuned default."""
        if self.predicted_makespan_s <= 0.0:
            return 1.0
        return self.default_makespan_s / self.predicted_makespan_s


# -- cache key -------------------------------------------------------------


def structural_signature(spec: ProblemSpec) -> str:
    """A stable hash of everything that defines the problem *except*
    tile widths (they are the tuned quantity).

    Two specs with equal signatures compile to the same tile graph
    family for any given widths, so a cached decision transfers.
    """
    material: Dict[str, Any] = {
        "name": spec.name,
        "loop_vars": list(spec.loop_vars),
        "params": list(spec.params),
        "constraints": sorted(str(c) for c in spec.constraints),
        "templates": sorted(
            (name, list(vec)) for name, vec in spec.templates.items()
        ),
        "lb_dims": list(spec.lb_dims),
        "objective_point": (
            sorted(spec.objective_point.items())
            if spec.objective_point is not None
            else None
        ),
        "dtype": spec.dtype,
    }
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def machine_fingerprint(machine: MachineModel) -> Dict[str, Any]:
    """The machine's identity in the cache key: every cost constant."""
    return dict(sorted(dataclasses.asdict(machine).items()))


def tuning_cache_key(
    spec: ProblemSpec,
    params: Mapping[str, int],
    machine: MachineModel,
) -> str:
    """Registry key: structural spec signature + params + machine."""
    material = {
        "version": TUNING_CACHE_VERSION,
        "spec": structural_signature(spec),
        "params": sorted((str(k), int(v)) for k, v in params.items()),
        "machine": machine_fingerprint(machine),
    }
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_tuning_machine() -> MachineModel:
    """The machine tuning targets absent an explicit model.

    One node with this host's core count and the stock cost constants —
    deterministic across invocations by construction, so cached
    decisions keyed on it are actually reused (a calibrated model's
    fitted constants would differ run to run).
    """
    return MachineModel(nodes=1, cores_per_node=os.cpu_count() or 1)


def default_cache_path() -> Path:
    """Registry location: ``$REPRO_TUNE_CACHE`` or the user cache dir."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "tuning.json"


# -- tile-width candidates -------------------------------------------------


def normalize_tile_widths(
    spec: ProblemSpec,
    tile_widths: TileWidths,
) -> Dict[str, int]:
    """Canonicalize a width override to a full per-loop-var dict.

    An int applies to every loop var; a partial mapping (or its
    ``(loop var, width)`` pairs) inherits the spec's current width for
    missing vars.  Unknown names raise.
    """
    if isinstance(tile_widths, int):
        return {v: int(tile_widths) for v in spec.loop_vars}
    widths = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
    pairs: Iterable[Tuple[str, int]] = (
        tile_widths.items()
        if isinstance(tile_widths, Mapping)
        else tile_widths
    )
    for name, w in pairs:
        if name not in widths:
            raise RuntimeExecutionError(
                f"tile_widths names unknown loop var {name!r}; "
                f"expected a subset of {list(spec.loop_vars)}"
            )
        widths[name] = int(w)
    return widths


def heuristic_tile_widths(
    spec: ProblemSpec,
    params: Mapping[str, int],
    target_tiles: int = DEFAULT_TARGET_TILES,
) -> Dict[str, int]:
    """Widths sized from the instance's actual iteration-space extents.

    Computes the exact rational bounding box of the constraint system
    with *params* fixed, then picks per-dimension widths so the tile
    count lands near *target_tiles* (``target^(1/d)`` tiles per
    dimension), clamped below by each var's template reach (the spec's
    validity floor) and above by the dimension's extent.  Falls back to
    the spec's current widths when the instance polyhedron is empty.
    """
    reach = spec.templates.max_reach()
    try:
        box = vertex_bounding_box(
            spec.constraints.fix(dict(params)), list(spec.loop_vars)
        )
    except PolyhedronError:
        return {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
    extents: List[int] = [
        max(1, int(math.floor(hi)) - int(math.ceil(lo)) + 1)
        for lo, hi in box
    ]
    per_dim = max(1.0, float(target_tiles) ** (1.0 / len(extents)))
    widths: Dict[str, int] = {}
    for v, extent in zip(spec.loop_vars, extents):
        floor_w = max(1, int(reach.get(v, 1)))
        w = max(floor_w, math.ceil(extent / per_dim))
        widths[v] = min(w, max(extent, floor_w))
    return widths


def _scaled_widths(
    widths: Mapping[str, int],
    factor: float,
    reach: Mapping[str, int],
) -> Dict[str, int]:
    return {
        v: max(1, int(reach.get(v, 1)), int(round(w * factor)))
        for v, w in widths.items()
    }


def candidate_tile_widths(
    spec: ProblemSpec,
    params: Mapping[str, int],
    quick: bool = False,
) -> List[Dict[str, int]]:
    """The width candidates one sweep simulates, current widths first.

    Full sweeps add x2 and x1/2 scalings of the heuristic around it;
    ``quick`` keeps just {current, heuristic}.  Duplicates collapse.
    """
    current = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
    heuristic = heuristic_tile_widths(spec, params)
    reach = spec.templates.max_reach()
    candidates = [current, heuristic]
    if not quick:
        candidates.append(_scaled_widths(heuristic, 2.0, reach))
        candidates.append(_scaled_widths(heuristic, 0.5, reach))
    out: List[Dict[str, int]] = []
    seen = set()
    for widths in candidates:
        key = tuple(sorted(widths.items()))
        if key not in seen:
            seen.add(key)
            out.append(widths)
    return out


def retile_program(
    program: GeneratedProgram,
    tile_widths: TileWidths,
) -> GeneratedProgram:
    """The same problem re-generated with different tile widths.

    A no-op (the original object, with its caches) when the widths
    already match.  Re-tiled programs are memoized on the original, so
    a sweep revisiting a width — or ``execute(schedule="auto")`` runs
    replaying a cached decision — regenerates nothing.
    """
    widths = normalize_tile_widths(program.spec, tile_widths)
    if widths == {
        v: int(program.spec.tile_widths[v]) for v in program.spec.loop_vars
    }:
        return program
    cache = getattr(program, "_retile_cache", None)
    if cache is None:
        cache = {}
        program._retile_cache = cache
    key = tuple(sorted(widths.items()))
    retiled = cache.get(key)
    if retiled is None:
        spec = dataclasses.replace(program.spec, tile_widths=widths)
        retiled = generate(spec)
        cache[key] = retiled
    return retiled


# -- the on-disk registry --------------------------------------------------


def _load_registry(path: Path) -> Dict[str, Dict[str, Any]]:
    """The registry's decision table; empty on any malformed content."""
    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if (
        not isinstance(raw, dict)
        or raw.get("schema_version") != TUNING_CACHE_VERSION
        or not isinstance(raw.get("decisions"), dict)
    ):
        return {}
    decisions: Dict[str, Dict[str, Any]] = {}
    for key, entry in raw["decisions"].items():
        if isinstance(entry, dict):
            decisions[str(key)] = entry
    return decisions


def _store_decision(path: Path, decision: TuningDecision) -> None:
    decisions = _load_registry(path)
    decisions[decision.cache_key] = {
        "schedule": decision.schedule,
        "tile_widths": dict(decision.tile_widths),
        "predicted_makespan_s": decision.predicted_makespan_s,
        "default_makespan_s": decision.default_makespan_s,
        "candidates": decision.candidates,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(
            {
                "schema_version": TUNING_CACHE_VERSION,
                "decisions": decisions,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    tmp.replace(path)


def _decision_from_entry(
    entry: Mapping[str, Any],
    spec: ProblemSpec,
    cache_key: str,
) -> Optional[TuningDecision]:
    """Revive a registry entry; None when it fails basic validation."""
    try:
        schedule = str(entry["schedule"])
        widths = {
            str(k): int(v) for k, v in dict(entry["tile_widths"]).items()
        }
        predicted = float(entry["predicted_makespan_s"])
        default = float(entry["default_makespan_s"])
        candidates = int(entry.get("candidates", 0))
    except (KeyError, TypeError, ValueError):
        return None
    if schedule not in SCHEDULE_POLICIES:
        return None
    if sorted(widths) != sorted(spec.loop_vars):
        return None
    return TuningDecision(
        schedule=schedule,
        tile_widths=widths,
        predicted_makespan_s=predicted,
        default_makespan_s=default,
        candidates=candidates,
        cache_key=cache_key,
        cache_hit=True,
    )


# -- the sweep -------------------------------------------------------------


def tune(
    program: GeneratedProgram,
    params: Mapping[str, int],
    machine: Optional[MachineModel] = None,
    quick: bool = False,
    use_cache: bool = True,
    cache_path: Optional[Path] = None,
    tile_width_candidates: Optional[
        Sequence[Union[int, Mapping[str, int]]]
    ] = None,
) -> TuningDecision:
    """Pick (schedule policy, tile widths) for one problem instance.

    Simulates every candidate width set under both schedule policies on
    *machine* (default: :func:`default_tuning_machine`) and returns the
    configuration with the smallest predicted makespan.  The untuned
    default — the program's current widths under the dynamic policy —
    is always in the sweep and is also the tie-winner, so
    ``predicted_makespan_s <= default_makespan_s`` holds by
    construction and a tie changes nothing.

    With *use_cache* (default), the decision round-trips through the
    on-disk registry at *cache_path* (default:
    :func:`default_cache_path`): a prior decision for the same
    (structural spec, params, machine) is returned immediately with
    ``cache_hit=True``.  *tile_width_candidates* overrides the candidate
    widths (e.g. ``execute`` pins them to the current tiling when the
    caller supplied a prebuilt graph); *quick* trims the default
    candidate set for smoke runs.
    """
    from ..simulate.hybrid import simulate_program

    spec = program.spec
    if machine is None:
        machine = default_tuning_machine()
    key = tuning_cache_key(spec, params, machine)
    path = Path(cache_path) if cache_path is not None else default_cache_path()
    if use_cache:
        entry = _load_registry(path).get(key)
        if entry is not None:
            decision = _decision_from_entry(entry, spec, key)
            if decision is not None:
                return decision

    current = {v: int(spec.tile_widths[v]) for v in spec.loop_vars}
    if tile_width_candidates is None:
        widths_list = candidate_tile_widths(spec, params, quick=quick)
    else:
        widths_list = []
        seen = set()
        for cand in tile_width_candidates:
            widths = normalize_tile_widths(spec, cand)
            wkey = tuple(sorted(widths.items()))
            if wkey not in seen:
                seen.add(wkey)
                widths_list.append(widths)
    if current not in widths_list:
        widths_list.insert(0, current)
    else:
        # The untuned default leads the sweep so exact ties resolve to it.
        widths_list.insert(0, widths_list.pop(widths_list.index(current)))

    best: Optional[Tuple[float, str, Dict[str, int]]] = None
    default_makespan: Optional[float] = None
    candidates = 0
    for widths in widths_list:
        # A candidate tiling can be infeasible even when every width
        # clears the template-reach floor: bidirectional dependencies
        # (e.g. Viterbi's +-3 state offsets) turn into tile-graph cycles
        # once the dimension is split.  Such candidates are skipped —
        # the untuned default always simulates, so the sweep still
        # returns a decision.
        try:
            prog_w = retile_program(program, widths)
            for schedule in SCHEDULE_POLICIES:
                sim = simulate_program(
                    prog_w, params, machine, schedule=schedule
                )
                candidates += 1
                makespan = float(sim.makespan_s)
                if schedule == "dynamic" and widths == current:
                    default_makespan = makespan
                if best is None or makespan < best[0]:
                    best = (makespan, schedule, widths)
        except ReproError:
            if widths == current:
                raise
            continue
    if best is None or default_makespan is None:  # pragma: no cover
        raise RuntimeExecutionError("tuning sweep simulated no candidates")

    decision = TuningDecision(
        schedule=best[1],
        tile_widths=dict(best[2]),
        predicted_makespan_s=best[0],
        default_makespan_s=default_makespan,
        candidates=candidates,
        cache_key=key,
    )
    if use_cache:
        try:
            _store_decision(path, decision)
        except OSError:  # pragma: no cover - read-only cache dir
            pass
    return decision
