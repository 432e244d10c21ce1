"""Solution recovery (paper Section VII-A), implemented.

The generated programs normally discard a tile's interior once its
edges are packed — only the objective value survives.  Recovering the
*solution* (a traceback through the decision space, or arbitrary cell
values) does not require storing the whole O(n^d) space: as the paper
sketches, "the edges of the tiles could be saved, and needed tiles
recalculated on the fly during the traceback".

:class:`SolutionRecovery` does exactly that: one forward pass through
the scheduler-driven executor with ``keep_edges=True`` retains the
O(n^(d-1)) packed edges (at wavefront speed whenever the program has a
vector kernel — ``keep_edges`` does not change the engine); any tile can
then be recomputed in isolation by unpacking its stored incoming edges
into one padded array and re-evaluating its local space.  The padded
array is what gets cached (a small LRU): ``value_at`` indexes its
interior and ``dependencies_at`` reads its ghost margins — the unpacked
edges *are* the neighbours' cells — so a ``traceback`` recomputes only
the tiles its path enters, not every neighbour it looks at.
``recomputed_tiles`` and ``cache_hits`` count what a walk cost.

Recovery owns no scheduling, compilation or evaluation machinery of its
own: the forward pass is :func:`repro.runtime.executor.execute`, and a
tile is recomputed by the executor's shared tile body and edge transport
(:class:`~repro.runtime.executor._RunState`) under the engine the
forward pass resolved to — array unpack plus the array engine's
one-tile dispatch, or, for programs with no vector kernel or a custom
scalar kernel, the ``PackPlan`` scans plus the interpreter — with every
check that body performs (a valid dependency whose saved value is
missing or NaN raises, naming tile, template and point).  Producer edges
come from the graph's CSR arrays, the same delta-order walk the drivers'
unpack loops use.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..spec import Kernel
from .executor import _RunState, compiled_executor, execute
from .graph import TileIndex, tile_graph

Point = Tuple[int, ...]

#: A traceback policy: given the current point, its dependency values
#: (None when invalid) and its own value, return the chosen template
#: name — or None to stop the walk.
Policy = Callable[[Mapping[str, int], Mapping[str, Optional[float]], float], Optional[str]]


class SolutionRecovery:
    """Point queries and tracebacks from saved edges (Section VII-A)."""

    def __init__(
        self,
        program: GeneratedProgram,
        params: Mapping[str, int],
        kernel: Optional[Kernel] = None,
        cache_tiles: int = 16,
        schedule: str = "dynamic",
    ):
        self.program = program
        self.params = dict(params)
        # None for a spec that carries only a vector kernel: forward
        # pass and recomputation then both run on the array engine.
        self.kernel = kernel if kernel is not None else program.spec.kernel
        self.graph = tile_graph(program, self.params)
        # The forward pass honors the caller's schedule policy; the
        # saved edge set is identical either way (every edge is packed
        # under keep_edges), so recovery itself is policy-blind.
        self.result = execute(
            program,
            self.params,
            kernel=self.kernel,
            graph=self.graph,
            keep_edges=True,
            schedule=schedule,
        )
        self._cache: "OrderedDict[TileIndex, np.ndarray]" = OrderedDict()
        self._cache_tiles = cache_tiles
        #: Tiles recomputed from their saved edges / served from the LRU.
        self.recomputed_tiles = 0
        self.cache_hits = 0
        # The executor's tile body and edge transport, under the engine
        # the forward pass ran.
        self._compiled = compiled_executor(program)
        self._state = _RunState(
            self._compiled, self.params, self.kernel, self.result.config
        )

    # -- tile recomputation -------------------------------------------------

    def _tile_array(self, tile: TileIndex) -> np.ndarray:
        """The tile's padded array — interior recomputed, ghost margins
        holding its saved incoming edges — through the LRU."""
        array = self._cache.get(tile)
        if array is not None:
            self._cache.move_to_end(tile)
            self.cache_hits += 1
            return array
        edges = self.result.edges
        assert edges is not None
        row = self.graph.row_of(tile)
        tile_tuples = self.graph.tile_tuples
        array = np.full(self.program.layout.padded_shape, np.nan)
        for producer_row, delta_id in self.graph.producer_edges(row):
            producer = tile_tuples[producer_row]
            buffer = edges.get((producer, tile))
            if buffer is None:
                raise RuntimeExecutionError(
                    f"tile {tile}: the saved edge from its producer "
                    f"{producer} is missing"
                )
            self._state.unpack_edge(producer, delta_id, buffer, array)
        self._state.execute_tile(tile, array)
        self.recomputed_tiles += 1
        self._cache[tile] = array
        if len(self._cache) > self._cache_tiles:
            self._cache.popitem(last=False)
        return array

    def tile_values(self, tile: TileIndex) -> Dict[Point, float]:
        """All cell values of one tile, recomputed from its saved edges."""
        array = self._tile_array(tile)
        layout = self.program.layout
        widths = layout.widths
        tile_env = dict(self.params)
        tile_env.update(self.program.spaces.tile_env(tile))
        return {
            tuple(w * t + i for w, t, i in zip(widths, tile, local)):
                float(array[layout.array_index(local)])
            for local in self._compiled.scan(tile_env)
        }

    # -- queries -------------------------------------------------------------

    def _locate(self, point: Mapping[str, int]):
        """``(array, local, env)`` of an in-space *point*: its tile's
        padded array, its local coordinates there, and the global
        environment (params + point) the validity checks read."""
        spec = self.program.spec
        env = dict(self.params)
        env.update(point)
        if not self._compiled.in_space(env):
            raise RuntimeExecutionError(
                f"point {dict(point)} is outside the iteration space"
            )
        tile = self.program.spaces.point_to_tile(point)
        local = tuple(
            point[v] - w * t
            for v, w, t in zip(spec.loop_vars, self.program.layout.widths, tile)
        )
        return self._tile_array(tile), local, env

    def _dependencies(
        self, array: np.ndarray, local: Point, env: Mapping[str, int]
    ) -> Dict[str, Optional[float]]:
        """Dependency values of a located point, read off its own tile's
        array: a dependency in a neighbouring tile sits in the ghost
        margin, delivered by that tile's saved edge.  Validity is the
        executor's compiled ``is_valid_r*`` — the predicate under which
        the tile body already checked the value is there."""
        layout = self.program.layout
        check_fns, per_template = self._compiled.validity_checks
        out: Dict[str, Optional[float]] = {}
        for name, vec in self._compiled.template_items:
            if all(check_fns[i](env) for i in per_template[name]):
                ghost = tuple(i + r for i, r in zip(local, vec))
                out[name] = float(array[layout.array_index(ghost)])
            else:
                out[name] = None
        return out

    def value_at(self, point: Mapping[str, int]) -> float:
        """The DP value at any iteration-space point."""
        array, local, _ = self._locate(point)
        return float(array[self.program.layout.array_index(local)])

    def dependencies_at(
        self, point: Mapping[str, int]
    ) -> Dict[str, Optional[float]]:
        """Dependency values of an iteration-space point (None where
        invalid); recomputes no tile but the point's own."""
        array, local, env = self._locate(point)
        return self._dependencies(array, local, env)

    def traceback(
        self,
        policy: Policy,
        start: Optional[Mapping[str, int]] = None,
        max_steps: int = 100000,
    ) -> List[Tuple[Dict[str, int], Optional[str]]]:
        """Walk *policy* through the space, recomputing tiles on demand.

        Returns the visited ``(point, chosen_template)`` path; the final
        entry has ``None`` as its choice.
        """
        spec = self.program.spec
        layout = self.program.layout
        point = dict(start if start is not None else spec.objective(self.params))
        path: List[Tuple[Dict[str, int], Optional[str]]] = []
        for _ in range(max_steps):
            array, local, env = self._locate(point)
            value = float(array[layout.array_index(local)])
            deps = self._dependencies(array, local, env)
            choice = policy(point, deps, value)
            path.append((dict(point), choice))
            if choice is None:
                return path
            offsets = spec.templates.as_offset_map(choice)
            point = {v: point[v] + offsets[v] for v in spec.loop_vars}
        raise RuntimeExecutionError(
            f"traceback exceeded {max_steps} steps; the policy may loop"
        )

    @property
    def edge_memory_cells(self) -> int:
        """Cells held by the saved edges (the VII-A memory footprint)."""
        assert self.result.edges is not None
        return sum(len(buf) for buf in self.result.edges.values())
