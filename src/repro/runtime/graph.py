"""The tile dependency graph for one concrete problem instance.

Built once per (generated program, parameter values): every valid tile,
its valid producers/consumers, its work (iteration points), and each
edge's packed size.  The in-process executor and the cluster simulator
both run off this graph, which is what makes the simulator's schedule
"real": it orders exactly the tiles and edges the generated program
would execute and communicate.

The graph is *array-native* (structure of arrays):

* ``tile_array`` — the ``(T, d)`` int64 tile indices in the tile nest's
  lexicographic scan order (row number == lex rank);
* ``work_array`` — per-tile iteration-point counts, int64;
* producers in CSR form indexed by **consumer** row
  (``prod_ptr``/``prod_rows``/``prod_delta``, per-consumer edges in the
  program's delta order), and consumers in CSR form indexed by
  **producer** row (``cons_ptr``/``cons_rows``/``cons_delta``, per-
  producer edges in lexicographic consumer order) with the packed size
  of every edge in ``cons_cells``.

Construction never touches a per-tile Python loop on the common path:
tiles come from one vectorized scan of the tile nest, interior tiles
are detected and counted in closed form by one batched box-min
evaluation, edges are resolved per delta with a ravel-index lookup over
the tile bounding box, and full-region edge sizes are answered from the
pack plans' closed forms — only the boundary minority of tiles/edges
runs a compiled counter.  The dict-shaped views (``tiles``,
``producers``, ``consumers``, ``work``, ``edge_cells``) are materialized
lazily for tooling and tests; the executor and simulator consume the
arrays directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..generator.priority import make_priority_array

TileIndex = Tuple[int, ...]
Edge = Tuple[TileIndex, TileIndex]  # (producer, consumer)

#: Beyond this many cells the dense ravel grid falls back to a hash map
#: (pathologically sparse tile spaces only).
_DENSE_GRID_LIMIT = 1 << 22

#: Per-program cap of the memoized graphs (see :func:`tile_graph`).
_GRAPH_CACHE_SIZE = 8


class TileGraph:
    """Concrete tile DAG: nodes are valid tiles, edges follow the deltas."""

    def __init__(
        self,
        program: GeneratedProgram,
        params: Dict[str, int],
        tile_array: np.ndarray,
        work_array: np.ndarray,
        prod_ptr: np.ndarray,
        prod_rows: np.ndarray,
        prod_delta: np.ndarray,
        cons_ptr: np.ndarray,
        cons_rows: np.ndarray,
        cons_delta: np.ndarray,
        cons_cells: np.ndarray,
    ):
        self.program = program
        self.params = params
        self.tile_array = tile_array
        self.work_array = work_array
        self.prod_ptr = prod_ptr
        self.prod_rows = prod_rows
        self.prod_delta = prod_delta
        self.cons_ptr = cons_ptr
        self.cons_rows = cons_rows
        self.cons_delta = cons_delta
        self.cons_cells = cons_cells
        self._tile_tuples: Optional[List[TileIndex]] = None
        self._priority_cache: Dict[str, List[tuple]] = {}
        self._dict_cache: Dict[str, object] = {}

    # -- construction --------------------------------------------------------

    @staticmethod
    def build(program: GeneratedProgram, params: Mapping[str, int]) -> "TileGraph":
        params = dict(params)
        spaces = program.spaces
        tile_array, work_array = spaces.valid_tile_array(params)
        T = tile_array.shape[0]
        if T == 0:
            raise RuntimeExecutionError(
                f"problem {program.spec.name!r} has no tiles for params {params}"
            )

        row_of = _RowIndex(tile_array)
        deltas = program.deltas

        cons_parts: List[np.ndarray] = []
        prod_parts: List[np.ndarray] = []
        did_parts: List[np.ndarray] = []
        cell_parts: List[np.ndarray] = []
        spec = program.spec
        tile_vars = spaces.tile_vars
        for di, delta in enumerate(deltas):
            shifted = tile_array + np.asarray(delta, dtype=np.int64)
            cons_r, prod_r = row_of.lookup(shifted)
            if cons_r.size == 0:
                continue
            plan = program.pack_plans[delta]
            ptiles = tile_array[prod_r]
            batch = plan.full_region_batch(spec, tile_vars)
            if batch is None:
                full = np.zeros(prod_r.size, dtype=bool)
            else:
                full = batch(params, ptiles)
            cells = np.full(prod_r.size, plan.full_cells, dtype=np.int64)
            clipped = np.flatnonzero(~full)
            if clipped.size:
                from ..polyhedra.batch import nest_count_batch

                cols = {
                    tv: ptiles[clipped, k]
                    for k, tv in enumerate(tile_vars)
                }
                cells[clipped] = nest_count_batch(
                    plan.region_nest, params, cols
                )
            cons_parts.append(cons_r)
            prod_parts.append(prod_r)
            did_parts.append(np.full(cons_r.size, di, dtype=np.int64))
            cell_parts.append(cells)

        if cons_parts:
            cons_e = np.concatenate(cons_parts)
            prod_e = np.concatenate(prod_parts)
            did_e = np.concatenate(did_parts)
            cell_e = np.concatenate(cell_parts)
        else:
            cons_e = prod_e = did_e = cell_e = np.empty(0, dtype=np.int64)

        # Producers CSR (indexed by consumer): the per-delta blocks are
        # already in delta order, so a stable sort by consumer keeps each
        # consumer's producers in the program's delta order.
        order = np.argsort(cons_e, kind="stable")
        prod_ptr = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(np.bincount(cons_e, minlength=T), out=prod_ptr[1:])
        # Consumers CSR (indexed by producer), per-producer consumers in
        # lexicographic order (row number == lex rank of the tile).
        order2 = np.lexsort((cons_e, prod_e))
        cons_ptr = np.zeros(T + 1, dtype=np.int64)
        np.cumsum(np.bincount(prod_e, minlength=T), out=cons_ptr[1:])

        return TileGraph(
            program=program,
            params=params,
            tile_array=tile_array,
            work_array=work_array,
            prod_ptr=prod_ptr,
            prod_rows=prod_e[order],
            prod_delta=did_e[order],
            cons_ptr=cons_ptr,
            cons_rows=cons_e[order2],
            cons_delta=did_e[order2],
            cons_cells=cell_e[order2],
        )

    # -- array-level accessors (the executor/simulator interface) ------------

    @property
    def tile_tuples(self) -> List[TileIndex]:
        """Row -> tile index tuple (row number is the tile's lex rank)."""
        if self._tile_tuples is None:
            self._tile_tuples = [tuple(r) for r in self.tile_array.tolist()]
        return self._tile_tuples

    def row_of(self, tile: TileIndex) -> int:
        """The tile's row (its lexicographic rank); raises for non-tiles."""
        index = self._dict_cache.get("row_of")
        if index is None:
            index = {t: r for r, t in enumerate(self.tile_tuples)}
            self._dict_cache["row_of"] = index
        try:
            return index[tuple(tile)]
        except KeyError:
            raise RuntimeExecutionError(
                f"{tuple(tile)} is not a valid tile"
            ) from None

    def producer_edges(self, row: int) -> List[Tuple[int, int]]:
        """Incoming edges of one row: ``(producer_row, delta_id)`` in the
        program's delta order — the order the unpack loop wants."""
        ptr = self.prod_ptr
        return [
            (int(self.prod_rows[e]), int(self.prod_delta[e]))
            for e in range(int(ptr[row]), int(ptr[row + 1]))
        ]

    def dependency_count_array(self) -> np.ndarray:
        """Producer count per row, int32 (copy — safe to decrement)."""
        return np.diff(self.prod_ptr).astype(np.int32)

    def initial_rows(self) -> np.ndarray:
        """Rows with no valid producer, ascending (lex order)."""
        return np.flatnonzero(np.diff(self.prod_ptr) == 0)

    def wavefront_levels(self) -> np.ndarray:
        """Static wavefront level of every row (longest producer path).

        Level 0 is the initial front; a tile's level is one more than
        the deepest of its producers, so the rows of level L form the
        L-th wavefront of the DAG: mutually independent, and ready the
        moment every earlier level has finished.  This is the static
        schedule of the batch-drain scheduler
        (:meth:`repro.runtime.scheduler.TileScheduler.start_batch`) —
        computed once per graph with vectorized Kahn propagation over
        the CSR arrays, then cached.
        """
        cached = self._dict_cache.get("wavefront_levels")
        if cached is None:
            T = self.tile_array.shape[0]
            indeg = np.diff(self.prod_ptr)
            levels = np.zeros(T, dtype=np.int64)
            ptr = self.cons_ptr
            cons = self.cons_rows
            frontier = np.flatnonzero(indeg == 0)
            level = 0
            seen = int(frontier.size)
            while frontier.size:
                levels[frontier] = level
                counts = ptr[frontier + 1] - ptr[frontier]
                total = int(counts.sum())
                if total == 0:
                    break
                starts = np.repeat(ptr[frontier], counts)
                offsets = np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts
                )
                consumers = cons[starts + offsets]
                dec = np.bincount(consumers, minlength=T)
                indeg = indeg - dec
                frontier = np.flatnonzero((indeg == 0) & (dec > 0))
                level += 1
                seen += int(frontier.size)
            if seen != T:
                raise RuntimeExecutionError(
                    f"tile graph has a cycle: only {seen} of {T} tiles "
                    "are reachable from the initial front"
                )
            cached = levels
            self._dict_cache["wavefront_levels"] = cached
        return cached

    def priority_tuples(self, scheme: str = "lb-first") -> List[tuple]:
        """Row -> priority key tuple, identical to ``program.priority``.

        Computed vectorized over the whole tile array and cached per
        scheme; heap entries ``(key[row], row)`` order exactly like the
        scalar ``(priority(tile), tile)`` entries because the row number
        is the tile's lexicographic rank.
        """
        cached = self._priority_cache.get(scheme)
        if cached is None:
            keys = make_priority_array(
                self.program.spec, scheme, self.tile_array
            )
            cached = [tuple(k) for k in keys.tolist()]
            self._priority_cache[scheme] = cached
        return cached

    def lb_key_rows(self) -> np.ndarray:
        """``(T, len(lb_dims))`` projection of every tile onto the lb dims."""
        spec = self.program.spec
        cols = [spec.loop_vars.index(x) for x in spec.lb_dims]
        return self.tile_array[:, cols]

    def slab_work(self) -> Dict[Tuple[int, ...], int]:
        """Iteration points per load-balancing slab, from the graph.

        A slab's work is the sum of its tiles' work, so this agrees
        exactly with :func:`repro.generator.loadbalance.compute_slab_work`
        without any fresh compiled scans.
        """
        keys = self.lb_key_rows()
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        sums = np.zeros(uniq.shape[0], dtype=np.int64)
        np.add.at(sums, inverse, self.work_array)
        return {
            tuple(k): int(s) for k, s in zip(uniq.tolist(), sums.tolist())
        }

    # -- dict-shaped views (tooling, recovery, tests) -------------------------

    @property
    def tiles(self) -> Set[TileIndex]:
        cached = self._dict_cache.get("tiles")
        if cached is None:
            cached = set(self.tile_tuples)
            self._dict_cache["tiles"] = cached
        return cached

    @property
    def producers(self) -> Dict[TileIndex, Tuple[TileIndex, ...]]:
        cached = self._dict_cache.get("producers")
        if cached is None:
            tt = self.tile_tuples
            ptr = self.prod_ptr.tolist()
            rows = self.prod_rows.tolist()
            cached = {
                tt[r]: tuple(tt[p] for p in rows[ptr[r]:ptr[r + 1]])
                for r in range(len(tt))
            }
            self._dict_cache["producers"] = cached
        return cached

    @property
    def consumers(self) -> Dict[TileIndex, Tuple[TileIndex, ...]]:
        cached = self._dict_cache.get("consumers")
        if cached is None:
            tt = self.tile_tuples
            ptr = self.cons_ptr.tolist()
            rows = self.cons_rows.tolist()
            cached = {
                tt[r]: tuple(tt[c] for c in rows[ptr[r]:ptr[r + 1]])
                for r in range(len(tt))
            }
            self._dict_cache["consumers"] = cached
        return cached

    @property
    def work(self) -> Dict[TileIndex, int]:
        cached = self._dict_cache.get("work")
        if cached is None:
            cached = dict(zip(self.tile_tuples, self.work_array.tolist()))
            self._dict_cache["work"] = cached
        return cached

    @property
    def edge_cells(self) -> Dict[Edge, int]:
        cached = self._dict_cache.get("edge_cells")
        if cached is None:
            tt = self.tile_tuples
            ptr = self.cons_ptr.tolist()
            rows = self.cons_rows.tolist()
            cells = self.cons_cells.tolist()
            cached = {}
            for r in range(len(tt)):
                for e in range(ptr[r], ptr[r + 1]):
                    cached[(tt[r], tt[rows[e]])] = cells[e]
            self._dict_cache["edge_cells"] = cached
        return cached

    # -- derived quantities --------------------------------------------------

    def initial_tiles(self) -> Set[TileIndex]:
        """Tiles with no valid producer (the runtime's seed set)."""
        tt = self.tile_tuples
        return {tt[r] for r in self.initial_rows().tolist()}

    def total_work(self) -> int:
        return int(self.work_array.sum())

    def dependency_counts(self) -> Dict[TileIndex, int]:
        return dict(
            zip(self.tile_tuples, np.diff(self.prod_ptr).tolist())
        )

    def num_edges(self) -> int:
        return int(self.cons_rows.shape[0])

    def validate_acyclic(self) -> None:
        """Sanity check: the tile DAG must admit a topological order."""
        indeg = self.dependency_count_array()
        ptr = self.cons_ptr
        rows = self.cons_rows
        ready = np.flatnonzero(indeg == 0).tolist()
        seen = 0
        while ready:
            r = ready.pop()
            seen += 1
            for e in range(ptr[r], ptr[r + 1]):
                c = rows[e]
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if seen != len(self.tile_array):
            raise RuntimeExecutionError(
                f"tile dependency graph has a cycle: only {seen} of "
                f"{len(self.tile_array)} tiles are reachable"
            )

    def validate_schedule(self, order: Sequence[TileIndex]) -> None:
        """Check that *order* is a legal execution of this graph.

        Every tile must appear exactly once, and strictly after all of
        its producers.  Raises :class:`RuntimeExecutionError` with the
        first violation — used by tests and by simulator debugging.
        """
        position: Dict[TileIndex, int] = {}
        for idx, tile in enumerate(order):
            if tile in position:
                raise RuntimeExecutionError(
                    f"tile {tile} appears twice in the schedule"
                )
            if tile not in self.tiles:
                raise RuntimeExecutionError(
                    f"schedule contains unknown tile {tile}"
                )
            position[tile] = idx
        missing = self.tiles - position.keys()
        if missing:
            raise RuntimeExecutionError(
                f"schedule misses {len(missing)} tiles (e.g. "
                f"{next(iter(missing))})"
            )
        for tile in order:
            for producer in self.producers[tile]:
                if position[producer] >= position[tile]:
                    raise RuntimeExecutionError(
                        f"tile {tile} scheduled before its producer "
                        f"{producer}"
                    )

    def critical_path_work(self) -> int:
        """Longest producer->consumer chain weighted by tile work.

        Lower-bounds the makespan of any schedule; the simulator reports
        it alongside measured spans.
        """
        indeg = self.dependency_count_array()
        work = self.work_array
        ptr = self.cons_ptr
        rows = self.cons_rows
        longest = np.zeros(len(work), dtype=np.int64)
        ready = np.flatnonzero(indeg == 0).tolist()
        for r in ready:
            longest[r] = work[r]
        best = 0
        while ready:
            r = ready.pop()
            base = longest[r]
            if base > best:
                best = int(base)
            for e in range(ptr[r], ptr[r + 1]):
                c = rows[e]
                cand = base + work[c]
                if cand > longest[c]:
                    longest[c] = cand
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return best


class _RowIndex:
    """Tile index -> row lookup over the tile bounding box.

    Dense ravel grid when the box is small enough (one fancy-indexing
    gather per delta), hash map fallback for pathologically sparse
    spaces.
    """

    def __init__(self, tile_array: np.ndarray):
        self.lo = tile_array.min(axis=0)
        self.hi = tile_array.max(axis=0)
        shape = self.hi - self.lo + 1
        self.shape = tuple(int(s) for s in shape)
        size = 1
        for s in self.shape:
            size *= s
        if size <= max(_DENSE_GRID_LIMIT, 4 * tile_array.shape[0]):
            grid = np.full(size, -1, dtype=np.int64)
            lin = np.ravel_multi_index(
                tuple((tile_array - self.lo).T), self.shape
            )
            grid[lin] = np.arange(tile_array.shape[0])
            self.grid = grid
            self.map = None
        else:
            lin = np.ravel_multi_index(
                tuple((tile_array - self.lo).T), self.shape, mode="wrap"
            )
            self.grid = None
            self.map = dict(
                zip(lin.tolist(), range(tile_array.shape[0]))
            )

    def lookup(self, shifted: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows whose shifted tile is a valid tile.

        Returns ``(query_rows, target_rows)``: for every row ``i`` of
        *shifted* that names a valid tile, its position and that tile's
        row.
        """
        inbox = np.all(
            (shifted >= self.lo) & (shifted <= self.hi), axis=1
        )
        rows = np.flatnonzero(inbox)
        if rows.size == 0:
            return rows, rows
        lin = np.ravel_multi_index(
            tuple((shifted[rows] - self.lo).T), self.shape
        )
        if self.grid is not None:
            target = self.grid[lin]
        else:
            get = self.map.get
            target = np.asarray(
                [get(v, -1) for v in lin.tolist()], dtype=np.int64
            )
        ok = target >= 0
        return rows[ok], target[ok]


def tile_graph(
    program: GeneratedProgram, params: Mapping[str, int]
) -> TileGraph:
    """The per-program memoized graph: build once per parameter set.

    ``execute()``, ``simulate_program()`` and the load balancer all run
    off the same instance instead of rebuilding the graph per call; a
    small LRU (:data:`_GRAPH_CACHE_SIZE` parameter sets) bounds memory
    across sweeps.
    """
    key = tuple(sorted(params.items()))
    cache: "OrderedDict[tuple, TileGraph]" = getattr(
        program, "_tile_graph_cache", None
    )
    if cache is None:
        cache = OrderedDict()
        program._tile_graph_cache = cache
    graph = cache.get(key)
    if graph is None:
        graph = TileGraph.build(program, params)
        cache[key] = graph
        if len(cache) > _GRAPH_CACHE_SIZE:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return graph
