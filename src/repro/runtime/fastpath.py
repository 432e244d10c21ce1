"""The array engine: the executor's fast path.

The interpreter in :mod:`repro.runtime.executor` evaluates a tile
cell-by-cell — per-point dict construction plus a Python-level kernel
call — which is the single hottest path of the whole system.  For specs
that carry a :data:`~repro.spec.VectorKernel` (an array-level twin of the
scalar kernel) this module is the runtime's second, and only other,
evaluator: a **masked lane gather** over any number of mutually
independent tiles, dispatched one tile at a time
(:meth:`VectorTileEngine.execute_tile`: ``mode="vector"`` and solution
recovery) or one ready front at a time
(:meth:`WavefrontRun.execute_batch`: ``mode="wavefront"``).

1. **Validity masks** — every in-space constraint and ``is_valid_r*``
   check is a linear inequality over the global coordinates.  Its value
   over a tile's local box splits into a tile-invariant array part
   (precomputed once per program) plus a per-tile scalar base.  Interval
   analysis runs batched: one integer matmul yields the base of every
   part for every tile; a part that is uniform over a tile's box (the
   min/max of its array part decides) stays a per-tile scalar, and only
   the mixed (tile, part) pairs are compared against the box
   (``lin >= -base``), giving the in-space mask and one validity mask
   per template.

2. **Lane gather by level** — box cells are grouped by the level
   function ``level(i) = sum_k dir_k * i_k`` (the anti-diagonal level
   sets of the local box under the spec's scan directions).  Every
   template vector strictly decreases the level (checked at
   construction; programs where some template does not are unsupported
   and fall back to the interpreter), so within one level no cell
   depends on another: the in-space cells of *all* tiles at hand are
   gathered through precomputed flat offsets into the padded array (one
   interior offset per box cell, one integer shift per template), handed
   to the vector kernel in one call, and scattered back in place.
   Ragged boundary tiles are lanes of the same calls as full ones;
   out-of-space interior cells are never written and stay NaN.  At most
   :data:`CELL_BUDGET` box cells are evaluated per sub-batch, which
   bounds the masks and index arrays however wide a front is.

3. **Edges are array slices** — a packed edge is the producer's
   static face slab selected by its in-space mask
   (:meth:`VectorTileEngine.pack_edge` / :meth:`~VectorTileEngine.unpack_edge`),
   byte for byte the buffer :class:`~repro.generator.packing.PackPlan`
   scans cell by cell.  Within one rank of a front-at-a-time run an
   edge is not packed at all: the consumer's ghost margin is filled by
   slicing the producer's retained interior (the same slab, the same
   window).  Packed edges survive at rank boundaries (SPMD) — exactly
   the edges the generated C sends over MPI — and, under
   ``keep_edges``, everywhere.

Who owns what: :class:`VectorTileEngine` everything derived once per
program, :class:`LaneGather` the evaluation and what it needs per run
(engine, parameters, the optional ``values`` record — no graph, no
scheduler), :class:`WavefrontRun` what a front-at-a-time run adds (the
batch arena, retained interiors and their refcounts).

The engine is bit-identical to the interpreter: vector kernels are
lane-wise and apply the same IEEE operations in the same order, so
gathering the cells of one tile or of many into a lane array feeds every
cell the same dependency values.  The cross-check suites
(tests/test_fastpath.py, tests/test_wavefront.py) pin every bundled
problem, under both dispatch granularities, to the interpreter and to
``solve_reference`` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import GenerationError, RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..polyhedra import Constraint
from .native import NativeTileLibrary

__all__ = [
    "FRONT_MODES",
    "VectorTileEngine",
    "WavefrontRun",
    "vector_unsupported_reason",
]

#: Resolved modes that take a rank's whole ready front per turn; they
#: differ only in what :meth:`LaneGather._evaluate` runs over the batch.
FRONT_MODES = ("wavefront", "native")


# Box cells (tiles x cells per box) evaluated per sub-batch of a front:
# bounds the masks and per-lane index arrays.
CELL_BUDGET = 1 << 17


def vector_unsupported_reason(program: GeneratedProgram) -> Optional[str]:
    """Why the vectorized fast path cannot run *program* (None = it can).

    Dispatch rules (documented in docs/architecture.md): the spec must
    provide a vector kernel, and every template vector must strictly
    decrease the wavefront level function ``sum_k dir_k * i_k`` so that
    level sets are data-parallel.
    """
    spec = program.spec
    if spec.vector_kernel is None:
        return f"problem {spec.name!r} has no vector kernel"
    directions = spec.scan_directions()
    for name, vec in spec.templates.items():
        step = sum(directions[x] * r for x, r in zip(spec.loop_vars, vec))
        if step >= 0:
            return (
                f"template {name!r} does not decrease the wavefront level "
                f"(direction-weighted step {step:+d}); level sets are not "
                "data-parallel"
            )
    return None


def _affine_parts(
    constraint: Constraint,
    loop_vars: Sequence[str],
    widths: Sequence[int],
    grids: np.ndarray,
):
    """Split ``a.x + c`` into (const, param terms, tile coeffs, box array).

    With ``x_k = w_k * t_k + i_k`` the constraint value over a tile's
    local box is ``const + sum_p b_p p + sum_k a_k w_k t_k`` (a per-tile
    scalar) plus ``sum_k a_k i_k`` (a tile-invariant array over the box).
    """
    expr = constraint.expr
    const = expr.constant
    if const.denominator != 1:
        raise RuntimeExecutionError(f"non-integral check constraint {constraint}")
    loop_set = set(loop_vars)
    param_items: List[Tuple[str, int]] = []
    tile_coefs = [0] * len(loop_vars)
    lin: Optional[np.ndarray] = None
    for name, coef in expr.terms():
        if coef.denominator != 1:
            raise RuntimeExecutionError(
                f"non-integral check constraint {constraint}"
            )
        c = coef.numerator
        if name in loop_set:
            k = loop_vars.index(name)
            tile_coefs[k] = c * widths[k]
            contrib = c * grids[k]
            lin = contrib if lin is None else lin + contrib
        else:
            param_items.append((name, c))
    if lin is None:
        lo = hi = 0
    else:
        lo = int(lin.min())
        hi = int(lin.max())
    return {
        "const": const.numerator,
        "param_items": tuple(param_items),
        "tile_coefs": tuple(tile_coefs),
        "lin": lin,
        "lin_min": lo,
        "lin_max": hi,
        "is_eq": constraint.is_equality(),
    }


class VectorTileEngine:
    """Everything the array engine derives once per program.

    Slab geometry (the interior of a padded array, the per-delta face
    slabs and ghost windows), the array pack/unpack over it, the affine
    parts of every in-space constraint and validity check, and the
    lane-gather tables of :class:`LaneGather` — shared by every tile of
    every run of the program.  Nothing here depends on the run's
    parameters; what does lives in :class:`LaneGather`.
    """

    def __init__(self, program: GeneratedProgram):
        reason = vector_unsupported_reason(program)
        if reason is not None:
            raise RuntimeExecutionError(
                f"vectorized execution unsupported: {reason}"
            )
        spec = program.spec
        layout = program.layout
        self.program = program
        self.spec = spec
        self.layout = layout
        self.loop_vars = spec.loop_vars
        self.widths = spec.tile_width_vector()
        self.padded_shape = tuple(layout.padded_shape)
        # Read per kernel call, never cached: tracers wrap this
        # attribute from outside.
        self.vector_kernel = spec.vector_kernel
        self.deltas = list(program.deltas)
        self.interior_slices = tuple(
            slice(lo, lo + w) for lo, w in zip(layout.ghost_lo, self.widths)
        )

        # Edge geometry per delta (producer = consumer + delta): the
        # producer-interior face slab a neighbour can see, and the
        # window of the consumer's padded array it lands in.  With
        # ``i_consumer = i_producer + w_k * delta_k`` both are static.
        self.fill_slices: Dict[tuple, Tuple[tuple, tuple]] = {}
        for delta in self.deltas:
            src: List[slice] = []
            dst: List[slice] = []
            for d, w, lo, hi in zip(
                delta, self.widths, layout.ghost_lo, layout.ghost_hi
            ):
                p_lo = max(0, -lo - d * w)
                p_hi = min(w, w + hi - d * w)
                src.append(slice(p_lo, p_hi))
                dst.append(slice(p_lo + d * w + lo, p_hi + d * w + lo))
            self.fill_slices[delta] = (tuple(src), tuple(dst))
        # The same pairs by delta id, as the graph's CSR names them.
        self._fills = [self.fill_slices[delta] for delta in self.deltas]

        # Affine data for the in-space constraints and the validity
        # checks, stacked into one (d, P) tile-coefficient matrix so a
        # single integer matmul yields the per-tile scalar base of every
        # part for a whole batch.
        ndim = len(self.loop_vars)
        grids = np.indices(self.widths)
        self._space_parts = [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in spec.constraints
        ]
        self._parts = self._space_parts + [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in program.validity.checks
        ]
        self._coef = np.array(
            [p["tile_coefs"] for p in self._parts], dtype=np.int64
        ).reshape(-1, ndim).T
        # Mask planes each part constrains: 0 is the in-space mask,
        # 1 + t the validity of template t.
        self._templates = list(spec.templates.names())
        per_template = program.validity.per_template
        self._part_planes: List[List[int]] = [
            [0] for _ in self._space_parts
        ] + [
            [
                1 + t
                for t, name in enumerate(self._templates)
                if idx in per_template[name]
            ]
            for idx in range(len(program.validity.checks))
        ]

        # Lane-gather geometry.  Box cells are kept in intra-tile level
        # order (the level function's stable argsort), so the lanes of
        # one level are one contiguous run of any level-ordered lane
        # array.
        directions = spec.scan_directions()
        levels = np.zeros(self.widths, dtype=np.int64)
        for k, x in enumerate(self.loop_vars):
            levels += directions[x] * grids[k]
        levels = levels.reshape(-1)
        order = np.argsort(levels, kind="stable")
        self._level_ends = (
            np.flatnonzero(np.diff(levels[order])) + 1
        ).tolist() + [levels.size]
        self._cell_coords = grids.reshape(ndim, -1)[:, order]
        self._cell_offset = np.ravel_multi_index(
            tuple(self._cell_coords + np.asarray(layout.ghost_lo)[:, None]),
            self.padded_shape,
        )
        self._plane = int(np.prod(self.padded_shape))
        strides = [
            int(np.prod(self.padded_shape[k + 1:])) for k in range(ndim)
        ]
        self._shifts = np.array(
            [
                [sum(s * r for s, r in zip(strides, vec))]
                for _, vec in spec.templates.items()
            ],
            dtype=np.int64,
        )
        self._lin = [
            None if p["lin"] is None else p["lin"].reshape(-1)[order]
            for p in self._parts
        ]

    # -- per-tile affine evaluation ------------------------------------------

    def _eval_parts(self, parts, tile, params):
        """Constraint truth over the box: scalar bool or boolean array."""
        base = parts["const"]
        for name, c in parts["param_items"]:
            base += c * params[name]
        for k, c in enumerate(parts["tile_coefs"]):
            if c:
                base += c * tile[k]
        lin = parts["lin"]
        if parts["is_eq"]:
            if lin is None:
                return base == 0
            if base + parts["lin_min"] > 0 or base + parts["lin_max"] < 0:
                return False
            return (base + lin) == 0
        if lin is None:
            return base >= 0
        if base + parts["lin_min"] >= 0:
            return True
        if base + parts["lin_max"] < 0:
            return False
        return (base + lin) >= 0

    def _in_space_mask(self, tile, params) -> Optional[np.ndarray]:
        """Boolean box mask of iteration-space cells; None = whole box."""
        mask: Optional[np.ndarray] = None
        for parts in self._space_parts:
            m = self._eval_parts(parts, tile, params)
            if m is True:
                continue
            if m is False:
                return np.zeros(self.widths, dtype=bool)
            mask = m if mask is None else (mask & m)
        return mask

    # -- array pack / unpack ---------------------------------------------------

    def pack_edge(
        self,
        tile: Tuple[int, ...],
        delta: Tuple[int, ...],
        array: np.ndarray,
        params: Mapping[str, int],
    ) -> np.ndarray:
        """The packed edge *tile* sends along *delta*, from its padded *array*.

        The face slab's in-space cells in C order — the lexicographic
        scan of :meth:`repro.generator.packing.PackPlan.pack`, without
        visiting cells one by one.
        """
        src, _ = self.fill_slices[delta]
        slab = array[self.interior_slices][src]
        mask = self._in_space_mask(tile, params)
        if mask is None:
            return slab.reshape(-1).copy()
        return slab[mask[src]]

    def unpack_edge(
        self,
        producer: Tuple[int, ...],
        delta: Tuple[int, ...],
        buffer: np.ndarray,
        array: np.ndarray,
        params: Mapping[str, int],
    ) -> None:
        """Scatter *producer*'s packed edge into the consumer's ghost margin.

        The array twin of :meth:`repro.generator.packing.PackPlan.unpack`:
        the same cells in the same order, selected by the *producer's*
        in-space mask over its face slab.
        """
        src, dst = self.fill_slices[delta]
        window = array[dst]
        mask = self._in_space_mask(producer, params)
        if mask is not None:
            mask = mask[src]
        cells = window.size if mask is None else int(np.count_nonzero(mask))
        if cells != len(buffer):
            raise GenerationError(
                f"unpack consumed {cells} cells but the buffer holds "
                f"{len(buffer)}; pack/unpack iteration spaces diverged"
            )
        if mask is None:
            window[...] = buffer.reshape(window.shape)
        else:
            window[mask] = buffer

    # -- tile execution -------------------------------------------------------

    def execute_tile(
        self,
        tile: Tuple[int, ...],
        array: np.ndarray,
        params: Mapping[str, int],
        values: Optional[Dict[Tuple[int, ...], float]] = None,
        native: Optional[NativeTileLibrary] = None,
    ) -> int:
        """Evaluate the recurrence on every in-space cell of *tile*.

        *array* is the padded tile array (C-contiguous, as the drivers'
        arena planes and recovery's scratch arrays are) with ghost
        margins already unpacked.  The one-tile case of the lane gather
        :meth:`WavefrontRun.execute_batch` runs over a front.  Returns
        the number of cells computed; records every cell into *values*
        when given (keys are global-coordinate tuples, exactly as the
        interpreter produces them), evaluating with *native* if given.
        """
        if not array.flags.c_contiguous:
            raise RuntimeExecutionError(
                f"tile {tile}: the padded array must be C-contiguous"
            )
        one = LaneGather(self, params, values, native)
        one._evaluate(array.reshape(-1), 0, np.array([tile], dtype=np.int64))
        return one.cells


class LaneGather:
    """The array evaluation, for any number of independent tiles.

    Per run of it: the parameter-folded base of every affine part, the
    cell count and the optional ``values`` record.  It needs the engine,
    the run's parameters and nothing else — no graph, no scheduler — so
    one recomputed tile (:meth:`VectorTileEngine.execute_tile`) and a
    whole front (:class:`WavefrontRun`) are evaluated by the same
    :meth:`_masks` -> :meth:`_lanes` -> :meth:`_evaluate` — the level
    loop or, given *native*, the compiled tile body over the same planes.
    """

    def __init__(
        self,
        engine: VectorTileEngine,
        params: Mapping[str, int],
        values: Optional[Dict[Tuple[int, ...], float]] = None,
        native: Optional[NativeTileLibrary] = None,
    ):
        self.engine = engine
        self.params = dict(params)
        self.values = values
        self.native = native
        self.cells = 0
        self._param_vec = np.array(
            [self.params[p] for p in engine.spec.params], dtype=np.int64
        )
        # Per-part scalar base with the run's parameters folded in; the
        # batch classification only adds the tile term.
        self._base0 = np.asarray(
            [
                p["const"]
                + sum(c * self.params[name] for name, c in p["param_items"])
                for p in engine._parts
            ],
            dtype=np.int64,
        )

    # -- batched interval analysis -------------------------------------------

    def _masks(self, tiles_arr: np.ndarray) -> np.ndarray:
        """In-space and per-template validity masks for a sub-batch.

        A ``(1 + T, B, C)`` boolean array over the engine's
        level-ordered box cells — plane 0 is the in-space mask, plane
        ``1 + t`` the validity of template ``t`` in spec order.  A part
        that interval analysis finds uniform over a tile's box
        contributes a per-tile scalar; only the mixed (tile, part) pairs
        are compared against the box.
        """
        eng = self.engine
        vals = self._base0[None, :] + tiles_arr @ eng._coef
        masks = np.ones(
            (1 + len(eng._templates), len(tiles_arr), eng._cell_offset.size),
            dtype=bool,
        )
        for i, p in enumerate(eng._parts):
            v = vals[:, i]
            lo = v + p["lin_min"]
            hi = v + p["lin_max"]
            if p["is_eq"]:
                passing = (lo <= 0) & (hi >= 0)
                mixed = passing & (lo != hi)
            else:
                mixed = (lo < 0) & (hi >= 0)
                passing = hi >= 0
            planes = eng._part_planes[i]
            for plane in planes:
                masks[plane] &= passing[:, None]
            if mixed.any():
                # Compared straight to bool: no int64 (B, C) temporary.
                neg = -v[mixed, None]
                box = eng._lin[i] == neg if p["is_eq"] else eng._lin[i] >= neg
                for plane in planes:
                    masks[plane, mixed] &= box
        return masks

    def _lanes(self, space: np.ndarray):
        """Every in-space lane of a sub-batch, listed once.

        *space* is the ``(B, C)`` in-space plane of :meth:`_masks`.
        Returns ``(ci, bi, cuts)``: lane ``k`` is level-ordered box cell
        ``ci[k]`` of tile ``bi[k]``, lanes ascending by cell and then
        tile.  Box cells are level-ordered, so the lanes of intra-tile
        level ``l`` are the slice ``cuts[l]:cuts[l + 1]`` of both arrays
        — the lanes ``np.nonzero(space[:, lo:hi])`` finds for that
        level's cell range, without a strided scan per level.
        """
        B = space.shape[0]
        bi = np.flatnonzero(space.T)  # cell * B + tile, ascending
        ci = bi // B
        bi -= ci * B
        cuts = np.searchsorted(ci, self.engine._level_ends)
        return ci, bi, [0] + cuts.tolist()

    def _poisoned(self, tile, name: str, where) -> RuntimeExecutionError:
        return RuntimeExecutionError(
            f"tile {tuple(tile)}: dependency {name} of point "
            f"{dict(zip(self.engine.loop_vars, where))} is valid but its "
            "value was never computed or delivered"
        )

    def _evaluate(self, flat: np.ndarray, b0: int, tiles_arr: np.ndarray):
        """Evaluate batch rows ``b0:b0+len(tiles_arr)`` in place.

        *flat* is the whole batch array (one tile's padded array is a
        batch of one), flattened.  The one place that chooses the
        evaluator: one call into the compiled tile body when the run has
        one, else the level loop — per intra-tile level, the in-space
        cells of every tile become the lanes of one kernel call and the
        result is scattered back in place.  Either way a valid
        dependency that reads NaN raises, naming tile, template and
        point.  The lane list and its index into the validity planes are
        built once per sub-batch (:meth:`_lanes`); a level slices them.
        """
        eng = self.engine
        loop_vars = eng.loop_vars
        names = eng._templates
        if self.native is not None:
            cells, bad = self.native.run(tiles_arr, flat, b0, self._param_vec)
            if bad is not None:
                raise self._poisoned(
                    tiles_arr[bad[1]].tolist(), names[bad[0]], bad[2:]
                )
            self.cells += cells
            if self.values is not None:  # from the level loop's listing
                ci, bi, _ = self._lanes(self._masks(tiles_arr)[0])
                here = eng._cell_offset.take(ci) + (b0 + bi) * eng._plane
                coords = eng._cell_coords.take(ci, axis=1)
                coords += (tiles_arr.take(bi, axis=0) * eng.widths).T
                self.values.update(
                    zip(map(tuple, coords.T.tolist()), flat[here].tolist())
                )
            return
        masks = self._masks(tiles_arr)
        space, validity = masks[0], masks[1:]
        plane0 = (b0 + np.arange(len(tiles_arr))) * eng._plane
        base = np.ascontiguousarray(
            (tiles_arr * np.asarray(eng.widths, dtype=np.int64)).T
        )
        vflat = validity.reshape(len(names), -1)
        lane_cell, lane_tile, cuts = self._lanes(space)
        self.cells += lane_cell.size
        lane_valid = lane_tile * space.shape[1]  # a lane's index into vflat
        lane_valid += lane_cell
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:
                continue
            ci = lane_cell[lo:hi]
            bi = lane_tile[lo:hi]
            here = eng._cell_offset.take(ci) + plane0.take(bi)
            coords = eng._cell_coords.take(ci, axis=1)
            coords += base.take(bi, axis=1)
            vals = flat.take(here + eng._shifts)
            vmask = vflat.take(lane_valid[lo:hi], axis=1)
            bad = np.isnan(vals) & vmask
            if bad.any():
                t, j = (int(a[0]) for a in np.nonzero(bad))
                raise self._poisoned(
                    tiles_arr[int(bi[j])].tolist(), names[t],
                    coords[:, j].tolist(),
                )
            flat[here] = np.asarray(
                eng.vector_kernel(
                    dict(zip(loop_vars, coords)),
                    dict(zip(names, vals)),
                    dict(zip(names, vmask)),
                    self.params,
                ),
                dtype=np.float64,
            )
            if self.values is not None:
                self.values.update(
                    zip(map(tuple, coords.T.tolist()), flat[here].tolist())
                )


class WavefrontRun(LaneGather):
    """What a front-at-a-time run adds to :class:`LaneGather`.

    Every simultaneously-ready tile of one static wavefront level (see
    :meth:`repro.runtime.scheduler.TileScheduler.start_batch`) shares a
    single padded ghost array of shape ``(B, *padded_shape)``, and this
    class owns its per-front state: the retained tile interiors (the
    slice-copy substitute for packed interior edges) and their
    refcounts (number of *same-rank* consumers still to run).  With
    *keep_edges* every edge arrives packed (the driver retains them
    all), so no interior is retained at all.  Drivers call
    :meth:`execute_batch` once per drained front and
    :meth:`verify_drained` after the loop.  Every tile of a front, full
    or ragged, is a set of lanes of the one evaluation; the per-tile
    entry point ``execute_tile`` is never called from here.

    *arena* is an optional externally-owned ``(cap, *padded_shape)``
    float64 buffer backing the batch ghost arrays: when given,
    :meth:`execute_batch` evaluates the front in place in ``arena[:B]``
    instead of allocating a fresh array per front, and a front wider
    than ``cap`` raises (drivers size the arena from the static front
    widths, so that is a sizing bug, not a case to serve slowly).  The
    process-parallel SPMD backend (:mod:`repro.runtime.parallel`) hands
    each rank a view into a ``multiprocessing.shared_memory`` segment
    here, and the single-rank driver reuses one heap allocation across
    every front.  A returned batch is only valid until the next
    :meth:`execute_batch` call.
    """

    def __init__(
        self,
        engine: VectorTileEngine,
        graph,
        params: Mapping[str, int],
        rank_of: Optional[Sequence[int]] = None,
        values: Optional[Dict[Tuple[int, ...], float]] = None,
        arena: Optional[np.ndarray] = None,
        keep_edges: bool = False,
        native: Optional[NativeTileLibrary] = None,
    ):
        super().__init__(engine, params, values, native)
        self.graph = graph
        if arena is not None:
            expected = engine.padded_shape
            if (
                arena.ndim != len(expected) + 1
                or tuple(arena.shape[1:]) != expected
                or arena.dtype != np.float64
                or not arena.flags.c_contiguous
            ):
                raise RuntimeExecutionError(
                    f"wavefront arena must be C-contiguous float64 with "
                    f"shape (cap, {', '.join(map(str, expected))}); got "
                    f"{arena.dtype} {tuple(arena.shape)}"
                )
        self._arena = arena
        self._store: Dict[int, np.ndarray] = {}
        self._refs: Dict[int, int] = {}
        # How many consumers of each row read its interior through the
        # shared array (same rank); cross-rank consumers go through
        # packed edges and are not counted.
        counts = np.diff(graph.cons_ptr)
        if keep_edges:
            self._nlocal = np.zeros(counts.size, dtype=np.int64)
        elif rank_of is None:
            self._nlocal = counts.astype(np.int64)
        else:
            r = np.asarray(rank_of, dtype=np.int64)
            owner = np.repeat(np.arange(counts.size), counts)
            same = r[owner] == r[graph.cons_rows]
            self._nlocal = np.bincount(
                owner[same], minlength=counts.size
            ).astype(np.int64)

    # -- batch execution ------------------------------------------------------

    def execute_batch(
        self,
        rows: Sequence[int],
        packed: Optional[Dict[Tuple[int, int], np.ndarray]] = None,
    ) -> np.ndarray:
        """Evaluate one drained front; returns the batch padded array.

        *rows* are mutually independent (one ``start_batch`` result).
        *packed* maps ``(producer_row, row)`` to a packed edge buffer
        for edges that crossed a rank boundary (under ``keep_edges``:
        every edge) and is emptied as they are array-unpacked; an entry
        no row of this front consumes raises.  Every other incoming
        edge is ghost-filled by slicing the producer's retained
        interior.  The returned ``(B, *padded_shape)`` array row ``b``
        is tile ``rows[b]``'s padded array — drivers read objective
        cells and pack outgoing cross-rank edges from it.
        """
        eng = self.engine
        graph = self.graph
        B = len(rows)
        arena = self._arena
        if arena is None:
            batch = np.full(
                (B,) + eng.padded_shape, np.nan, dtype=np.float64
            )
        elif B > arena.shape[0]:
            raise RuntimeExecutionError(
                f"front of {B} tiles exceeds the wavefront arena's "
                f"capacity of {arena.shape[0]}"
            )
        else:
            batch = arena[:B]
            batch.fill(np.nan)
        # The front's slice of the producer CSR, as Python ints, once.
        rows_arr = np.asarray(rows, dtype=np.int64)
        starts = graph.prod_ptr[rows_arr].tolist()
        ends = graph.prod_ptr[rows_arr + 1].tolist()
        prows = graph.prod_rows
        pdelta = graph.prod_delta
        deltas = eng.deltas
        fills = eng._fills
        store = self._store
        refs = self._refs
        unpack_edge = eng.unpack_edge
        tt = graph.tile_tuples
        for b, (row, lo, hi) in enumerate(zip(rows, starts, ends)):
            arr = batch[b]
            for p, k in zip(prows[lo:hi].tolist(), pdelta[lo:hi].tolist()):
                buf = packed.pop((p, row), None) if packed else None
                if buf is not None:
                    unpack_edge(tt[p], deltas[k], buf, arr, self.params)
                    continue
                interior = store.get(p)
                if interior is None:
                    raise RuntimeExecutionError(
                        f"tile {tt[row]} started before the interior of "
                        f"its producer {tt[p]} was retained"
                    )
                src, dst = fills[k]
                arr[dst] = interior[src]
                refs[p] -= 1
                if refs[p] == 0:
                    del store[p]
                    del refs[p]
        if packed:
            p, row = next(iter(packed))
            raise RuntimeExecutionError(
                f"packed edge from tile {tt[p]} to tile {tt[row]} was "
                "handed to a front that does not consume it"
            )

        tiles_arr = graph.tile_array[rows_arr]
        flat = batch.reshape(-1)
        step = max(1, CELL_BUDGET // eng._cell_offset.size)
        for b0 in range(0, B, step):
            self._evaluate(flat, b0, tiles_arr[b0:b0 + step])

        interior_slices = eng.interior_slices
        for b, n in enumerate(self._nlocal[rows_arr].tolist()):
            if n:
                store[rows[b]] = batch[b][interior_slices].copy()
                refs[rows[b]] = n
        return batch

    # -- terminal check -------------------------------------------------------

    def verify_drained(self) -> None:
        """Raise unless every retained interior was consumed."""
        if self._store:
            raise RuntimeExecutionError(
                f"{len(self._store)} tile interiors were retained but "
                "never consumed by the wavefront ghost fill"
            )
