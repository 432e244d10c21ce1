"""Vectorized tile execution: the executor's fast path.

The interpreter in :mod:`repro.runtime.executor` evaluates a tile
cell-by-cell — per-point dict construction plus a Python-level kernel
call — which is the single hottest path of the whole system.  For specs
that carry a :data:`~repro.spec.VectorKernel` (an array-level twin of the
scalar kernel) this module executes the *entire tile* with whole-array
numpy operations instead:

1. **Validity masks** — every ``is_valid_r*`` check is a linear
   inequality over the global coordinates.  Its value over the tile's
   local box splits into a tile-invariant array part (precomputed once
   per program) plus a per-tile scalar base, so each check becomes one
   broadcast comparison — and interval analysis (min/max of the array
   part) collapses most checks to a scalar ``True``/``False`` per tile.

2. **Wavefront evaluation** — cells are grouped by the level function
   ``level(i) = sum_k dir_k * i_k`` (the anti-diagonal level sets of the
   local box under the spec's scan directions).  Every template vector
   strictly decreases the level (checked at construction; programs where
   some template does not are unsupported and fall back to the
   interpreter), so within one level no cell depends on another and the
   whole level is evaluated with one vector-kernel call.  Dependency
   values are whole-array *views* of the padded ghost array shifted by
   the template vector — no gather logic beyond numpy fancy indexing.

3. **Edges are array slices** — a packed edge is the producer's
   static face slab selected by its in-space mask
   (:meth:`VectorTileEngine.pack_edge` / :meth:`~VectorTileEngine.unpack_edge`),
   byte for byte the buffer :class:`~repro.generator.packing.PackPlan`
   scans cell by cell; the edge protocol, memory accounting and tile
   ordering are those of the interpreter.

The engine is bit-identical to the interpreter: vector kernels apply the
same IEEE operations in the same order, and the cross-check suite
(tests/test_fastpath.py) pins every bundled problem to the interpreter
and to ``solve_reference`` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import GenerationError, RuntimeExecutionError
from ..generator.pipeline import GeneratedProgram
from ..polyhedra import Constraint

__all__ = [
    "VectorTileEngine",
    "WavefrontEngine",
    "WavefrontRun",
    "vector_unsupported_reason",
]


# Box cells (tiles x cells per box) the wavefront engine evaluates per
# sub-batch of a front: bounds its masks and per-lane index arrays.
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
    """Executes one tile's local iteration space with numpy wavefronts.

    All loop-invariant artifacts — coordinate grids, the level function,
    the full-box wavefront partition, per-check array parts and the
    per-template shifted views — are derived once at construction and
    shared by every tile of every run of the program.
    """

    def __init__(self, program: GeneratedProgram):
        reason = vector_unsupported_reason(program)
        if reason is not None:
            raise RuntimeExecutionError(
                f"vectorized execution unsupported: {reason}"
            )
        spec = program.spec
        self.program = program
        self.spec = spec
        self.layout = program.layout
        self.loop_vars = spec.loop_vars
        self.widths = spec.tile_width_vector()
        self.vector_kernel = spec.vector_kernel

        layout = self.layout
        self.interior_slices = tuple(
            slice(lo, lo + w) for lo, w in zip(layout.ghost_lo, self.widths)
        )
        # Per template: the shifted box view of the padded array whose
        # element [i] is the dependency value of interior cell i.
        self.template_slices: Dict[str, Tuple[slice, ...]] = {}
        for name, vec in spec.templates.items():
            self.template_slices[name] = tuple(
                slice(lo + r, lo + r + w)
                for lo, r, w in zip(layout.ghost_lo, vec, self.widths)
            )

        # Edge geometry per delta (producer = consumer + delta): the
        # producer-interior face slab a neighbour can see, and the
        # window of the consumer's padded array it lands in.  With
        # ``i_consumer = i_producer + w_k * delta_k`` both are static.
        self.fill_slices: Dict[tuple, Tuple[tuple, tuple]] = {}
        for delta in program.deltas:
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

        # Local-coordinate grids and the wavefront level function.
        grids = np.indices(self.widths)
        self._grids = grids
        directions = spec.scan_directions()
        self._dirs = tuple(directions[x] for x in self.loop_vars)
        levels = np.zeros(self.widths, dtype=np.int64)
        for k, d in enumerate(self._dirs):
            levels += d * grids[k]
        flat = levels.reshape(-1)
        order = np.argsort(flat, kind="stable")
        cuts = np.flatnonzero(np.diff(flat[order])) + 1
        self._full_groups: List[np.ndarray] = np.split(order, cuts)
        self._full_wavefronts = [
            np.unravel_index(g, self.widths) for g in self._full_groups
        ]
        self._full_cells = int(np.prod(self.widths))

        # Affine data for the in-space constraints and the validity checks.
        self._space_parts = [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in spec.constraints
        ]
        self._check_parts = [
            _affine_parts(c, self.loop_vars, self.widths, grids)
            for c in program.validity.checks
        ]
        self.per_template = {
            name: tuple(ids)
            for name, ids in program.validity.per_template.items()
        }

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

    def _template_validity(self, tile, params) -> Dict[str, object]:
        """Per-template validity over the box (scalar bool or array)."""
        cache: Dict[int, object] = {}
        out: Dict[str, object] = {}
        for name, ids in self.per_template.items():
            combined: object = True
            for idx in ids:
                m = cache.get(idx)
                if m is None:
                    m = self._eval_parts(self._check_parts[idx], tile, params)
                    cache[idx] = m
                if m is False:
                    combined = False
                    break
                if m is True:
                    continue
                combined = m if combined is True else (combined & m)
            out[name] = combined
        return out

    def _wavefronts(self, mask: Optional[np.ndarray]):
        if mask is None:
            return self._full_wavefronts
        flat = mask.reshape(-1)
        fronts = []
        for g in self._full_groups:
            sel = g[flat[g]]
            if sel.size:
                fronts.append(np.unravel_index(sel, self.widths))
        return fronts

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
    ) -> int:
        """Evaluate the recurrence on every in-space cell of *tile*.

        *array* is the padded tile array with ghost margins already
        unpacked.  Returns the number of cells computed; records every
        cell into *values* when given (keys are global-coordinate
        tuples, exactly as the interpreter produces them).
        """
        mask = self._in_space_mask(tile, params)
        if mask is None:
            ncells = self._full_cells
        else:
            ncells = int(np.count_nonzero(mask))
            if ncells == self._full_cells:
                mask = None
        fronts = self._wavefronts(mask)
        if not fronts:
            return 0

        validity = self._template_validity(tile, params)
        interior = array[self.interior_slices]
        dep_views = {
            name: array[slc] for name, slc in self.template_slices.items()
        }
        base = [w * t for w, t in zip(self.widths, tile)]
        vector_kernel = self.vector_kernel
        nan = np.float64(np.nan)

        for idx in fronts:
            point = {
                x: base[k] + idx[k] for k, x in enumerate(self.loop_vars)
            }
            deps: Dict[str, object] = {}
            valid: Dict[str, object] = {}
            for name, view in dep_views.items():
                v = validity[name]
                if v is False:
                    deps[name] = nan
                    valid[name] = np.False_
                    continue
                vals = view[idx]
                if isinstance(v, np.ndarray):
                    vmask = v[idx]
                    bad = np.isnan(vals) & vmask
                else:
                    vmask = np.True_
                    bad = np.isnan(vals)
                if bad.any():
                    k = int(np.flatnonzero(bad)[0])
                    where = {
                        x: int(point[x][k]) for x in self.loop_vars
                    }
                    raise RuntimeExecutionError(
                        f"tile {tile}: dependency {name} of point {where} "
                        "is valid but its value was never computed or "
                        "delivered"
                    )
                deps[name] = vals
                valid[name] = vmask
            out = np.asarray(
                vector_kernel(point, deps, valid, params), dtype=np.float64
            )
            if out.ndim == 0:
                out = np.broadcast_to(out, idx[0].shape)
            interior[idx] = out
            if values is not None:
                cols = np.stack(
                    [point[x] for x in self.loop_vars], axis=1
                ).tolist()
                values.update(zip(map(tuple, cols), out.tolist()))
        return ncells


class WavefrontEngine:
    """Evaluates whole ready-fronts of tiles as one batched operation.

    The per-tile :class:`VectorTileEngine` still pays Python per tile:
    one ghost-array allocation, one pack/unpack round-trip per edge,
    one validity evaluation, and one kernel call per intra-tile
    wavefront.  This engine amortizes all of that over a *batch* —
    every simultaneously-ready tile of one static wavefront level (see
    :meth:`repro.runtime.scheduler.TileScheduler.start_batch`):

    * the batch shares a single padded ghost array of shape
      ``(B, *padded_shape)``, allocated once per front;
    * interior cross-tile edges are **array slices**: a consumer's ghost
      margin is filled directly from the retained interior of its
      producer (``fill_slices`` maps each delta to a static
      producer-slab → consumer-window slice pair), so the pack/copy/
      unpack round-trip disappears.  Packed edges survive at rank
      boundaries (SPMD) — exactly the edges the generated C sends over
      MPI — and, under ``keep_edges``, everywhere; they are the same
      slabs, array-packed by the per-tile engine's
      :meth:`~VectorTileEngine.pack_edge`;
    * interval analysis runs **batched**: one integer matmul yields the
      per-tile base of every space constraint and validity check for the
      front; parts that are uniform over a tile's box stay per-tile
      scalars, and only the mixed (tile, part) pairs are compared
      against the box (``lin >= -base``) to give the in-space mask and
      the per-template validity masks;
    * evaluation is a **masked lane gather**: for each intra-tile level
      the in-space cells of *all* tiles are gathered through precomputed
      flat offsets into the batch array (one interior offset per box
      cell, one integer shift per template), handed to the vector kernel
      in one call, and scattered back in place.  Ragged boundary tiles
      are lanes of the same calls as full ones; out-of-space interior
      cells are never written and stay NaN.  A front is evaluated in
      sub-batches of at most :data:`CELL_BUDGET` box cells, which bounds
      the masks and index arrays however wide the front is; the lanes
      of a sub-batch are listed once (:meth:`WavefrontRun._lanes`) and
      each level slices that list.

    Bit-identity with the per-tile path holds because vector kernels are
    lane-wise: gathering cells of many tiles into one lane array feeds
    every cell the same dependency values through the same IEEE
    operations in the same order.  Results are pinned against
    ``mode="vector"``, the interpreter and ``solve_reference`` in
    tests/test_wavefront.py.

    Construction derives only program-level geometry; per-run state
    (retained interiors, refcounts, parameter-folded check bases) lives
    in :class:`WavefrontRun`.
    """

    def __init__(
        self,
        program: GeneratedProgram,
        tile_engine: Optional[VectorTileEngine] = None,
    ):
        self.tile_engine = (
            tile_engine if tile_engine is not None
            else VectorTileEngine(program)
        )
        eng = self.tile_engine
        self.program = program
        self.spec = eng.spec
        self.layout = eng.layout
        self.loop_vars = eng.loop_vars
        self.widths = eng.widths
        self.padded_shape = tuple(eng.layout.padded_shape)
        self.interior_slices = eng.interior_slices
        self.deltas = list(program.deltas)
        # The tile engine's ghost-fill slice pairs by delta id, as the
        # graph's CSR names them.
        self._fills = [eng.fill_slices[delta] for delta in self.deltas]

        # Batched interval analysis: stack every space constraint and
        # validity check into one (d, P) tile-coefficient matrix so a
        # single integer matmul yields the per-tile scalar base of every
        # part for the whole batch.
        self._parts = list(eng._space_parts) + list(eng._check_parts)
        d = len(self.loop_vars)
        if self._parts:
            self._coef = np.array(
                [p["tile_coefs"] for p in self._parts], dtype=np.int64
            ).T
        else:
            self._coef = np.zeros((d, 0), dtype=np.int64)

        # Lane-gather geometry.  Box cells are kept in level order (the
        # concatenated intra-tile wavefronts), so the lanes of one level
        # are one contiguous run of any level-ordered lane array.
        order = np.concatenate(eng._full_groups)
        self._level_ends = np.cumsum(
            [g.size for g in eng._full_groups]
        ).tolist()
        self._cell_coords = eng._grids.reshape(d, -1)[:, order]
        self._cell_offset = np.ravel_multi_index(
            tuple(
                self._cell_coords + np.asarray(eng.layout.ghost_lo)[:, None]
            ),
            self.padded_shape,
        )
        self._plane = int(np.prod(self.padded_shape))
        strides = [int(np.prod(self.padded_shape[k + 1:])) for k in range(d)]
        templates = dict(self.spec.templates.items())
        self._templates = list(templates)
        self._shifts = np.array(
            [
                [sum(s * r for s, r in zip(strides, vec))]
                for vec in templates.values()
            ],
            dtype=np.int64,
        )
        self._lin = [
            None if p["lin"] is None else p["lin"].reshape(-1)[order]
            for p in self._parts
        ]
        # Mask planes each part constrains: 0 is the in-space mask,
        # 1 + t the validity of template t.
        self._part_planes: List[List[int]] = [
            [0] for _ in eng._space_parts
        ] + [
            [
                1 + t
                for t, name in enumerate(self._templates)
                if idx in eng.per_template[name]
            ]
            for idx in range(len(eng._check_parts))
        ]


class WavefrontRun:
    """Per-run state of the wavefront-fused executor.

    Holds the retained tile interiors (the slice-copy substitute for
    packed interior edges), their refcounts (number of *same-rank*
    consumers still to run), the parameter-folded check bases, and the
    run's ``values``/cell accounting.  With *keep_edges* every edge
    arrives packed (the driver retains them all), so no interior is
    retained at all.  Drivers call :meth:`execute_batch` once per
    drained front and :meth:`verify_drained` after the loop.  Every
    tile of a front, full or ragged, is evaluated by the one masked
    lane-gather path (:meth:`_masks` + :meth:`_evaluate`); the per-tile
    engine's ``execute_tile`` is never called from here.

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
        engine: WavefrontEngine,
        graph,
        params: Mapping[str, int],
        rank_of: Optional[Sequence[int]] = None,
        values: Optional[Dict[Tuple[int, ...], float]] = None,
        arena: Optional[np.ndarray] = None,
        keep_edges: bool = False,
    ):
        self.engine = engine
        self.graph = graph
        self.params = dict(params)
        self.values = values
        self.cells = 0
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
        # Per-part scalar base with the run's parameters folded in; the
        # batch classification only adds the tile term.
        base0 = [
            p["const"]
            + sum(c * self.params[name] for name, c in p["param_items"])
            for p in engine._parts
        ]
        self._base0 = np.asarray(base0, dtype=np.int64)
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

    # -- batched interval analysis -------------------------------------------

    def _masks(self, tiles_arr: np.ndarray) -> np.ndarray:
        """In-space and per-template validity masks for a sub-batch.

        The batched twin of :meth:`VectorTileEngine._in_space_mask` and
        :meth:`VectorTileEngine._template_validity`: a ``(1 + T, B, C)``
        boolean array over the engine's level-ordered box cells — plane
        0 is the in-space mask, plane ``1 + t`` the validity of template
        ``t`` in spec order.  A part that interval analysis finds
        uniform over a tile's box contributes a per-tile scalar; only
        the mixed (tile, part) pairs are compared against the box.
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
        unpack_edge = eng.tile_engine.unpack_edge
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

    def _evaluate(self, flat: np.ndarray, b0: int, tiles_arr: np.ndarray):
        """Masked lane-gather evaluation of batch rows ``b0:b0+len(tiles_arr)``.

        *flat* is the whole batch array, flattened.  Per intra-tile
        level, the in-space cells of every tile become the lanes of one
        kernel call — the 1-D lane arrays the per-tile engine feeds it,
        just more lanes per call — and the result is scattered back in
        place.  The lane list and its index into the validity planes
        are built once for the sub-batch (:meth:`_lanes`); a level only
        slices them.
        """
        eng = self.engine
        tile_engine = eng.tile_engine
        loop_vars = eng.loop_vars
        names = eng._templates
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
                tile = tuple(tiles_arr[int(bi[j])].tolist())
                where = dict(zip(loop_vars, coords[:, j].tolist()))
                raise RuntimeExecutionError(
                    f"tile {tile}: dependency {names[t]} of point {where} "
                    "is valid but its value was never computed or "
                    "delivered"
                )
            # Read the kernel off the tile engine per call: tracers wrap
            # that attribute from outside.
            flat[here] = np.asarray(
                tile_engine.vector_kernel(
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

    # -- terminal check -------------------------------------------------------

    def verify_drained(self) -> None:
        """Raise unless every retained interior was consumed."""
        if self._store:
            raise RuntimeExecutionError(
                f"{len(self._store)} tile interiors were retained but "
                "never consumed by the wavefront ghost fill"
            )
