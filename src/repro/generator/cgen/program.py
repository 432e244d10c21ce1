"""Assembly of the complete generated C program (paper Section V).

``emit_c_program(program)`` pretty-prints a :class:`GeneratedProgram` as
one self-contained C source file:

* problem-specific generated code — parameter handling, tile/local loop
  nests with Fourier–Motzkin bounds (Figure 3), mapping functions with
  constant template offsets, shared validity checks, pack/unpack
  functions per tile-dependency edge, the Ehrhart work polynomial, the
  load-balancing cut, the face-scan initial-tile code, and the Figure 5
  priority function;
* the pre-written runtime library (:mod:`.runtime_c`): pending table,
  priority heap, OpenMP worker loop, MPI edge exchange under
  ``#ifdef REPRO_USE_MPI``.

Build lines (also emitted as a comment in the file header):

    gcc -O2 -std=c99 -fopenmp prog.c -o prog          # one node
    mpicc -O2 -std=c99 -fopenmp -DREPRO_USE_MPI prog.c -o prog   # cluster
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from ..._util import lcm_all
from ...errors import GenerationError
from ...polyhedra import Constraint, LinExpr, project, synthesize_loop_nest
from ...polyhedra.bounds import bounds_for_variable
from ...spec import DESCENDING
from ..loadbalance import total_work_polynomial
from ..pipeline import GeneratedProgram
from .emitter import CWriter
from .nestc import (
    MACROS,
    context_to_c,
    emit_count_function,
    emit_scan_loops,
    lower_to_c,
    upper_to_c,
)
from .runtime_c import RUNTIME_LIBRARY

#: Cap on emitted face-scan combinations before falling back to the
#: exhaustive initial-tile scan (mirrors initial_tiles.MAX_COMBINATIONS).
MAX_FACE_COMBOS = 64


def emit_c_program(program: GeneratedProgram, with_ehrhart: bool = True) -> str:
    """Render *program* as a complete hybrid OpenMP + MPI C source file."""
    spec = program.spec
    w = CWriter()

    w.line("/*")
    w.line(f" * Auto-generated hybrid OpenMP + MPI program: {spec.name}")
    w.line(" * Produced by the repro program generator (VandenBerg & Stout,")
    w.line(" * CLUSTER 2011 reproduction).  Do not edit by hand.")
    w.line(" *")
    w.line(" * Build (single node): gcc -O2 -std=c99 -fopenmp prog.c -o prog")
    w.line(" * Build (cluster):     mpicc -O2 -std=c99 -fopenmp -DREPRO_USE_MPI prog.c -o prog")
    w.line(f" * Run:                 ./prog {' '.join('<' + p + '>' for p in spec.params)}")
    w.line(" */")
    w.blank()
    _emit_prologue(w, program)
    _emit_tile_work(w, program)
    _emit_tile_box(w, program)
    _emit_execute_tile(w, program)
    _emit_pack_unpack(w, program)
    _emit_priority(w, program)
    _emit_load_balance(w, program, with_ehrhart=with_ehrhart)
    _emit_initial_tiles(w, program)

    w.raw(RUNTIME_LIBRARY)
    return w.text()


def emit_c_tile_library(program: GeneratedProgram) -> str:
    """The tile body of :func:`emit_c_program` as a loadable library.

    The same prologue and ``repro_execute_tile`` (``checked=True``),
    plus the one exported entry point :mod:`repro.runtime.native` calls:
    ``repro_native_tiles(n, tiles, V, params, bad)`` evaluates the *n*
    tiles ``tiles[b*D .. b*D+D)`` in place in the padded planes
    ``V[b*REPRO_PADDED_CELLS ..)`` and returns the cells computed — or
    -1 with ``bad`` = (template id, plane, point...) of the first valid
    dependency that read NaN.  The parameter statics are process state
    (callers serialize); ``init_code_c`` reruns when they change.
    """
    spec = program.spec
    d = len(spec.loop_vars)
    w = CWriter()
    w.line(f"/* Auto-generated tile library: {spec.name}.  Do not edit by hand. */")
    _emit_prologue(w, program)
    _emit_execute_tile(w, program, checked=True)
    w.open(
        "long repro_native_tiles(long n, const long *tiles, double *V, "
        "const long *params, long *bad)"
    )
    w.line("static int ready = 0;")
    changed = " || ".join(
        ["!ready"] + [f"{p} != params[{k}]" for k, p in enumerate(spec.params)]
    )
    w.open(f"if ({changed})")
    for k, p in enumerate(spec.params):
        w.line(f"{p} = params[{k}];")
    w.line("repro_user_init();")
    w.line("ready = 1;")
    w.close()
    if not spec.params:
        w.line("(void)params;")
    w.line("repro_cells = 0;")
    w.line("repro_bad[0] = -1;")
    w.open("for (long b = 0; b < n; b++)")
    w.line("repro_execute_tile(tiles + b * REPRO_D, V + b * REPRO_PADDED_CELLS);")
    w.open("if (repro_bad[0] >= 0)")
    w.line("bad[0] = repro_bad[0];")
    w.line("bad[1] = b;")
    w.line(f"memcpy(bad + 2, repro_bad + 1, {d} * sizeof(long));")
    w.line("return -1;")
    w.close()
    w.close()
    w.line("return repro_cells;")
    w.close()
    return w.text()


# ---------------------------------------------------------------------------
# generated sections
# ---------------------------------------------------------------------------


def _emit_prologue(w: CWriter, program: GeneratedProgram) -> None:
    """Everything the tile function compiles against: includes, macros,
    constants, the parameter statics and the user's global/init code —
    shared by :func:`emit_c_program` and :func:`emit_c_tile_library`."""
    spec = program.spec
    layout = program.layout
    d = len(spec.loop_vars)
    deltas = program.deltas

    w.lines(
        [
            "#include <stdio.h>",
            "#include <stdlib.h>",
            "#include <string.h>",
            "#include <math.h>",
            "#include <time.h>",
            "#ifdef _OPENMP",
            "#include <omp.h>",
            "#endif",
            "#ifdef REPRO_USE_MPI",
            "#include <mpi.h>",
            "#endif",
        ]
    )
    w.blank()
    w.raw(MACROS)
    w.blank()

    # ---- constants -------------------------------------------------------
    w.line(f"#define REPRO_D {d}")
    w.line(f"#define REPRO_NDELTAS {len(deltas)}")
    w.line(f"#define REPRO_NPARAMS {len(spec.params)}")
    w.line(f"#define REPRO_PADDED_CELLS {layout.cells}")
    w.blank()
    w.line(
        "static const long repro_widths[REPRO_D] = {"
        + ", ".join(str(x) for x in layout.widths)
        + "};"
    )
    rows = ", ".join(
        "{" + ", ".join(str(c) for c in delta) + "}" for delta in deltas
    )
    w.line(f"static const long repro_deltas[REPRO_NDELTAS][REPRO_D] = {{{rows}}};")
    names = ", ".join(f'"{p}"' for p in spec.params) or '""'
    w.line(f"static const char *repro_param_names[] = {{{names}}};")
    w.blank()

    # ---- parameters and user globals --------------------------------------
    for p in spec.params:
        w.line(f"static long {p};")
    w.open("static void repro_read_params(char **argv)")
    for idx, p in enumerate(spec.params):
        w.line(f"{p} = atol(argv[{idx + 1}]);")
    if not spec.params:
        w.line("(void)argv;")
    w.close()
    w.blank()
    if spec.global_code_c:
        w.line("/* ---- user global code ---- */")
        w.raw(spec.global_code_c)
        w.blank()
    w.open("static void repro_user_init(void)")
    if spec.init_code_c:
        w.raw(spec.init_code_c)
    w.close()
    w.blank()


def _unpack_tile_args(w, spaces) -> None:
    for k, tv in enumerate(spaces.tile_vars):
        w.line(f"long {tv} = t[{k}];")


def _emit_tile_work(w: CWriter, program: GeneratedProgram) -> None:
    spaces = program.spaces
    w.line("/* ---- tile work: local-space point count (Section IV-E) ---- */")
    emit_count_function(
        w, "repro_tile_work_impl", spaces.local_nest, list(spaces.tile_vars)
    )
    w.open("static long repro_tile_work(const long *t)")
    args = ", ".join(f"t[{k}]" for k in range(len(spaces.tile_vars)))
    w.line(f"return repro_tile_work_impl({args});")
    w.close()
    w.blank()


def _emit_tile_box(w: CWriter, program: GeneratedProgram) -> None:
    """Per-dimension bounding box of the tile space, as parameter exprs."""
    spaces = program.spaces
    spec = program.spec
    w.line("/* ---- tile-space bounding box (for the slot encoding) ---- */")
    w.open("static int repro_tile_box(long *lo, long *hi)")
    for k, tv in enumerate(spaces.tile_vars):
        proj = project(spaces.tile_space, [tv, *spec.params])
        b = bounds_for_variable(proj, tv)
        if not b.is_bounded():
            raise GenerationError(
                f"tile dimension {tv!r} is unbounded; cannot generate C"
            )
        w.line(f"lo[{k}] = {lower_to_c(b)};")
        w.line(f"hi[{k}] = {upper_to_c(b)};")
        w.line(f"if (lo[{k}] > hi[{k}]) return 0;")
    w.line("return 1;")
    w.close()
    w.blank()


def _emit_execute_tile(
    w: CWriter, program: GeneratedProgram, checked: bool = False
) -> None:
    """The tile function.  *checked* adds the two statements the
    in-process library needs and the standalone program does not: a
    cell counter, and per template a record of the first valid
    dependency that reads NaN (never computed or delivered)."""
    spec = program.spec
    spaces = program.spaces
    layout = program.layout
    w.line("/* ---- tile calculation code (Section IV-L, Figure 3) ---- */")
    w.line("static double repro_objective_value = 0.0;")
    w.line("static int repro_objective_seen = 0;")
    if checked:
        w.line("static long repro_cells = 0;")
        w.line("/* template id (-1 = none), then the point */")
        w.line("static long repro_bad[1 + REPRO_D] = {-1};")
    objective = spec.objective({})
    w.open("static void repro_execute_tile(const long *t, double *V)")
    _unpack_tile_args(w, spaces)

    directions_x = spec.scan_directions()
    local_directions = {
        spaces.local_vars[k]: directions_x[x]
        for k, x in enumerate(spec.loop_vars)
    }

    def body() -> None:
        # Global coordinates (provided to the user, Figure 3).
        for k, x in enumerate(spec.loop_vars):
            iv = spaces.local_vars[k]
            tv = spaces.tile_vars[k]
            w.line(f"long {x} = {iv} + {layout.widths[k]} * {tv};")
        # Mapping functions: loc and the constant template offsets.
        loc_terms = " + ".join(
            f"{layout.strides[k]} * ({spaces.local_vars[k]} + {layout.ghost_lo[k]})"
            for k in range(len(spec.loop_vars))
        )
        w.line(f"long loc = {loc_terms};")
        for name, off in program.offsets.items():
            w.line(f"long loc_{name} = loc + ({off});")
        # Shared validity checks (Section IV-G).
        for idx, chk in enumerate(program.validity.checks):
            w.line(f"int _chk{idx} = {_constraint_to_c(chk)};")
        for name, _vec in spec.templates.items():
            ids = program.validity.per_template[name]
            cond = " && ".join(f"_chk{i}" for i in ids) if ids else "1"
            w.line(f"int is_valid_{name} = {cond};")
        # Silence unused warnings for symbols the user code may ignore.
        w.line(
            "(void)loc; "
            + " ".join(f"(void)loc_{n}; (void)is_valid_{n};" for n in
                       spec.templates.names())
        )
        if checked:
            point = "".join(
                f" repro_bad[{k + 1}] = {x};"
                for k, x in enumerate(spec.loop_vars)
            )
            w.line("repro_cells++;")
            for t, name in enumerate(spec.templates.names()):
                w.line(
                    f"if (repro_bad[0] < 0 && is_valid_{name} && "
                    f"V[loc_{name}] != V[loc_{name}]) "
                    f"{{ repro_bad[0] = {t};{point} }}"
                )
        w.line("/* ---- user center-loop code ---- */")
        if spec.center_code_c.strip():
            w.raw(spec.center_code_c)
        else:
            w.line("V[loc] = 0.0; /* no center code supplied */")
        obj_cond = " && ".join(
            f"{x} == {objective[x]}" for x in spec.loop_vars
        )
        w.open(f"if ({obj_cond})")
        w.line("repro_objective_value = V[loc];")
        w.line("repro_objective_seen = 1;")
        w.close()

    emit_scan_loops(w, spaces.local_nest, body, directions=local_directions)
    w.close()
    w.blank()


def _constraint_to_c(c: Constraint) -> str:
    parts = [str(c.expr.constant.numerator)]
    for name, coef in c.expr.terms():
        parts.append(f"+ ({coef.numerator})*{name}")
    op = "==" if c.is_equality() else ">="
    return f"(({' '.join(parts)}) {op} 0)"


def _emit_pack_unpack(w: CWriter, program: GeneratedProgram) -> None:
    spec = program.spec
    spaces = program.spaces
    layout = program.layout
    w.line("/* ---- packing / unpacking functions (Section IV-I) ---- */")

    # Size functions per delta.
    for di, delta in enumerate(program.deltas):
        plan = program.pack_plans[delta]
        emit_count_function(
            w, f"repro_pack_size_{di}", plan.region_nest, list(spaces.tile_vars)
        )
    w.open("static long repro_pack_size(int d, const long *t)")
    args = ", ".join(f"t[{k}]" for k in range(len(spaces.tile_vars)))
    w.open("switch (d)")
    for di in range(len(program.deltas)):
        w.line(f"case {di}: return repro_pack_size_{di}({args});")
    w.close()
    w.line("return 0;")
    w.close()
    w.blank()

    def loc_expr(offsets: Sequence[int]) -> str:
        return " + ".join(
            f"{layout.strides[k]} * ({spaces.local_vars[k]} + {offsets[k]})"
            for k in range(len(spec.loop_vars))
        )

    # Pack and unpack per delta: identical iteration spaces and order
    # (the paper's requirement), different mapping functions.
    for di, delta in enumerate(program.deltas):
        plan = program.pack_plans[delta]

        w.open(
            f"static void repro_pack_{di}(const long *t, const double *V, double *buf)"
        )
        _unpack_tile_args(w, spaces)
        w.line("long n = 0;")

        def pack_body() -> None:
            w.line(f"buf[n++] = V[{loc_expr(layout.ghost_lo)}];")

        emit_scan_loops(w, plan.region_nest, pack_body)
        w.line("(void)n;")
        w.close()

        w.open(
            f"static void repro_unpack_{di}(const long *t, const double *buf, double *V)"
        )
        _unpack_tile_args(w, spaces)
        w.line("long n = 0;")
        ghost_offsets = [
            layout.ghost_lo[k] + plan.consumer_shift[k]
            for k in range(len(spec.loop_vars))
        ]

        def unpack_body() -> None:
            w.line(f"V[{loc_expr(ghost_offsets)}] = buf[n++];")

        emit_scan_loops(w, plan.region_nest, unpack_body)
        w.line("(void)n;")
        w.close()
        w.blank()

    w.open("static void repro_pack(int d, const long *t, const double *V, double *buf)")
    w.open("switch (d)")
    for di in range(len(program.deltas)):
        w.line(f"case {di}: repro_pack_{di}(t, V, buf); return;")
    w.close()
    w.close()
    w.open(
        "static void repro_unpack(int d, const long *t, const double *buf, double *V)"
    )
    w.open("switch (d)")
    for di in range(len(program.deltas)):
        w.line(f"case {di}: repro_unpack_{di}(t, buf, V); return;")
    w.close()
    w.close()
    w.blank()


def _emit_priority(w: CWriter, program: GeneratedProgram) -> None:
    """Figure 5 priority: lb dims first, adjusted to the scan direction."""
    spec = program.spec
    directions = spec.scan_directions()
    lb_positions = [spec.loop_vars.index(x) for x in spec.lb_dims]
    other = [k for k in range(len(spec.loop_vars)) if k not in set(lb_positions)]
    order = lb_positions + other
    w.line("/* ---- tile priority (Section V-B, Figure 5) ---- */")
    w.line("/* lb dims downstream-first (feed the neighbouring node early), */")
    w.line("/* remaining dims column-major along the scan direction.        */")
    w.open("static void repro_priority(const long *t, long *key)")
    lb_set = set(lb_positions)
    for rank, k in enumerate(order):
        descending = directions[spec.loop_vars[k]] == DESCENDING
        if k in lb_set:
            sign = "" if descending else "-"
        else:
            sign = "-" if descending else ""
        w.line(f"key[{rank}] = {sign}t[{k}];")
    w.close()
    w.blank()


def _emit_load_balance(
    w: CWriter, program: GeneratedProgram, with_ehrhart: bool
) -> None:
    spec = program.spec
    spaces = program.spaces
    w.line("/* ---- load balancing (Section IV-J) ---- */")

    if with_ehrhart and len(spec.params) == 1:
        w.line("#define REPRO_HAVE_EHRHART 1")
        _emit_ehrhart_total(w, program)

    # Slab work: symbolic count over the lb tile indices.
    from ..loadbalance import _symbolic_slab_nest

    slab_nest = _symbolic_slab_nest(spaces)
    lb_tvs = list(spaces.lb_tile_vars)
    emit_count_function(w, "repro_slab_work_impl", slab_nest, lb_tvs)

    # Bounding box of the lb space, for the dense assignment table.
    j = len(lb_tvs)
    w.open("static int repro_lb_box(long *lo, long *hi)")
    for k, tv in enumerate(lb_tvs):
        proj = project(spaces.lb_space, [tv, *spec.params])
        b = bounds_for_variable(proj, tv)
        if not b.is_bounded():
            raise GenerationError(f"lb dimension {tv!r} is unbounded")
        w.line(f"lo[{k}] = {lower_to_c(b)};")
        w.line(f"hi[{k}] = {upper_to_c(b)};")
        w.line(f"if (lo[{k}] > hi[{k}]) return 0;")
    w.line("return 1;")
    w.close()
    w.blank()

    w.line(f"#define REPRO_LBD {j}")
    w.line("static long lb_lo[REPRO_LBD], lb_stride[REPRO_LBD];")
    w.line("static long lb_slots = 0;")
    w.line("static int *lb_assign;")
    w.blank()

    # Execution-direction signs per lb dim (slabs are walked in the
    # pipeline order, lb1 major).
    directions = spec.scan_directions()
    signs = [(-1 if directions[x] == DESCENDING else 1) for x in spec.lb_dims]

    w.open("static void repro_init_load_balance(int nnodes)")
    w.line("long lo[REPRO_LBD], hi[REPRO_LBD];")
    w.line('if (!repro_lb_box(lo, hi)) { fprintf(stderr, "empty lb space\\n"); exit(1); }')
    w.line("long stride = 1;")
    w.open("for (int k = REPRO_LBD - 1; k >= 0; k--)")
    w.line("lb_lo[k] = lo[k];")
    w.line("lb_stride[k] = stride;")
    w.line("stride *= (hi[k] - lo[k] + 1);")
    w.close()
    w.line("lb_slots = stride;")
    w.line("lb_assign = (int *)malloc((size_t)lb_slots * sizeof(int));")
    w.line("long *works = (long *)calloc((size_t)lb_slots, sizeof(long));")
    w.line("long total = 0;")
    # Walk slabs in pipeline order accumulating work; dimension-cut split.
    w.line("/* first pass: per-slab work */")
    args = ", ".join(lb_tvs)
    depth = 0
    for k, tv in enumerate(lb_tvs):
        if signs[k] > 0:
            w.open(f"for (long {tv} = lo[{k}]; {tv} <= hi[{k}]; {tv}++)")
        else:
            w.open(f"for (long {tv} = hi[{k}]; {tv} >= lo[{k}]; {tv}--)")
        depth += 1
    w.line(f"long work = repro_slab_work_impl({args});")
    idx_expr = " + ".join(
        f"lb_stride[{k}] * ({tv} - lb_lo[{k}])" for k, tv in enumerate(lb_tvs)
    )
    w.line(f"works[{idx_expr}] = work;")
    w.line("total += work;")
    for _ in range(depth):
        w.close()
    w.line("/* second pass: contiguous even cut along the walk order */")
    w.line("long cum = 0;")
    depth = 0
    for k, tv in enumerate(lb_tvs):
        if signs[k] > 0:
            w.open(f"for (long {tv} = lo[{k}]; {tv} <= hi[{k}]; {tv}++)")
        else:
            w.open(f"for (long {tv} = hi[{k}]; {tv} >= lo[{k}]; {tv}--)")
        depth += 1
    w.line(f"long slot = {idx_expr};")
    w.line("long work = works[slot];")
    w.line("long node = total > 0 ? ((2 * cum + work) * nnodes) / (2 * total) : 0;")
    w.line("if (node >= nnodes) node = nnodes - 1;")
    w.line("lb_assign[slot] = (int)node;")
    w.line("cum += work;")
    for _ in range(depth):
        w.close()
    w.line("free(works);")
    w.close()
    w.blank()

    lb_positions = [spec.loop_vars.index(x) for x in spec.lb_dims]
    w.open("static int repro_node_of_tile(const long *t)")
    w.line("if (lb_slots == 0) return 0;")
    idx_parts = " + ".join(
        f"lb_stride[{k}] * (t[{pos}] - lb_lo[{k}])"
        for k, pos in enumerate(lb_positions)
    )
    w.line(f"long slot = {idx_parts};")
    w.line("if (slot < 0 || slot >= lb_slots) return 0;")
    w.line("return lb_assign[slot];")
    w.close()
    w.blank()


def _emit_ehrhart_total(w: CWriter, program: GeneratedProgram) -> None:
    """Embed the total-work Ehrhart polynomial (exact integer Horner)."""
    spec = program.spec
    param = spec.params[0]
    qp = total_work_polynomial(spec)
    w.line(
        f"/* Ehrhart polynomial: total work as a function of {param} "
        f"(degree {qp.degree}, period {qp.period}) */"
    )
    w.open("static long repro_total_work_ehrhart(void)")
    for residue, coeffs in enumerate(qp.coeffs_by_residue):
        den = lcm_all(c.denominator for c in coeffs) or 1
        scaled = [int(c * den) for c in coeffs]
        terms = ", ".join(str(v) for v in scaled)
        w.open(
            f"if ({param} % {qp.period} == {residue})"
            if qp.period > 1
            else "if (1)"
        )
        w.line(f"static const long long a[] = {{{terms}}};")
        w.line("long long acc = 0;")
        w.line(f"for (int k = {len(scaled) - 1}; k >= 0; k--) acc = acc * {param} + a[k];")
        w.line(f"return (long)(acc / {den});")
        w.close()
    w.line("return 0;")
    w.close()
    w.blank()


def _emit_initial_tiles(w: CWriter, program: GeneratedProgram) -> None:
    """Face-scan initial-tile code (Section IV-K), with exhaustive fallback."""
    spec = program.spec
    spaces = program.spaces
    tile_space = spaces.tile_space
    deltas = program.deltas

    candidates: List[List[Constraint]] = []
    feasible = True
    for delta in deltas:
        offsets = {tv: dd for tv, dd in zip(spaces.tile_vars, delta)}
        per_delta: List[Constraint] = []
        for c in tile_space:
            if c.is_equality():
                continue
            drop = sum(c.coeff(tv) * dd for tv, dd in offsets.items())
            if drop < 0:
                shifted = c.shifted(offsets)
                per_delta.append(Constraint(-shifted.expr - 1))
        if not per_delta:
            feasible = False
            break
        candidates.append(per_delta)

    n_combos = 1
    if feasible:
        for per_delta in candidates:
            n_combos *= len(per_delta)
            if n_combos > MAX_FACE_COMBOS:
                feasible = False
                break

    w.line("/* ---- initial tile generation (Section IV-K) ---- */")
    w.line("static void repro_seed_candidate(const long *t);")
    w.open("static void repro_scan_initial_tiles(void)")
    w.line(f"long t[REPRO_D];")

    emitted_systems = set()
    if feasible:
        for combo in itertools.product(*candidates):
            key = frozenset(combo)
            if key in emitted_systems:
                continue
            emitted_systems.add(key)
            # Conjoin the tuple, not the frozenset: set iteration order
            # is hash-randomized and would make the emitted program
            # differ between runs.
            system = tile_space.and_also(combo)
            if system.is_trivially_empty():
                continue
            try:
                nest = synthesize_loop_nest(system, list(spaces.tile_vars))
            except Exception:
                continue

            def seed_body() -> None:
                for k, tv in enumerate(spaces.tile_vars):
                    w.line(f"t[{k}] = {tv};")
                w.line("repro_seed_candidate(t);")

            w.open(f"if ({context_to_c(nest)})")
            w.open("")  # scope block for loop variable reuse across combos
            emit_scan_loops(w, nest, seed_body)
            w.close()
            w.close()
    else:
        # Exhaustive fallback: scan the whole tile space.
        def seed_body() -> None:
            for k, tv in enumerate(spaces.tile_vars):
                w.line(f"t[{k}] = {tv};")
            w.line("repro_seed_candidate(t);")

        w.open("")
        emit_scan_loops(w, spaces.tile_nest, seed_body)
        w.close()
    w.close()
    w.blank()
