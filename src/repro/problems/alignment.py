"""Sequence-alignment dynamic programs (paper Section I).

The paper motivates the generator with Multiple Sequence Alignment
(d-dimensional, one dimension per sequence, scoring matrix and gap
penalties) and the related Longest Common Subsequence problem.  These
problems exercise the generator differently from the bandits: the
template vectors are *negative* (each cell reads its lexicographic
predecessors, so the scan is ascending), they include diagonals (which
produce corner tile-dependencies and corner ghost regions), and the
iteration space is a parametric box rather than a simplex.

Base cases need no special handling: the ``is_valid_r*`` machinery makes
the first row/column recurrences degenerate exactly as the textbook
boundary conditions require (e.g. edit distance D(i,0) = i emerges from
"only the vertical dependency is valid").

All specs carry an independent brute-force reference solver.

Vector kernels.  Each spec's ``vector_kernel`` is the lane-wise twin of
its scalar ``kernel`` and must equal it bit for bit.  Characters are
compared as integers: :func:`_seq_codes` gives every sequence one code
array indexed by the coordinate itself, whose slot 0 is a sentinel that
matches nothing.  Each ``if dep is valid and cand < best: best = cand``
of a scalar cascade is one masked ufunc over all lanes,
``np.minimum(best, cand, out=best, where=valid)`` (``np.maximum`` for
the max kernels), starting from what the cascade holds before any
dependency is valid (``+inf`` standing for ``None``, or the ``0.0``
start).  That is exact, not approximate: a strict comparison and a
min/max both leave the extreme *value* of ``best`` and ``cand`` in
``best``, every candidate is computed by the same single IEEE operation
as in the scalar kernel, ``where=`` keeps the NaN (or anything else) of
an invalid lane from being read at all, and the one pair of distinct
floats that compare equal, ``-0.0``/``+0.0``, cannot meet — a candidate
is a dep, ``dep + c`` or ``dep - c``, which IEEE rounds to ``-0.0`` only
from a ``-0.0`` dep, and no kernel returns one.
tests/test_alignment_variants.py pins lane == scalar on random
strings, lanes and garbage-filled invalid lanes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..spec import ProblemSpec

DNA = "ACGT"


def random_sequence(length: int, seed: int, alphabet: str = DNA) -> str:
    """Deterministic pseudo-random sequence for tests and benchmarks."""
    rng = np.random.default_rng(seed)
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))


def _strings_global_c(strings: Sequence[str]) -> str:
    """C globals embedding the sequences (one array per sequence)."""
    return "\n".join(
        f'static const char STR{k}[] = "{s}";' for k, s in enumerate(strings)
    )


def _seq_codes(s: str, k: int) -> np.ndarray:
    """Sequence *k* of a problem as the vector kernels' integer code array.

    Indexed by the coordinate itself: slot ``x >= 1`` holds the code
    point of ``s[x - 1]``, the character the scalar kernels read at
    coordinate ``x``.  Slot 0 holds ``-1 - k``: no code point is
    negative and no two sequences share it, so a comparison involving
    coordinate 0 of either side is False — the scalar kernels' explicit
    ``coordinate >= 1`` tests come out of the equality itself, with no
    index clamp and for the empty string too.
    """
    return np.array([-1 - k] + [ord(c) for c in s], dtype=np.int64)


# ---------------------------------------------------------------------------
# Edit distance (2-D)
# ---------------------------------------------------------------------------


def edit_distance_spec(
    a: str, b: str, tile_width: int = 8, lb_dims=None
) -> ProblemSpec:
    """Levenshtein distance between *a* and *b* as a generator problem.

    Iteration space: ``0 <= i <= LA``, ``0 <= j <= LB``; templates are
    the negative unit/diagonal steps; the objective cell is ``(LA, LB)``.
    The objective point depends on the parameters, so it is fixed at spec
    construction for the concrete strings.
    """

    def kernel(point: Mapping[str, int], deps: Mapping[str, Optional[float]],
               params: Mapping[str, int]) -> float:
        i, j = point["i"], point["j"]
        best = None
        if deps["up"] is not None:
            best = deps["up"] + 1.0
        if deps["left"] is not None:
            cand = deps["left"] + 1.0
            best = cand if best is None or cand < best else best
        if deps["diag"] is not None:
            cost = 0.0 if a[i - 1] == b[j - 1] else 1.0
            cand = deps["diag"] + cost
            best = cand if best is None or cand < best else best
        return 0.0 if best is None else best

    A, B = _seq_codes(a, 0), _seq_codes(b, 1)

    def vector_kernel(point, deps, valid, params):
        # Array twin of `kernel`, one masked ufunc per `if` of its
        # cascade; +inf stands for "no valid dependency yet".
        cost = np.where(A.take(point["i"]) == B.take(point["j"]), 0.0, 1.0)
        best = np.full(cost.shape, np.inf)
        np.add(deps["up"], 1.0, out=best, where=valid["up"])
        np.minimum(best, deps["left"] + 1.0, out=best, where=valid["left"])
        np.minimum(best, deps["diag"] + cost, out=best, where=valid["diag"])
        return np.where(np.isinf(best), 0.0, best)

    return ProblemSpec.create(
        name="edit-distance",
        loop_vars=["i", "j"],
        params=["LA", "LB"],
        constraints=["i >= 0", "j >= 0", "i <= LA", "j <= LB"],
        templates={"up": [-1, 0], "left": [0, -1], "diag": [-1, -1]},
        tile_widths=tile_width,
        lb_dims=lb_dims or ("i",),
        kernel=kernel,
        vector_kernel=vector_kernel,
        objective_point={"i": len(a), "j": len(b)},
        global_code_c=(
            f'static const char SEQ_A[] = "{a}";\n'
            f'static const char SEQ_B[] = "{b}";'
        ),
        center_code_c=(
            "double best = 1e300, c;\n"
            "if (is_valid_up)   { c = V[loc_up] + 1.0; if (c < best) best = c; }\n"
            "if (is_valid_left) { c = V[loc_left] + 1.0; if (c < best) best = c; }\n"
            "if (is_valid_diag) { c = V[loc_diag] + (SEQ_A[i-1] == SEQ_B[j-1] ? 0.0 : 1.0);"
            " if (c < best) best = c; }\n"
            "V[loc] = (best > 1e299 ? 0.0 : best);"
        ),
        global_code_py=(f'SEQ_A = "{a}"\nSEQ_B = "{b}"'),
        center_code_py=(
            "_best = None\n"
            "if is_valid_up:\n"
            "    _best = V[loc_up] + 1.0\n"
            "if is_valid_left:\n"
            "    _c = V[loc_left] + 1.0\n"
            "    if _best is None or _c < _best:\n"
            "        _best = _c\n"
            "if is_valid_diag:\n"
            "    _c = V[loc_diag] + (0.0 if SEQ_A[i-1] == SEQ_B[j-1] else 1.0)\n"
            "    if _best is None or _c < _best:\n"
            "        _best = _c\n"
            "V[loc] = 0.0 if _best is None else _best"
        ),
    )


def edit_distance_reference(a: str, b: str) -> int:
    """Classic O(LA*LB) two-row Levenshtein, independent of the generator."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[len(b)]


# ---------------------------------------------------------------------------
# Longest Common Subsequence (2 or 3 strings)
# ---------------------------------------------------------------------------


def lcs_spec(strings: Sequence[str], tile_width: int = 8, lb_dims=None) -> ProblemSpec:
    """LCS of 2 or 3 strings — the paper cites the 3-string variant [6]."""
    d = len(strings)
    if d not in (2, 3):
        raise ValueError(f"lcs_spec supports 2 or 3 strings, got {d}")
    loop_vars = [f"x{k+1}" for k in range(d)]
    params = [f"L{k+1}" for k in range(d)]
    constraints = [f"{v} >= 0" for v in loop_vars] + [
        f"{v} <= {p}" for v, p in zip(loop_vars, params)
    ]
    # Templates: all nonzero vectors in {-1, 0}^d.
    templates: Dict[str, List[int]] = {}
    for combo in itertools.product((0, -1), repeat=d):
        if all(c == 0 for c in combo):
            continue
        name = "drop_" + "".join(
            loop_vars[k][1:] for k in range(d) if combo[k] != 0
        )
        templates[name] = list(combo)
    diag_name = "drop_" + "".join(v[1:] for v in loop_vars)

    def kernel(point, deps, params_env):
        coords = [point[v] for v in loop_vars]
        if all(c >= 1 for c in coords):
            chars = {strings[k][coords[k] - 1] for k in range(d)}
            if len(chars) == 1:
                return deps[diag_name] + 1.0
        best = 0.0
        for k in range(d):
            name = "drop_" + loop_vars[k][1:]
            v = deps[name]
            if v is not None and v > best:
                best = v
        return best

    codes = [_seq_codes(s, k) for k, s in enumerate(strings)]
    drop_names = ["drop_" + loop_vars[k][1:] for k in range(d)]

    def vector_kernel(point, deps, valid, params_env):
        # Coordinate 0 reads a sentinel no other sequence holds, so the
        # code equality alone is the scalar kernel's "all coords >= 1
        # and all characters equal".
        chars = [codes[k].take(point[v]) for k, v in enumerate(loop_vars)]
        match = chars[0] == chars[1]
        for ch in chars[2:]:
            match = match & (chars[0] == ch)
        # The scalar cascade, one masked ufunc per `if`: start at 0.0,
        # take a larger drop where that drop is valid, and where the
        # characters match take diagonal + 1 instead.  `match` implies
        # the diagonal dependency is valid (all coords >= 1 and within
        # the box), so its lanes hold real values.
        best = np.zeros(chars[0].shape)
        for name in drop_names:
            np.maximum(best, deps[name], out=best, where=valid[name])
        np.add(deps[diag_name], 1.0, out=best, where=match)
        return best

    # Python center-loop fragment for the pygen backend.
    eq_chain = " == ".join(
        f"STRINGS[{k}][{loop_vars[k]}-1]" for k in range(d)
    )
    all_pos = " and ".join(f"{v} >= 1" for v in loop_vars)
    py_lines = [
        f"if ({all_pos}) and ({eq_chain}):",
        f"    V[loc] = V[loc_{diag_name}] + 1.0",
        "else:",
        "    _best = 0.0",
    ]
    for k in range(d):
        name = "drop_" + loop_vars[k][1:]
        py_lines += [
            f"    if is_valid_{name} and V[loc_{name}] > _best:",
            f"        _best = V[loc_{name}]",
        ]
    py_lines.append("    V[loc] = _best")

    # C center-loop fragment (same logic, C syntax).
    eq_c = " && ".join(
        f"STR{k}[{loop_vars[k]}-1] == STR{(k + 1) % d}[{loop_vars[(k + 1) % d]}-1]"
        for k in range(d - 1)
    )
    pos_c = " && ".join(f"{v} >= 1" for v in loop_vars)
    c_lines = [
        f"if (({pos_c}) && ({eq_c})) {{",
        f"    V[loc] = V[loc_{diag_name}] + 1.0;",
        "} else {",
        "    double best = 0.0;",
    ]
    for k in range(d):
        name = "drop_" + loop_vars[k][1:]
        c_lines.append(
            f"    if (is_valid_{name} && V[loc_{name}] > best) best = V[loc_{name}];"
        )
    c_lines += ["    V[loc] = best;", "}"]

    return ProblemSpec.create(
        name=f"lcs{d}",
        loop_vars=loop_vars,
        params=params,
        constraints=constraints,
        templates=templates,
        tile_widths=tile_width,
        lb_dims=lb_dims or (loop_vars[0],),
        kernel=kernel,
        vector_kernel=vector_kernel,
        objective_point={v: len(s) for v, s in zip(loop_vars, strings)},
        global_code_py=f"STRINGS = {tuple(strings)!r}",
        center_code_py="\n".join(py_lines),
        global_code_c=_strings_global_c(strings),
        center_code_c="\n".join(c_lines),
    )


def lcs_reference(strings: Sequence[str]) -> int:
    """Dense DP oracle for the LCS of 2 or 3 strings."""
    d = len(strings)
    shape = tuple(len(s) + 1 for s in strings)
    table = np.zeros(shape, dtype=np.int64)
    for idx in itertools.product(*(range(1, n) for n in shape)):
        chars = {strings[k][idx[k] - 1] for k in range(d)}
        if len(chars) == 1:
            prev = tuple(i - 1 for i in idx)
            table[idx] = table[prev] + 1
        else:
            best = 0
            for k in range(d):
                drop = tuple(i - 1 if j == k else i for j, i in enumerate(idx))
                best = max(best, table[drop])
            table[idx] = best
    # Fill order above skips boundary hyperplanes (they stay 0, correct),
    # but interior max must also consider dropping to a boundary index —
    # itertools.product from 1 covers that because `drop` may hit 0.
    return int(table[tuple(len(s) for s in strings)])


# ---------------------------------------------------------------------------
# Multiple Sequence Alignment (sum-of-pairs, d = 2 or 3)
# ---------------------------------------------------------------------------

#: Simple DNA scoring: match reward 0, mismatch and gap costs positive
#: (minimization, as in the paper's "minimal cost alignment").
DEFAULT_MISMATCH = 3.0
DEFAULT_GAP = 2.0


def _pair_cost(
    ca: Optional[str], cb: Optional[str], mismatch: float, gap: float
) -> float:
    """Sum-of-pairs column cost for one pair of rows (None = gap)."""
    if ca is None and cb is None:
        return 0.0
    if ca is None or cb is None:
        return gap
    return 0.0 if ca == cb else mismatch


def msa_spec(
    strings: Sequence[str],
    tile_width: int = 8,
    mismatch: float = DEFAULT_MISMATCH,
    gap: float = DEFAULT_GAP,
    lb_dims=None,
) -> ProblemSpec:
    """Exact sum-of-pairs MSA of 2 or 3 sequences.

    Cell ``x`` holds the minimal cost of aligning the prefixes
    ``strings[k][:x_k]``; each of the ``2^d - 1`` moves advances a subset
    of the sequences, charging every advanced/advanced pair a
    match/mismatch score and every advanced/held pair a gap penalty.
    """
    d = len(strings)
    if d not in (2, 3):
        raise ValueError(f"msa_spec supports 2 or 3 sequences, got {d}")
    loop_vars = [f"x{k+1}" for k in range(d)]
    params = [f"L{k+1}" for k in range(d)]
    constraints = [f"{v} >= 0" for v in loop_vars] + [
        f"{v} <= {p}" for v, p in zip(loop_vars, params)
    ]
    moves: List[Tuple[int, ...]] = [
        combo
        for combo in itertools.product((0, -1), repeat=d)
        if any(c != 0 for c in combo)
    ]

    def move_name(move: Tuple[int, ...]) -> str:
        return "adv_" + "".join(str(k + 1) for k in range(d) if move[k] != 0)

    templates = {move_name(m): list(m) for m in moves}

    def kernel(point, deps, params_env):
        best = None
        for move in moves:
            name = move_name(move)
            base = deps[name]
            if base is None:
                continue
            # Column cost: characters consumed by advanced sequences.
            chars: List[Optional[str]] = []
            for k in range(d):
                if move[k] != 0:
                    chars.append(strings[k][point[loop_vars[k]] - 1])
                else:
                    chars.append(None)
            cost = 0.0
            for a_i in range(d):
                for b_i in range(a_i + 1, d):
                    cost += _pair_cost(chars[a_i], chars[b_i], mismatch, gap)
            cand = base + cost
            if best is None or cand < best:
                best = cand
        return 0.0 if best is None else best

    codes = [_seq_codes(s, k) for k, s in enumerate(strings)]

    def vector_kernel(point, deps, valid, params_env):
        chars = [codes[k].take(point[v]) for k, v in enumerate(loop_vars)]
        best = np.full(chars[0].shape, np.inf)
        for move in moves:
            name = move_name(move)
            # Accumulate the column cost pair by pair in the scalar
            # kernel's order so the float sums are bit-identical.
            cost = 0.0
            for a_i in range(d):
                for b_i in range(a_i + 1, d):
                    if move[a_i] != 0 and move[b_i] != 0:
                        cost = cost + np.where(
                            chars[a_i] == chars[b_i], 0.0, mismatch
                        )
                    elif move[a_i] != 0 or move[b_i] != 0:
                        cost = cost + gap
            np.minimum(best, deps[name] + cost, out=best, where=valid[name])
        return np.where(np.isinf(best), 0.0, best)

    # Python center-loop fragment for the pygen backend: one guarded
    # candidate per move; gap costs fold to constants at generation time.
    py_lines = ["_best = None"]
    for move in moves:
        name = move_name(move)
        advanced = [k for k in range(d) if move[k] != 0]
        gap_pairs = len(advanced) * (d - len(advanced))
        terms = [f"V[loc_{name}]"]
        if gap_pairs:
            terms.append(f"{gap_pairs} * {gap!r}")
        for ai in range(len(advanced)):
            for bi in range(ai + 1, len(advanced)):
                ka, kb = advanced[ai], advanced[bi]
                terms.append(
                    f"(0.0 if STRINGS[{ka}][{loop_vars[ka]}-1] == "
                    f"STRINGS[{kb}][{loop_vars[kb]}-1] else {mismatch!r})"
                )
        py_lines += [
            f"if is_valid_{name}:",
            f"    _c = {' + '.join(terms)}",
            "    if _best is None or _c < _best:",
            "        _best = _c",
        ]
    py_lines.append("V[loc] = 0.0 if _best is None else _best")

    # C center-loop fragment.
    c_lines = ["double best = 1e300, c;"]
    for move in moves:
        name = move_name(move)
        advanced = [k for k in range(d) if move[k] != 0]
        gap_pairs = len(advanced) * (d - len(advanced))
        terms = [f"V[loc_{name}]"]
        if gap_pairs:
            terms.append(f"{gap_pairs} * {gap}")
        for ai in range(len(advanced)):
            for bi in range(ai + 1, len(advanced)):
                ka, kb = advanced[ai], advanced[bi]
                terms.append(
                    f"(STR{ka}[{loop_vars[ka]}-1] == STR{kb}[{loop_vars[kb]}-1]"
                    f" ? 0.0 : {mismatch})"
                )
        c_lines += [
            f"if (is_valid_{name}) {{",
            f"    c = {' + '.join(terms)};",
            "    if (c < best) best = c;",
            "}",
        ]
    c_lines.append("V[loc] = (best > 1e299 ? 0.0 : best);")

    return ProblemSpec.create(
        name=f"msa{d}",
        loop_vars=loop_vars,
        params=params,
        constraints=constraints,
        templates=templates,
        tile_widths=tile_width,
        lb_dims=lb_dims or (loop_vars[0],),
        kernel=kernel,
        vector_kernel=vector_kernel,
        objective_point={v: len(s) for v, s in zip(loop_vars, strings)},
        global_code_py=f"STRINGS = {tuple(strings)!r}",
        center_code_py="\n".join(py_lines),
        global_code_c=_strings_global_c(strings),
        center_code_c="\n".join(c_lines),
    )


def msa_reference(
    strings: Sequence[str],
    mismatch: float = DEFAULT_MISMATCH,
    gap: float = DEFAULT_GAP,
) -> float:
    """Dense DP oracle for sum-of-pairs MSA (2 or 3 sequences)."""
    d = len(strings)
    shape = tuple(len(s) + 1 for s in strings)
    table = np.full(shape, np.inf, dtype=np.float64)
    table[(0,) * d] = 0.0
    moves = [
        combo
        for combo in itertools.product((0, -1), repeat=d)
        if any(c != 0 for c in combo)
    ]
    for idx in itertools.product(*(range(n) for n in shape)):
        if idx == (0,) * d:
            continue
        best = np.inf
        for move in moves:
            prev = tuple(i + m for i, m in zip(idx, move))
            if any(p < 0 for p in prev):
                continue
            chars: List[Optional[str]] = [
                strings[k][idx[k] - 1] if move[k] != 0 else None for k in range(d)
            ]
            cost = 0.0
            for a_i in range(d):
                for b_i in range(a_i + 1, d):
                    cost += _pair_cost(chars[a_i], chars[b_i], mismatch, gap)
            best = min(best, table[prev] + cost)
        table[idx] = best
    return float(table[tuple(len(s) for s in strings)])


# ---------------------------------------------------------------------------
# Damerau-Levenshtein (optimal string alignment) — transposition template
# ---------------------------------------------------------------------------


def damerau_spec(a: str, b: str, tile_width: int = 8, lb_dims=None) -> ProblemSpec:
    """Restricted Damerau-Levenshtein distance (edit + adjacent swap).

    Adds the transposition move to edit distance: a *reach-2* template
    ``<-2, -2>``, exercising multi-cell ghost margins and the tile-width
    >= reach validation (widths below 2 are rejected by the spec layer).
    """

    def kernel(point: Mapping[str, int], deps: Mapping[str, Optional[float]],
               params: Mapping[str, int]) -> float:
        i, j = point["i"], point["j"]
        best = None
        if deps["up"] is not None:
            best = deps["up"] + 1.0
        if deps["left"] is not None:
            cand = deps["left"] + 1.0
            best = cand if best is None or cand < best else best
        if deps["diag"] is not None:
            cost = 0.0 if a[i - 1] == b[j - 1] else 1.0
            cand = deps["diag"] + cost
            best = cand if best is None or cand < best else best
        if (
            deps["swap"] is not None
            and i >= 2
            and j >= 2
            and a[i - 1] == b[j - 2]
            and a[i - 2] == b[j - 1]
        ):
            cand = deps["swap"] + 1.0
            best = cand if best is None or cand < best else best
        return 0.0 if best is None else best

    A, B = _seq_codes(a, 0), _seq_codes(b, 1)

    def vector_kernel(point, deps, valid, params):
        i, j = point["i"], point["j"]
        ai, bj = A.take(i), B.take(j)
        cost = np.where(ai == bj, 0.0, 1.0)
        # a[i-1] == b[j-2] and a[i-2] == b[j-1]; whenever i < 2 or
        # j < 2 one side of one equality is a slot-0 sentinel (index -1
        # wraps in bounds and is then never decisive), so the scalar
        # kernel's `i >= 2 and j >= 2` needs no test of its own.
        swap_ok = valid["swap"] & (ai == B.take(j - 1)) & (A.take(i - 1) == bj)
        best = np.full(cost.shape, np.inf)
        np.add(deps["up"], 1.0, out=best, where=valid["up"])
        np.minimum(best, deps["left"] + 1.0, out=best, where=valid["left"])
        np.minimum(best, deps["diag"] + cost, out=best, where=valid["diag"])
        np.minimum(best, deps["swap"] + 1.0, out=best, where=swap_ok)
        return np.where(np.isinf(best), 0.0, best)

    return ProblemSpec.create(
        name="damerau",
        loop_vars=["i", "j"],
        params=["LA", "LB"],
        constraints=["i >= 0", "j >= 0", "i <= LA", "j <= LB"],
        templates={
            "up": [-1, 0],
            "left": [0, -1],
            "diag": [-1, -1],
            "swap": [-2, -2],
        },
        tile_widths=tile_width,
        lb_dims=lb_dims or ("i",),
        kernel=kernel,
        vector_kernel=vector_kernel,
        objective_point={"i": len(a), "j": len(b)},
        global_code_py=f'SEQ_A = "{a}"\nSEQ_B = "{b}"',
        center_code_py=(
            "_best = None\n"
            "if is_valid_up:\n"
            "    _best = V[loc_up] + 1.0\n"
            "if is_valid_left:\n"
            "    _c = V[loc_left] + 1.0\n"
            "    if _best is None or _c < _best:\n"
            "        _best = _c\n"
            "if is_valid_diag:\n"
            "    _c = V[loc_diag] + (0.0 if SEQ_A[i-1] == SEQ_B[j-1] else 1.0)\n"
            "    if _best is None or _c < _best:\n"
            "        _best = _c\n"
            "if is_valid_swap and i >= 2 and j >= 2 and "
            "SEQ_A[i-1] == SEQ_B[j-2] and SEQ_A[i-2] == SEQ_B[j-1]:\n"
            "    _c = V[loc_swap] + 1.0\n"
            "    if _best is None or _c < _best:\n"
            "        _best = _c\n"
            "V[loc] = 0.0 if _best is None else _best"
        ),
    )


def damerau_reference(a: str, b: str) -> int:
    """Textbook optimal-string-alignment distance."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost
            )
            if (
                i >= 2
                and j >= 2
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[la][lb]


# ---------------------------------------------------------------------------
# Smith-Waterman local alignment (max-with-zero kernel)
# ---------------------------------------------------------------------------

SW_MATCH = 2.0
SW_MISMATCH = -1.0
SW_GAP = 1.0


def smith_waterman_spec(
    a: str,
    b: str,
    tile_width: int = 8,
    match: float = SW_MATCH,
    mismatch: float = SW_MISMATCH,
    gap: float = SW_GAP,
    lb_dims=None,
) -> ProblemSpec:
    """Smith-Waterman local alignment scores over the (i, j) grid.

    The kernel clamps at zero (local alignment restarts anywhere); the
    quantity of interest is the *maximum over all cells*, so use
    :func:`smith_waterman_best` (record_values) or SolutionRecovery
    rather than the objective point.
    """

    def kernel(point, deps, params):
        i, j = point["i"], point["j"]
        best = 0.0
        if deps["diag"] is not None:
            s = match if a[i - 1] == b[j - 1] else mismatch
            best = max(best, deps["diag"] + s)
        if deps["up"] is not None:
            best = max(best, deps["up"] - gap)
        if deps["left"] is not None:
            best = max(best, deps["left"] - gap)
        return best

    A, B = _seq_codes(a, 0), _seq_codes(b, 1)

    def vector_kernel(point, deps, valid, params):
        s = np.where(
            A.take(point["i"]) == B.take(point["j"]), match, mismatch
        )
        best = np.zeros(s.shape)
        np.maximum(best, deps["diag"] + s, out=best, where=valid["diag"])
        np.maximum(best, deps["up"] - gap, out=best, where=valid["up"])
        np.maximum(best, deps["left"] - gap, out=best, where=valid["left"])
        return best

    return ProblemSpec.create(
        name="smith-waterman",
        loop_vars=["i", "j"],
        params=["LA", "LB"],
        constraints=["i >= 0", "j >= 0", "i <= LA", "j <= LB"],
        templates={"up": [-1, 0], "left": [0, -1], "diag": [-1, -1]},
        tile_widths=tile_width,
        lb_dims=lb_dims or ("i",),
        kernel=kernel,
        vector_kernel=vector_kernel,
        objective_point={"i": len(a), "j": len(b)},
    )


def smith_waterman_best(program, params) -> float:
    """Best local-alignment score: max over every computed cell."""
    from ..runtime import execute

    result = execute(program, params, record_values=True)
    return max(result.values.values())


def smith_waterman_reference(
    a: str,
    b: str,
    match: float = SW_MATCH,
    mismatch: float = SW_MISMATCH,
    gap: float = SW_GAP,
) -> float:
    """Dense numpy oracle for the best Smith-Waterman score."""
    la, lb = len(a), len(b)
    h = np.zeros((la + 1, lb + 1))
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            h[i, j] = max(
                0.0, h[i - 1, j - 1] + s, h[i - 1, j] - gap, h[i, j - 1] - gap
            )
    return float(h.max())
