"""Damerau-Levenshtein (reach-2 templates) and Smith-Waterman variants,
and the lane-for-lane contract of every alignment vector kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.generator import generate
from repro.problems import (
    damerau_reference,
    damerau_spec,
    edit_distance_reference,
    edit_distance_spec,
    lcs_spec,
    msa_spec,
    random_sequence,
    smith_waterman_best,
    smith_waterman_reference,
    smith_waterman_spec,
)
from repro.runtime import execute, solve_reference
from repro.spec import kernel_from_center_code


class TestDamerauReference:
    def test_transposition_is_one(self):
        assert damerau_reference("AB", "BA") == 1
        assert edit_distance_reference("AB", "BA") == 2

    def test_classic_case(self):
        assert damerau_reference("CA", "ABC") == 3  # restricted OSA

    def test_never_exceeds_levenshtein(self):
        for seed in range(5):
            a = random_sequence(9, seed)
            b = random_sequence(8, seed + 50)
            assert damerau_reference(a, b) <= edit_distance_reference(a, b)

    def test_identical(self):
        assert damerau_reference("ACGT", "ACGT") == 0


class TestDamerauSpec:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, seed):
        a = random_sequence(11, seed)
        b = random_sequence(9, seed + 100)
        program = generate(damerau_spec(a, b, tile_width=3))
        res = execute(program, {"LA": len(a), "LB": len(b)})
        assert res.objective_value == damerau_reference(a, b)

    def test_transposition_instance(self):
        # Force a case where the swap template matters.
        a, b = "ACGT", "CAGT"
        program = generate(damerau_spec(a, b, tile_width=2))
        res = execute(program, {"LA": 4, "LB": 4})
        assert res.objective_value == 1.0

    def test_reach2_ghost_margins(self):
        program = generate(damerau_spec("ACGTAC", "GATTAC", tile_width=4))
        assert program.layout.ghost_lo == (2, 2)
        assert program.layout.ghost_hi == (0, 0)

    def test_width_below_reach_rejected(self):
        with pytest.raises(SpecError):
            damerau_spec("ACGT", "GATT", tile_width=1)

    def test_synthesized_kernel_agrees(self):
        a, b = random_sequence(8, 5), random_sequence(7, 6)
        spec = damerau_spec(a, b, tile_width=3)
        program = generate(spec)
        synthesized = kernel_from_center_code(spec)
        res = execute(program, {"LA": len(a), "LB": len(b)}, kernel=synthesized)
        assert res.objective_value == damerau_reference(a, b)


class TestSmithWaterman:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_best_score_matches_reference(self, seed):
        a = random_sequence(14, seed)
        b = random_sequence(12, seed + 30)
        program = generate(smith_waterman_spec(a, b, tile_width=4))
        best = smith_waterman_best(program, {"LA": len(a), "LB": len(b)})
        assert best == pytest.approx(
            smith_waterman_reference(a, b), abs=1e-9
        )

    def test_perfect_substring(self):
        a = "TTTTACGTACGTTTT"
        b = "ACGTACG"
        program = generate(smith_waterman_spec(a, b, tile_width=4))
        best = smith_waterman_best(program, {"LA": len(a), "LB": len(b)})
        # 7 matching characters at +2 each.
        assert best == 14.0

    def test_disjoint_alphabets_score_zero(self):
        program = generate(
            smith_waterman_spec("AAAA", "TTTT", tile_width=2, match=2.0)
        )
        best = smith_waterman_best(program, {"LA": 4, "LB": 4})
        assert best == 0.0

    def test_scores_nonnegative_everywhere(self):
        a, b = random_sequence(9, 9), random_sequence(9, 10)
        program = generate(smith_waterman_spec(a, b, tile_width=3))
        res = execute(
            program, {"LA": 9, "LB": 9}, record_values=True
        )
        assert all(v >= 0.0 for v in res.values.values())

    def test_local_beats_global_prefix_scores(self):
        # The local optimum is at least the score of any single cell.
        a, b = random_sequence(10, 11), random_sequence(10, 12)
        program = generate(smith_waterman_spec(a, b, tile_width=4))
        res = execute(program, {"LA": 10, "LB": 10}, record_values=True)
        best = max(res.values.values())
        assert best >= res.values[(10, 10)]


#: The five alignment spec builders (LCS and MSA at both arities), each
#: taking the sequences and a tile width.
ALIGNMENT_SPECS = {
    "edit": (2, lambda s, w: edit_distance_spec(*s, tile_width=w)),
    "lcs2": (2, lambda s, w: lcs_spec(s, tile_width=w)),
    "lcs3": (3, lambda s, w: lcs_spec(s, tile_width=w)),
    "msa2": (2, lambda s, w: msa_spec(s, tile_width=w)),
    "msa3": (3, lambda s, w: msa_spec(s, tile_width=w)),
    "damerau": (2, lambda s, w: damerau_spec(*s, tile_width=w)),
    "sw": (2, lambda s, w: smith_waterman_spec(*s, tile_width=w)),
}

#: Few distinct characters, so matches and transpositions happen; three
#: of them beyond Latin-1 (a `<U1`-free kernel must not truncate them).
ALPHABET = "AC\u0141\u4e2d\U0001f600"

#: What an invalid lane may hold: the engines leave NaN there, but a
#: kernel must not read it whatever it is.
GARBAGE = np.array([np.nan, np.inf, -np.inf, 1e300, -7.0])


def _params(spec, strings):
    return dict(zip(spec.params, map(len, strings)))


class TestVectorKernelLanes:
    """``vector_kernel`` lane j == scalar ``kernel`` at point j, exactly."""

    @pytest.mark.parametrize("name", sorted(ALIGNMENT_SPECS))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_lane_equals_scalar_kernel(self, name, data):
        arity, build = ALIGNMENT_SPECS[name]
        strings = [
            data.draw(st.text(alphabet=ALPHABET, max_size=4))
            for _ in range(arity)
        ]
        spec = build(strings, 2)
        params = _params(spec, strings)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # Every point of the space — coordinate 0 on every axis and on
        # all at once included — as the lanes of one call, shuffled.
        lanes = np.array(
            list(itertools.product(*(range(len(s) + 1) for s in strings))),
            dtype=np.int64,
        )
        rng.shuffle(lanes)
        point = dict(zip(spec.loop_vars, lanes.T.copy()))
        deps, valid = {}, {}
        for tname, vec in spec.templates.items():
            valid[tname] = ((lanes + np.asarray(vec)) >= 0).all(axis=1)
            # Halves of small integers, negatives included: never -0.0.
            real = rng.integers(-4, 10, len(lanes)) / 2.0
            deps[tname] = np.where(
                valid[tname], real, rng.choice(GARBAGE, len(lanes))
            )

        out = np.broadcast_to(
            np.asarray(
                spec.vector_kernel(point, deps, valid, params),
                dtype=np.float64,
            ),
            (len(lanes),),
        )
        want = np.array(
            [
                spec.kernel(
                    dict(zip(spec.loop_vars, lanes[j].tolist())),
                    {
                        t: float(deps[t][j]) if valid[t][j] else None
                        for t in deps
                    },
                    params,
                )
                for j in range(len(lanes))
            ],
            dtype=np.float64,
        )
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "ranks, backend", [(1, "inline"), (2, "inline"), (2, "process")]
    )
    @pytest.mark.parametrize(
        "strings",
        [["", "AC\u4e2d", "C"], ["\u4e2d", "A\u4e2dC", "\u4e2d"]],
        ids=["empty", "length-1"],
    )
    @pytest.mark.parametrize("name", sorted(ALIGNMENT_SPECS))
    def test_degenerate_instances_all_engines(
        self, name, strings, ranks, backend
    ):
        arity, build = ALIGNMENT_SPECS[name]
        strings = strings[:arity]
        spec = build(strings, 2)
        program = generate(spec)
        params = _params(spec, strings)
        ref = solve_reference(program, params, record_values=True)
        for mode in ("interpret", "vector", "wavefront"):
            res = execute(
                program, params, mode=mode, ranks=ranks, backend=backend,
                record_values=True,
            )
            assert (res.mode, res.backend) == (mode, backend)
            assert res.values == ref.values
            assert res.objective_value == ref.objective_value
