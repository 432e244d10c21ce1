"""Vectorized fast path vs the interpreter vs the untiled oracle.

The contract of :mod:`repro.runtime.fastpath` is *bit-identity*: for
every bundled problem, vector mode must reproduce the interpreter's
objective value, full ``record_values`` table, memory-tracker snapshot
and tile order exactly — no tolerances — and both must match
``solve_reference``.  A hypothesis sweep varies instance sizes and tile
widths to hit ragged boundary tiles, empty tiles and degenerate
instances.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeExecutionError
from repro.generator import generate
from repro.problems import (
    damerau_spec,
    delayed_two_arm_spec,
    edit_distance_spec,
    lcs_spec,
    msa_spec,
    random_hmm,
    random_sequence,
    smith_waterman_spec,
    three_arm_spec,
    two_arm_spec,
    viterbi_spec,
)
from repro.runtime import (
    compiled_executor,
    execute,
    solve_reference,
    vector_unsupported_reason,
)

from .conftest import auto_mode


def assert_bit_identical(program, params):
    """Vector == interpreter == untiled reference, exactly."""
    interp = execute(program, params, record_values=True, mode="interpret")
    vector = execute(program, params, record_values=True, mode="vector")
    oracle = solve_reference(program, params, record_values=True)
    assert vector.mode == "vector"
    assert interp.mode == "interpret"
    assert vector.objective_value == interp.objective_value
    assert vector.objective_value == oracle.objective_value
    assert vector.values == interp.values  # every cell, bit-for-bit
    assert vector.values == oracle.values
    assert vector.memory == interp.memory  # same edges, same peaks
    assert vector.tile_order == interp.tile_order
    assert vector.cells_computed == interp.cells_computed
    return vector


class TestAllBundledProblems:
    def test_bandit2(self, bandit2_program):
        for n in (0, 1, 2, 5, 9):
            assert_bit_identical(bandit2_program, {"N": n})

    def test_bandit3(self, bandit3_program):
        assert_bit_identical(bandit3_program, {"N": 5})

    def test_delayed_bandit(self, delayed_program):
        assert_bit_identical(delayed_program, {"N": 6})

    def test_edit_distance(self, edit_program, edit_strings):
        a, b = edit_strings
        assert_bit_identical(edit_program, {"LA": len(a), "LB": len(b)})

    def test_edit_distance_prefix_run(self, edit_program):
        # Objective cell outside the space: both engines report None.
        interp = execute(edit_program, {"LA": 3, "LB": 2}, mode="interpret")
        vector = execute(edit_program, {"LA": 3, "LB": 2}, mode="vector")
        assert interp.objective_value is None
        assert vector.objective_value is None

    def test_lcs2(self):
        a, b = random_sequence(15, seed=5), random_sequence(12, seed=6)
        program = generate(lcs_spec([a, b], tile_width=4))
        assert_bit_identical(program, {"L1": len(a), "L2": len(b)})

    def test_lcs3(self, lcs3_program, lcs3_strings):
        params = {f"L{k+1}": len(s) for k, s in enumerate(lcs3_strings)}
        assert_bit_identical(lcs3_program, params)

    def test_msa2(self):
        a, b = random_sequence(13, seed=7), random_sequence(16, seed=8)
        program = generate(msa_spec([a, b], tile_width=4))
        assert_bit_identical(program, {"L1": len(a), "L2": len(b)})

    def test_msa3(self, msa3_program, lcs3_strings):
        params = {f"L{k+1}": len(s) for k, s in enumerate(lcs3_strings)}
        assert_bit_identical(msa3_program, params)

    def test_damerau(self):
        a, b = "ca", "abc"
        program = generate(damerau_spec(a, b, tile_width=2))
        assert_bit_identical(program, {"LA": len(a), "LB": len(b)})
        a, b = random_sequence(14, seed=9), random_sequence(10, seed=10)
        program = generate(damerau_spec(a, b, tile_width=4))
        assert_bit_identical(program, {"LA": len(a), "LB": len(b)})

    def test_smith_waterman(self):
        a, b = random_sequence(14, seed=12), random_sequence(17, seed=13)
        program = generate(smith_waterman_spec(a, b, tile_width=4))
        res = assert_bit_identical(program, {"LA": len(a), "LB": len(b)})
        assert res.values  # local alignment consumers read the full table

    def test_empty_sequences(self):
        program = generate(edit_distance_spec("", "", tile_width=2))
        assert_bit_identical(program, {"LA": 0, "LB": 0})


class TestHypothesisSweep:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 10), w=st.integers(2, 6))
    def test_bandit2_sweep(self, n, w):
        program = generate(two_arm_spec(tile_width=w))
        assert_bit_identical(program, {"N": n})

    @settings(max_examples=20, deadline=None)
    @given(
        la=st.integers(0, 9),
        lb=st.integers(0, 9),
        w=st.integers(2, 5),
        seed=st.integers(0, 3),
    )
    def test_edit_sweep(self, la, lb, w, seed):
        a = random_sequence(la, seed=seed)
        b = random_sequence(lb, seed=seed + 100)
        program = generate(edit_distance_spec(a, b, tile_width=w))
        assert_bit_identical(program, {"LA": la, "LB": lb})

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(0, 7), w=st.integers(2, 4))
    def test_delayed_sweep(self, n, w):
        program = generate(delayed_two_arm_spec(tile_width=w))
        assert_bit_identical(program, {"N": n})

    @settings(max_examples=15, deadline=None)
    @given(
        lens=st.lists(st.integers(0, 6), min_size=2, max_size=3),
        w=st.integers(2, 4),
        seed=st.integers(0, 3),
    )
    def test_lcs_sweep(self, lens, w, seed):
        strings = [
            random_sequence(n, seed=seed + 10 * k)
            for k, n in enumerate(lens)
        ]
        program = generate(lcs_spec(strings, tile_width=w))
        params = {f"L{k+1}": n for k, n in enumerate(lens)}
        assert_bit_identical(program, params)


class TestDispatch:
    def test_auto_prefers_wavefront(self, bandit2_program):
        # The preference order: the compiled tile body where it can be
        # built, else the array engine front at a time.
        ce = compiled_executor(bandit2_program)
        want = "native" if ce.native_reason is None else "wavefront"
        assert execute(bandit2_program, {"N": 4}).mode == want

    def test_auto_keeps_wavefront_for_keep_edges(self, bandit2_program):
        # Retaining packed edges (solution recovery) does not cost the
        # fused front: under keep_edges every edge is array-packed from
        # the batch, so auto resolves as it does without them.
        res = execute(bandit2_program, {"N": 4}, keep_edges=True)
        assert res.mode == auto_mode(bandit2_program)
        assert res.edges

    def test_no_compiler_steps_down_to_wavefront(
        self, bandit2_spec, monkeypatch
    ):
        monkeypatch.setattr("shutil.which", lambda *a, **k: None)
        program = generate(bandit2_spec)
        assert execute(program, {"N": 4}).mode == "wavefront"
        assert "no C compiler" in compiled_executor(program).native_reason
        with pytest.raises(
            RuntimeExecutionError,
            match="native mode unavailable: no C compiler",
        ):
            execute(program, {"N": 4}, mode="native")

    @pytest.mark.parametrize(
        "spec",
        [damerau_spec("ca", "abc", 2), smith_waterman_spec("ca", "abc", 2)],
        ids=["damerau", "smith-waterman"],
    )
    def test_no_c_centre_code_steps_down(self, spec):
        program = generate(spec)
        params = {"LA": 2, "LB": 3}
        assert "no center_code_c" in compiled_executor(program).native_reason
        assert execute(program, params).mode == "wavefront"
        with pytest.raises(RuntimeExecutionError, match="no center_code_c"):
            execute(program, params, mode="native")

    def test_c_centre_code_without_vector_kernel_steps_down(self):
        # Native mode evaluates over the array engine's geometry.
        hmm = random_hmm(n_states=3, n_symbols=4, length=6, seed=7)
        program = generate(viterbi_spec(*hmm, tile_width_t=3))
        ce = compiled_executor(program)
        assert program.spec.center_code_c and ce.vector_engine is None
        assert ce.vector_reason in ce.native_reason
        assert execute(program, {"T": 5}).mode == "interpret"
        with pytest.raises(RuntimeExecutionError, match="no vector kernel"):
            execute(program, {"T": 5}, mode="native")

    def test_failed_build_steps_down_with_the_compiler_error(
        self, bandit2_spec, tmp_path, monkeypatch
    ):
        if shutil.which("gcc") is None and shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = dataclasses.replace(
            bandit2_spec, center_code_c="this is not C;"
        )
        program = generate(spec)
        assert execute(program, {"N": 4}).mode == "wavefront"
        reason = compiled_executor(program).native_reason
        assert "failed" in reason and "error" in reason
        with pytest.raises(RuntimeExecutionError, match="error"):
            execute(program, {"N": 4}, mode="native")
        assert list(tmp_path.iterdir()) == []

    def test_forced_wavefront_accepts_keep_edges(self, bandit2_program):
        res = execute(
            bandit2_program, {"N": 4}, mode="wavefront", keep_edges=True
        )
        assert res.mode == "wavefront"
        ref = execute(
            bandit2_program, {"N": 4}, mode="interpret", keep_edges=True
        )
        assert set(res.edges) == set(ref.edges)
        for key, buf in ref.edges.items():
            assert res.edges[key].tobytes() == buf.tobytes()

    def test_auto_falls_back_without_vector_kernel(self, bandit2_spec):
        spec = dataclasses.replace(bandit2_spec, vector_kernel=None)
        program = generate(spec)
        res = execute(program, {"N": 4})
        assert res.mode == "interpret"
        with pytest.raises(RuntimeExecutionError, match="no vector kernel"):
            execute(program, {"N": 4}, mode="vector")

    def test_custom_kernel_forces_interpreter(self, bandit2_program):
        res = execute(
            bandit2_program, {"N": 4},
            kernel=lambda point, deps, params: 1.0,
        )
        assert res.mode == "interpret"
        assert res.objective_value == 1.0
        with pytest.raises(RuntimeExecutionError, match="custom scalar"):
            execute(
                bandit2_program, {"N": 4},
                kernel=lambda point, deps, params: 1.0,
                mode="vector",
            )

    def test_invalid_mode_rejected(self, bandit2_program):
        with pytest.raises(RuntimeExecutionError, match="unknown execution"):
            execute(bandit2_program, {"N": 4}, mode="simd")

    def test_unsupported_reason_reporting(self, bandit2_spec):
        spec = dataclasses.replace(bandit2_spec, vector_kernel=None)
        program = generate(spec)
        reason = vector_unsupported_reason(program)
        assert reason is not None and "no vector kernel" in reason
        assert compiled_executor(program).vector_reason == reason

    def test_supported_program_has_no_reason(self, bandit2_program):
        assert vector_unsupported_reason(bandit2_program) is None
        ce = compiled_executor(bandit2_program)
        assert ce.vector_engine is not None
        assert ce.vector_reason is None


class TestVectorParityExtras:
    def test_keep_edges_parity(self, edit_program, edit_strings):
        a, b = edit_strings
        params = {"LA": len(a), "LB": len(b)}
        interp = execute(
            edit_program, params, keep_edges=True, mode="interpret"
        )
        vector = execute(edit_program, params, keep_edges=True, mode="vector")
        assert set(interp.edges) == set(vector.edges)
        for key, buf in interp.edges.items():
            assert buf.tolist() == vector.edges[key].tolist()

    def test_priority_scheme_parity(self, bandit2_program):
        for scheme in ("column-major", "level-set", "lb-first", "lb-last"):
            interp = execute(
                bandit2_program, {"N": 6},
                priority_scheme=scheme, mode="interpret",
            )
            vector = execute(
                bandit2_program, {"N": 6},
                priority_scheme=scheme, mode="vector",
            )
            assert interp.tile_order == vector.tile_order
            assert interp.objective_value == vector.objective_value
