"""C backend: structural checks plus compile-and-run validation."""

import hashlib
import subprocess

import pytest

from repro.cli import _builtin_spec
from repro.generator import generate
from repro.generator.cgen import emit_c_program, emit_c_tile_library
from repro.problems import (
    REGISTRY,
    edit_distance_reference,
    three_arm_reference,
    two_arm_reference,
    two_arm_spec,
)


@pytest.fixture(scope="module")
def bandit_c(bandit2_w4_program):
    return emit_c_program(bandit2_w4_program)


class TestStructure:
    def test_contains_all_sections(self, bandit_c):
        for marker in [
            "repro_tile_work",
            "repro_tile_box",
            "repro_execute_tile",
            "repro_pack_size",
            "repro_unpack",
            "repro_priority",
            "repro_init_load_balance",
            "repro_scan_initial_tiles",
            "#pragma omp parallel",
            "#ifdef REPRO_USE_MPI",
            "MPI_Init",
            "MPI_Send",
            "int main(",
        ]:
            assert marker in bandit_c, f"missing {marker}"

    def test_user_symbols_present(self, bandit_c):
        # The Section IV-B programming interface.
        assert "long loc =" in bandit_c
        assert "loc_succ1" in bandit_c
        assert "is_valid_succ1" in bandit_c

    def test_shared_checks_emitted_once(self, bandit_c):
        # All four bandit templates share one check.
        assert bandit_c.count("int _chk0 =") == 1
        assert "int is_valid_succ1 = _chk0;" in bandit_c
        assert "int is_valid_fail2 = _chk0;" in bandit_c

    def test_template_offsets_constant(self, bandit_c):
        assert "long loc_succ1 = loc + (125);" in bandit_c

    def test_ehrhart_embedded(self, bandit_c):
        assert "repro_total_work_ehrhart" in bandit_c
        assert "Ehrhart polynomial" in bandit_c

    def test_center_code_pasted(self, bandit_c):
        assert "user center-loop code" in bandit_c
        assert "(s1 + 1.0) / (s1 + f1 + 2.0)" in bandit_c

    def test_descending_loops_for_positive_templates(self, bandit_c):
        assert "--" in bandit_c  # Figure 3: descending local loops

    def test_without_ehrhart_flag(self, bandit2_w4_program):
        src = emit_c_program(bandit2_w4_program, with_ehrhart=False)
        assert "#define REPRO_HAVE_EHRHART" not in src
        assert "static long repro_total_work_ehrhart" not in src

    def test_build_instructions_in_header(self, bandit_c):
        assert "gcc -O2 -std=c99 -fopenmp" in bandit_c
        assert "mpicc" in bandit_c

    def test_deterministic_output(self, bandit2_w4_program):
        assert emit_c_program(bandit2_w4_program) == emit_c_program(
            bandit2_w4_program
        )


#: sha256 prefixes of ``emit_c_program`` for every bundled problem (the
#: CLI's demo instances at width 4), recorded before the tile library
#: began to share the prologue and the tile function with it.
PROGRAM_PINS = {
    "bandit2": "812340e829da8be1",
    "bandit2-delayed": "16175c046c5e4bb4",
    "bandit3": "51ea33431d76f5c1",
    "damerau": "f2f2c1773bd46d59",
    "edit-distance": "0105b8721be650e4",
    "lcs": "3db6a2d324dd5f0c",
    "msa": "09d0657f75f41dd7",
    "smith-waterman": "5913a0b4d4045386",
    "viterbi": "7a8cd1d43c9bd242",
}


def _tile_function(src):
    """The lines of ``repro_execute_tile`` in an emitted source."""
    lines = src.splitlines()
    start = lines.index(
        "static void repro_execute_tile(const long *t, double *V) {"
    )
    return lines[start:lines.index("}", start) + 1]


class TestTileLibrary:
    """The loadable library is the program's own tile function."""

    @pytest.mark.parametrize("name", sorted(PROGRAM_PINS))
    def test_program_unchanged_and_tile_function_shared(self, name):
        assert sorted(PROGRAM_PINS) == sorted(REGISTRY)
        program = generate(_builtin_spec(name, 4))
        src = emit_c_program(program)
        assert hashlib.sha256(src.encode()).hexdigest()[:16] == (
            PROGRAM_PINS[name]
        )
        lib = emit_c_tile_library(program)
        assert lib == emit_c_tile_library(program)
        # The library's tile function is the program's plus the cell
        # counter and one poison check per template, nothing else.
        added = [
            line for line in _tile_function(lib)
            if line.strip() == "repro_cells++;"
            or line.lstrip().startswith("if (repro_bad[0] < 0 && is_valid_")
        ]
        assert len(added) == 1 + len(program.spec.templates)
        assert [
            line for line in _tile_function(lib) if line not in added
        ] == _tile_function(src)
        # One exported symbol; no driver, no OpenMP, no MPI calls.
        assert lib.count("\nlong repro_native_tiles(") == 1
        for absent in ("int main(", "#pragma omp", "MPI_Init"):
            assert absent not in lib


def _compile_and_run(src, args, tmp_path, threads=2):
    cpath = tmp_path / "prog.c"
    binpath = tmp_path / "prog"
    cpath.write_text(src)
    build = subprocess.run(
        ["gcc", "-O2", "-std=c99", "-fopenmp", str(cpath), "-o", str(binpath), "-lm"],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run(
        [str(binpath)] + [str(a) for a in args],
        capture_output=True,
        text=True,
        env={"OMP_NUM_THREADS": str(threads)},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.slow
class TestCompileAndRun:
    def test_bandit2_objective(self, bandit2_w4_program, gcc_available, tmp_path):
        if not gcc_available:
            pytest.skip("gcc not available")
        out = _compile_and_run(emit_c_program(bandit2_w4_program), [10], tmp_path)
        objective = float(
            next(l for l in out.splitlines() if l.startswith("objective")).split()[1]
        )
        assert objective == pytest.approx(two_arm_reference(10), abs=1e-9)

    def test_bandit2_ehrhart_matches_cells(
        self, bandit2_w4_program, gcc_available, tmp_path
    ):
        if not gcc_available:
            pytest.skip("gcc not available")
        out = _compile_and_run(emit_c_program(bandit2_w4_program), [9], tmp_path)
        header = next(l for l in out.splitlines() if l.startswith("tiles"))
        cells = int(header.split()[3])
        ehrhart = int(
            next(
                l for l in out.splitlines() if l.startswith("ehrhart_total")
            ).split()[1]
        )
        assert cells == ehrhart
        assert cells == bandit2_w4_program.spaces.total_points({"N": 9})

    def test_bandit3(self, bandit3_program, gcc_available, tmp_path):
        if not gcc_available:
            pytest.skip("gcc not available")
        out = _compile_and_run(emit_c_program(bandit3_program), [5], tmp_path)
        objective = float(
            next(l for l in out.splitlines() if l.startswith("objective")).split()[1]
        )
        assert objective == pytest.approx(three_arm_reference(5), abs=1e-9)

    def test_edit_distance(self, edit_program, edit_strings, gcc_available, tmp_path):
        if not gcc_available:
            pytest.skip("gcc not available")
        a, b = edit_strings
        out = _compile_and_run(
            emit_c_program(edit_program), [len(a), len(b)], tmp_path
        )
        objective = float(
            next(l for l in out.splitlines() if l.startswith("objective")).split()[1]
        )
        assert objective == edit_distance_reference(a, b)

    def test_openmp_thread_count_invariance(
        self, bandit2_w4_program, gcc_available, tmp_path
    ):
        if not gcc_available:
            pytest.skip("gcc not available")
        src = emit_c_program(bandit2_w4_program)
        outs = [
            _compile_and_run(src, [8], tmp_path, threads=t) for t in (1, 4)
        ]
        objectives = {
            next(l for l in o.splitlines() if l.startswith("objective"))
            for o in outs
        }
        assert len(objectives) == 1
