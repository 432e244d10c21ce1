"""Command-line interface tests."""

import json
import re

import pytest

from repro.cli import (
    main_generate,
    main_lint,
    main_racecheck,
    main_run,
    main_simulate,
)

SPEC = """\
problem: staircase
loop_vars: x y
params: M
tile_widths: 3

constraints:
    x >= 0
    y >= 0
    x + y <= M

templates:
    right = 1 0
    up = 0 1

center_code_c: |
    V[loc] = 1.0;

center_code_py: |
    V[loc] = 1.0
"""


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "prob.spec"
    path.write_text(SPEC)
    return path


class TestGenerate:
    def test_c_output(self, spec_file, tmp_path, capsys):
        out = tmp_path / "prog.c"
        rc = main_generate([str(spec_file), "-o", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "#pragma omp parallel" in text
        assert "staircase" in text
        assert "wrote" in capsys.readouterr().out

    def test_py_output(self, spec_file, tmp_path):
        out = tmp_path / "prog.py"
        rc = main_generate([str(spec_file), "-o", str(out), "--target", "py"])
        assert rc == 0
        compile(out.read_text(), "prog.py", "exec")

    def test_stdout_default(self, spec_file, capsys):
        rc = main_generate([str(spec_file)])
        assert rc == 0
        assert "int main(" in capsys.readouterr().out

    def test_describe_flag(self, spec_file, capsys):
        rc = main_generate([str(spec_file), "--describe"])
        assert rc == 0
        assert "tile dependencies" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("problem: x\n")
        rc = main_generate([str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_lp_prune_option(self, spec_file, capsys):
        rc = main_generate([str(spec_file), "--prune", "lp"])
        assert rc == 0


class TestRun:
    def test_bandit(self, capsys):
        rc = main_run(["--problem", "bandit2", "--tile-width", "3", "N=6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert "tiles executed" in out
        # Auto got its first preference, or the summary says why not.
        assert re.search(
            r"engine mode +: (native|\w+ \(native unavailable: .+\))$",
            out, re.M,
        )

    def test_alignment_defaults(self, capsys):
        rc = main_run(["--problem", "edit-distance", "--tile-width", "5"])
        assert rc == 0
        assert "objective" in capsys.readouterr().out

    def test_spmd_ranks(self, capsys):
        rc = main_run(
            ["--problem", "bandit2", "--tile-width", "3", "--ranks", "2",
             "N=10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tiles per rank" in out
        assert "cross-rank msgs" in out
        assert "bit-identical" in out

    def test_spec_file_with_ranks(self, spec_file, capsys):
        rc = main_run(["--spec", str(spec_file), "--ranks", "2", "M=9"])
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_bad_rank_count_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main_run(["--problem", "bandit2", "--ranks", "0", "N=6"])
        assert exc.value.code == 2

    def test_unknown_problem(self):
        with pytest.raises(SystemExit):
            main_run(["--problem", "nope"])

    def test_bad_param_format(self):
        with pytest.raises(SystemExit):
            main_run(["--problem", "bandit2", "N:6"])

    def test_non_integer_param(self):
        with pytest.raises(SystemExit):
            main_run(["--problem", "bandit2", "N=six"])


class TestSimulate:
    def test_single_run(self, capsys):
        rc = main_simulate(
            ["--problem", "bandit2", "--tile-width", "5", "--nodes", "2",
             "--cores", "4", "N=20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "efficiency" in out
        assert "messages" in out

    def test_core_sweep(self, capsys):
        rc = main_simulate(
            ["--problem", "bandit2", "--tile-width", "5", "--sweep-cores",
             "N=16"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_hyperplane_lb(self, capsys):
        rc = main_simulate(
            ["--problem", "bandit2", "--tile-width", "5", "--nodes", "2",
             "--cores", "4", "--lb", "hyperplane", "N=20"]
        )
        assert rc == 0
        assert "hyperplane" in capsys.readouterr().out

    def test_timeline(self, capsys):
        rc = main_simulate(
            ["--problem", "bandit2", "--tile-width", "5", "--nodes", "2",
             "--cores", "4", "--timeline", "N=20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "node  0 |" in out
        assert "node  1 |" in out


#: A spec with a seeded defect on every tier the linter reports as an
#: error: the unguarded V[loc_right] read is RPR025.
BAD_SPEC = SPEC.replace(
    "center_code_py: |\n    V[loc] = 1.0\n",
    "center_code_py: |\n    V[loc] = V[loc_right]\n",
)


@pytest.fixture()
def bad_spec_file(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text(BAD_SPEC)
    return path


class TestLint:
    def test_clean_problem_exits_zero(self, capsys):
        rc = main_lint(["--problem", "bandit2", "--tile-width", "3"])
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_clean_spec_file(self, spec_file, capsys):
        rc = main_lint(["--spec", str(spec_file)])
        assert rc == 0
        out = capsys.readouterr().out
        # V[loc] = 1.0 never reads its templates: warnings, not errors.
        assert "RPR023" in out

    def test_defective_spec_exits_one(self, bad_spec_file, capsys):
        rc = main_lint(["--spec", str(bad_spec_file)])
        assert rc == 1
        assert "RPR025" in capsys.readouterr().out

    def test_json_format(self, bad_spec_file, capsys):
        rc = main_lint(["--spec", str(bad_spec_file), "--format", "json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False
        assert any(d["code"] == "RPR025" for d in doc["diagnostics"])

    def test_nothing_to_lint_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main_lint([])
        assert exc.value.code == 2

    def test_concurrency_pass_only(self, capsys):
        rc = main_lint(
            ["--problem", "bandit2", "--tile-width", "3",
             "--pass", "concurrency", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True


class TestRacecheck:
    def test_clean_problem_exits_zero(self, capsys):
        rc = main_racecheck(
            ["--problem", "bandit2", "--tile-width", "3",
             "--ranks", "2", "--backend", "inline", "N=6"]
        )
        assert rc == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_static_only_skips_executions(self, capsys):
        rc = main_racecheck(
            ["--problem", "bandit2", "--tile-width", "3", "--static-only"]
        )
        assert rc == 0
        capsys.readouterr()

    def test_process_backend_json(self, capsys):
        rc = main_racecheck(
            ["--problem", "bandit2", "--tile-width", "3", "--ranks", "2",
             "--backend", "process", "--format", "json", "N=6"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True

    def test_spec_file(self, spec_file, capsys):
        rc = main_racecheck(
            ["--spec", str(spec_file), "--ranks", "2",
             "--backend", "inline", "M=9"]
        )
        assert rc == 0
        capsys.readouterr()

    def test_nothing_to_check_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main_racecheck([])
        assert exc.value.code == 2


class TestExitCodeConvention:
    """All four entry points: 0 success, 1 ReproError/findings, 2 usage."""

    @pytest.mark.parametrize(
        "entry, ok_argv, fail_argv, usage_argv",
        [
            (
                main_generate,
                ["{spec}"],
                ["{bad_path}"],
                [],
            ),
            (
                main_run,
                ["--problem", "bandit2", "--tile-width", "3", "N=6"],
                ["--spec", "{bad_path}"],
                [],
            ),
            (
                main_simulate,
                ["--problem", "bandit2", "--tile-width", "5", "N=12"],
                ["--problem", "bandit2", "--tile-width", "5", "N=-1"],
                ["--no-such-flag"],
            ),
            (
                main_lint,
                ["--problem", "bandit2", "--tile-width", "3"],
                ["--spec", "{bad_spec}"],
                [],
            ),
            (
                main_racecheck,
                ["--problem", "bandit2", "--tile-width", "3",
                 "--ranks", "1", "N=6"],
                ["--spec", "{bad_path}"],
                ["--backend", "threads"],
            ),
        ],
        ids=["generate", "run", "simulate", "lint", "racecheck"],
    )
    def test_exit_codes(
        self, entry, ok_argv, fail_argv, usage_argv,
        spec_file, bad_spec_file, tmp_path, capsys
    ):
        bad_path = tmp_path / "unparseable.spec"
        bad_path.write_text("problem: x\n")  # missing required keys
        subst = {
            "{spec}": str(spec_file),
            "{bad_path}": str(bad_path),
            "{bad_spec}": str(bad_spec_file),
        }
        ok = [subst.get(a, a) for a in ok_argv]
        fail = [subst.get(a, a) for a in fail_argv]
        usage = [subst.get(a, a) for a in usage_argv]
        assert entry(ok) == 0
        assert entry(fail) == 1
        with pytest.raises(SystemExit) as exc:
            entry(usage)
        assert exc.value.code == 2
        capsys.readouterr()
