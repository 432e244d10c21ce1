"""Host calibration of the machine model from the compiled generated C."""

import pytest

from repro.errors import SimulationError
from repro.generator import generate
from repro.problems import two_arm_spec
from repro.simulate import (
    MachineModel,
    calibrate_machine,
    run_generated_c,
    simulate_program,
)
from repro.simulate.calibrate import gcc_available


pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("calibration")


class TestRunGeneratedC:
    def test_reports_counts(self, bandit2_w4_program, workdir):
        if not gcc_available():
            pytest.skip("gcc not available")
        run = run_generated_c(bandit2_w4_program, {"N": 40}, workdir=workdir)
        assert run.cells == bandit2_w4_program.spaces.total_points({"N": 40})
        assert run.tiles > 0
        assert run.seconds >= 0.0

    def test_check_mode_passes(self, bandit2_w4_program, tmp_path):
        # -DREPRO_CHECK cross-validates the face-scan seeding inside the
        # generated binary itself.
        if not gcc_available():
            pytest.skip("gcc not available")
        run = run_generated_c(
            bandit2_w4_program,
            {"N": 25},
            workdir=tmp_path,
            extra_cflags=["-DREPRO_CHECK"],
        )
        assert run.cells > 0


    def test_same_spec_name_different_program_rebuilds(self, tmp_path):
        # One workdir, one spec name, two programs: the second must not
        # run the first one's binary.
        if not gcc_available():
            pytest.skip("gcc not available")
        w8, w4 = (generate(two_arm_spec(tile_width=w)) for w in (8, 4))
        tiles = [
            run_generated_c(p, {"N": 16}, workdir=tmp_path).tiles
            for p in (w8, w4, w8)
        ]
        assert tiles == [15, 70, 15]
        digest = (tmp_path / "bandit2.sha256").read_text()
        assert run_generated_c(w8, {"N": 16}, workdir=tmp_path).tiles == 15
        assert (tmp_path / "bandit2.sha256").read_text() == digest

    def test_owned_build_directories_are_removed(
        self, bandit2_w4_program, tmp_path, monkeypatch
    ):
        if not gcc_available():
            pytest.skip("gcc not available")
        import repro.simulate.calibrate as cal

        builds = []
        real_run = cal.subprocess.run

        def counting_run(argv, **kwargs):
            if argv[0] == "gcc":
                builds.append(argv)
            return real_run(argv, **kwargs)

        monkeypatch.setattr(cal.subprocess, "run", counting_run)
        monkeypatch.setattr(cal.tempfile, "tempdir", str(tmp_path))
        run_generated_c(bandit2_w4_program, {"N": 10})
        assert (len(builds), list(tmp_path.iterdir())) == (1, [])
        calibrate_machine(bandit2_w4_program, {"N": 10}, {"N": 20})
        # Both runs of a calibration share one build.
        assert (len(builds), list(tmp_path.iterdir())) == (2, [])


class TestCalibrateMachine:
    def test_fitted_model_reasonable(self, bandit2_w4_program, workdir):
        if not gcc_available():
            pytest.skip("gcc not available")
        machine, small, large = calibrate_machine(
            bandit2_w4_program, {"N": 30}, {"N": 70}
        )
        # A 2020s x86 core runs this kernel somewhere between 10 M and
        # 10 G cells/s; anything outside that is a fitting bug.
        assert 1e-10 < machine.sec_per_cell < 1e-7
        assert machine.tile_overhead_s >= 0.0
        assert large.cells > small.cells

    def test_calibrated_simulation_predicts_serial_time(
        self, bandit2_w4_program, workdir
    ):
        if not gcc_available():
            pytest.skip("gcc not available")
        machine, _, large = calibrate_machine(
            bandit2_w4_program, {"N": 30}, {"N": 70}
        )
        one_core = machine.with_(nodes=1, cores_per_node=1, queue_lock_s=0.0)
        sim = simulate_program(bandit2_w4_program, large.params, one_core)
        # The calibrated single-core simulation should land within 2x of
        # the real measured run (same cells, fitted constants; pack-cost
        # and cache effects account for the slack).
        assert sim.makespan_s == pytest.approx(large.seconds, rel=1.0)

    def test_requires_gcc(self, bandit2_w4_program, monkeypatch):
        import repro.simulate.calibrate as cal

        monkeypatch.setattr(cal.shutil, "which", lambda _: None)
        with pytest.raises(SimulationError):
            run_generated_c(bandit2_w4_program, {"N": 10})


class TestInProcessCalibration:
    # No gcc needed: these fit the cost model from the Python runtime,
    # exercising the cached CompiledExecutor across repeated runs.

    def test_fitted_model_reasonable(self, bandit2_w4_program):
        from repro.simulate import calibrate_machine_in_process

        machine, small, large = calibrate_machine_in_process(
            bandit2_w4_program, {"N": 12}, {"N": 24}
        )
        assert machine.sec_per_cell > 0.0
        assert machine.tile_overhead_s >= 0.0
        assert large.cells > small.cells
        assert large.cells == bandit2_w4_program.spaces.total_points(
            {"N": 24}
        )

    def test_vector_and_interpret_calibration_runs_agree(
        self, bandit2_w4_program
    ):
        from repro.runtime import execute
        from repro.simulate import run_in_process

        # Which engine is faster is the benchmark suite's question, not
        # tier-1's: only deterministic facts are asserted here.
        interp = run_in_process(
            bandit2_w4_program, {"N": 24}, mode="interpret"
        )
        vector = run_in_process(bandit2_w4_program, {"N": 24}, mode="vector")
        assert vector.cells == interp.cells
        assert vector.seconds > 0 and interp.seconds > 0
        objectives = {
            execute(bandit2_w4_program, {"N": 24}, mode=mode).objective_value
            for mode in ("interpret", "vector")
        }
        assert len(objectives) == 1

    def test_fit_machine_degenerate_clamps(self):
        from repro.simulate import CalibrationRun, fit_machine

        # Identical runs make the 2x2 system singular: fall back to the
        # per-cell rate of the large run with zero overhead.
        run = CalibrationRun(params={"N": 5}, tiles=4, cells=100, seconds=1.0)
        machine = fit_machine(run, run)
        assert machine.sec_per_cell == pytest.approx(0.01)
        assert machine.tile_overhead_s == 0.0
