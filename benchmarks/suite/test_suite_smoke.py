"""Smoke test of the benchmark suite (not part of tier-1; run explicitly):

    python -m pytest benchmarks/suite/test_suite_smoke.py -q

Two ``--quick`` runs of the whole suite (about 25 s each) must emit
every named metric with its unit and repeat every count exactly, and a
wrong expected objective must surface as ``error_rate > 0``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER
from spans import Recorder
from workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def run_suite(*args):
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *map(str, args)],
        capture_output=True, text=True, cwd=ROOT,
    )


@pytest.fixture(scope="module")
def quick_reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    reports = []
    for i in range(2):
        done = run_suite("--quick", "--out", out / f"{i}.json")
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        assert done.stdout.rstrip().endswith("suite: ok")
        reports.append(json.loads((out / f"{i}.json").read_text()))
    return reports


def test_benchmark_json_matches_the_suite_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmarks/suite"]
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": k, "unit": u, "better": b, "bound": bound}
        for k, (u, b, bound) in END_TO_END.items()
    ]
    assert doc["per_layer"] == [
        {"name": k, "unit": u, "better": b} for k, (u, b) in PER_LAYER.items()
    ]


def test_every_metric_is_emitted_with_a_unit(quick_reports):
    report = quick_reports[0]["workloads"]
    assert list(report) == [w.name for w in WORKLOADS]
    measured = set()
    for name, entry in report.items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, entry["errors"]
        assert entry["end_to_end"]["error_rate"]["value"] == 0
        for metric, (unit, _, _) in END_TO_END.items():
            got = entry["end_to_end"][metric]
            assert got["unit"] == unit and got["value"] > 0, (name, metric)
        assert list(entry["per_layer"]) == list(PER_LAYER)
        for metric, (unit, _) in PER_LAYER.items():
            got = entry["per_layer"][metric]
            assert got["unit"] == unit
            if got["value"] is not None:
                measured.add(metric)
    assert measured == set(PER_LAYER)


def test_counts_repeat_exactly(quick_reports):
    first, second = (r["workloads"] for r in quick_reports)
    for name in first:
        for count in EXACT_COUNTS:
            assert (first[name]["per_layer"][count]["value"]
                    == second[name]["per_layer"][count]["value"]), (name, count)


def test_wrong_expected_objective_is_an_error(tmp_path):
    pinned = json.loads(oracles.EXPECTED_FILE.read_text())
    quick_n = next(w.quick_n for w in WORKLOADS if w.name == "bandit2_n60_wave")
    pinned["objectives"][f"bandit2:{quick_n}"] = {"value": 1.0, "oracle": "wrong"}
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(pinned))
    out = tmp_path / "report.json"
    done = run_suite("--quick", "--workload", "bandit2_n60_wave", "--trace", "0",
                     "--expected", wrong, "--out", out)
    assert done.returncode != 0
    result = json.loads(done.stdout.rstrip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    entry = json.loads(out.read_text())["workloads"]["bandit2_n60_wave"]
    assert entry["end_to_end"]["error_rate"]["value"] > 0


def test_lcs_oracle_against_the_textbook_table():
    a, b = "ACCGGTCGAGTGCGCGGAAGCCGGCCGAA", "GTCGTTCGGAATGCCGTTGCTCTGTAAA"
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = (table[i - 1][j - 1] + 1 if x == y
                           else max(table[i - 1][j], table[i][j - 1]))
    assert oracles.lcs_oracle(a, b) == table[-1][-1] == 20
    assert oracles.lcs_oracle("A", "C") == 0


def test_edit_path_cost_accepts_only_complete_scripts():
    path = [({"i": 2, "j": 1}, "diag"), ({"i": 1, "j": 0}, "up"),
            ({"i": 0, "j": 0}, None)]
    assert oracles.edit_path_cost("AB", "B", path) == 1
    assert oracles.edit_path_cost("AB", "C", path) == 2
    assert oracles.edit_path_cost("AB", "B", path[:2]) is None
    assert oracles.edit_path_cost("AB", "B", [path[0], path[2]]) is None


def test_recorder_self_time_and_missing_names():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return [0] * 3

    recorder = Recorder()
    recorder.install([
        (Layer, "outer", "outer", None),
        (Layer, "inner", "inner", "cells"),
        (Layer, "renamed_away", "gone", None),
    ])
    try:
        Layer().outer()
    finally:
        recorder.uninstall()
    assert recorder.missing == ["gone"]
    assert "outer" in vars(Layer) and Layer().outer() == [0] * 6
    totals = recorder.summary()
    assert (totals["outer"].calls, totals["inner"].calls) == (1, 2)
    assert totals["inner"].amount == 6
    assert totals["outer"].self_s == pytest.approx(
        totals["outer"].total_s - totals["inner"].total_s
    )
    assert len(recorder.label) == 3  # nothing recorded after uninstall
