#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the whole repository.

    python benchmarks/suite/run.py                  # six workloads, both passes
    python benchmarks/suite/run.py --workload NAME --seed 7 --seconds 10 --trace 0
    python benchmarks/suite/run.py --quick          # smoke run, < 30 s
    python benchmarks/suite/run.py --compare A.json B.json
    python benchmarks/suite/run.py --reverify       # recompute expected.json

A closed loop of one client: each workload lives in its own child
process, and the parent asks one child at a time for one solve,
round-robin, so no more than ``nproc`` = 2 threads are ever busy and
host drift hits all workloads equally.  Every op is checked against an
oracle that is not the code under test.  With ``--workload`` the last
line of stdout is the result object the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
WORK = SUITE / ".work"
sys.path[:0] = [str(SUITE), str(SRC)]

import oracles  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, ERROR_RATE, EXACT_COUNTS, PER_LAYER, PROBE_REF_S,
    SETUP_ABS_SLACK_S, host_probe, shm_entries,
)
from workloads import BY_NAME, DEFAULT_SEED, WORKLOADS, Workload, cell_count  # noqa: E402

DEFAULT_SECONDS = 12
WARM_OPS = 2
MIN_OPS = 3
SETUP_SAMPLES = 5
QUICK_SETUP_SAMPLES = 2


def _fix_address_space() -> None:
    """What ``setarch -R`` does; best effort (a sandbox may forbid it)."""
    ADDR_NO_RANDOMIZE = 0x0040000
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


class Child:
    """One ``worker.py`` process and the JSON-lines conversation with it."""

    def __init__(self, workload: Workload, n: int, seed: int, workdir: Path):
        workdir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        # Timed ops never use schedule="auto"; this keeps any tuner
        # write a refactor might add out of ~/.cache.
        env["REPRO_TUNE_CACHE"] = str(workdir / "tuning.json")
        env["TMPDIR"] = str(workdir)  # gcc's intermediates stay in the checkout
        # String hashes and (below) the address-space layout are the two
        # things that differ between identical runs of a child; fixed,
        # its allocation pattern and so peak_rss_mb repeat to ~0.3 %
        # where they were bimodal, 8 % apart.
        env["PYTHONHASHSEED"] = "0"
        self.name = workload.name
        self.proc = subprocess.Popen(
            [sys.executable, str(SUITE / "worker.py"), workload.name,
             "--n", str(n), "--seed", str(seed), "--workdir", str(workdir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, preexec_fn=_fix_address_space,
        )

    def call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "args": args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker of {self.name} died (exit {self.proc.wait()})"
            )
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def last_line(error: str) -> str:
    """The line of a traceback that says what went wrong."""
    return error.strip().splitlines()[-1]


def expected_for(pinned: dict, w: Workload, n: int, seed: int) -> float:
    """The oracle's objective the child judges ops against (the C
    workload's binary is judged on its check-size instance)."""
    size = w.check_n if w.kind == "c" else n
    return oracles.expected_objective(pinned, w.problem, size, seed)


def measure(
    workloads: Sequence[Workload], seed: int, seconds: float, quick: bool,
    passes: Sequence[str], pinned: dict,
) -> Tuple[Dict[str, dict], dict]:
    """Run the requested passes; returns one record per workload and
    what was seen of the host (probe at start and end, /dev/shm leak)."""
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    records: Dict[str, dict] = {
        w.name: {"samples": [], "setups": [], "errors": [], "attempted": 0,
                 "failed": 0, "peak_rss_mb": None, "layers": {},
                 "layer_attempted": 0, "layer_failed": 0}
        for w in workloads
    }
    children: Dict[str, Child] = {}
    shm_before = shm_entries()
    probes = [host_probe()]

    try:
        # One at a time: start, set up, check, warm up.
        for w in workloads:
            rec = records[w.name]
            child = children[w.name] = Child(
                w, w.size(quick), seed, run_dir / w.name
            )
            reply = child.call(
                "setup", expected=expected_for(pinned, w, w.size(quick), seed),
                samples=0 if "e2e" not in passes
                else QUICK_SETUP_SAMPLES if quick else SETUP_SAMPLES,
            )
            rec["broken"] = reply["error"]
            rec["setups"] = reply["setups"]
            if reply["error"]:
                rec["errors"].append(last_line(reply["error"]))
            rec["check_error"] = child.call("check")["error"]
            if rec["check_error"]:
                rec["errors"].append(rec["check_error"])
            warm_until = perf_counter() + min(2.0, 0.2 * seconds)
            done = 0
            while not rec["broken"] and (
                done < WARM_OPS or perf_counter() < warm_until
            ):
                child.call("op")
                done += 1

        if "e2e" in passes:
            busy = {w.name: 0.0 for w in workloads}
            active = list(workloads)
            while active:
                for w in list(active):
                    rec = records[w.name]
                    reply = children[w.name].call("op")
                    rec["attempted"] += 1
                    if reply["error"]:
                        rec["failed"] += 1
                        rec["errors"].append(last_line(reply["error"]))
                    else:
                        rec["samples"].append((reply["seconds"], reply["probe_s"]))
                    busy[w.name] += reply["seconds"]
                    if rec["attempted"] >= MIN_OPS and (
                        rec["broken"] or busy[w.name] >= seconds
                    ):
                        active.remove(w)
            for w in workloads:
                records[w.name]["peak_rss_mb"] = (
                    children[w.name].call("rss")["peak_rss_mb"]
                )

        if "layers" in passes:
            for w in workloads:
                rec = records[w.name]
                reply = children[w.name].call("layers", seconds=seconds)
                if reply.get("error"):
                    reply = {"metrics": {}, "attempted": 1, "failed": 1,
                             "error": reply["error"]}
                    rec["errors"].append(last_line(reply["error"]))
                rec["layers"] = reply["metrics"]
                rec["layer_attempted"] = reply["attempted"]
                rec["layer_failed"] = reply["failed"]
    finally:
        for child in children.values():
            child.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    probes.append(host_probe())
    for rec in records.values():
        if rec["broken"] or rec["check_error"]:  # nothing it computed counts
            rec["failed"] = rec["attempted"]
            rec["layer_failed"] = rec["layer_attempted"]
        if rec["layers"]:
            rec["layers"]["host.probe_s"] = sum(probes) / len(probes)
    host = {"probes_s": probes, "shm_leaked": shm_entries() - shm_before,
            "cpu_count": os.cpu_count()}
    return records, host


# -- reduction and printing --------------------------------------------------


def end_to_end(w: Workload, n: int, rec: dict) -> Dict[str, dict]:
    """The gated metrics of one workload, with what they were made from."""
    out: Dict[str, dict] = {}
    unit = END_TO_END["cells_per_s"][0]
    raw = sorted(seconds for seconds, _ in rec["samples"])
    # Each op scaled by the host probe timed right after it.
    scaled = sorted(
        seconds * PROBE_REF_S / probe for seconds, probe in rec["samples"]
    )
    if scaled:
        mid = median(scaled)
        q1, _, q3 = quantiles(scaled, n=4) if len(scaled) > 1 else (mid,) * 3
        cells = cell_count(w.problem, n)
        entry = {"value": cells / mid, "unit": unit, "ops": len(scaled),
                 "q1": cells / q3, "q3": cells / q1,
                 "raw_op_median_s": median(raw),
                 "raw_cells_per_s": cells / median(raw),
                 "probe_median_s": median(p for _, p in rec["samples"])}
        if len(raw) >= 20:  # ten samples lie beyond this percentile
            k = len(raw) - 10
            entry["tail_percentile"] = 100.0 * k / len(raw)
            entry["raw_op_tail_s"] = raw[k - 1]
        out["cells_per_s"] = entry
    else:
        out["cells_per_s"] = {"value": 0.0, "unit": unit, "ops": 0}
    setups = [seconds * PROBE_REF_S / probe for seconds, probe in rec["setups"]]
    out["setup_s"] = {
        "value": median(setups) if setups else 0.0,
        "unit": END_TO_END["setup_s"][0], "samples": len(setups),
        "q1": min(setups, default=0.0), "q3": max(setups, default=0.0),
        "raw_median_s": median(s for s, _ in rec["setups"]) if setups else 0.0,
    }
    out["peak_rss_mb"] = {"value": rec["peak_rss_mb"] or 0.0,
                          "unit": END_TO_END["peak_rss_mb"][0]}
    out["error_rate"] = {
        "value": rec["failed"] / max(rec["attempted"], 1),
        "unit": ERROR_RATE[1], "failed": rec["failed"],
        "attempted": rec["attempted"],
    }
    return out


def per_layer(rec: dict) -> Dict[str, dict]:
    """Every per-layer name, ``None`` where this workload has no value."""
    return {
        name: {"value": rec["layers"].get(name), "unit": unit}
        for name, (unit, _) in PER_LAYER.items()
    }


def print_workload(name: str, e2e: Optional[dict], layers: Optional[dict],
                   rec: dict) -> None:
    print(f"\n== {name}")
    if e2e:
        c = e2e["cells_per_s"]
        detail = f"{c['ops']} ops"
        if c["ops"]:
            detail += (f", quartiles {c['q1']:.4g}..{c['q3']:.4g}; unscaled "
                       f"{c['raw_cells_per_s']:.4g} cells/s, op median "
                       f"{c['raw_op_median_s']:.4f} s, probe median "
                       f"{c['probe_median_s']:.4f} s")
        if "raw_op_tail_s" in c:
            detail += f", p{c['tail_percentile']:.0f} op {c['raw_op_tail_s']:.4f} s"
        print(f"  {'cells_per_s':<44}{c['value']:>14.6g} {c['unit']}  ({detail})")
        s = e2e["setup_s"]
        print(f"  {'setup_s':<44}{s['value']:>14.6g} {s['unit']}  "
              f"(median of {s['samples']} forked children, "
              f"{s['q1']:.4g}..{s['q3']:.4g}; unscaled {s['raw_median_s']:.4g} s)")
        r = e2e["peak_rss_mb"]
        print(f"  {'peak_rss_mb':<44}{r['value']:>14.6g} {r['unit']}")
        x = e2e["error_rate"]
        print(f"  {'error_rate':<44}{x['value']:>14.6g} {x['unit']}  "
              f"({x['failed']}/{x['attempted']})")
    if layers:
        for metric, entry in layers.items():
            if entry["value"] is not None:
                print(f"  {metric:<44}{entry['value']:>14.6g} {entry['unit']}")
        nulls = [k for k, entry in layers.items() if entry["value"] is None]
        print(f"  null here (other workload's layer, or its wrapped callable "
              f"is gone): {' '.join(nulls)}")
    for error in rec["errors"][:5]:
        print(f"  ! {error}")


def run(args) -> int:
    pinned = oracles.load_expected(args.expected)
    workloads = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    passes = {"0": ["e2e"], "1": ["layers"], "both": ["e2e", "layers"]}[args.trace]
    seconds = 0.0 if args.quick else args.seconds
    records, host = measure(
        workloads, args.seed, seconds, args.quick, passes, pinned
    )
    report = {"schema": 1, "seed": args.seed, "seconds": seconds,
              "quick": args.quick, "host": host, "workloads": {}}
    ok = host["shm_leaked"] == 0
    for w in workloads:
        rec = records[w.name]
        e2e = end_to_end(w, w.size(args.quick), rec) if "e2e" in passes else None
        layers = per_layer(rec) if "layers" in passes else None
        print_workload(w.name, e2e, layers, rec)
        attempted = rec["attempted"] + rec["layer_attempted"]
        failed = rec["failed"] + rec["layer_failed"]
        ok = ok and failed == 0
        report["workloads"][w.name] = {
            "end_to_end": e2e, "per_layer": layers, "attempted": attempted,
            "failed": failed, "errors": rec["errors"],
        }
    print(f"\nhost probe at start and end: {host['probes_s'][0]:.4f} s, "
          f"{host['probes_s'][1]:.4f} s; /dev/shm entries leaked: "
          f"{host['shm_leaked']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    if args.workload:
        entry = report["workloads"][args.workload]
        if args.trace == "1":
            metrics = {k: {"value": 0.0 if v["value"] is None else v["value"],
                           "unit": v["unit"]}
                       for k, v in entry["per_layer"].items()}
        else:
            metrics = {k: {"value": entry["end_to_end"][k]["value"],
                           "unit": entry["end_to_end"][k]["unit"]}
                       for k in END_TO_END}
        print(json.dumps({"correct": ok,
                          "attempted": entry["attempted"],
                          "failed": entry["failed"], "metrics": metrics}))
    else:
        print("suite: ok" if ok else "suite: FAILED")
    return 0 if ok else 1


# -- --compare and --reverify -------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """Per metric x workload: ok / regressed / unresolved, B against A."""
    a_all = json.loads(path_a.read_text())["workloads"]
    b_all = json.loads(path_b.read_text())["workloads"]
    regressed = 0
    for name in a_all:
        if name not in b_all:
            continue
        a_e2e, b_e2e = a_all[name]["end_to_end"], b_all[name]["end_to_end"]
        for metric, (_, better, bound) in END_TO_END.items():
            a, b = a_e2e[metric], b_e2e[metric]
            sign = 1.0 if better == "lower" else -1.0
            worse = sign * (b["value"] - a["value"]) / a["value"]
            verdict = "ok"
            if worse > bound and not (
                metric == "setup_s"
                and abs(b["value"] - a["value"]) <= SETUP_ABS_SLACK_S
            ):
                # peak_rss_mb is one reading: its range is the value itself.
                (a_lo, a_hi), (b_lo, b_hi) = (
                    (e.get("q1", e["value"]), e.get("q3", e["value"]))
                    for e in (a, b)
                )
                spread = max((a_hi - a_lo) / a["value"], (b_hi - b_lo) / b["value"])
                overlap = a_lo <= b_hi and b_lo <= a_hi
                verdict = "unresolved" if spread > bound and overlap else "regressed"
            regressed += verdict == "regressed"
            print(f"{name:<22}{metric:<14}{a['value']:>14.6g} ->{b['value']:>14.6g}"
                  f"  {100 * worse:+7.2f}% worse (bound {100 * bound:.0f}%)  {verdict}")
        rise = b_e2e["error_rate"]["value"] > a_e2e["error_rate"]["value"]
        regressed += rise
        print(f"{name:<22}{'error_rate':<14}{a_e2e['error_rate']['value']:>14.6g} ->"
              f"{b_e2e['error_rate']['value']:>14.6g}  {'regressed' if rise else 'ok'}")
        a_layers, b_layers = a_all[name]["per_layer"], b_all[name]["per_layer"]
        for count in EXACT_COUNTS if a_layers and b_layers else ():
            if a_layers[count]["value"] != b_layers[count]["value"]:
                regressed += 1
                print(f"{name:<22}{count} differs: {a_layers[count]['value']} "
                      f"-> {b_layers[count]['value']}  (must repeat exactly)")
    print("compare: regressed" if regressed else "compare: no regression")
    return 1 if regressed else 0


def reverify() -> int:
    """Recompute every pinned objective with the oracle that owns it."""
    import adapter

    bad = 0
    for key, entry in oracles.load_expected().items():
        problem, n, seed = oracles.parse_key(key)
        t0 = perf_counter()
        value = oracles.compute_objective(problem, n, seed)
        same = oracles.matches(problem, value, entry["value"])
        bad += not same
        print(f"{key:<20}{entry['value']!r:>22} recomputed {value!r} in "
              f"{perf_counter() - t0:.2f} s  {'ok' if same else 'MISMATCH'}")
    strings = adapter.input_strings(128, DEFAULT_SEED)
    ours, theirs = oracles.lcs_oracle(*strings), adapter.reference_objective(
        "lcs", 128, DEFAULT_SEED)
    bad += ours != theirs
    print(f"lcs_oracle vs lcs_reference at N=128: {ours} vs {theirs}")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed window per workload and per pass")
    parser.add_argument("--trace", nargs="?", const="both", default="both",
                        choices=["0", "1", "both"],
                        help="0: end-to-end pass only; 1: traced per-layer "
                             "pass only; default: both")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, 3 ops per workload")
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    parser.add_argument("--expected", type=Path, default=oracles.EXPECTED_FILE,
                        help="pinned objectives (default: expected.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--reverify", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.reverify:
        return reverify()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
