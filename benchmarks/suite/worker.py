"""Child process of the suite: owns one workload, one op at a time.

``run.py`` starts one of these per workload and drives it with JSON
lines on stdin; replies go back on the original stdout.  File descriptor 1 is pointed at stderr first,
so nothing ``repro`` or the C binary prints can corrupt the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Optional, Tuple

from metrics import host_probe
from workloads import BY_NAME, cell_count


class Session:
    def __init__(self, workload, n: int, seed: int, workdir: Path, import_s: float):
        self.workload = workload
        self.n = n
        self.seed = seed
        self.workdir = workdir
        self.import_s = import_s
        self.case = None
        self.expected: Optional[float] = None
        self.setup_error: Optional[str] = None
        self.first_op_s: Optional[float] = None
        self.attempted = 0
        self.failed = 0

    # -- commands -------------------------------------------------------------

    def cmd_setup(self, expected: Optional[float] = None, samples: int = 0) -> dict:
        """Set up the workload; first time the set-up *samples* times.

        *expected* is the oracle's objective for the op instance (for
        the C workload: for its check-size instance).  The samples run
        in forked children: this process has done its imports and built
        nothing yet, so each fork is a fresh process with cold caches
        that skips the 0.7 s of imports a new interpreter would pay off
        the clock anyway (it pays ~6 ms of copy-on-write faults
        instead).  Each sample is ``[seconds, host probe right after]``.
        """
        import adapter

        self.expected = expected
        setups = [self._forked_setup(i) for i in range(samples)]
        case = adapter.Case(self.workload, self.n, self.seed, self.workdir)
        try:
            case.setup()
        except Exception:  # a missing prerequisite is a counted outcome
            self.setup_error = traceback.format_exc()
            return {"setups": [], "error": self.setup_error}
        self.case = case
        return {"setups": [s for s in setups if s], "error": None}

    def _forked_setup(self, index: int) -> list:
        import adapter

        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(read_end)
                workdir = self.workdir / f"fork{index}"
                workdir.mkdir()
                case = adapter.Case(self.workload, self.n, self.seed, workdir)
                sample = [case.setup(), host_probe()]
                os.write(write_end, json.dumps(sample).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            text = pipe.read()
        os.waitpid(pid, 0)
        return json.loads(text) if text else []

    def cmd_check(self) -> dict:
        """Reduced instance through the identical call, full value plane
        against the untiled oracle (C: the binary's objective)."""
        import adapter
        import oracles

        if self.case is None:
            return {"error": self.setup_error}
        w = self.workload
        if w.kind == "c":
            report = self.case.binary_report(w.check_n, adapter.PARALLELISM)
            if int(report["cells"]) != cell_count(w.problem, w.check_n):
                return {"error": f"binary computed {report['cells']} cells"}
            if not oracles.matches(w.problem, report["objective"], self.expected):
                return {"error": f"binary objective {report['objective']!r} "
                                 f"!= oracle {self.expected!r} at N={w.check_n}"}
            return {"error": None}
        small = adapter.Case(w, w.check_n, self.seed, self.workdir)
        small.setup()
        got = small.op(record_values=True).values
        want = small.reference_values()
        if got != want:
            bad = sum(1 for k in want if got.get(k) != want[k])
            return {"error": f"{bad} of {len(want)} cells differ from "
                             f"solve_reference at size {w.check_n}"}
        return {"error": None}

    def cmd_op(self) -> dict:
        seconds, _, error = self.run_op()
        return {"seconds": seconds, "probe_s": host_probe(), "error": error}

    def cmd_layers(self, seconds: float) -> dict:
        import layers

        if self.case is None:
            return {"metrics": {}, "attempted": 1, "failed": 1}
        self.attempted = self.failed = 0
        metrics = layers.traced_pass(self, seconds)
        return {"metrics": metrics, "attempted": self.attempted,
                "failed": self.failed}

    def cmd_rss(self) -> dict:
        peak_kib = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        return {"peak_rss_mb": peak_kib / 1024.0}

    # -- one judged op --------------------------------------------------------

    def run_op(
        self, tracing=nullcontext(), **overrides
    ) -> Tuple[float, object, Optional[str]]:
        """``(seconds, outcome, error)``; a raising op is a failed op.
        *tracing* is entered around the op alone, not around its check."""
        self.attempted += 1
        if self.case is None:
            self.failed += 1
            return 0.0, None, f"set-up failed: {self.setup_error}"
        outcome, error = None, None
        with tracing:
            t0 = perf_counter()
            try:
                outcome = self.case.op(**overrides)
            except Exception:  # counted, reported, and the loop goes on
                error = traceback.format_exc()
            seconds = perf_counter() - t0
        # Solves are independent: drop one op's garbage cycles before
        # the next, or peak RSS creeps 1.6 MB per op until the collector
        # happens to run and so depends on how many ops fit the window.
        gc.collect()
        if self.first_op_s is None:
            self.first_op_s = seconds
        if error is None:
            error = self._judge(outcome, overrides.get("n", self.n))
        if error is not None:
            self.failed += 1
            outcome = None
        return seconds, outcome, error

    def _judge(self, outcome, n: int) -> Optional[str]:
        import oracles

        w = self.workload
        cells = cell_count(w.problem, n)
        if outcome.cells != cells:
            return f"computed {outcome.cells} cells, closed form is {cells}"
        if w.kind == "c":
            return None  # objective: cmd_check, on the same binary
        if not oracles.matches(w.problem, outcome.objective, self.expected):
            return f"objective {outcome.objective!r} != oracle {self.expected!r}"
        if w.kind == "recover":
            cost = oracles.edit_path_cost(*self.case.strings, outcome.path)
            if cost != self.expected:
                return f"recovered script costs {cost}, oracle {self.expected}"
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(BY_NAME))
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    replies = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    t0 = perf_counter()
    import adapter  # noqa: F401  -- timed: repro, numpy and scipy.optimize
    session = Session(
        BY_NAME[args.workload], args.n, args.seed, args.workdir,
        import_s=perf_counter() - t0,
    )
    for line in sys.stdin:
        message = json.loads(line)
        if message["cmd"] == "exit":
            break
        try:
            reply = getattr(session, "cmd_" + message["cmd"])(
                **message.get("args", {})
            )
        except Exception:  # keep serving: the parent decides what it means
            reply = {"error": traceback.format_exc()}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
