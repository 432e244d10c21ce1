"""Expected results that do not come from the code under test.

Three sources, in order: the pinned objectives in ``expected.json``
(default-seed instances whose reference solver is slow), the suite's own
numpy LCS oracle, and the brute-force reference solvers bundled with
``repro.problems`` (reached through ``adapter``; they share nothing with
the generator or the runtime).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

#: Integer DPs must match exactly; the bandits are float recurrences
#: whose C twin prints 12 decimals.
REL_TOL = {"lcs": 0.0, "edit": 0.0, "bandit2": 1e-9, "delayed": 1e-9}


def lcs_oracle(a: str, b: str) -> int:
    """LCS length by anti-diagonals: ``cur[i]`` is cell ``(i, d - i)``."""
    x = np.frombuffer(a.encode(), np.uint8)
    y = np.frombuffer(b.encode(), np.uint8)
    n, m = len(x), len(y)
    d2 = d1 = np.zeros(n + 1, np.int64)
    for d in range(2, n + m + 1):
        i = np.arange(max(1, d - m), min(n, d - 1) + 1)
        cur = np.zeros(n + 1, np.int64)
        cur[i] = np.where(
            x[i - 1] == y[d - i - 1], d2[i - 1] + 1,
            np.maximum(d1[i - 1], d1[i]),
        )
        d2, d1 = d1, cur
    return int(d1[n])


def edit_path_cost(
    a: str, b: str, path: List[Tuple[Dict[str, int], Optional[str]]]
) -> Optional[int]:
    """Cost of a recovered edit script, or None if it is not one.

    A valid script walks from ``(len(a), len(b))`` to ``(0, 0)`` by
    unit steps; its cost must equal the edit distance, which checks the
    traceback independently of the values it was read from.
    """
    step = {"diag": (1, 1), "up": (1, 0), "left": (0, 1)}
    i, j, cost = len(a), len(b), 0
    for point, move in path:
        if (point["i"], point["j"]) != (i, j):
            return None
        if move is None:
            return cost if (i, j) == (0, 0) else None
        di, dj = step[move]
        if i < di or j < dj:
            return None
        cost += 0 if move == "diag" and a[i - 1] == b[j - 1] else 1
        i, j = i - di, j - dj
    return None


def instance_key(problem: str, n: int, seed: int) -> str:
    if problem in ("lcs", "edit"):
        return f"{problem}:{n}:seed{seed}"
    return f"{problem}:{n}"


def parse_key(key: str) -> Tuple[str, int, Optional[int]]:
    """Inverse of :func:`instance_key`; seed is None for the bandits."""
    problem, n, *seed = key.split(":")
    return problem, int(n), int(seed[0][len("seed"):]) if seed else None


def load_expected(path: Path = EXPECTED_FILE) -> Dict[str, dict]:
    return json.loads(path.read_text())["objectives"]


def compute_objective(problem: str, n: int, seed: Optional[int]) -> float:
    """Recompute an objective with the oracle that owns it."""
    import adapter

    if problem == "lcs":
        return lcs_oracle(*adapter.input_strings(n, seed))
    return adapter.reference_objective(problem, n, seed)


def expected_objective(
    pinned: Dict[str, dict], problem: str, n: int, seed: int
) -> float:
    entry = pinned.get(instance_key(problem, n, seed))
    if entry is not None:
        return entry["value"]
    return compute_objective(problem, n, seed)


def matches(problem: str, got: Optional[float], want: float) -> bool:
    if got is None:
        return False
    return abs(got - want) <= REL_TOL[problem] * abs(want)
