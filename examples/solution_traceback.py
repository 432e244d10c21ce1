#!/usr/bin/env python3
"""Recovering solutions, not just values (paper Section VII-A).

The generated programs discard tile interiors once their edges are
packed, so normally only the objective *value* survives.  The paper's
future-work sketch — save the tile edges, recompute tiles on the fly
during a traceback — is implemented in
:class:`repro.runtime.SolutionRecovery`.  This example uses it twice:

* recover the actual optimal alignment (edit script) between two DNA
  fragments, and
* ask the 2-arm clinical-trial bandit which arm the optimal design
  pulls first, and how the decision flips as evidence accumulates.

Run:  python examples/solution_traceback.py
"""

from repro import generate
from repro.problems import (
    edit_distance_reference,
    edit_distance_spec,
    random_sequence,
    two_arm_spec,
)
from repro.runtime import SolutionRecovery


def recover_alignment(a: str, b: str):
    spec = edit_distance_spec(a, b, tile_width=6)
    recovery = SolutionRecovery(generate(spec), {"LA": len(a), "LB": len(b)})
    distance = recovery.value_at({"i": len(a), "j": len(b)})
    assert distance == edit_distance_reference(a, b)

    def policy(point, deps, value):
        i, j = point["i"], point["j"]
        if deps["diag"] is not None:
            cost = 0.0 if a[i - 1] == b[j - 1] else 1.0
            if value == deps["diag"] + cost:
                return "diag"
        if deps["up"] is not None and value == deps["up"] + 1.0:
            return "up"
        if deps["left"] is not None and value == deps["left"] + 1.0:
            return "left"
        return None

    path = recovery.traceback(policy, start={"i": len(a), "j": len(b)})
    # Render the alignment from the move sequence (walked end -> start).
    top, bottom = [], []
    for point, move in path[:-1]:
        i, j = point["i"], point["j"]
        if move == "diag":
            top.append(a[i - 1])
            bottom.append(b[j - 1])
        elif move == "up":
            top.append(a[i - 1])
            bottom.append("-")
        else:
            top.append(b[j - 1])
            bottom.append("-")
            top[-1], bottom[-1] = "-", b[j - 1]
    top.reverse()
    bottom.reverse()
    return distance, "".join(top), "".join(bottom), recovery


def main() -> None:
    a, b = random_sequence(32, seed=71), random_sequence(28, seed=72)
    distance, top, bottom, recovery = recover_alignment(a, b)
    print("Optimal alignment recovered from saved edges:")
    print(f"  {top}")
    print(
        "  "
        + "".join(
            "|" if x == y and x != "-" else " " for x, y in zip(top, bottom)
        )
    )
    print(f"  {bottom}")
    print(f"edit distance: {int(distance)}")
    total = (len(a) + 1) * (len(b) + 1)
    print(
        f"memory: {recovery.edge_memory_cells} edge cells kept vs "
        f"{total} cells in the full table "
        f"({recovery.edge_memory_cells / total:.0%})"
    )
    print(
        f"traceback cost: {recovery.recomputed_tiles} of "
        f"{len(recovery.graph.tile_tuples)} tiles recomputed, "
        f"{recovery.cache_hits} lookups served from the tile cache "
        f"(forward pass ran in {recovery.result.mode} mode)"
    )
    print()

    # Which arm does the optimal adaptive trial pull first?
    N = 20
    bandit = SolutionRecovery(generate(two_arm_spec(tile_width=5)), {"N": N})

    def first_pull(state):
        deps = bandit.dependencies_at(state)
        best_arm, best_v = None, None
        for arm in (1, 2):
            s, f = state[f"s{arm}"], state[f"f{arm}"]
            p = (s + 1.0) / (s + f + 2.0)
            sv, fv = deps[f"succ{arm}"], deps[f"fail{arm}"]
            if sv is None:
                continue
            v = p * (1.0 + sv) + (1.0 - p) * fv
            if best_v is None or v > best_v + 1e-12:
                best_v, best_arm = v, arm
        return best_arm

    print(f"2-arm bandit, N={N}: optimal next pull by observed evidence")
    print("  (s1, f1, s2, f2) -> arm")
    for state in [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 2, 1, 0),
        (2, 0, 0, 2),
        (1, 3, 2, 1),
    ]:
        s = dict(zip(("s1", "f1", "s2", "f2"), state))
        print(f"  {state} -> arm {first_pull(s)}")
    print()
    print("Arm 1 after failures loses to the fresher arm 2 — the")
    print("exploration/exploitation balance the DP computes exactly.")


if __name__ == "__main__":
    main()
