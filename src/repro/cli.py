"""Command-line interface.

Four entry points (also installed as console scripts):

* ``repro-generate spec.txt -o prog.c``      — spec file to C (or Python)
  program, the paper's main workflow;
* ``repro-run --problem bandit2 N=12``       — solve a built-in problem
  with the in-process tiled runtime and check it against the oracle;
* ``repro-simulate --problem bandit2 N=60 --nodes 4 --cores 24`` —
  scaling study on the simulated cluster;
* ``repro-tune --problem lcs``              — simulator-driven sweep of
  schedule policy x tile widths, cached on disk (see
  :mod:`repro.runtime.tuner`);
* ``repro-lint --all``                        — static analysis of specs,
  kernels, schedules and emitted C (see :mod:`repro.analysis`);
* ``repro-racecheck --all --ranks 2``         — concurrency correctness:
  the static protocol audit (``RPR05x``) plus the dynamic trace
  sanitizer (``RPR06x``) over real executions of every requested
  problem x rank count x backend.

All entry points share one exit-code convention: 0 on success (for the
linter: no error-severity diagnostics), 1 on any :class:`ReproError`
or error-severity finding, 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Dict, List

from .errors import ReproError
from .generator import generate
from .generator.cgen import emit_c_program
from .generator.pygen import emit_python_program
from .problems import REGISTRY, random_sequence
from .generator import PRIORITY_SCHEMES
from .runtime import (
    EXECUTION_MODES,
    LB_METHODS,
    SCHEDULE_POLICIES,
    SPMD_BACKENDS,
    RunConfig,
    compiled_executor,
    execute,
    retile_program,
)
from .spec import ensure_kernel
from .simulate import (
    MachineModel,
    format_scaling_table,
    shared_memory_scaling,
    simulate_program,
)
from .spec import parse_spec_file


def _parse_params(tokens: List[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for tok in tokens:
        if "=" not in tok:
            raise SystemExit(f"parameter {tok!r} must look like NAME=VALUE")
        name, _, value = tok.partition("=")
        try:
            out[name] = int(value)
        except ValueError:
            raise SystemExit(f"parameter value in {tok!r} must be an integer")
    return out


def _builtin_spec(name: str, tile_width: int):
    """Instantiate a built-in problem with demo-sized inputs."""
    if name in ("bandit2", "bandit3", "bandit2-delayed"):
        return REGISTRY[name](tile_width=tile_width)
    if name in ("edit-distance", "damerau", "smith-waterman"):
        return REGISTRY[name](
            random_sequence(40, 1), random_sequence(36, 2), tile_width=tile_width
        )
    if name == "lcs":
        return REGISTRY[name](
            [random_sequence(24, 3), random_sequence(22, 4), random_sequence(20, 5)],
            tile_width=tile_width,
        )
    if name == "msa":
        return REGISTRY[name](
            [random_sequence(20, 6), random_sequence(18, 7), random_sequence(16, 8)],
            tile_width=tile_width,
        )
    if name == "viterbi":
        from .problems import random_hmm

        prior, trans, emit, obs = random_hmm(4, 6, 64, seed=9)
        return REGISTRY[name](prior, trans, emit, obs, tile_width_t=tile_width)
    raise SystemExit(
        f"unknown problem {name!r}; choose one of {sorted(REGISTRY)}"
    )


def _heuristic_widths(program, params):
    """Heuristic tile widths for *program*, or None to keep the spec's.

    Guarded: a width vector that satisfies the per-dimension reach can
    still yield a *cyclic* tile graph (e.g. splitting viterbi's
    bidirectional state dimension), so the candidate is probed by
    building its graph and validating acyclicity before it is adopted.
    """
    from .runtime import tile_graph
    from .runtime.tuner import heuristic_tile_widths

    try:
        widths = heuristic_tile_widths(program.spec, params)
        if widths == dict(program.spec.tile_widths):
            return None
        probe = retile_program(program, widths)
        tile_graph(probe, params).validate_acyclic()
        return widths
    except ReproError:
        return None


def _default_params(spec) -> Dict[str, int]:
    """Demo defaults: bandits get N=12; alignment problems take the
    lengths of their embedded strings.

    The logic lives in :func:`repro.analysis.probe.default_params` so
    the linter's probe instantiation and the CLI stay in agreement.
    """
    from .analysis.probe import default_params

    return default_params(spec)


def main_generate(argv=None) -> int:
    """spec file -> generated program (C by default, Python with --target py)."""
    ap = argparse.ArgumentParser(
        prog="repro-generate",
        description="Generate a hybrid OpenMP+MPI program from a problem spec.",
    )
    ap.add_argument("spec", help="problem description file (see docs/spec format)")
    ap.add_argument("-o", "--output", help="output file (default: stdout)")
    ap.add_argument(
        "--target",
        choices=("c", "py", "cuda"),
        default="c",
        help="backend to emit",
    )
    ap.add_argument(
        "--prune",
        choices=("none", "syntactic", "lp"),
        default="syntactic",
        help="Fourier-Motzkin redundancy elimination level",
    )
    ap.add_argument(
        "--describe", action="store_true", help="print the analysis summary"
    )
    args = ap.parse_args(argv)
    try:
        spec = parse_spec_file(args.spec)
        program = generate(spec, prune=args.prune)
        if args.describe:
            print(program.describe(), file=sys.stderr)
        if args.target == "c":
            source = emit_c_program(program)
        elif args.target == "py":
            source = emit_python_program(program)
        else:
            from .generator.cugen import emit_cuda_program

            source = emit_cuda_program(program)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        sys.stdout.write(source)
    return 0


def _add_run_options(ap: argparse.ArgumentParser, sweep: bool = False) -> None:
    """The :class:`RunConfig` options of ``repro-run`` and
    ``repro-racecheck``, choices and defaults from the runtime itself.

    *sweep* (``repro-racecheck``) makes ``--ranks`` and ``--backend``
    repeatable, one audited execution per combination, and leaves out
    what the trace audit has no reading for: ``--priority`` and
    ``--schedule auto``.
    """
    if sweep:
        ap.add_argument(
            "--ranks",
            type=int,
            action="append",
            default=[],
            metavar="P",
            help="rank count to execute at (repeatable; default: 1 2 4)",
        )
        ap.add_argument(
            "--backend",
            action="append",
            default=[],
            choices=SPMD_BACKENDS,
            help="transport to execute with (repeatable; default: both); "
            "the process backend is skipped at --ranks 1",
        )
    else:
        ap.add_argument(
            "--ranks",
            type=int,
            default=RunConfig.ranks,
            help="SPMD rank count; > 1 partitions tiles with the load "
            "balancer and routes cross-rank edges through in-memory "
            "message queues (and cross-checks the result against a "
            "single-rank run)",
        )
        ap.add_argument(
            "--backend",
            choices=SPMD_BACKENDS,
            default=RunConfig.backend,
            help="multi-rank transport: 'inline' (default) interleaves "
            "the ranks cooperatively in this thread (the deterministic "
            "oracle); 'process' runs one OS worker per rank over "
            "shared-memory ghost arrays for real multi-core parallelism "
            "(requires --ranks >= 2)",
        )
        ap.add_argument(
            "--priority",
            choices=PRIORITY_SCHEMES,
            default=RunConfig.priority_scheme,
        )
    ap.add_argument(
        "--schedule",
        choices=SCHEDULE_POLICIES + (() if sweep else ("auto",)),
        default=RunConfig.schedule,
        help="ready-set policy: 'dynamic' (default) is the priority "
        "heap, 'static' precomputes per-rank wavefront-level buckets"
        + (
            " (its traces skip the FIFO check RPR062, whose premise "
            "only holds for the dynamic heap)"
            if sweep
            else ", 'auto' asks the simulator-driven tuner (repro-tune) "
            "and may also retile"
        ),
    )
    ap.add_argument(
        "--mode",
        choices=EXECUTION_MODES,
        default=RunConfig.mode,
        help="evaluator and dispatch: 'native' compiles the emitted C "
        "tile body, loads it in process and runs it over a rank's whole "
        "ready front, 'wavefront' runs the array evaluator over the "
        "same fronts, 'vector' is the array evaluator dispatched tile "
        "at a time (3.5-9.5x slower than 'wavefront' on the suite "
        "instances; kept for trace parity with the interpreter), "
        "'interpret' evaluates the scalar kernel cell by cell; 'auto' "
        "(default) prefers 'native', then 'wavefront', then 'interpret', "
        "and the summary says why it stepped down",
    )


def _run_config(args: argparse.Namespace, **fields) -> RunConfig:
    """The :class:`RunConfig` the :func:`_add_run_options` flags
    describe; *fields* add what the flags do not carry (tile widths, or
    one ``ranks`` x ``backend`` point of a sweep)."""
    fields.setdefault("ranks", args.ranks)
    fields.setdefault("backend", args.backend)
    return RunConfig(
        mode=args.mode,
        schedule=args.schedule,
        priority_scheme=getattr(args, "priority", RunConfig.priority_scheme),
        **fields,
    )


def main_run(argv=None) -> int:
    """Solve a built-in problem with the in-process tiled runtime."""
    ap = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Run a built-in problem or a problem-description file "
            "through the tiled runtime."
        ),
    )
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help=f"one of {sorted(REGISTRY)}")
    group.add_argument(
        "--spec",
        help="problem-description file; its center_code_py is compiled "
        "into the runtime kernel",
    )
    ap.add_argument(
        "--tile-width",
        type=int,
        default=None,
        help="tile width for every dimension (default: a heuristic "
        "sized from the problem extents toward O(10^2-10^3) tiles)",
    )
    _add_run_options(ap)
    ap.add_argument("params", nargs="*", help="NAME=VALUE parameter overrides")
    args = ap.parse_args(argv)
    if args.ranks < 1:
        ap.error(f"--ranks must be >= 1, got {args.ranks}")
    if args.backend == "process" and args.ranks < 2:
        ap.error("--backend process needs --ranks >= 2 (a single-rank "
                 "run has no ranks to parallelize)")
    try:
        if args.spec:
            spec = parse_spec_file(args.spec)
            kernel = ensure_kernel(spec)
        else:
            spec = _builtin_spec(args.problem, args.tile_width or 4)
            kernel = spec.kernel
        params = _default_params(spec)
        params.update(_parse_params(args.params))
        program = generate(spec)
        tile_widths = None
        if args.problem and args.tile_width is None:
            tile_widths = _heuristic_widths(program, params)
        result = execute(
            program, params, kernel=kernel,
            config=_run_config(args, tile_widths=tile_widths),
        )
        single = None
        if args.ranks > 1:
            # The cross-check replays the run as it resolved (under
            # --schedule auto the tuner already chose) on one rank.
            single = execute(
                program, params, kernel=kernel,
                config=replace(result.config, ranks=1, backend="inline"),
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(spec.describe())
    print()
    cfg = result.config
    print(f"parameters        : {params}")
    stepped_down = ""
    if args.mode == "auto" and cfg.mode != "native":
        # From the executor of the program as it ran (memoized).
        ce = compiled_executor(
            retile_program(program, dict(cfg.tile_widths))
        )
        stepped_down = f" (native unavailable: {ce.native_reason})"
    print(f"engine mode       : {cfg.mode}{stepped_down}"
          + (f" ({cfg.backend} backend)" if cfg.ranks > 1 else ""))
    print(f"schedule          : {cfg.schedule}")
    print(f"tile widths       : {dict(cfg.tile_widths)}")
    print(f"tiles executed    : {result.tiles_executed}")
    print(f"cells computed    : {result.cells_computed}")
    print(f"peak edge buffer  : {result.memory['peak_cells']} cells "
          f"({result.memory['peak_edges']} edges)")
    if cfg.ranks > 1:
        print(f"ranks             : {cfg.ranks}")
        print(f"tiles per rank    : {result.tiles_per_rank}")
        print(f"peak edges / rank : {result.peak_edge_cells_per_rank} cells")
        print(f"cross-rank msgs   : {result.cross_rank_messages} "
              f"({result.cross_rank_cells} cells)")
        identical = single.objective_value == result.objective_value
        print(f"vs single rank    : objective "
              f"{'bit-identical' if identical else 'MISMATCH'}")
        if not identical:
            print(
                f"error: ranks={cfg.ranks} objective "
                f"{result.objective_value!r} != ranks=1 objective "
                f"{single.objective_value!r}",
                file=sys.stderr,
            )
            return 1
    if result.objective_value is not None:
        print(f"objective {result.objective_point} = {result.objective_value!r}")
    return 0


def main_simulate(argv=None) -> int:
    """Scaling study on the simulated cluster."""
    ap = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate the generated program on a cluster model.",
    )
    ap.add_argument("--problem", default="bandit2")
    ap.add_argument("--tile-width", type=int, default=8)
    ap.add_argument("--nodes", type=int, default=1)
    ap.add_argument("--cores", type=int, default=24)
    ap.add_argument(
        "--sweep-cores",
        action="store_true",
        help="sweep core counts on one node (Figure 6 style)",
    )
    ap.add_argument(
        "--lb", choices=LB_METHODS, default="dimension-cut"
    )
    ap.add_argument(
        "--timeline",
        action="store_true",
        help="print a per-node utilization timeline",
    )
    ap.add_argument("params", nargs="*", help="NAME=VALUE parameters")
    args = ap.parse_args(argv)
    machine = MachineModel(nodes=args.nodes, cores_per_node=args.cores)
    try:
        spec = _builtin_spec(args.problem, args.tile_width)
        params = _default_params(spec)
        if set(spec.params) == {"N"}:
            params = {"N": 40}
        params.update(_parse_params(args.params))
        program = generate(spec)
        if args.sweep_cores:
            pts = shared_memory_scaling(
                program, params, [1, 2, 4, 8, 12, 16, 20, 24]
            )
            print(format_scaling_table(pts, f"{spec.name} {params}"))
        else:
            from .runtime import tile_graph
            from .simulate import render_timeline, simulate

            graph = tile_graph(program, params)
            if machine.nodes == 1:
                assignment = {t: 0 for t in graph.tiles}
            else:
                lb = program.load_balance(params, machine.nodes, method=args.lb)
                assignment = {
                    t: lb.node_of_tile(t, program.spaces) for t in graph.tiles
                }
            res = simulate(
                graph, machine, assignment=assignment, trace=args.timeline
            )
            print(f"problem        : {spec.name} {params}")
            print(f"machine        : {machine.nodes} nodes x "
                  f"{machine.cores_per_node} cores")
            print(f"load balancing : {args.lb}")
            print(f"makespan       : {res.makespan_s:.6f} s")
            print(f"speedup        : {res.speedup:.2f}")
            print(f"efficiency     : {res.efficiency:.1%}")
            print(f"messages       : {res.messages} ({res.bytes_sent} bytes)")
            print(f"idle fraction  : {res.idle_fraction:.1%}")
            if args.timeline:
                print()
                print(
                    render_timeline(
                        res.spans,
                        machine.nodes,
                        machine.cores_per_node,
                        makespan_s=res.makespan_s,
                    )
                )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main_tune(argv=None) -> int:
    """Simulator-driven tuning of schedule policy and tile widths."""
    ap = argparse.ArgumentParser(
        prog="repro-tune",
        description=(
            "Sweep schedule policies (dynamic heap vs static wavefront "
            "levels) and candidate tile widths through the cluster "
            "simulator; print the winning configuration and cache it "
            "on disk for execute(schedule='auto')."
        ),
    )
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help=f"one of {sorted(REGISTRY)}")
    group.add_argument("--spec", help="problem-description file to tune")
    ap.add_argument(
        "--tile-width",
        type=int,
        default=4,
        help="starting tile width (the sweep's untuned baseline)",
    )
    ap.add_argument(
        "--quick",
        action="store_true",
        help="sweep only the current and heuristic widths (CI-sized)",
    )
    ap.add_argument("--nodes", type=int, default=None, metavar="N",
                    help="machine model nodes (default: 1)")
    ap.add_argument("--cores", type=int, default=None, metavar="C",
                    help="cores per node (default: this host's cpu count)")
    ap.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help="tuning-registry file (default: $REPRO_TUNE_CACHE or "
        "~/.cache/repro/tuning.json)",
    )
    ap.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk registry",
    )
    ap.add_argument("params", nargs="*", help="NAME=VALUE parameter overrides")
    args = ap.parse_args(argv)

    from .runtime.tuner import default_tuning_machine, tune

    try:
        if args.spec:
            spec = parse_spec_file(args.spec)
        else:
            spec = _builtin_spec(args.problem, args.tile_width)
        params = _default_params(spec)
        params.update(_parse_params(args.params))
        program = generate(spec)
        machine = default_tuning_machine()
        if args.nodes is not None or args.cores is not None:
            machine = MachineModel(
                nodes=args.nodes or 1,
                cores_per_node=args.cores or machine.cores_per_node,
            )
        decision = tune(
            program,
            params,
            machine=machine,
            quick=args.quick,
            use_cache=not args.no_cache,
            cache_path=args.cache,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"problem            : {spec.name} {params}")
    print(f"machine            : {machine.nodes} nodes x "
          f"{machine.cores_per_node} cores")
    print(f"schedule           : {decision.schedule}")
    print(f"tile widths        : {decision.tile_widths}")
    print(f"predicted makespan : {decision.predicted_makespan_s:.6f} s")
    print(f"untuned default    : {decision.default_makespan_s:.6f} s "
          f"(speedup {decision.predicted_speedup:.2f}x)")
    print(f"candidates         : {decision.candidates}")
    print(f"cache              : {'hit' if decision.cache_hit else 'miss'}")
    if decision.predicted_makespan_s > decision.default_makespan_s:
        print(
            "error: tuned configuration is predicted slower than the "
            "untuned default",
            file=sys.stderr,
        )
        return 1
    return 0


def main_lint(argv=None) -> int:
    """Static analysis over built-in problems and/or spec files."""
    ap = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Statically analyze problem specs, kernel fragments, tile "
            "schedules and emitted C; report RPR0xx diagnostics."
        ),
    )
    ap.add_argument(
        "--problem",
        action="append",
        default=[],
        metavar="NAME",
        help=f"built-in problem to lint (repeatable); one of {sorted(REGISTRY)}",
    )
    ap.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="FILE",
        help="problem-description file to lint (repeatable)",
    )
    ap.add_argument(
        "--all", action="store_true", help="lint every built-in problem"
    )
    ap.add_argument("--tile-width", type=int, default=4)
    ap.add_argument(
        "--pass",
        dest="only_pass",
        choices=("all", "concurrency"),
        default="all",
        help="run every pass (default) or only the static concurrency-"
        "protocol audit (RPR05x)",
    )
    ap.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    args = ap.parse_args(argv)
    if not (args.all or args.problem or args.spec):
        ap.error("nothing to lint: pass --all, --problem or --spec")

    from .analysis import (
        analyze_spec,
        analyze_spec_file,
        check_concurrency,
        has_errors,
        make_diagnostic,
        render,
    )

    def concurrency_only(spec):
        try:
            return check_concurrency(generate(spec))
        except ReproError as exc:
            return [
                make_diagnostic(
                    "RPR002",
                    f"code generation failed: {exc}",
                    problem=spec.name,
                    source="spec",
                )
            ]

    problems = sorted(REGISTRY) if args.all else list(args.problem)
    diags = []
    try:
        for name in problems:
            spec = _builtin_spec(name, args.tile_width)
            if args.only_pass == "concurrency":
                diags.extend(concurrency_only(spec))
            else:
                diags.extend(analyze_spec(spec))
        for path in args.spec:
            if args.only_pass == "concurrency":
                diags.extend(concurrency_only(parse_spec_file(path)))
            else:
                diags.extend(analyze_spec_file(path))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render(diags, args.fmt))
    return 1 if has_errors(diags) else 0


def main_racecheck(argv=None) -> int:
    """Concurrency correctness: static protocol audit + trace sanitizer."""
    ap = argparse.ArgumentParser(
        prog="repro-racecheck",
        description=(
            "Audit the SPMD communication protocol statically (RPR05x) "
            "and sanitize transition traces from real executions "
            "(RPR06x) for races, lifetime violations and FIFO "
            "inversions."
        ),
    )
    ap.add_argument(
        "--problem",
        action="append",
        default=[],
        metavar="NAME",
        help=f"built-in problem to check (repeatable); one of {sorted(REGISTRY)}",
    )
    ap.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="FILE",
        help="problem-description file to check (repeatable)",
    )
    ap.add_argument(
        "--all", action="store_true", help="check every built-in problem"
    )
    ap.add_argument("--tile-width", type=int, default=4)
    _add_run_options(ap, sweep=True)
    ap.add_argument(
        "--static-only",
        action="store_true",
        help="run only the static RPR05x audit (no executions)",
    )
    ap.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    ap.add_argument("params", nargs="*", help="NAME=VALUE parameter overrides")
    args = ap.parse_args(argv)
    if not (args.all or args.problem or args.spec):
        ap.error("nothing to check: pass --all, --problem or --spec")
    ranks_list = args.ranks or [1, 2, 4]
    backends = args.backend or ["inline", "process"]

    from .analysis import (
        check_concurrency,
        has_errors,
        racecheck_execution,
        render,
    )

    specs = []
    problems = sorted(REGISTRY) if args.all else list(args.problem)
    diags = []
    try:
        for name in problems:
            specs.append(_builtin_spec(name, args.tile_width))
        for path in args.spec:
            specs.append(parse_spec_file(path))
        for spec in specs:
            params = _default_params(spec)
            params.update(_parse_params(args.params))
            program = generate(spec)
            diags.extend(
                check_concurrency(program, params=params, ranks=ranks_list)
            )
            if args.static_only:
                continue
            kernel = ensure_kernel(spec)
            try:
                compiled_executor(program).resolve_mode(args.mode, kernel)
            except ReproError as exc:
                # A forced mode this problem cannot run leaves nothing
                # to execute: a named skip, not a finding.
                print(
                    f"{spec.name}: execution skipped: {exc}", file=sys.stderr
                )
                continue
            for ranks in ranks_list:
                for backend in backends:
                    if backend == "process" and ranks == 1:
                        continue
                    diags.extend(
                        racecheck_execution(
                            program,
                            params,
                            _run_config(args, ranks=ranks, backend=backend),
                            kernel=kernel,
                        )
                    )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render(diags, args.fmt))
    return 1 if has_errors(diags) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_generate())
