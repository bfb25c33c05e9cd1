"""Command-line interface: run experiments and one-off optimizations.

Usage::

    python -m repro list
    python -m repro run fig01 [--seed 7] [--samples 100] [--evals 800]
    python -m repro run all --workers 4
    python -m repro schedule --app montage --degrees 1 --deadline medium \
        --percentile 96 [--workers 2]
    python -m repro schedule --backend analytic --app montage --degrees 4
    python -m repro schedule --dax workflow.xml --deadline 36000
    python -m repro schedule --faults --failure-rate 0.1 --execute
    python -m repro lint program.wlog [--format json|sarif] [--strict]
    python -m repro lint --bundled
    python -m repro lint --explain
    python -m repro analyze program.wlog [--format json|sarif] [--strict]
    python -m repro analyze --bundled
    python -m repro calibrate

``run`` regenerates a paper table/figure through the same drivers the
benchmark harness uses and prints the table; ``schedule`` runs one Deco
optimization and prints the plan; ``lint`` runs the WLog static
analyzer (:mod:`repro.wlog.analysis`) over program files or the bundled
templates; ``analyze`` runs the lint checks, then the straight-line
semantic checks (:mod:`repro.analysis`: E401-E403, W401-W405) in one
diagnostic stream; ``calibrate`` reproduces Table 2.  Engine speed is
measured by ``benchmarks/e2e`` (``BENCHMARK.json``), not by a subcommand.

``--workers N`` (or the ``REPRO_WORKERS`` environment variable) fans
the embarrassingly parallel stages of ``run`` -- simulation
replications and per-member solves -- over N processes, with outputs
bit-identical for any worker count; on ``schedule`` it shards the beam
search's candidate evaluation over N processes.

Exit codes: 0 success, 1 infeasible plan / lint findings, 2 usage error
(unknown experiment, unreadable file, bad argument).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from repro.common.errors import DecoError, ValidationError

__all__ = ["main", "EXPERIMENTS"]

#: Experiment id -> title.  Ids mirror the paper's numbering; drivers
#: live in :mod:`repro.bench` and are imported lazily so `repro lint`
#: and `repro schedule` do not pay the benchmark-harness import cost.
EXPERIMENTS: dict[str, str] = {
    "fig01": "Figure 1: Montage cost per configuration",
    "fig02": "Figure 2: normalized makespan quantiles",
    "table2": "Table 2: I/O performance distributions",
    "fig06": "Figure 6: m1.medium network dynamics",
    "fig07": "Figure 7: pairwise link histograms",
    "fig08": "Figure 8: probabilistic deadline sweep",
    "fig09": "Figure 9: ensemble scores (Deco vs SPSS)",
    "fig10": "Figure 10: follow-the-cost",
    "fig11": "Figure 11: deadline sensitivity",
    "speedup": "Solver speedup: vectorized vs scalar",
    "overhead": "Optimization overhead per task",
    "ablation-prob": "Ablation: probabilistic vs deterministic",
    "ablation-mc": "Ablation: Monte Carlo iterations",
    "ablation-astar": "Ablation: A* pruning",
    "ablation-seeds": "Ablation: warm-start seeds",
    "ablation-faults": "Ablation: fault-oblivious vs fault-aware",
}


def _experiment_driver(name: str):
    """Resolve an experiment id to its driver (imports the harness)."""
    from repro import bench

    def run_fig06(config):
        return [bench.fig06_network_dynamics(config)]

    def run_fig10(config):
        out = bench.fig10_follow_the_cost(config)
        return out["by_size"] + out["by_threshold"]

    drivers = {
        "fig01": bench.fig01_instance_configs,
        "fig02": bench.fig02_runtime_variance,
        "table2": bench.table2_io_distributions,
        "fig06": run_fig06,
        "fig07": bench.fig07_network_histograms,
        "fig08": bench.fig08_probabilistic_deadline_sweep,
        "fig09": bench.fig09_ensemble_scores,
        "fig10": run_fig10,
        "fig11": bench.fig11_deadline_sensitivity,
        "speedup": bench.solver_speedup,
        "overhead": bench.optimization_overhead,
        "ablation-prob": bench.ablation_probabilistic_vs_deterministic,
        "ablation-mc": bench.ablation_mc_iterations,
        "ablation-astar": bench.ablation_astar_pruning,
        "ablation-seeds": bench.ablation_search_seeds,
        "ablation-faults": bench.ablation_fault_aware,
    }
    return drivers[name]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deco reproduction: experiments and one-off optimizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    workers_help = (
        "worker processes for parallel fan-out "
        "(default: REPRO_WORKERS, serial when unset)"
    )

    run = sub.add_parser("run", help="regenerate a paper table/figure")
    run.add_argument("experiment", help="experiment id (see 'repro list') or 'all'")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--samples", type=int, default=100, help="Monte Carlo samples per state")
    run.add_argument("--evals", type=int, default=800, help="search evaluation budget")
    run.add_argument("--runs", type=int, default=8, help="simulated runs per plan")
    run.add_argument("--workers", default=None, metavar="N", help=workers_help)

    sched = sub.add_parser("schedule", help="optimize one workflow with Deco")
    sched.add_argument("--app", choices=("montage", "ligo", "epigenomics", "cybershake"),
                       default="montage")
    sched.add_argument("--dax", default=None, metavar="PATH",
                       help="schedule a DAX workflow file instead of a generated --app")
    sched.add_argument("--degrees", type=float, default=1.0, help="montage mosaic size")
    sched.add_argument("--tasks", type=int, default=100, help="task count for non-montage apps")
    sched.add_argument("--deadline", default="medium",
                       help="tight|medium|loose or seconds")
    sched.add_argument("--percentile", type=float, default=96.0)
    sched.add_argument("--seed", type=int, default=7)
    sched.add_argument("--samples", type=int, default=150)
    sched.add_argument("--evals", type=int, default=1500)
    sched.add_argument("--backend", default="gpu", metavar="NAME",
                       help="evaluation backend: gpu (vectorized Monte Carlo, "
                            "default) or analytic (moment propagation, no sampling)")
    sched.add_argument("--solve-deadline", type=float, default=None, metavar="SECONDS",
                       help="wall-clock watchdog for the solve: return the best "
                            "incumbent (timed_out flagged) instead of searching on "
                            "until the search stops improving or hits --evals")
    sched.add_argument("--execute", action="store_true",
                       help="also execute the plan on the simulator")
    sched.add_argument("--workers", default=None, metavar="N", help=workers_help)
    sched.add_argument("--faults", action="store_true",
                       help="solve and execute under the declared fault model")
    sched.add_argument("--failure-rate", type=float, default=0.05, metavar="F",
                       help="per-attempt task failure probability (with --faults)")
    sched.add_argument("--mtbf", type=float, default=None, metavar="SECONDS",
                       help="instance mean time between crashes (with --faults)")
    sched.add_argument("--on-abort", default="record", metavar="MODE",
                       help="raise|skip|record for aborted --execute runs")

    serve = sub.add_parser("serve", help="run the Deco job service (HTTP JSON API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--journal", default="deco-jobs.jsonl", metavar="PATH",
                       help="write-ahead job journal (replayed on startup)")
    serve.add_argument("--workers", default=None, metavar="N",
                       help="warm solver worker processes (default: 2)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--samples", type=int, default=150,
                       help="Monte Carlo samples per state (worker engines)")
    serve.add_argument("--evals", type=int, default=1500,
                       help="search evaluation budget (worker engines)")
    serve.add_argument("--degrade-depth", type=int, default=8, metavar="N",
                       help="queue depth at which new jobs are load-shed to "
                            "the analytic backend")
    serve.add_argument("--reject-depth", type=int, default=16, metavar="N",
                       help="queue depth at which new jobs are refused (429)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="crash retries per job before dead-lettering")
    serve.add_argument("--hang-after", type=float, default=600.0, metavar="SECONDS",
                       help="kill and retry a job running longer than this")

    submit = sub.add_parser("submit", help="submit a solve job to a running service")
    submit.add_argument("--url", default="http://127.0.0.1:8642",
                        help="service base URL (see 'repro serve')")
    submit.add_argument("--app", choices=("montage", "ligo", "epigenomics", "cybershake"),
                        default="montage")
    submit.add_argument("--dax", default=None, metavar="PATH",
                        help="submit a DAX workflow file instead of a generated --app")
    submit.add_argument("--degrees", type=float, default=1.0, help="montage mosaic size")
    submit.add_argument("--tasks", type=int, default=100,
                        help="task count for non-montage apps")
    submit.add_argument("--seed", type=int, default=7)
    submit.add_argument("--deadline", default="medium",
                        help="tight|medium|loose or seconds")
    submit.add_argument("--percentile", type=float, default=96.0)
    submit.add_argument("--backend", default="gpu", metavar="NAME",
                        help="requested evaluation backend (gpu|analytic); "
                             "the service may downgrade to analytic under load")
    submit.add_argument("--wlog", default=None, metavar="PATH",
                        help="WLog program file to solve against the workflow")
    submit.add_argument("--solve-deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock solve watchdog for this job")
    submit.add_argument("--priority", choices=("interactive", "standard", "batch"),
                        default="standard")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal and print the result")
    submit.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                        help="how long --wait polls before giving up")

    lint = sub.add_parser("lint", help="statically analyze WLog program files")
    analyze = sub.add_parser(
        "analyze",
        help="lint + semantic passes (feasibility proofs, dead rules)",
    )
    for cmd in (lint, analyze):
        cmd.add_argument("files", nargs="*", metavar="FILE",
                         help="WLog program files ('-' for stdin)")
        cmd.add_argument("--bundled", action="store_true",
                         help="check the bundled library templates instead of files")
        cmd.add_argument("--format", choices=("text", "json", "sarif"), default="text",
                         help="diagnostic output format")
        cmd.add_argument("--strict", action="store_true",
                         help="treat warnings as errors for the exit code")
        cmd.add_argument("--assume", action="append", default=[], metavar="PRED/ARITY",
                         help="declare an externally-supplied fact family "
                              "(repeatable, e.g. --assume wscore/2)")
    lint.add_argument("--explain", action="store_true",
                      help="print the check catalog (docs/checks.md source) and exit")

    sub.add_parser("calibrate", help="run the calibration campaign (Table 2)")
    return parser


def _usage_error(out, message: str) -> int:
    print(f"error: {message}", file=out)
    return 2


def _backend_error(name: str) -> str | None:
    """The usage error for a ``--backend`` outside ``BACKEND_NAMES``."""
    from repro.solver.backends import BACKEND_NAMES

    if name in BACKEND_NAMES:
        return None
    return f"--backend must be one of {'|'.join(BACKEND_NAMES)}, got {name!r}"


def _workers_arg(args) -> int | None:
    """Validate ``--workers`` / ``REPRO_WORKERS``; ``None`` = not requested.

    Raises :class:`ValidationError` (one-line error, exit code 2 via the
    main handler) on non-positive or non-integer values.
    """
    raw = getattr(args, "workers", None)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError(
                f"--workers must be a positive integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ValidationError(f"--workers must be a positive integer, got {value}")
        return value
    if os.environ.get("REPRO_WORKERS", "").strip():
        from repro.parallel import workers_from_env

        return workers_from_env()
    return None


def _fault_args(args):
    """Validate ``--failure-rate`` / ``--mtbf``; returns ``(rate, mtbf)``.

    Raises :class:`ValidationError` (one-line error, exit code 2 via the
    main handler) on out-of-range values, mirroring ``--workers``.
    """
    rate = args.failure_rate
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"--failure-rate must be in [0, 1), got {rate:g}")
    mtbf = float("inf") if args.mtbf is None else float(args.mtbf)
    if not mtbf > 0:
        raise ValidationError(f"--mtbf must be > 0 seconds, got {args.mtbf:g}")
    return rate, mtbf


def _config(args):
    from repro.bench import BenchConfig

    kwargs = dict(
        seed=args.seed,
        num_samples=args.samples,
        max_evaluations=args.evals,
        runs_per_plan=getattr(args, "runs", 8),
    )
    workers = _workers_arg(args)
    if workers is not None:
        kwargs["workers"] = workers
    return BenchConfig(**kwargs)


def _cmd_list(out) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, title in EXPERIMENTS.items():
        print(f"  {key.ljust(width)}  {title}", file=out)
    return 0


def _cmd_run(args, out) -> int:
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        return _usage_error(
            out,
            f"unknown experiment {args.experiment!r}; "
            f"run 'repro list' to see the available ids",
        )
    from repro.bench import format_table

    config = _config(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        rows = _experiment_driver(name)(config)
        print(format_table(rows, EXPERIMENTS[name]), file=out)
        print(file=out)
    return 0


def _cmd_schedule(args, out) -> int:
    from repro.cloud import ec2_catalog
    from repro.engine import Deco
    from repro.workflow import generators, parse_dax

    if not 0 < args.percentile <= 100:
        return _usage_error(out, f"--percentile must be in (0, 100], got {args.percentile:g}")
    if args.on_abort not in ("raise", "skip", "record"):
        return _usage_error(
            out, f"--on-abort must be raise|skip|record, got {args.on_abort!r}"
        )
    if backend_error := _backend_error(args.backend):
        return _usage_error(out, backend_error)
    if args.solve_deadline is not None and not args.solve_deadline > 0:
        return _usage_error(
            out, f"--solve-deadline must be > 0 seconds, got {args.solve_deadline:g}"
        )
    workers = _workers_arg(args)
    faults = recovery = None
    if args.faults:
        from repro.faults import FaultModel, RecoveryPolicy

        rate, mtbf = _fault_args(args)
        faults = FaultModel(task_failure_rate=rate, instance_mtbf=mtbf)
        recovery = RecoveryPolicy()

    catalog = ec2_catalog()
    if args.dax is not None:
        path = Path(args.dax)
        if not path.is_file():
            return _usage_error(out, f"DAX file not found: {path}")
        try:
            workflow = parse_dax(path)
        except (DecoError, OSError, ValueError) as exc:
            return _usage_error(out, f"cannot parse DAX file {path}: {exc}")
    elif args.app == "montage":
        workflow = generators.montage(degrees=args.degrees, seed=args.seed)
    else:
        workflow = getattr(generators, args.app)(num_tasks=args.tasks, seed=args.seed)

    deco = Deco(catalog, seed=args.seed, num_samples=args.samples,
                max_evaluations=args.evals,
                backend=args.backend,
                workers=workers)
    try:
        deadline: float | str = float(args.deadline)
    except ValueError:
        deadline = args.deadline
        if deadline not in ("tight", "medium", "loose"):
            return _usage_error(
                out, f"--deadline must be tight|medium|loose or seconds, got {deadline!r}"
            )
    try:
        plan = deco.schedule(
            workflow,
            deadline,
            deadline_percentile=args.percentile,
            faults=faults,
            recovery=recovery,
            solve_deadline_s=args.solve_deadline,
        )
    finally:
        deco.close()

    print(f"workflow:        {workflow.name} ({len(workflow)} tasks)", file=out)
    print(f"backend:         {deco.backend.name}", file=out)
    if deco.workers > 1:
        print(f"workers:         {deco.last_result.workers} beam shards", file=out)
    if faults is not None:
        print(f"fault model:     {faults.describe()}", file=out)
    print(f"deadline:        {plan.deadline:.0f} s @ {plan.deadline_percentile:.1f}%", file=out)
    if plan.timed_out:
        print(f"timed out:       best incumbent at the {args.solve_deadline:g} s "
              "solve watchdog (not converged)", file=out)
    print(f"feasible:        {plan.feasible}", file=out)
    print(f"P(mk <= D):      {plan.probability:.3f}", file=out)
    print(f"expected cost:   ${plan.expected_cost:.4f}", file=out)
    print(f"instance mix:    {plan.type_counts()}", file=out)
    print(f"solve time:      {plan.solve_seconds * 1000:.0f} ms "
          f"({plan.overhead_ms_per_task():.2f} ms/task, "
          f"{plan.evaluations} evaluations)", file=out)

    if args.execute:
        from repro.cloud import CloudSimulator
        from repro.common.rng import RngService

        sim = CloudSimulator(catalog, RngService(args.seed + 1), deco.runtime_model)
        results = sim.run_many(
            workflow,
            dict(plan.assignment),
            10,
            faults=faults,
            recovery=recovery,
            on_abort=args.on_abort,
            workers=workers,
        )
        summary = sim.summarize(results)
        aborted = int(summary.get("num_aborted", 0))
        note = f", {aborted} aborted" if aborted else ""
        print(f"measured (10 runs): ${summary['mean_cost']:.2f}, "
              f"{summary['mean_makespan']:.0f} s mean makespan{note}", file=out)
    return 0 if plan.feasible else 1


def _parse_assumes(specs: list[str], out) -> set[tuple[str, int]] | int:
    assumes: set[tuple[str, int]] = set()
    for spec in specs:
        name, sep, arity = spec.partition("/")
        if not sep or not name or not arity.isdigit():
            return _usage_error(out, f"--assume expects PRED/ARITY, got {spec!r}")
        assumes.add((name, int(arity)))
    return assumes


def _collect_targets(args, out, verb: str):
    """``(filename, source, extra_assumes)`` triples for lint/analyze.

    Returns the list, or an ``int`` exit code on a usage error.
    """
    from repro.wlog.library import bundled_programs

    assumes = _parse_assumes(args.assume, out)
    if isinstance(assumes, int):
        return assumes

    targets: list[tuple[str, str, set[tuple[str, int]]]] = []
    if args.bundled:
        for name, (source, extra) in bundled_programs().items():
            targets.append((f"<bundled:{name}>", source, set(extra) | assumes))
    if args.files and args.bundled:
        return _usage_error(out, "pass either FILE arguments or --bundled, not both")
    if not args.files and not args.bundled:
        return _usage_error(out, f"nothing to {verb}: pass WLog files or --bundled")
    for file in args.files:
        if file == "-":
            targets.append(("<stdin>", sys.stdin.read(), set(assumes)))
            continue
        path = Path(file)
        if not path.is_file():
            return _usage_error(out, f"no such file: {path}")
        try:
            targets.append((str(path), path.read_text(), set(assumes)))
        except (OSError, UnicodeDecodeError) as exc:
            return _usage_error(out, f"cannot read {path}: {exc}")
    return targets


def _emit_findings(args, out, targets, findings) -> int:
    """Render ``(filename, diagnostic)`` findings in the chosen format.

    ``lint`` and ``analyze`` share this emitter, so text, JSON, and
    SARIF output are shaped identically for both commands.  Returns the
    exit code (1 when any finding is fatal under ``--strict`` rules).
    """
    from repro.analysis.sarif import to_sarif
    from repro.wlog.diagnostics import render_diagnostic

    sources = {filename: source for filename, source, _ in targets}
    total_errors = sum(
        1 for _, diag in findings if diag.is_error or args.strict
    )
    total_warnings = len(findings) - total_errors
    if args.format == "sarif":
        print(json.dumps(to_sarif(findings), indent=2), file=out)
    elif args.format == "json":
        print(
            json.dumps(
                [{"file": f, **diag.to_dict()} for f, diag in findings], indent=2
            ),
            file=out,
        )
    else:
        for filename, diag in findings:
            print(render_diagnostic(diag, sources.get(filename), filename), file=out)
        checked = len(targets)
        noun = "program" if checked == 1 else "programs"
        print(
            f"{checked} {noun} checked: {total_errors} error(s), "
            f"{total_warnings} warning(s)",
            file=out,
        )
    return 1 if total_errors else 0


def _syntactic_findings(filename: str, source: str, extra):
    """The linter's diagnostics for one program, syntax errors included."""
    from repro.common.errors import WLogError, WLogSyntaxError
    from repro.wlog.analysis import analyze_program
    from repro.wlog.diagnostics import Diagnostic, Span

    try:
        return list(analyze_program(source, extra_predicates=extra))
    except WLogSyntaxError as exc:
        span = Span(exc.line, exc.column) if exc.line else None
        return [Diagnostic("E101", "error", exc.base_message, span=span)]
    except WLogError as exc:
        return [Diagnostic("E101", "error", str(exc))]


def _cmd_lint(args, out) -> int:
    if args.explain:
        from repro.wlog.diagnostics import checks_markdown

        print(checks_markdown(), file=out, end="")
        return 0
    targets = _collect_targets(args, out, "lint")
    if isinstance(targets, int):
        return targets
    findings = [
        (filename, diag)
        for filename, source, extra in targets
        for diag in _syntactic_findings(filename, source, extra)
    ]
    return _emit_findings(args, out, targets, findings)


def _default_analyze_registry():
    """The import registry ``repro analyze`` binds program imports against.

    Mirrors what the bundled templates import: the EC2 catalog as
    ``amazonec2`` plus the four workflow generators at their default
    sizes.  Programs importing other names still get the full
    syntactic analysis; the semantic checks simply skip what they
    cannot resolve.
    """
    from repro.cloud import ec2_catalog
    from repro.wlog.imports import ImportRegistry
    from repro.workflow import generators

    registry = ImportRegistry()
    registry.register_cloud("amazonec2", ec2_catalog())
    registry.register_workflow("montage", generators.montage(degrees=1.0))
    registry.register_workflow("ligo", generators.ligo(num_tasks=100))
    registry.register_workflow("epigenomics", generators.epigenomics(num_tasks=100))
    registry.register_workflow("cybershake", generators.cybershake(num_tasks=100))
    return registry


def _cmd_analyze(args, out) -> int:
    from repro.analysis import analyze_semantics

    targets = _collect_targets(args, out, "analyze")
    if isinstance(targets, int):
        return targets
    registry = _default_analyze_registry()
    findings = []
    for filename, source, extra in targets:
        diagnostics = _syntactic_findings(filename, source, extra)
        # The semantic checks need a parseable program; on syntax errors the
        # E101 above is the whole story.
        if not any(d.check == "E101" for d in diagnostics):
            report = analyze_semantics(source, registry=registry)
            diagnostics.extend(report.diagnostics)
        findings.extend(
            (filename, diag)
            for diag in sorted(diagnostics, key=lambda d: d.sort_key())
        )
    return _emit_findings(args, out, targets, findings)


def _cmd_serve(args, out) -> int:
    workers = _workers_arg(args)
    from repro.service import DecoService, ServiceConfig
    from repro.service.http import ServiceServer

    config = ServiceConfig(
        journal_path=args.journal,
        workers=workers or 2,
        degrade_depth=args.degrade_depth,
        reject_depth=args.reject_depth,
        max_attempts=args.max_attempts,
        hang_after_s=args.hang_after,
        engine={
            "seed": args.seed,
            "num_samples": args.samples,
            "max_evaluations": args.evals,
        },
    )
    service = DecoService(config)
    recovered = service.queue.recovered_inflight
    server = ServiceServer(service, host=args.host, port=args.port)
    print(f"deco service listening on {server.url}", file=out)
    print(f"journal: {args.journal} "
          f"({len(service.queue.jobs())} jobs replayed, "
          f"{recovered} in-flight re-queued)", file=out)
    out.flush()
    server.serve_forever()
    return 0


def _cmd_submit(args, out) -> int:
    if backend_error := _backend_error(args.backend):
        return _usage_error(out, backend_error)
    if args.solve_deadline is not None and args.solve_deadline <= 0:
        return _usage_error(
            out, f"--solve-deadline must be > 0 seconds, got {args.solve_deadline:g}"
        )
    from repro.service.http import ServiceClient

    if args.dax:
        workflow: dict = {"dax": args.dax}
    elif args.app == "montage":
        workflow = {"app": "montage", "degrees": args.degrees, "seed": args.seed}
    else:
        workflow = {"app": args.app, "tasks": args.tasks, "seed": args.seed}
    payload: dict = {
        "workflow": workflow,
        "deadline": _parse_deadline_arg(args.deadline),
        "percentile": args.percentile,
        "backend": args.backend,
    }
    if args.solve_deadline is not None:
        payload["solve_deadline_s"] = args.solve_deadline
    if args.wlog:
        path = Path(args.wlog)
        if not path.exists():
            return _usage_error(out, f"WLog program not found: {args.wlog}")
        payload["wlog"] = path.read_text()
    client = ServiceClient(args.url)
    try:
        code, doc = client.submit(payload, tenant=args.tenant, priority=args.priority)
    except OSError as exc:
        print(f"error: cannot reach service at {args.url}: {exc}", file=out)
        return 2
    if code == 429:
        print(f"rejected: {doc.get('error')} "
              f"(retry after {doc.get('retry_after_s')}s)", file=out)
        return 1
    if code not in (200, 202):
        print(f"error: service returned {code}: {doc.get('error')}", file=out)
        return 2
    job_id = doc["job_id"]
    print(f"job accepted: {job_id}", file=out)
    if not args.wait:
        print(f"poll with: GET {args.url}/v1/jobs/{job_id}", file=out)
        return 0
    try:
        status = client.wait(job_id, timeout_s=args.timeout)
    except TimeoutError as exc:
        print(f"error: {exc}", file=out)
        return 1
    state = status["state"]
    print(f"state: {state}", file=out)
    if status.get("degraded"):
        print(f"degraded: {status.get('degrade_reason')} "
              "(best-effort result, see probability_error_bound)", file=out)
    if status.get("cache_hit"):
        print("served from plan cache", file=out)
    result = status.get("result") or {}
    plan = result.get("plan") or {}
    if plan:
        print(f"expected cost: ${plan['expected_cost']:.4f}  "
              f"P(deadline): {plan['probability']:.3f}  "
              f"feasible: {plan['feasible']}", file=out)
    if state == "dead_lettered":
        err = status.get("error") or {}
        print(f"dead-lettered after {err.get('attempts')} attempt(s): "
              f"{err.get('type')}: {err.get('message')}", file=out)
        return 1
    return 0


def _parse_deadline_arg(value: str):
    """``tight|medium|loose`` stay strings; anything else must be seconds."""
    if value in ("tight", "medium", "loose"):
        return value
    try:
        return float(value)
    except ValueError:
        return value  # let server-side validation produce the message


def _cmd_calibrate(out) -> int:
    from repro.bench import BenchConfig, format_table, table2_io_distributions

    config = BenchConfig()
    print(format_table(table2_io_distributions(config),
                       "Table 2: I/O performance distributions"), file=out)
    return 0


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(out)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "schedule":
            return _cmd_schedule(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "submit":
            return _cmd_submit(args, out)
        if args.command == "lint":
            return _cmd_lint(args, out)
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "calibrate":
            return _cmd_calibrate(out)
    except DecoError as exc:
        first_line = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"error: {first_line}", file=out)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
