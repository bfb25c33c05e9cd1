"""WLog program -> compiled array problem.

The paper's GPU solver does not interpret ProbLog rules on the device;
the probabilistic IR is lowered to flat arrays (task-time samples,
prices, DAG structure) that the kernels consume.  This module is that
lowering for the *standard* problem family of Example 1:

    goal minimize Ct in totalcost(Ct).
    cons T in maxtime(...) satisfies deadline(p%, D).
    var configs(Tid, Vid, Con) forall task(Tid) and vm(Vid).

Programs matching the pattern (one imported workflow, one imported
cloud, cost-minimization goal over ``totalcost``, one probabilistic
deadline over ``maxtime``) compile to a
:class:`~repro.solver.backends.CompiledProblem`; anything else returns
``None`` and the caller falls back to the interpreter path.  The
equivalence of the compiled evaluation with the interpreter's
Algorithm-1 evaluation is asserted in the test suite.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.common.errors import WLogError
from repro.solver.backends import CompiledProblem
from repro.solver.levels import LevelSchedule
from repro.wlog.probir import ProbabilisticIR
from repro.wlog.program import ConsSpec, WLogProgram
from repro.wlog.terms import Struct, to_python

__all__ = [
    "try_compile",
    "compile_or_raise",
    "ArenaWorkflowStub",
    "calibration_from_segment",
    "export_problem_arrays",
    "problem_fingerprint",
    "problem_from_segment",
]

_GOAL_FUNCTORS = ("totalcost",)
_CONS_FUNCTORS = ("maxtime",)


def _deadline_constraint(program: WLogProgram) -> ConsSpec | None:
    for cons in program.constraints:
        if cons.requirement_kind() == "deadline":
            return cons
    return None


def _reliability_constraint(program: WLogProgram) -> ConsSpec | None:
    for cons in program.constraints:
        if cons.requirement_kind() == "reliability":
            return cons
    return None


def try_compile(
    ir: ProbabilisticIR,
    num_samples: int = 200,
    seed: int = 0,
    region: str | None = None,
) -> CompiledProblem | None:
    """Lower a translated program to arrays, or None if unrecognized."""
    program = ir.program
    mat = ir.materialized
    if program.goal is None or program.goal.mode != "minimize":
        return None
    goal_pred = program.goal.predicate
    if not (isinstance(goal_pred, Struct) and goal_pred.functor in _GOAL_FUNCTORS):
        return None
    cons = _deadline_constraint(program)
    reliability = _reliability_constraint(program)
    expected = 1 + (1 if reliability is not None else 0)
    if cons is None or len(program.constraints) != expected:
        return None
    if not (isinstance(cons.predicate, Struct) and cons.predicate.functor in _CONS_FUNCTORS):
        return None
    if reliability is not None and program.fault_spec is None:
        return None
    if mat.catalog is None or len(mat.workflows) != 1:
        return None
    if program.var_spec is None or program.var_spec.declaration.functor != "configs":
        return None

    assert cons.requirement is not None
    percentile = float(to_python(cons.requirement.args[0]))
    deadline = float(to_python(cons.requirement.args[1]))
    (workflow,) = mat.workflows.values()
    problem = CompiledProblem.compile(
        workflow=workflow,
        catalog=mat.catalog,
        deadline=deadline,
        percentile=percentile,
        num_samples=num_samples,
        seed=seed,
        region=region,
    )
    if program.fault_spec is not None:
        from repro.faults.recovery import RecoveryPolicy

        rel_percentile = None
        policy = RecoveryPolicy()
        if reliability is not None:
            assert reliability.requirement is not None
            rel_percentile = float(to_python(reliability.requirement.args[0]))
            policy = RecoveryPolicy(
                max_retries=int(to_python(reliability.requirement.args[1]))
            )
        problem = problem.with_faults(
            program.fault_spec.to_fault_model(),
            recovery=policy,
            reliability_percentile=rel_percentile,
        )
    return problem


# Shared-memory tensor plane (DESIGN.md §15) ---------------------------------
#
# A CompiledProblem is, at runtime, a bag of immutable numpy arrays plus
# tiny metadata.  These helpers flatten it into (arrays, meta) suitable
# for :mod:`repro.parallel.arena` segments and rebuild an equivalent
# problem from an attached segment -- the zero-copy alternative to
# pickling the whole problem into every worker.


class ArenaWorkflowStub:
    """Minimal workflow stand-in for attached problems.

    Worker-side evaluation (makespan kernels, analytic moments, prefix
    screening, cost batches) never touches the workflow object beyond
    identity-ish metadata; plan assembly (``assignment_names``,
    ``state_from_assignment``) happens in the parent, which holds the
    real workflow.  Shipping a stub keeps the segment free of object
    graphs.
    """

    __slots__ = ("name", "num_tasks")

    def __init__(self, name: str, num_tasks: int):
        self.name = str(name)
        self.num_tasks = int(num_tasks)

    def __len__(self) -> int:
        return self.num_tasks

    def __repr__(self) -> str:
        return f"ArenaWorkflowStub({self.name!r}, {self.num_tasks})"


def export_problem_arrays(
    problem: CompiledProblem, calibration: tuple | None = None
) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a problem's immutable arrays (+ optional analytic
    calibration ``(grids, means, variances)``) into an arena payload."""
    lv = problem.levels
    assert lv is not None
    arrays: dict[str, np.ndarray] = {
        "tensor": problem.tensor,
        "tensor_taskmajor": problem.tensor_taskmajor,
        "mean_times": problem.mean_times,
        "prices": problem.prices,
        "parent_matrix": lv.parent_matrix,
        "order": lv.order,
        "depth": lv.depth,
        "rank": lv.rank,
        "sink_slots": lv.sink_slots,
    }
    for i, gather in enumerate(lv.level_parents):
        arrays[f"lvlp{i}"] = gather
    if calibration is not None:
        grids, means, variances = calibration
        arrays["calib_grids"] = grids
        arrays["calib_means"] = means
        arrays["calib_variances"] = variances
    meta = {
        "workflow_name": problem.workflow.name,
        "num_tasks": problem.num_tasks,
        "num_levels": lv.num_levels,
        "level_bounds": [list(b) for b in lv.level_bounds],
        "calibrated": calibration is not None,
    }
    return arrays, meta


def problem_fingerprint(problem: CompiledProblem, calibrated: bool = False) -> str:
    """Content key of a problem's sample-tensor generation.

    Hashes the arrays whose bytes determine every evaluation result
    (the task-major copy and level gathers are deterministic functions
    of these, so hashing them too would only slow the key down) plus
    the fault metadata that rides the derivation chain.  Problems with
    equal keys are interchangeable on the worker side.
    """
    from repro.parallel.arena import content_key

    lv = problem.levels
    assert lv is not None
    extra = pickle.dumps(
        (
            problem.workflow.name,
            problem.faults,
            problem.recovery,
            problem.reliability_required,
            bool(calibrated),
        ),
        protocol=4,
    )
    return content_key(
        {
            "tensor": problem.tensor,
            "mean_times": problem.mean_times,
            "prices": problem.prices,
            "parent_matrix": lv.parent_matrix,
        },
        extra=extra,
    )


def problem_from_segment(
    segment,
    catalog,
    *,
    deadline: float = 1.0,
    required_probability: float = 0.96,
    faults=None,
    recovery=None,
    reliability_required: float = 0.0,
) -> CompiledProblem:
    """Rebuild a :class:`CompiledProblem` over an attached segment's arrays.

    The tensors alias the shared mapping (zero-copy); per-solve scalars
    (deadline, fault metadata) come from the caller -- they ride the
    small broadcast delta, not the segment.  The rebuilt problem gets a
    fresh worker-local ``sample_token``, so worker caches key it like
    any locally compiled problem.
    """
    arrays, meta = segment.arrays, segment.meta
    level_parents = [arrays[f"lvlp{i}"] for i in range(int(meta["num_levels"]))]
    levels = LevelSchedule.from_arrays(
        parent_matrix=arrays["parent_matrix"],
        order=arrays["order"],
        depth=arrays["depth"],
        rank=arrays["rank"],
        sink_slots=arrays["sink_slots"],
        level_bounds=meta["level_bounds"],
        level_parents=level_parents,
    )
    parent_matrix = arrays["parent_matrix"]
    parents = tuple(
        tuple(int(p) for p in row[row >= 0]) for row in parent_matrix
    )
    return CompiledProblem(
        workflow=ArenaWorkflowStub(meta["workflow_name"], int(meta["num_tasks"])),
        catalog=catalog,
        mean_times=arrays["mean_times"],
        tensor=arrays["tensor"],
        prices=arrays["prices"],
        parent_indices=parents,
        deadline=float(deadline),
        required_probability=float(required_probability),
        levels=levels,
        tensor_taskmajor=arrays["tensor_taskmajor"],
        faults=faults,
        recovery=recovery,
        reliability_required=float(reliability_required),
    )


def calibration_from_segment(segment) -> tuple | None:
    """The published analytic calibration ``(grids, means, variances)``,
    or ``None`` when the segment was exported without one."""
    arrays = segment.arrays
    if "calib_grids" not in arrays:
        return None
    return arrays["calib_grids"], arrays["calib_means"], arrays["calib_variances"]


def compile_or_raise(
    ir: ProbabilisticIR,
    num_samples: int = 200,
    seed: int = 0,
    region: str | None = None,
    strict: bool = False,
) -> CompiledProblem:
    """Like :func:`try_compile` but raising a descriptive error.

    Error-level static-analysis diagnostics also raise (as
    :class:`~repro.common.errors.WLogAnalysisError`) before lowering:
    the IR carries every materialized fact, so the exact fact surface
    is known here and undefined predicates are hard errors.
    """
    from repro.wlog.analysis import check_program

    facts = {r.indicator for r in ir.materialized.rules}
    facts |= {(pf.functor, len(pf.key) + 1) for pf in ir.materialized.prob_facts}
    check_program(
        ir.program, extra_predicates=facts, assume_import_facts=False, strict=strict
    )
    problem = try_compile(ir, num_samples=num_samples, seed=seed, region=region)
    if problem is None:
        raise WLogError(
            "program does not match the compilable scheduling pattern "
            "(minimize totalcost + one probabilistic deadline over maxtime "
            "+ configs variables over one workflow and one cloud, optionally "
            "a fault_model directive with one reliability constraint); "
            "evaluate it with ProbabilisticIR.evaluate instead"
        )
    return problem
