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
:class:`~repro.solver.backends.CompiledProblem`; for anything else
:func:`try_compile` returns ``None`` and :func:`compile_or_raise` (what
``Deco.solve_program`` calls) raises :class:`WLogError`.  The
equivalence of the compiled evaluation with the interpreter's
Algorithm-1 evaluation is asserted in the test suite.
"""

from __future__ import annotations

import itertools
import pickle

import numpy as np

from repro.common.errors import WLogError
from repro.solver.backends import CompiledProblem
from repro.wlog.probir import ProbabilisticIR
from repro.wlog.program import ConsSpec, WLogProgram
from repro.wlog.terms import Struct, to_python

__all__ = [
    "try_compile",
    "compile_or_raise",
    "ArenaWorkflowStub",
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
# problem from an attached segment, so no worker unpickles the tensors.


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


def _parent_csr(parent_indices) -> dict[str, np.ndarray]:
    """The parent lists as CSR arrays: ``parent_offsets`` (N+1) and the
    flat ``parent_edges``; task i's parents are ``edges[offsets[i]:offsets[i+1]]``."""
    sizes = np.fromiter(map(len, parent_indices), dtype=np.int64, count=len(parent_indices))
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    edges = np.fromiter(
        itertools.chain.from_iterable(parent_indices), dtype=np.int64, count=int(offsets[-1])
    )
    return {"parent_offsets": offsets, "parent_edges": edges}


def export_problem_arrays(problem: CompiledProblem) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a problem's immutable arrays into an arena payload: the
    task-major samples, mean times, prices and the DAG's parent lists.
    Everything else a worker needs (the level schedule, tier 0's
    calibration) derives from these."""
    arrays: dict[str, np.ndarray] = {
        "tensor_taskmajor": problem.tensor_taskmajor,
        "mean_times": problem.mean_times,
        "prices": problem.prices,
        **_parent_csr(problem.parent_indices),
    }
    meta = {"workflow_name": problem.workflow.name, "num_tasks": problem.num_tasks}
    return arrays, meta


def problem_fingerprint(problem: CompiledProblem) -> str:
    """Content key of a problem's sample-tensor generation.

    Hashes the arrays whose bytes determine every evaluation result
    (the level gathers are a deterministic function of these, so
    hashing them too would only slow the key down) plus
    the fault metadata that rides the derivation chain.  Problems with
    equal keys are interchangeable on the worker side.
    """
    from repro.parallel.arena import content_key

    extra = pickle.dumps(
        (
            problem.workflow.name,
            problem.faults,
            problem.recovery,
            problem.reliability_required,
        ),
        protocol=4,
    )
    return content_key(
        {
            "tensor_taskmajor": problem.tensor_taskmajor,
            "mean_times": problem.mean_times,
            "prices": problem.prices,
            **_parent_csr(problem.parent_indices),
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

    The samples alias the shared mapping (zero-copy); per-solve scalars
    (deadline, fault metadata) come from the caller -- they ride the
    small broadcast delta, not the segment.  ``CompiledProblem`` builds
    the level schedule from the parent lists, and the problem gets a
    fresh worker-local ``sample_token``, so worker caches key it like
    any locally compiled problem.
    """
    arrays, meta = segment.arrays, segment.meta
    edges = arrays["parent_edges"].tolist()
    bounds = arrays["parent_offsets"].tolist()
    parents = tuple(tuple(edges[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    return CompiledProblem(
        workflow=ArenaWorkflowStub(meta["workflow_name"], int(meta["num_tasks"])),
        catalog=catalog,
        mean_times=arrays["mean_times"],
        tensor=arrays["tensor_taskmajor"].transpose(0, 2, 1),
        prices=arrays["prices"],
        parent_indices=parents,
        deadline=float(deadline),
        required_probability=float(required_probability),
        faults=faults,
        recovery=recovery,
        reliability_required=float(reliability_required),
    )


def compile_or_raise(
    ir: ProbabilisticIR,
    num_samples: int = 200,
    seed: int = 0,
) -> CompiledProblem:
    """Like :func:`try_compile` but raising a descriptive error.

    Static analysis is the caller's: ``Deco.solve_program`` checks the
    program before :func:`~repro.wlog.probir.translate`.
    """
    problem = try_compile(ir, num_samples=num_samples, seed=seed)
    if problem is None:
        raise WLogError(
            "program does not match the compilable scheduling pattern "
            "(minimize totalcost + one probabilistic deadline over maxtime "
            "+ configs variables over one workflow and one cloud, optionally "
            "a fault_model directive with one reliability constraint); "
            "evaluate it with ProbabilisticIR.evaluate instead"
        )
    return problem
