"""Ready-made WLog programs for the paper's three use cases.

:func:`scheduling_program` is the paper's Example 1 verbatim (with the
unit fix ``/3600``: our ``price`` facts are $/hour while ``exetime`` is
in seconds).  :func:`ensemble_program` and :func:`followcost_program`
correspond to the technical-report appendix programs for use cases 2
and 3, expressed over the aggregated facts their drivers generate.
"""

from __future__ import annotations

from repro.common.errors import ValidationError

__all__ = [
    "scheduling_program",
    "ensemble_program",
    "followcost_program",
    "ENSEMBLE_DRIVER_FACTS",
    "FOLLOWCOST_DRIVER_FACTS",
    "bundled_programs",
]

#: Fact families the ensemble driver asserts before solving
#: :func:`ensemble_program` (see ``repro.engine.ensemble``).
ENSEMBLE_DRIVER_FACTS: frozenset[tuple[str, int]] = frozenset(
    {("workflow", 1), ("wscore", 2), ("wcost", 2), ("wfeasible", 1)}
)

#: Fact families the follow-the-cost driver asserts before solving
#: :func:`followcost_program`.  ``region/1`` appears here too because
#: this program has no cloud import; the driver supplies the regions.
FOLLOWCOST_DRIVER_FACTS: frozenset[tuple[str, int]] = frozenset(
    {
        ("workflow", 1),
        ("region", 1),
        ("worigin", 2),
        ("wruntime", 3),
        ("wexeccost", 3),
        ("wmigcost", 3),
    }
)


def _fmt_seconds(seconds: float) -> str:
    if seconds <= 0:
        raise ValidationError(f"duration must be > 0, got {seconds}")
    return repr(float(seconds))


def scheduling_program(
    cloud: str = "amazonec2",
    workflow: str = "montage",
    percentile: float = 95.0,
    deadline_seconds: float = 36_000.0,
    astar: bool = False,
    failure_rate: float | None = None,
    mtbf_seconds: float | None = None,
    reliability_percentile: float | None = None,
    max_retries: int = 3,
) -> str:
    """The workflow scheduling program of the paper's Example 1.

    Minimizes total monetary cost subject to the probabilistic deadline
    ``P(makespan <= deadline) >= percentile%``.

    Passing ``failure_rate`` (and optionally ``mtbf_seconds``) adds a
    ``fault_model(Rate, Mtbf)`` directive so the plan is priced under
    retries; adding ``reliability_percentile`` further requires
    ``P(all tasks succeed within max_retries retries) >= P%`` via a
    ``reliability(P, R)`` constraint.
    """
    if not 0 < percentile <= 100:
        raise ValidationError(f"percentile must be in (0, 100], got {percentile}")
    if reliability_percentile is not None and failure_rate is None:
        raise ValidationError(
            "reliability_percentile requires failure_rate (a fault_model directive)"
        )
    faults = ""
    if failure_rate is not None:
        if not 0 <= failure_rate < 1:
            raise ValidationError(f"failure_rate must be in [0, 1), got {failure_rate}")
        mtbf = float("inf") if mtbf_seconds is None else float(mtbf_seconds)
        if not mtbf > 0:
            raise ValidationError(f"mtbf_seconds must be > 0, got {mtbf_seconds}")
        # The lexer has no scientific notation; an effectively-infinite
        # MTBF is spelled as a plain (huge) decimal literal.
        mtbf_text = f"{min(mtbf, 1e18):.1f}"
        faults = f"fault_model({failure_rate!r}, {mtbf_text}).\n"
        if reliability_percentile is not None:
            if not 0 < reliability_percentile <= 100:
                raise ValidationError(
                    f"reliability_percentile must be in (0, 100], got {reliability_percentile}"
                )
            if max_retries < 0:
                raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
            faults += (
                f"cons P in successprob(P) satisfies "
                f"reliability({reliability_percentile:g}%, {int(max_retries)}).\n"
            )
    hints = ""
    if astar:
        hints = (
            "enabled(astar).\n"
            "cal_g_score(C) :- totalcost(C).\n"
            "est_h_score(C) :- totalcost(C).\n"
        )
    return f"""
import({cloud}).
import({workflow}).
goal minimize Ct in totalcost(Ct).
cons T in maxtime(Path, T) satisfies deadline({percentile:g}%, {_fmt_seconds(deadline_seconds)}).
var configs(Tid, Vid, Con) forall task(Tid) and vm(Vid).
{faults}{hints}
/* calculate the time on the edge from X to Y */
path(X, Y, Y, Tp) :- edge(X, Y), exetime(X, Vid, T), configs(X, Vid, Con),
    Con == 1, Tp is T.
/* calculate the time on the path from X to Y, with Z as the next hop for X */
path(X, Y, Z, Tp) :- edge(X, Z), Z \\== Y, path(Z, Y, _Z2, T1),
    exetime(X, Vid, T), configs(X, Vid, Con), Con == 1, Tp is T + T1.
/* calculate the time on the critical path from root to tail */
maxtime(Path, T) :- setof([Z, T1], path(root, tail, Z, T1), Set),
    max(Set, [Path, T]).
/* calculate the cost of Tid executing on Vid (price is $/hour, time is s) */
cost(Tid, Vid, C) :- price(Vid, Up), exetime(Tid, Vid, T),
    configs(Tid, Vid, Con), C is T * Up * Con / 3600.
/* calculate the total cost of all tasks */
totalcost(Ct) :- findall(C, cost(_Tid, _Vid, C), Bag), sum(Bag, Ct).
"""


def ensemble_program(budget: float) -> str:
    """Workflow-ensemble admission (use case 2, tech-report appendix).

    Operates over per-workflow aggregate facts produced by the ensemble
    driver: ``workflow(W)``, ``wscore(W, S)`` (the ``2**-priority``
    score), ``wcost(W, C)`` (optimized cost of running W) and
    ``wfeasible(W)`` (whether W's own probabilistic deadline can be
    met).  The decision variable ``run(W, Con)`` selects the admitted
    subset; the goal maximizes the total score of admitted workflows
    under the ensemble budget (paper Eq. 4-6).
    """
    if budget <= 0:
        raise ValidationError(f"budget must be > 0, got {budget}")
    return f"""
goal maximize Sc in totalscore(Sc).
cons C in ensemblecost(C) satisfies budget(100%, {budget!r}).
cons admissible.
var run(W, Con) forall workflow(W).
enabled(astar).
cal_g_score(S) :- totalscore(S).
est_h_score(S) :- totalscore(S).

admitted(W) :- run(W, Con), Con == 1.
admissible :- \\+ bad_admission.
bad_admission :- admitted(W), \\+ wfeasible(W).
totalscore(Sc) :- findall(S, (admitted(W), wscore(W, S)), Bag), sum(Bag, Sc).
ensemblecost(C) :- findall(X, (admitted(W), wcost(W, X)), Bag), sum(Bag, C).
"""


def followcost_program(deadline_seconds: float) -> str:
    """Follow-the-cost migration (use case 3, tech-report appendix).

    Deterministic optimization (the paper uses static deadlines here to
    assess runtime efficiency).  Facts from the driver, per unfinished
    workflow ``W``: ``workflow(W)``, ``worigin(W, R)`` (current data
    center), ``wruntime(W, R, T)`` (remaining critical-path time if run
    in region R, including the migration transfer), ``wexeccost(W, R,
    C)`` and ``wmigcost(W, R, C)`` (execution / migration monetary
    cost of placing W in R; Eq. 8-9).  The decision variable
    ``wregion(W, R, Con)`` places each workflow in one region.
    """
    return f"""
goal minimize Ct in totalcost(Ct).
cons ontime.
var wregion(W, R, Con) forall workflow(W) and region(R).

placed(W, R) :- wregion(W, R, Con), Con == 1.
wtotal(W, C) :- placed(W, R), wexeccost(W, R, Ce), wmigcost(W, R, Cm),
    C is Ce + Cm.
totalcost(Ct) :- findall(C, wtotal(_W, C), Bag), sum(Bag, Ct).
/* Eq. 10: every workflow's remaining time fits its deadline */
ontime :- \\+ late.
late :- placed(W, R), wruntime(W, R, T), T > {_fmt_seconds(deadline_seconds)}.
"""


def bundled_programs() -> dict[str, tuple[str, frozenset[tuple[str, int]]]]:
    """Every bundled template with the external facts its driver supplies.

    Maps program name to ``(source, extra_predicates)`` so the linter
    (``repro lint --bundled``) and CI can assert they all stay clean.
    """
    return {
        "scheduling": (scheduling_program(), frozenset()),
        "scheduling-astar": (scheduling_program(astar=True), frozenset()),
        "scheduling-faults": (
            scheduling_program(
                failure_rate=0.05,
                mtbf_seconds=36_000.0,
                reliability_percentile=99.0,
                max_retries=3,
            ),
            frozenset(),
        ),
        "ensemble": (ensemble_program(budget=100.0), ENSEMBLE_DRIVER_FACTS),
        "followcost": (followcost_program(36_000.0), FOLLOWCOST_DRIVER_FACTS),
    }
