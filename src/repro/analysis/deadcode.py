"""Dead-rule and constant-condition checks on the WLog program.

Purely syntactic semantics -- no registry needed -- but *semantic* in
what it concludes: a ground arithmetic comparison in a rule body is a
compile-time constant, so

* if it folds to **true**, the literal is dead weight (W403
  ``constant-condition``);
* if it folds to **false**, the whole rule can never fire (W404
  ``dead-rule``);
* a ground ``is/2`` right-hand side is foldable arithmetic (W403).

W405 (``pragma-shadowed-fact``) flags in-source facts whose family the
program *also* declares via a ``/* lint: assume name/arity */`` pragma:
the pragma says "these facts arrive from outside", so an in-source
copy is either stale test scaffolding or a shadowing bug.

Unreachable-rule elimination w.r.t. the goal is already the syntactic
analyzer's W304; this module does not duplicate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import WLogRuntimeError
from repro.wlog.analysis import pragma_assumes
from repro.wlog.builtins import COMPARISONS, evaluate_arith
from repro.wlog.terms import Rule, Struct, Term
from repro.wlog.unify import Bindings

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.passes import AnalysisContext

__all__ = [
    "fold_term",
    "fold_comparison",
    "check_constant_conditions",
    "check_dead_rules",
    "check_shadowed_facts",
]


def fold_term(term: Term) -> float | None:
    """Evaluate a ground arithmetic expression with the interpreter's own
    :func:`~repro.wlog.builtins.evaluate_arith`; None when not foldable
    (a variable, a non-arithmetic term, an undefined or non-real result)."""
    try:
        return evaluate_arith(term, Bindings())
    except WLogRuntimeError:
        return None


def fold_comparison(goal: Term) -> bool | None:
    """Statically decide a ground comparison literal; None if undecidable."""
    if not isinstance(goal, Struct) or goal.arity != 2 or goal.functor not in COMPARISONS:
        return None
    a, b = fold_term(goal.args[0]), fold_term(goal.args[1])
    if a is None or b is None:
        return None
    return bool(COMPARISONS[goal.functor](a, b))


def _is_foldable_is(goal: Term) -> bool:
    """``X is <ground arithmetic>`` -- the binding is a compile-time constant."""
    return (
        isinstance(goal, Struct)
        and goal.indicator == ("is", 2)
        and fold_term(goal.args[1]) is not None
    )


def _rule_verdicts(rule: Rule) -> tuple[bool, list[tuple[Term, bool]]]:
    """(statically dead, [(literal, folded truth) for decidable literals])."""
    decided: list[tuple[Term, bool]] = []
    dead = False
    for goal in rule.body:
        truth = fold_comparison(goal)
        if truth is not None:
            decided.append((goal, truth))
            if not truth:
                dead = True
    return dead, decided


def _span_of(goal: Term, rule: Rule):
    return getattr(goal, "span", None) or rule.span


def check_constant_conditions(ctx: "AnalysisContext") -> None:
    """W403: statically decidable conditions and foldable arithmetic."""
    for rule in ctx.program.rules:
        dead, decided = _rule_verdicts(rule)
        if dead:
            continue  # the whole rule is check_dead_rules' W404
        for goal, truth in decided:
            if truth:
                ctx.emit(
                    "W403",
                    f"condition {goal!r} is always true -- fold it away",
                    _span_of(goal, rule),
                )
        for goal in rule.body:
            if _is_foldable_is(goal):
                assert isinstance(goal, Struct)
                ctx.emit(
                    "W403",
                    f"arithmetic {goal.args[1]!r} is constant "
                    f"(= {fold_term(goal.args[1]):g}) -- fold it away",
                    _span_of(goal, rule),
                )


def check_dead_rules(ctx: "AnalysisContext") -> None:
    """W404: rules whose body contains a statically false condition."""
    for rule in ctx.program.rules:
        dead, decided = _rule_verdicts(rule)
        if not dead:
            continue
        false_goal = next(g for g, truth in decided if not truth)
        ctx.emit(
            "W404",
            f"rule can never fire: condition {false_goal!r} is always false",
            _span_of(false_goal, rule),
        )


def check_shadowed_facts(ctx: "AnalysisContext") -> None:
    """W405: in-source facts duplicating a lint-assume pragma family."""
    assumed = pragma_assumes(ctx.source)
    if not assumed:
        return
    for rule in ctx.program.rules:
        if rule.is_fact and rule.indicator in assumed:
            name, arity = rule.indicator
            ctx.emit(
                "W405",
                f"fact {rule.head!r} shadows the pragma-assumed family "
                f"{name}/{arity} (declared to arrive from outside)",
                rule.span,
            )
