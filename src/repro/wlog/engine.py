"""The WLog interpreter: SLD resolution with cut over a clause database.

Implements the unification-driven proof search the paper describes in
Algorithm 1's lines 1-4: ``match`` (head unification) followed by
recursive descent into the matched rule's body.  Probabilistic
evaluation (lines 6-15) lives in :mod:`repro.wlog.probir`, which calls
back into this engine with sampled-fact databases.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.common.errors import WLogRuntimeError
from repro.wlog.builtins import BUILTINS
from repro.wlog.terms import Atom, Num, Rule, Struct, Term, Var
from repro.wlog.unify import Bindings, resolve, unify

__all__ = ["Database", "Engine", "Solution"]


class Database:
    """Clauses indexed by predicate indicator ``(functor, arity)``.

    First-argument indexing: for predicates whose clauses are all facts
    with a constant first argument (the overwhelmingly common case for
    imported workflow/cloud facts like ``exetime/3``), lookups bucket by
    that constant instead of scanning every clause.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._preds: dict[tuple[str, int], list[Rule]] = {}
        self._index: dict[tuple[str, int], dict[object, list[Rule]] | None] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> None:
        ind = rule.indicator
        self._preds.setdefault(ind, []).append(rule)
        self._index.pop(ind, None)  # invalidate lazily-built index

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    def clauses(self, indicator: tuple[str, int], first_arg: Term | None = None) -> list[Rule]:
        clauses = self._preds.get(indicator, [])
        if first_arg is None or not clauses:
            return clauses
        key = _index_key(first_arg)
        if key is None:
            return clauses
        index = self._index.get(indicator, _MISSING)
        if index is _MISSING:
            index = self._build_index(indicator, clauses)
            self._index[indicator] = index
        if index is None:
            return clauses
        return index.get(key, [])

    @staticmethod
    def _build_index(indicator, clauses) -> dict[object, list[Rule]] | None:
        index: dict[object, list[Rule]] = {}
        for rule in clauses:
            if not rule.is_fact or not isinstance(rule.head, Struct):
                return None  # mixed predicate: fall back to scans
            key = _index_key(rule.head.args[0])
            if key is None:
                return None
            index.setdefault(key, []).append(rule)
        return index

    def defines(self, indicator: tuple[str, int]) -> bool:
        return indicator in self._preds

    def __len__(self) -> int:
        return sum(len(v) for v in self._preds.values())

    def clone(self) -> "Database":
        """A shallow copy that can be extended without affecting the original."""
        db = Database()
        for ind, clauses in self._preds.items():
            db._preds[ind] = list(clauses)
        return db


def _index_key(term: Term):
    if isinstance(term, Atom):
        return ("a", term.name)
    if isinstance(term, Num):
        return ("n", term.value)
    return None


_MISSING = object()


class Solution(dict):
    """An answer substitution: source variable name -> ground term."""


class Engine:
    """SLD resolution over a :class:`Database`.

    >>> db = Database()
    >>> db.add_fact("edge", "a", "b")
    >>> db.add_fact("edge", "b", "c")
    >>> engine = Engine(db)
    >>> [s["X"] for s in engine.query("edge(a, X)")]
    [b]
    """

    #: Proof depth past which a query is taken for non-termination.
    max_depth = 10_000

    def __init__(self, db: Database):
        self.db = db
        self.output: list[str] = []  # captured write/1 output
        self._rename_counter = itertools.count(1)

    # Public query API -----------------------------------------------------

    def query(self, text_or_goals, bindings: Bindings | None = None) -> Iterator[Solution]:
        """Run a query; yields one :class:`Solution` per proof.

        Accepts WLog query text or pre-parsed goal terms.
        """
        if isinstance(text_or_goals, str):
            from repro.wlog.parser import parse_query

            goals = parse_query(text_or_goals)
        elif isinstance(text_or_goals, Term):
            goals = [text_or_goals]
        else:
            goals = list(text_or_goals)
        bindings = bindings or Bindings()
        names: dict[str, Var] = {}
        for g in goals:
            for v in _source_vars(g):
                names.setdefault(v.name, v)
        for _ in self._conj(tuple(goals), 0, bindings, 0, [False]):
            yield Solution({name: resolve(v, bindings) for name, v in names.items()})

    def ask(self, text_or_goals) -> bool:
        """True iff the query has at least one proof."""
        for _ in self.query(text_or_goals):
            return True
        return False

    def first(self, text_or_goals) -> Solution | None:
        """The first answer, or None."""
        for sol in self.query(text_or_goals):
            return sol
        return None

    # Resolution ------------------------------------------------------------

    def solve_goal(self, goal: Term, bindings: Bindings, depth: int) -> Iterator[bool]:
        """All proofs of a single goal (used by builtins for meta-calls)."""
        return self._conj((goal,), 0, bindings, depth, [False])

    def _conj(
        self,
        goals: tuple[Term, ...],
        i: int,
        bindings: Bindings,
        depth: int,
        cut: list[bool],
    ) -> Iterator[bool]:
        if i == len(goals):
            yield True
            return
        goal = bindings.walk(goals[i])
        if isinstance(goal, Atom) and goal.name == "!":
            yield from self._conj(goals, i + 1, bindings, depth, cut)
            cut[0] = True
            return
        for _ in self._call(goal, bindings, depth):
            yield from self._conj(goals, i + 1, bindings, depth, cut)
            if cut[0]:
                return

    def _call(self, goal: Term, bindings: Bindings, depth: int) -> Iterator[bool]:
        if depth > self.max_depth:
            raise WLogRuntimeError(f"proof depth exceeded {self.max_depth} (likely non-termination)")
        if isinstance(goal, Var):
            raise WLogRuntimeError("cannot call an unbound variable")
        if isinstance(goal, Num):
            raise WLogRuntimeError(f"cannot call a number: {goal!r}")

        indicator = (goal.name, 0) if isinstance(goal, Atom) else goal.indicator
        builtin = BUILTINS.get(indicator)
        if builtin is not None:
            args = goal.args if isinstance(goal, Struct) else ()
            mark = bindings.mark()
            produced = False
            for _ in builtin(self, args, bindings, depth):
                produced = True
                yield True
            if not produced:
                bindings.undo(mark)
            return

        if not self.db.defines(indicator):
            raise WLogRuntimeError(
                f"unknown predicate {indicator[0]}/{indicator[1]} "
                f"(neither defined nor built-in)"
            )

        first_arg = bindings.walk(goal.args[0]) if isinstance(goal, Struct) else None
        for clause in self.db.clauses(indicator, first_arg):
            renamed = self._rename(clause)
            mark = bindings.mark()
            if unify(goal, renamed.head, bindings):
                if renamed.is_fact:
                    yield True
                else:
                    clause_cut = [False]
                    yield from self._conj(renamed.body, 0, bindings, depth + 1, clause_cut)
                    if clause_cut[0]:
                        bindings.undo(mark)
                        return
            bindings.undo(mark)

    # Clause renaming ---------------------------------------------------------

    def _rename(self, clause: Rule) -> Rule:
        if clause.is_fact and not _has_vars(clause.head):
            return clause
        ident = next(self._rename_counter)
        mapping: dict[Var, Var] = {}

        def walk(term: Term) -> Term:
            if isinstance(term, Var):
                fresh = mapping.get(term)
                if fresh is None:
                    fresh = Var(term.name, ident)
                    mapping[term] = fresh
                return fresh
            if isinstance(term, Struct):
                return Struct(term.functor, tuple(walk(a) for a in term.args))
            return term

        return Rule(walk(clause.head), tuple(walk(g) for g in clause.body))


def _has_vars(term: Term) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            return True
        if isinstance(t, Struct):
            stack.extend(t.args)
    return False


def _source_vars(term: Term) -> Iterator[Var]:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var) and not t.name.startswith("_"):
            yield t
        elif isinstance(t, Struct):
            stack.extend(t.args)
