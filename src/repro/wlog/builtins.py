"""WLog/Prolog built-in predicates.

The built-ins the paper's listings use (``is``, ``sum``, ``max``,
``setof``, ``findall``, comparison operators) plus the standard list
toolbox.  Each built-in is a function ``fn(engine, args, bindings,
depth)`` returning an iterator that yields once per solution; bindings
made inside must be undone by the caller's trail discipline (the engine
brackets every builtin call with a trail mark).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator

from repro.common.errors import WLogRuntimeError
from repro.wlog.terms import (
    Atom,
    Num,
    Struct,
    Term,
    Var,
    is_list,
    list_items,
    make_list,
)
from repro.wlog.unify import Bindings, resolve, unify

if TYPE_CHECKING:  # pragma: no cover
    from repro.wlog.engine import Engine

__all__ = ["BUILTINS", "COMPARISONS", "builtin_arities", "evaluate_arith", "term_key"]

BuiltinFn = Callable[["Engine", tuple[Term, ...], Bindings, int], Iterator[bool]]

BUILTINS: dict[tuple[str, int], BuiltinFn] = {}


def builtin_arities(name: str) -> tuple[int, ...]:
    """The arities the built-in ``name`` is registered at (may be empty).

    Used by the static analyzer to distinguish an undefined predicate
    from a wrong-arity call to a known built-in.
    """
    return tuple(sorted(a for (n, a) in BUILTINS if n == name))


def _builtin(name: str, arity: int):
    def register(fn: BuiltinFn) -> BuiltinFn:
        BUILTINS[(name, arity)] = fn
        return fn

    return register


# Arithmetic -----------------------------------------------------------------

_ARITH_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "mod": lambda a, b: math.fmod(a, b),
    "min": min,
    "max": max,
    "pow": lambda a, b: a**b,
}
_ARITH_UNOPS = {
    "abs": abs,
    "sqrt": math.sqrt,
    "log": math.log,
    "exp": math.exp,
    "floor": math.floor,
    "ceil": math.ceil,
    "-": lambda a: -a,
}


def evaluate_arith(term: Term, bindings: Bindings) -> float:
    """Evaluate an arithmetic expression term to a Python float."""
    term = bindings.walk(term)
    if isinstance(term, Num):
        return float(term.value)
    if isinstance(term, Var):
        raise WLogRuntimeError(f"arithmetic on unbound variable {term!r}")
    if isinstance(term, Struct):
        if len(term.args) == 2 and term.functor in _ARITH_BINOPS:
            a = evaluate_arith(term.args[0], bindings)
            b = evaluate_arith(term.args[1], bindings)
            if term.functor == "/" and b == 0:
                raise WLogRuntimeError("division by zero")
            return _real(term, _ARITH_BINOPS[term.functor], a, b)
        if len(term.args) == 1 and term.functor in _ARITH_UNOPS:
            return _real(term, _ARITH_UNOPS[term.functor], evaluate_arith(term.args[0], bindings))
    raise WLogRuntimeError(f"not an arithmetic expression: {term!r}")


def _real(term: Term, op: Callable[..., float | complex], *operands: float) -> float:
    """``op(*operands)`` as a float; an undefined or non-real result
    (``mod`` by zero, ``sqrt`` of a negative, ``pow(-8, 0.5)``) is a
    :class:`WLogRuntimeError`."""
    try:
        value = op(*operands)
    except (ArithmeticError, ValueError) as exc:
        raise WLogRuntimeError(f"{term!r} is undefined: {exc}") from exc
    if isinstance(value, complex):
        raise WLogRuntimeError(f"{term!r} is not a real number")
    return float(value)


@_builtin("is", 2)
def _is(engine, args, bindings, depth):
    value = Num(evaluate_arith(args[1], bindings))
    if unify(args[0], value, bindings):
        yield True


#: Arithmetic comparison -> its test on two evaluated operands.
COMPARISONS = {
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def _compare(op: str):
    check = COMPARISONS[op]

    def fn(engine, args, bindings, depth):
        if check(evaluate_arith(args[0], bindings), evaluate_arith(args[1], bindings)):
            yield True

    return fn


for _op in COMPARISONS:
    BUILTINS[(_op, 2)] = _compare(_op)


# Unification / identity ------------------------------------------------------


@_builtin("=", 2)
def _unify(engine, args, bindings, depth):
    if unify(args[0], args[1], bindings):
        yield True


@_builtin("==", 2)
def _struct_eq(engine, args, bindings, depth):
    a = resolve(args[0], bindings)
    b = resolve(args[1], bindings)
    # Numeric == compares by value, per the paper's `Con==1` usage.
    if isinstance(a, Num) and isinstance(b, Num):
        if a.value == b.value:
            yield True
    elif a == b:
        yield True


@_builtin("\\==", 2)
def _struct_neq(engine, args, bindings, depth):
    a = resolve(args[0], bindings)
    b = resolve(args[1], bindings)
    if isinstance(a, Num) and isinstance(b, Num):
        if a.value != b.value:
            yield True
    elif a != b:
        yield True


# Control ----------------------------------------------------------------------


@_builtin("true", 0)
def _true(engine, args, bindings, depth):
    yield True


@_builtin("fail", 0)
def _fail(engine, args, bindings, depth):
    return
    yield True  # pragma: no cover


@_builtin("\\+", 1)
def _naf(engine, args, bindings, depth):
    """Negation as failure."""
    mark = bindings.mark()
    for _ in engine.solve_goal(args[0], bindings, depth + 1):
        bindings.undo(mark)
        return
    bindings.undo(mark)
    yield True


BUILTINS[("not", 1)] = BUILTINS[("\\+", 1)]


@_builtin(",", 2)
def _conj2(engine, args, bindings, depth):
    """Explicit conjunction term (from parenthesized goals)."""
    for _ in engine.solve_goal(args[0], bindings, depth + 1):
        yield from engine.solve_goal(args[1], bindings, depth + 1)


@_builtin("call", 1)
def _call(engine, args, bindings, depth):
    goal = bindings.walk(args[0])
    if isinstance(goal, Var):
        raise WLogRuntimeError("call/1 on unbound variable")
    yield from engine.solve_goal(goal, bindings, depth + 1)


# Aggregation -------------------------------------------------------------------


@_builtin("findall", 3)
def _findall(engine, args, bindings, depth):
    template, goal, result = args
    collected: list[Term] = []
    mark = bindings.mark()
    for _ in engine.solve_goal(goal, bindings, depth + 1):
        collected.append(resolve(template, bindings))
    bindings.undo(mark)
    if unify(result, make_list(collected), bindings):
        yield True


def term_key(term: Term):
    """A total order on ground terms (standard order of terms, adapted)."""
    if isinstance(term, Var):
        return (0, term.name, term.ident)
    if isinstance(term, Num):
        return (1, term.value)
    if isinstance(term, Atom):
        return (2, term.name)
    assert isinstance(term, Struct)
    return (3, len(term.args), term.functor, tuple(term_key(a) for a in term.args))


@_builtin("setof", 3)
def _setof(engine, args, bindings, depth):
    """Simplified setof/3: sorted unique solutions; fails when empty."""
    template, goal, result = args
    collected: list[Term] = []
    mark = bindings.mark()
    for _ in engine.solve_goal(goal, bindings, depth + 1):
        snapshot = resolve(template, bindings)
        if snapshot not in collected:
            collected.append(snapshot)
    bindings.undo(mark)
    if not collected:
        return
    collected.sort(key=term_key)
    if unify(result, make_list(collected), bindings):
        yield True


@_builtin("bagof", 3)
def _bagof(engine, args, bindings, depth):
    """Simplified bagof/3: like findall but fails when empty."""
    template, goal, result = args
    collected: list[Term] = []
    mark = bindings.mark()
    for _ in engine.solve_goal(goal, bindings, depth + 1):
        collected.append(resolve(template, bindings))
    bindings.undo(mark)
    if not collected:
        return
    if unify(result, make_list(collected), bindings):
        yield True


def _aggregate_numeric(op):
    def fn(engine, args, bindings, depth):
        items = list_items(resolve(args[0], bindings))
        if not items:
            if op is sum:
                if unify(args[1], Num(0.0), bindings):
                    yield True
            return
        values = [evaluate_arith(i, bindings) for i in items]
        if unify(args[1], Num(float(op(values))), bindings):
            yield True

    return fn


BUILTINS[("sum", 2)] = _aggregate_numeric(sum)


def _extremum(pick):
    """max/2 and min/2 over a list.

    Numeric elements compare by value.  List elements (the paper's
    ``max(Set, [Path, T])`` over ``[Z, T1]`` pairs) compare by their
    *last* element, which is the measured quantity by convention.
    """

    def fn(engine, args, bindings, depth):
        items = list_items(resolve(args[0], bindings))
        if not items:
            return

        def key(item: Term):
            if isinstance(item, Num):
                return float(item.value)
            if is_list(item):
                sub = list_items(item)
                if sub and isinstance(sub[-1], Num):
                    return float(sub[-1].value)
            raise WLogRuntimeError(f"cannot order element {item!r} in max/min")

        best = pick(items, key=key)
        if unify(args[1], best, bindings):
            yield True

    return fn


BUILTINS[("max", 2)] = _extremum(max)
BUILTINS[("min", 2)] = _extremum(min)


# Lists ---------------------------------------------------------------------------


@_builtin("length", 2)
def _length(engine, args, bindings, depth):
    lst = resolve(args[0], bindings)
    if is_list(lst):
        if unify(args[1], Num(float(len(list_items(lst)))), bindings):
            yield True
        return
    # Generative mode: length(L, 3) builds a fresh 3-variable list.
    n = bindings.walk(args[1])
    if isinstance(n, Num) and float(n.value).is_integer() and n.value >= 0:
        fresh = make_list([Var(f"_L{i}", ident=id(args)) for i in range(int(n.value))])
        if unify(args[0], fresh, bindings):
            yield True
        return
    raise WLogRuntimeError("length/2 needs a list or a non-negative integer")


@_builtin("member", 2)
def _member(engine, args, bindings, depth):
    lst = bindings.walk(args[1])
    for item in list_items(resolve(lst, bindings)):
        mark = bindings.mark()
        if unify(args[0], item, bindings):
            yield True
        bindings.undo(mark)


@_builtin("append", 3)
def _append(engine, args, bindings, depth):
    a = bindings.walk(args[0])
    b = bindings.walk(args[1])
    c = bindings.walk(args[2])
    a_res = resolve(a, bindings)
    if is_list(a_res):
        items = list_items(a_res)
        if unify(args[2], make_list(items, tail=b), bindings):
            yield True
        return
    c_res = resolve(c, bindings)
    if is_list(c_res):
        items = list_items(c_res)
        for split in range(len(items) + 1):
            mark = bindings.mark()
            if unify(a, make_list(items[:split]), bindings) and unify(
                b, make_list(items[split:]), bindings
            ):
                yield True
            bindings.undo(mark)
        return
    raise WLogRuntimeError("append/3 needs at least one proper list")


@_builtin("nth0", 3)
def _nth0(engine, args, bindings, depth):
    idx = bindings.walk(args[0])
    items = list_items(resolve(args[1], bindings))
    if isinstance(idx, Num):
        i = int(idx.value)
        if 0 <= i < len(items) and unify(args[2], items[i], bindings):
            yield True
        return
    for i, item in enumerate(items):
        mark = bindings.mark()
        if unify(args[0], Num(float(i)), bindings) and unify(args[2], item, bindings):
            yield True
        bindings.undo(mark)


@_builtin("reverse", 2)
def _reverse(engine, args, bindings, depth):
    items = list_items(resolve(args[0], bindings))
    if unify(args[1], make_list(list(reversed(items))), bindings):
        yield True


@_builtin("last", 2)
def _last(engine, args, bindings, depth):
    items = list_items(resolve(args[0], bindings))
    if items and unify(args[1], items[-1], bindings):
        yield True


@_builtin("nth1", 3)
def _nth1(engine, args, bindings, depth):
    """1-based indexing (the ISO convention, alongside nth0/3)."""
    idx = bindings.walk(args[0])
    items = list_items(resolve(args[1], bindings))
    if isinstance(idx, Num):
        i = int(idx.value) - 1
        if 0 <= i < len(items) and unify(args[2], items[i], bindings):
            yield True
        return
    for i, item in enumerate(items, start=1):
        mark = bindings.mark()
        if unify(args[0], Num(float(i)), bindings) and unify(args[2], item, bindings):
            yield True
        bindings.undo(mark)


@_builtin("forall", 2)
def _forall(engine, args, bindings, depth):
    """forall(Cond, Action): no solution of Cond fails Action."""
    cond, action = args
    mark = bindings.mark()
    ok = True
    for _ in engine.solve_goal(cond, bindings, depth + 1):
        inner = bindings.mark()
        satisfied = False
        for _ in engine.solve_goal(action, bindings, depth + 1):
            satisfied = True
            break
        bindings.undo(inner)
        if not satisfied:
            ok = False
            break
    bindings.undo(mark)
    if ok:
        yield True


@_builtin("msort", 2)
def _msort(engine, args, bindings, depth):
    items = list_items(resolve(args[0], bindings))
    items.sort(key=term_key)
    if unify(args[1], make_list(items), bindings):
        yield True


@_builtin("between", 3)
def _between(engine, args, bindings, depth):
    lo = evaluate_arith(args[0], bindings)
    hi = evaluate_arith(args[1], bindings)
    x = bindings.walk(args[2])
    if isinstance(x, Num):
        if lo <= x.value <= hi:
            yield True
        return
    i = int(math.ceil(lo))
    while i <= hi:
        mark = bindings.mark()
        if unify(args[2], Num(float(i)), bindings):
            yield True
        bindings.undo(mark)
        i += 1


# Output (captured, for debugging WLog programs) -----------------------------------


@_builtin("write", 1)
def _write(engine, args, bindings, depth):
    engine.output.append(repr(resolve(args[0], bindings)))
    yield True


@_builtin("nl", 0)
def _nl(engine, args, bindings, depth):
    engine.output.append("\n")
    yield True
