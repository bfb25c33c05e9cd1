"""WLog term representation.

Standard first-order terms: variables, atoms, numbers, and compound
structures.  Lists follow the Prolog convention -- ``[a, b]`` is
``'.'(a, '.'(b, []))`` with ``[]`` the empty-list atom -- so the
built-in list predicates need no special cases.

Terms are immutable and hashable; variable bindings live in a separate
:class:`~repro.wlog.unify.Bindings` store, never inside terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.common.errors import WLogRuntimeError

if TYPE_CHECKING:  # pragma: no cover
    from repro.wlog.diagnostics import Span

__all__ = [
    "Term",
    "Var",
    "Atom",
    "Num",
    "Struct",
    "Rule",
    "NIL",
    "make_list",
    "list_items",
    "is_list",
    "from_python",
    "to_python",
]


class Term:
    """Base class of all WLog terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A logic variable.

    ``ident`` distinguishes fresh renamings of the same source variable:
    the parser produces ``ident=0``; the engine's clause renaming bumps
    it per activation.  ``span`` (when the term came from the parser)
    locates the occurrence in the source text; it never participates in
    equality or hashing.
    """

    name: str
    ident: int = 0
    span: Optional["Span"] = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return self.name if self.ident == 0 else f"{self.name}_{self.ident}"


@dataclass(frozen=True, slots=True)
class Atom(Term):
    """A constant symbol (Prolog atom), e.g. ``m1_small`` or ``[]``."""

    name: str
    span: Optional["Span"] = field(default=None, compare=False, repr=False)

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Num(Term):
    """A numeric constant (int or float)."""

    value: float

    def __repr__(self) -> str:
        v = self.value
        if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
            return str(int(v))
        return str(v)


class Struct(Term):
    """A compound term ``functor(arg1, ..., argN)``."""

    __slots__ = ("functor", "args", "_hash", "span")

    def __init__(self, functor: str, args: Iterable[Term], span: Optional["Span"] = None):
        self.functor = functor
        self.args = tuple(args)
        self.span = span  # source position; excluded from eq/hash
        if not self.args:
            raise WLogRuntimeError(f"zero-arity Struct {functor!r}; use Atom instead")
        self._hash = hash((functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        """The predicate indicator ``(functor, arity)``."""
        return (self.functor, len(self.args))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Struct)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.functor == "." and len(self.args) == 2:
            items, tail = [], self
            while isinstance(tail, Struct) and tail.functor == "." and len(tail.args) == 2:
                items.append(tail.args[0])
                tail = tail.args[1]
            inner = ", ".join(map(repr, items))
            return f"[{inner}]" if tail == NIL else f"[{inner}|{tail!r}]"
        return f"{self.functor}({', '.join(map(repr, self.args))})"


#: The empty list.
NIL = Atom("[]")


@dataclass(frozen=True)
class Rule:
    """``head :- body.``; a fact is a rule with an empty body.

    ``span`` covers the whole clause in the source text when the rule
    came from the parser; it is ``None`` for rules built
    programmatically and never participates in equality or hashing.
    """

    head: Term
    body: tuple[Term, ...] = ()
    span: Optional["Span"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.head, (Atom, Struct)):
            raise WLogRuntimeError(f"rule head must be an atom or struct, got {self.head!r}")
        object.__setattr__(self, "body", tuple(self.body))

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def indicator(self) -> tuple[str, int]:
        if isinstance(self.head, Atom):
            return (self.head.name, 0)
        return self.head.indicator

    def __repr__(self) -> str:
        if self.is_fact:
            return f"{self.head!r}."
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}."


# List helpers --------------------------------------------------------------

def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a Prolog list term from Python items."""
    result = tail
    for item in reversed(list(items)):
        result = Struct(".", (item, result))
    return result


def list_items(term: Term) -> list[Term]:
    """Extract the items of a proper list term; raises on non-lists."""
    items: list[Term] = []
    while True:
        if term == NIL:
            return items
        if isinstance(term, Struct) and term.functor == "." and len(term.args) == 2:
            items.append(term.args[0])
            term = term.args[1]
        else:
            raise WLogRuntimeError(f"not a proper list: {term!r}")


def is_list(term: Term) -> bool:
    """Whether ``term`` is a proper list."""
    while isinstance(term, Struct) and term.functor == "." and len(term.args) == 2:
        term = term.args[1]
    return term == NIL


# Python bridging ------------------------------------------------------------

def from_python(value) -> Term:
    """Lift a Python value into a term.

    ints/floats -> :class:`Num`; strings -> :class:`Atom`; bools -> the
    atoms ``true``/``false``; lists/tuples -> list terms; terms pass
    through.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        return Atom("true" if value else "false")
    if isinstance(value, (int, float)):
        return Num(float(value))
    if isinstance(value, str):
        return Atom(value)
    if isinstance(value, (list, tuple)):
        return make_list([from_python(v) for v in value])
    raise WLogRuntimeError(f"cannot lift Python value {value!r} into a WLog term")


def to_python(term: Term):
    """Lower a ground term to a Python value (inverse of :func:`from_python`)."""
    if isinstance(term, Num):
        v = term.value
        return int(v) if isinstance(v, float) and v.is_integer() else v
    if isinstance(term, Atom):
        if term.name == "true":
            return True
        if term.name == "false":
            return False
        return term.name
    if isinstance(term, Struct):
        if is_list(term):
            return [to_python(t) for t in list_items(term)]
        return (term.functor, *[to_python(a) for a in term.args])
    raise WLogRuntimeError(f"cannot lower non-ground term {term!r} to Python")

