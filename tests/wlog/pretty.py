"""WLog pretty-printer: terms, rules and programs back to source text.

A test helper, the inverse of the parser: the round-trip tests print a
parsed (or programmatically built) program and check that re-parsing
the text gives the same program back.
"""

from __future__ import annotations

from repro.common.errors import WLogError
from repro.wlog.program import ConsSpec, GoalSpec, VarSpec, WLogProgram
from repro.wlog.terms import Atom, Num, Rule, Struct, Term, Var, is_list, list_items

__all__ = ["format_term", "format_rule", "format_program"]

#: Binary operators printed infix, with their surrounding spacing.
_INFIX = {"is", "==", "\\==", "=<", ">=", "=:=", "=\\=", "<", ">", "=", "+", "-", "*", "/"}

#: Atom names that need quoting to re-parse as a single atom.
def _atom_text(name: str) -> str:
    if name and (name[0].islower() and all(c.isalnum() or c == "_" for c in name)):
        return name
    if name in ("[]", "!"):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def format_term(term: Term) -> str:
    """Render one term as parseable WLog text."""
    if isinstance(term, Var):
        return term.name if term.ident == 0 else f"{term.name}_{term.ident}"
    if isinstance(term, Num):
        value = term.value
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))
    if isinstance(term, Atom):
        return _atom_text(term.name)
    if isinstance(term, Struct):
        if term.functor == "." and term.arity == 2:
            if is_list(term):
                inner = ", ".join(format_term(t) for t in list_items(term))
                return f"[{inner}]"
            # Improper list: [H|T].
            head, tail = term.args
            return f"[{format_term(head)}|{format_term(tail)}]"
        if term.functor in _INFIX and term.arity == 2:
            left, right = term.args
            return f"({format_term(left)} {term.functor} {format_term(right)})"
        if term.functor == "," and term.arity == 2:
            return f"({format_term(term.args[0])}, {format_term(term.args[1])})"
        if term.functor == "\\+" and term.arity == 1:
            return f"\\+ {format_term(term.args[0])}"
        args = ", ".join(format_term(a) for a in term.args)
        return f"{_atom_text(term.functor)}({args})"
    raise WLogError(f"cannot format {term!r}")


def format_rule(rule: Rule) -> str:
    """Render one rule/fact as a clause ending in a period."""
    head = format_term(rule.head)
    if rule.is_fact:
        return f"{head}."
    body = ", ".join(format_term(g) for g in rule.body)
    return f"{head} :- {body}."


def _format_goal(spec: GoalSpec) -> str:
    return f"goal {spec.mode} {format_term(spec.objective)} in {format_term(spec.predicate)}."


def _format_cons(spec: ConsSpec) -> str:
    parts = []
    if spec.variable is not None:
        parts.append(f"{format_term(spec.variable)} in {format_term(spec.predicate)}")
    else:
        parts.append(format_term(spec.predicate))
    if spec.requirement is not None:
        parts.append(f"satisfies {format_term(spec.requirement)}")
    return "cons " + " ".join(parts) + "."


def _format_fault_num(value: float) -> str:
    # The lexer has no scientific notation, so huge values (e.g. an
    # effectively-infinite MTBF) must be spelled as plain decimals.
    if value == float("inf"):
        value = 1e18
    text = format_term(Num(value))
    if "e" in text or "E" in text:
        text = f"{value:.1f}"
    return text


def _format_var(spec: VarSpec) -> str:
    text = f"var {format_term(spec.declaration)}"
    if spec.domains:
        text += " forall " + " and ".join(format_term(d) for d in spec.domains)
    return text + "."


def format_program(program: WLogProgram) -> str:
    """Render a whole program: directives first, then the rules.

    The output re-parses to an equivalent program (same directives, same
    rules up to formatting).
    """
    lines: list[str] = []
    for name in program.imports:
        lines.append(f"import({_atom_text(name)}).")
    if program.goal is not None:
        lines.append(_format_goal(program.goal))
    for cons in program.constraints:
        lines.append(_format_cons(cons))
    if program.var_spec is not None:
        lines.append(_format_var(program.var_spec))
    if program.fault_spec is not None:
        spec = program.fault_spec
        lines.append(
            f"fault_model({_format_fault_num(spec.rate)}, "
            f"{_format_fault_num(spec.mtbf)})."
        )
    for feature in program.enabled:
        lines.append(f"enabled({_atom_text(feature)}).")
    if lines and program.rules:
        lines.append("")
    for rule in program.rules:
        lines.append(format_rule(rule))
    return "\n".join(lines) + "\n"
