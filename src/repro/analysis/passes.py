"""The semantic checks, each run once in a fixed order.

:func:`analyze_semantics` resolves the program's imports against the
registry once -- workflow + catalog objects, *without* materializing
histograms: bound inference must stay in the millisecond range for the
admission-control gate -- into an :class:`AnalysisContext`, then calls
the checks straight through:

1. W403 constant conditions, W404 dead rules, W405 pragma-shadowed
   facts (:mod:`repro.analysis.deadcode`; no registry needed);
2. the bounds checks E401-E403 / W401-W402
   (:mod:`repro.analysis.bounds`; skipped unless the imports resolve to
   one workflow and one cloud).

Each check appends its findings to the context; the report sorts them
by source position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.bounds import check_bounds
from repro.analysis.deadcode import check_constant_conditions, check_dead_rules, check_shadowed_facts
from repro.wlog.diagnostics import Diagnostic, Span, make
from repro.wlog.imports import ImportRegistry
from repro.wlog.program import ConsSpec, WLogProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.instance_types import Catalog
    from repro.workflow.dag import Workflow
    from repro.workflow.runtime_model import RuntimeModel

__all__ = ["AnalysisContext", "AnalysisReport", "analyze_semantics"]


@dataclass
class AnalysisContext:
    """One program with its imports resolved, and the findings so far."""

    program: WLogProgram
    registry: ImportRegistry | None = None
    workflow: "Workflow | None" = None
    catalog: "Catalog | None" = None
    region: str | None = None
    runtime_model: "RuntimeModel | None" = None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def source(self) -> str:
        return self.program.source

    def emit(self, check: str, message: str, span: Span | None = None) -> None:
        """Record one finding (severity defaulted from the catalog)."""
        self.diagnostics.append(make(check, message, span))

    def span_of_cons(self, spec: ConsSpec) -> Span | None:
        """Source span of the directive that declared ``spec``."""
        for d in self.program.directives:
            if d.kind == "cons" and d.payload is spec:
                return d.span
        return None


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a semantic analysis run."""

    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)


def _resolve_imports(ctx: AnalysisContext) -> None:
    """Bind the program's imports to registry objects, sans histograms.

    Unknown imports are the syntactic analyzer's E210; here they simply
    leave the semantic slots empty so the bounds checks skip.  Programs
    importing several workflows (none bundled do) also skip bound
    inference -- a single task graph is what the interval propagation
    is defined over.
    """
    registry = ctx.registry
    if registry is None:
        return
    workflows = []
    for name in ctx.program.imports:
        wf = registry.workflow(name)
        if wf is not None:
            workflows.append(wf)
            continue
        cloud = registry.cloud(name)
        if cloud is not None and ctx.catalog is None:
            ctx.catalog, ctx.region = cloud
    if len(workflows) == 1:
        ctx.workflow = workflows[0]
    if ctx.catalog is not None and ctx.runtime_model is None:
        ctx.runtime_model = registry.runtime_model_for(ctx.catalog)


def analyze_semantics(
    source_or_program: str | WLogProgram,
    *,
    registry: ImportRegistry | None = None,
) -> AnalysisReport:
    """Run every semantic check once over one program.

    This is deliberately cheap: imports resolve to the registry's
    workflow/catalog *objects* (no histogram materialization, no IR
    translation), so infeasible programs are rejected in milliseconds
    -- the admission-control budget the service layer needs.
    """
    program = (
        WLogProgram.from_source(source_or_program)
        if isinstance(source_or_program, str)
        else source_or_program
    )
    ctx = AnalysisContext(program=program, registry=registry)
    _resolve_imports(ctx)
    check_constant_conditions(ctx)
    check_dead_rules(ctx)
    check_shadowed_facts(ctx)
    check_bounds(ctx)
    return AnalysisReport(tuple(sorted(ctx.diagnostics, key=lambda d: d.sort_key())))
