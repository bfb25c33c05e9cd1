"""The pass manager: a fixpoint driver over analysis passes.

An :class:`AnalysisPass` declares the blackboard keys it *requires*
and *provides*; the :class:`PassManager` runs the registered passes to
a fixpoint: each round, every pass whose requirements are present on
the shared :class:`AnalysisContext` runs, and rounds repeat while any
pass reports a change (new facts or new diagnostics), up to an
iteration cap.  The contract per pass:

* ``run(ctx)`` returns ``True`` iff it changed the context (wrote a
  new fact key or emitted a diagnostic);
* a pass must be *idempotent*: running twice on an unchanged context
  reports no change the second time (this is what makes the fixpoint
  terminate);
* facts are write-once -- passes communicate by adding keys, never by
  mutating another pass's product.

:func:`analyze_semantics` is the one-call driver: resolve the
program's imports against the registry (workflow + catalog objects,
*without* materializing histograms -- bound inference must stay in the
millisecond range for the admission-control gate), run the default
pipeline, and return an :class:`AnalysisReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.common.errors import ValidationError
from repro.wlog.diagnostics import CHECKS, Diagnostic, Span
from repro.wlog.imports import ImportRegistry
from repro.wlog.program import ConsSpec, WLogProgram

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.dominance import OpMask
    from repro.cloud.instance_types import Catalog
    from repro.workflow.dag import Workflow
    from repro.workflow.runtime_model import RuntimeModel

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "PassManager",
    "analyze_semantics",
    "default_passes",
]


@dataclass
class AnalysisContext:
    """The shared blackboard the passes read from and write to."""

    program: WLogProgram
    filename: str = "<program>"
    registry: ImportRegistry | None = None
    workflow: "Workflow | None" = None
    catalog: "Catalog | None" = None
    region: str | None = None
    runtime_model: "RuntimeModel | None" = None
    #: Write-once inter-pass products, keyed by the names passes declare
    #: in ``provides`` (e.g. ``"prices"``, ``"makespan_interval"``).
    facts: dict[str, object] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def source(self) -> str:
        return self.program.source

    def emit(self, check: str, message: str, span: Span | None = None) -> None:
        """Record one finding (severity defaulted from the catalog)."""
        self.diagnostics.append(
            Diagnostic(check=check, severity=CHECKS[check][1], message=message, span=span)
        )

    def put(self, key: str, value: object) -> None:
        """Publish a fact; re-publishing an existing key is a bug."""
        if key in self.facts:
            raise ValidationError(f"analysis fact {key!r} published twice")
        self.facts[key] = value

    def span_of_cons(self, spec: ConsSpec) -> Span | None:
        """Source span of the directive that declared ``spec``."""
        for d in self.program.directives:
            if d.kind == "cons" and d.payload is spec:
                return d.span
        return None


class AnalysisPass:
    """Base class: one semantic analysis pass.

    Subclasses set ``name`` and optionally ``requires``/``provides``
    (blackboard keys), and implement :meth:`run` returning whether the
    context changed.
    """

    name: str = "<unnamed>"
    #: Fact keys that must be on the blackboard before this pass runs.
    requires: tuple[str, ...] = ()
    #: Fact keys this pass publishes (informational; enforced only in
    #: that :meth:`AnalysisContext.put` rejects double publication).
    provides: tuple[str, ...] = ()

    def run(self, ctx: AnalysisContext) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of a semantic analysis run."""

    diagnostics: tuple[Diagnostic, ...]
    facts: dict[str, object]
    passes_run: tuple[str, ...]
    iterations: int

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def op_mask(self) -> "OpMask | None":
        mask = self.facts.get("op_mask")
        return mask  # type: ignore[return-value]


class PassManager:
    """Run passes to a fixpoint over a shared context.

    ``max_iterations`` caps the rounds: well-behaved (idempotent)
    passes converge in two rounds -- one that changes things, one that
    confirms quiescence -- so the cap only guards against buggy passes.
    """

    def __init__(self, passes: Sequence[AnalysisPass], max_iterations: int = 8):
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate pass names: {names}")
        self.passes = tuple(passes)
        self.max_iterations = int(max_iterations)

    def run(self, ctx: AnalysisContext) -> tuple[tuple[str, ...], int]:
        """Drive the fixpoint; returns (passes that ran, iterations)."""
        ran: list[str] = []
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            changed = False
            for p in self.passes:
                if any(key not in ctx.facts for key in p.requires):
                    continue
                if p.run(ctx):
                    changed = True
                    if p.name not in ran:
                        ran.append(p.name)
            if not changed:
                break
        return tuple(ran), iterations


def default_passes() -> tuple[AnalysisPass, ...]:
    """The standard pipeline, in dependency order."""
    from repro.analysis.bounds import BoundsPass
    from repro.analysis.deadcode import ConstantConditionPass, DeadRulePass, ShadowedFactPass
    from repro.analysis.dominance import DominancePass

    return (
        ConstantConditionPass(),
        DeadRulePass(),
        ShadowedFactPass(),
        BoundsPass(),
        DominancePass(),
    )


def _resolve_imports(ctx: AnalysisContext) -> None:
    """Bind the program's imports to registry objects, sans histograms.

    Unknown imports are the syntactic analyzer's E210; here they simply
    leave the semantic slots empty so the bound passes skip.  Programs
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
    filename: str = "<program>",
    passes: Sequence[AnalysisPass] | None = None,
) -> AnalysisReport:
    """Run the semantic pass pipeline over one program.

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
    ctx = AnalysisContext(program=program, filename=filename, registry=registry)
    _resolve_imports(ctx)
    manager = PassManager(tuple(passes) if passes is not None else default_passes())
    ran, iterations = manager.run(ctx)
    return AnalysisReport(
        diagnostics=tuple(sorted(ctx.diagnostics, key=lambda d: d.sort_key())),
        facts=dict(ctx.facts),
        passes_run=ran,
        iterations=iterations,
    )
