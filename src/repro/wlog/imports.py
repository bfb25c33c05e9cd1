"""The fact registry behind WLog's ``import(...)`` directives.

``import(montage)`` pulls workflow facts generated from a DAX/workflow
object; ``import(amazonec2)`` pulls cloud facts from the metadata store
(Section 4.2 "Workflow- and cloud-specific facts").  The registry holds
named workflow and cloud entries; materializing a program's import list
produces:

* deterministic facts: ``task/1``, ``edge/2`` (with the virtual
  ``root``/``tail`` tasks of Example 1), ``vm/1``, ``price/2``,
  ``cpu_speed/2``, ``vcpus/2``, ``mem/2``, ``region/1``,
  ``regionprice/3``, ``bandwidth/3``, ``netprice/3``;
* probabilistic facts: ``exetime(Tid, Vid, T_j)`` with probability
  ``p_j`` per histogram bin (consumed by the probabilistic IR), along
  with their deterministic means for p=1.0 mode.  Their histograms are
  resolved lazily through the registry's per-catalog
  :class:`~repro.workflow.runtime_model.RuntimeModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from repro.common.errors import WLogRuntimeError
from repro.cloud.instance_types import Catalog
from repro.cloud.network import NetworkModel
from repro.distributions.histogram import Histogram
from repro.wlog.terms import Atom, Num, Rule, Struct, Var
from repro.workflow.dag import Workflow
from repro.workflow.runtime_model import RuntimeModel

__all__ = [
    "ImportRegistry",
    "vm_atom",
    "MaterializedImports",
    "ProbFactSpec",
    "WORKFLOW_FACT_INDICATORS",
    "CLOUD_FACT_INDICATORS",
    "JOINT_FACT_INDICATORS",
]

ROOT = Atom("root")
TAIL = Atom("tail")

#: Fact families a workflow import (``import(montage)``) materializes.
WORKFLOW_FACT_INDICATORS: frozenset[tuple[str, int]] = frozenset({("task", 1), ("edge", 2)})

#: Fact families a cloud import (``import(amazonec2)``) materializes.
CLOUD_FACT_INDICATORS: frozenset[tuple[str, int]] = frozenset(
    {
        ("vm", 1),
        ("price", 2),
        ("cpu_speed", 2),
        ("vcpus", 2),
        ("mem", 2),
        ("region", 1),
        ("regionprice", 3),
        ("bandwidth", 3),
        ("netprice", 3),
    }
)

#: Fact families that need both a workflow and a cloud import
#: (probabilistic exetime facts plus the pre-configured virtual root).
JOINT_FACT_INDICATORS: frozenset[tuple[str, int]] = frozenset({("exetime", 3), ("configs", 3)})


def vm_atom(type_name: str) -> Atom:
    """Instance type name as a WLog atom (``m1.small`` -> ``m1_small``)."""
    return Atom(type_name.replace(".", "_").replace("-", "_"))


def region_atom(region_name: str) -> Atom:
    return Atom(region_name.replace(".", "_").replace("-", "_"))


@dataclass(frozen=True)
class ProbFactSpec:
    """One probabilistic fact family: ``p_j : functor(*key, value_j)``.

    The bins are materialized on the first read of :attr:`histogram`,
    not when the import list is expanded: the interpreter path
    (:meth:`~repro.wlog.probir.ProbabilisticIR.evaluate`,
    :meth:`mean_rule`) reads every family, the compiled path
    (:func:`~repro.engine.compiler.compile_or_raise`) reads none and so
    pays nothing per task.
    """

    functor: str
    key: tuple
    histogram_source: Callable[[], Histogram]

    @cached_property
    def histogram(self) -> Histogram:
        """The family's discretized distribution (one fact per bin)."""
        return self.histogram_source()

    def mean_rule(self) -> Rule:
        """The deterministic (p = 1.0) collapse used for static goals."""
        return Rule(Struct(self.functor, (*self.key, Num(self.histogram.mean()))))


@dataclass
class MaterializedImports:
    """Everything an import list expands to."""

    rules: list[Rule]
    prob_facts: list[ProbFactSpec]
    workflows: dict[str, Workflow]
    catalog: Catalog | None


class ImportRegistry:
    """Named workflow/cloud sources for ``import(...)``."""

    def __init__(self):
        self._workflows: dict[str, Workflow] = {}
        self._clouds: dict[str, tuple[Catalog, str | None]] = {}
        self._models: dict[Catalog, RuntimeModel] = {}

    # Registration --------------------------------------------------------

    def register_workflow(self, name: str, workflow: Workflow) -> None:
        """Make ``import(name)`` expand to this workflow's facts."""
        self._workflows[name] = workflow

    def register_cloud(self, name: str, catalog: Catalog, region: str | None = None) -> None:
        """Make ``import(name)`` expand to this catalog's facts."""
        self._clouds[name] = (catalog, region)

    # Introspection (used by the static analyzer) --------------------------

    def kind_of(self, name: str) -> str | None:
        """``"workflow"`` / ``"cloud"`` for a registered name, else None."""
        if name in self._workflows:
            return "workflow"
        if name in self._clouds:
            return "cloud"
        return None

    def known_names(self) -> tuple[str, ...]:
        """Every registered import name (workflows and clouds)."""
        return tuple(sorted((*self._workflows, *self._clouds)))

    def workflow(self, name: str) -> Workflow | None:
        """The registered workflow behind ``import(name)``, if any.

        The semantic checks in :mod:`repro.analysis` resolve imports
        straight off the registry -- bound inference needs the objects,
        not the fact list :meth:`materialize` expands them to.
        """
        return self._workflows.get(name)

    def cloud(self, name: str) -> tuple[Catalog, str | None] | None:
        """The registered ``(catalog, region)`` behind ``import(name)``."""
        return self._clouds.get(name)

    def fact_indicators(self, imports: tuple[str, ...]) -> set[tuple[str, int]]:
        """The fact families ``imports`` would materialize.

        Unregistered names contribute nothing (the analyzer reports them
        separately as unknown imports).  The set equals the ``(functor,
        arity)`` of every fact :meth:`materialize` expands, which is why
        ``Deco.solve_program`` checks a program once, before translation.
        """
        out: set[tuple[str, int]] = set()
        kinds = {self.kind_of(name) for name in imports}
        if "workflow" in kinds:
            out |= WORKFLOW_FACT_INDICATORS
        if "cloud" in kinds:
            out |= CLOUD_FACT_INDICATORS
        if "workflow" in kinds and "cloud" in kinds:
            out |= JOINT_FACT_INDICATORS
        return out

    def runtime_model_for(self, catalog: Catalog) -> RuntimeModel:
        """The one runtime model this registry uses for ``catalog``.

        Lazy ``exetime`` facts keep a reference to it, and its histogram
        and mean memos are what repeated ``materialize`` / ``translate``
        calls on one registry share.
        """
        model = self._models.get(catalog)
        if model is None:
            model = self._models[catalog] = RuntimeModel(catalog)
        return model

    # Materialization ------------------------------------------------------

    def materialize(self, imports: tuple[str, ...]) -> MaterializedImports:
        """Expand an import list into facts + probabilistic fact specs.

        ``exetime`` facts need both a workflow and a cloud; they are
        generated for every (imported workflow x imported cloud type)
        pair, mirroring how the paper joins DAX profiles with cloud
        metadata during IR translation.
        """
        rules: list[Rule] = []
        prob_facts: list[ProbFactSpec] = []
        workflows: dict[str, Workflow] = {}
        catalog: Catalog | None = None
        region: str | None = None

        for name in imports:
            if name in self._workflows:
                wf = self._workflows[name]
                workflows[name] = wf
                rules.extend(self._workflow_rules(wf))
            elif name in self._clouds:
                if catalog is not None:
                    raise WLogRuntimeError("only one cloud import per program is supported")
                catalog, region = self._clouds[name]
                rules.extend(self._cloud_rules(catalog, region))
            else:
                raise WLogRuntimeError(
                    f"import({name}) refers to an unregistered source; "
                    f"known workflows: {sorted(self._workflows)}, "
                    f"clouds: {sorted(self._clouds)}"
                )

        if workflows and catalog is not None:
            model = self.runtime_model_for(catalog)
            for wf in workflows.values():
                prob_facts.extend(self._exetime_facts(wf, catalog, model))
                # The virtual root costs nothing on any type and is
                # pre-configured, so Example 1's path rules start cleanly.
                for type_name in catalog.type_names:
                    rules.append(
                        Rule(Struct("exetime", (ROOT, vm_atom(type_name), Num(0.0))))
                    )
                rules.append(
                    Rule(
                        Struct("configs", (ROOT, Var("Vid"), Num(1.0))),
                        (Struct("vm", (Var("Vid"),)),),
                    )
                )

        return MaterializedImports(
            rules=rules, prob_facts=prob_facts, workflows=workflows, catalog=catalog
        )

    # Fact generation --------------------------------------------------------

    @staticmethod
    def _workflow_rules(wf: Workflow) -> list[Rule]:
        rules: list[Rule] = []
        for tid in wf.task_ids:
            rules.append(Rule(Struct("task", (Atom(tid),))))
        for parent, child in wf.edges():
            rules.append(Rule(Struct("edge", (Atom(parent), Atom(child)))))
        for tid in wf.roots():
            rules.append(Rule(Struct("edge", (ROOT, Atom(tid)))))
        for tid in wf.leaves():
            rules.append(Rule(Struct("edge", (Atom(tid), TAIL))))
        return rules

    @staticmethod
    def _cloud_rules(catalog: Catalog, region: str | None) -> list[Rule]:
        rules: list[Rule] = []
        region_obj = catalog.region(region)
        for itype in catalog:
            vid = vm_atom(itype.name)
            rules.append(Rule(Struct("vm", (vid,))))
            rules.append(Rule(Struct("price", (vid, Num(region_obj.price(itype.name))))))
            rules.append(Rule(Struct("cpu_speed", (vid, Num(itype.cpu_speed)))))
            rules.append(Rule(Struct("vcpus", (vid, Num(float(itype.vcpus))))))
            rules.append(Rule(Struct("mem", (vid, Num(itype.mem_gb)))))
        net = NetworkModel(catalog)
        for rname in catalog.region_names:
            rules.append(Rule(Struct("region", (region_atom(rname),))))
            for itype in catalog:
                rules.append(
                    Rule(
                        Struct(
                            "regionprice",
                            (region_atom(rname), vm_atom(itype.name), Num(catalog.price(itype.name, rname))),
                        )
                    )
                )
        for ra in catalog.region_names:
            for rb in catalog.region_names:
                if ra == rb:
                    continue
                rules.append(
                    Rule(
                        Struct(
                            "bandwidth",
                            (
                                region_atom(ra),
                                region_atom(rb),
                                Num(net.mean_cross_region_bandwidth(ra, rb)),
                            ),
                        )
                    )
                )
                rules.append(
                    Rule(
                        Struct(
                            "netprice",
                            (
                                region_atom(ra),
                                region_atom(rb),
                                Num(catalog.region(ra).transfer_out_per_gb),
                            ),
                        )
                    )
                )
        return rules

    @staticmethod
    def _exetime_facts(
        wf: Workflow, catalog: Catalog, model: RuntimeModel
    ) -> list[ProbFactSpec]:
        facts: list[ProbFactSpec] = []
        for tid in wf.task_ids:
            task = wf.task(tid)
            for type_name in catalog.type_names:
                facts.append(
                    ProbFactSpec(
                        functor="exetime",
                        key=(Atom(tid), vm_atom(type_name)),
                        histogram_source=partial(model.cached_histogram, task, type_name),
                    )
                )
        return facts
