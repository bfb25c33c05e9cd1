"""Tests for the import registry (workflow/cloud fact materialization)."""

import pytest

from repro.common.errors import WLogRuntimeError
from repro.wlog.engine import Database, Engine
from repro.wlog.imports import ImportRegistry, vm_atom
from repro.wlog.terms import Atom
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, pipeline


@pytest.fixture()
def registry(catalog):
    reg = ImportRegistry()
    reg.register_cloud("amazonec2", catalog)
    reg.register_workflow("pipe", pipeline(3, seed=0))
    return reg


class TestVmAtom:
    def test_sanitizes_dots(self):
        assert vm_atom("m1.small") == Atom("m1_small")


class TestMaterialize:
    def test_workflow_facts(self, registry):
        mat = registry.materialize(("pipe",))
        e = Engine(Database(mat.rules))
        assert len(list(e.query("task(T)"))) == 3
        # root/tail virtual edges present.
        assert e.ask("edge(root, X)")
        assert e.ask("edge(X, tail)")

    def test_cloud_facts(self, registry, catalog):
        mat = registry.materialize(("amazonec2",))
        e = Engine(Database(mat.rules))
        vms = [str(s["V"]) for s in e.query("vm(V)")]
        assert len(vms) == len(catalog)
        sol = e.first("price(m1_small, P)")
        assert sol["P"].value == pytest.approx(0.044)
        assert e.ask("cpu_speed(m1_xlarge, 8)")

    def test_region_facts(self, registry):
        mat = registry.materialize(("amazonec2",))
        e = Engine(Database(mat.rules))
        regions = {str(s["R"]) for s in e.query("region(R)")}
        assert regions == {"us_east_1", "ap_southeast_1"}
        assert e.ask("netprice(us_east_1, ap_southeast_1, K)")
        assert e.ask("bandwidth(us_east_1, ap_southeast_1, B)")

    def test_exetime_prob_facts_need_both_imports(self, registry, catalog):
        only_wf = registry.materialize(("pipe",))
        assert not only_wf.prob_facts
        both = registry.materialize(("amazonec2", "pipe"))
        assert len(both.prob_facts) == 3 * len(catalog)

    def test_exetime_histograms_resolve_on_first_read(self, registry, catalog):
        """``materialize`` builds no histogram; reading a fact does, through
        the registry's one runtime model, and a second ``materialize`` on
        the same registry hands out the very same objects."""
        model = registry.runtime_model_for(catalog)
        assert registry.runtime_model_for(catalog) is model
        first = registry.materialize(("amazonec2", "pipe"))
        assert not model._hist_cache
        wf = first.workflows["pipe"]
        fact = first.prob_facts[0]
        hist = fact.histogram
        assert fact.histogram is hist
        assert hist is model.cached_histogram(wf.task(wf.task_ids[0]), catalog.type_names[0])
        second = registry.materialize(("amazonec2", "pipe"))
        assert second.prob_facts[0].histogram is hist

    def test_exetime_histogram_means_sane(self, registry, runtime_model):
        mat = registry.materialize(("amazonec2", "pipe"))
        wf = mat.workflows["pipe"]
        for fact in mat.prob_facts:
            tid = fact.key[0].name
            assert fact.histogram.mean() > 0
            # Deterministic collapse matches the runtime model's mean.
            type_name = fact.key[1].name.replace("_", ".", 1).replace("_", ".")
            assert fact.mean_rule().head.args[-1].value == pytest.approx(
                fact.histogram.mean()
            )

    def test_root_exetime_zero(self, registry):
        mat = registry.materialize(("amazonec2", "pipe"))
        e = Engine(Database(mat.rules))
        assert e.ask("exetime(root, m1_small, 0)")
        assert e.ask("configs(root, m1_small, 1)")

    def test_unknown_import_rejected(self, registry):
        with pytest.raises(WLogRuntimeError):
            registry.materialize(("nonexistent",))

    def test_two_clouds_rejected(self, registry, catalog):
        registry.register_cloud("othercloud", catalog)
        with pytest.raises(WLogRuntimeError):
            registry.materialize(("amazonec2", "othercloud"))


class TestFactSurface:
    """``fact_indicators`` is exactly the surface ``materialize`` expands.

    ``Deco.solve_program`` checks a program once, before translation,
    against ``fact_indicators``; that is only the whole check because the
    two sets agree on every workflow shape and import combination.
    """

    WORKFLOWS = {
        "pipeline-1": lambda: pipeline(1, seed=0),
        "montage-1": lambda: montage(degrees=1.0, seed=1),
        "ligo": lambda: ligo(num_tasks=100, seed=1),
        "epigenomics": lambda: epigenomics(num_tasks=100, seed=1),
        "cybershake": lambda: cybershake(num_tasks=100, seed=1),
    }

    @pytest.mark.parametrize("imports", [("wf",), ("cloud",), ("cloud", "wf")])
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    def test_fact_indicators_equal_materialized(self, catalog, name, imports):
        reg = ImportRegistry()
        reg.register_workflow("wf", self.WORKFLOWS[name]())
        reg.register_cloud("cloud", catalog)
        mat = reg.materialize(imports)
        materialized = {r.indicator for r in mat.rules}
        materialized |= {(pf.functor, len(pf.key) + 1) for pf in mat.prob_facts}
        assert reg.fact_indicators(imports) == materialized
