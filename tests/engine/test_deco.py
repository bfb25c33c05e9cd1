"""Tests for the Deco facade (use case 1)."""

import dataclasses
import inspect

import pytest

from repro.common.errors import SolverError, ValidationError
from repro.engine.deco import Deco
from repro.engine.plan import deadline_presets
from repro.service.runtime import ServiceConfig
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.search import GenericSearch
from repro.solver.shards import ShardedEvaluator
from repro.wlog.analysis import check_program, reject_fatal
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.workflow.generators import cybershake, epigenomics, montage


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

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_non_finite_deadline_rejected(self, deco, wf, deadline):
        with pytest.raises(ValidationError, match="finite"):
            deco.schedule(wf, deadline)

    @pytest.mark.parametrize("percentile", [0.0, -1.0, 101.0, float("nan")])
    def test_percentile_outside_0_100_rejected(self, deco, wf, percentile):
        # Used to return a plan "feasible" at P = 0.0 (percentile <= 0) or
        # an infeasible one at P = 1.0 (percentile > 100).
        with pytest.raises(SolverError, match="percentile"):
            deco.schedule(wf, "medium", deadline_percentile=percentile)

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

    def test_metadata_fields(self, deco, wf):
        plan = deco.schedule(wf, "medium")
        assert plan.backend == "gpu"
        assert plan.evaluations > 0
        assert plan.solve_seconds > 0
        assert plan.overhead_ms_per_task() > 0

    def test_cpu_backend_same_result(self, catalog, wf):
        """The single-thread scalar reference, built directly (it is not
        a ``Deco`` backend name), solves one compiled problem to the
        vectorized backend's plan."""
        problem = CompiledProblem.compile(
            wf, catalog, deadline=deadline_presets(wf, catalog).medium,
            num_samples=40, seed=1,
        )
        gpu, cpu = (
            GenericSearch(backend=backend, max_evaluations=200).solve(problem)
            for backend in (VectorizedBackend(), ScalarBackend())
        )
        assert gpu.best_eval.cost == pytest.approx(cpu.best_eval.cost)
        assert gpu.best_state.key == cpu.best_state.key


class TestDeclarativePath:
    def test_solve_program_matches_schedule(self, catalog, wf, deco):
        reg = ImportRegistry()
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

        prog = WLogProgram.from_source(scheduling_program())
        prog.validate_for_solving()


class TestStaticAnalysisGate:
    """solve_program must reject bad programs before IR translation."""

    def _registry(self, catalog, deco, wf):
        reg = ImportRegistry()
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

    def test_warnings_pass_the_gate_and_are_returned(self, catalog, deco, wf):
        """On the fact surface the engine's gate checks against, a warning
        is reported, not raised (``repro lint --strict`` rejects it)."""
        reg = self._registry(catalog, deco, wf)
        src = scheduling_program() + "orphan(X) :- task(X).\n"
        assert any(d.check == "W304" for d in check_program(src, registry=reg))

    def test_clean_program_still_solves(self, catalog, deco, wf):
        reg = self._registry(catalog, deco, wf)
        src = scheduling_program(percentile=96, deadline_seconds=deco.presets(wf).medium)
        assert check_program(src, registry=reg) == []
        assert deco.solve_program(src, reg).feasible


class TestSemanticGate:
    """solve_program's interval gate rejects doomed programs pre-translation."""

    def _registry(self, catalog, deco, wf):
        reg = ImportRegistry()
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

    def test_vacuous_deadline_warns_and_solves(self, catalog, deco, wf):
        """W401 is a warning: the engine's gate lets it through (strict
        mode, ``repro analyze --strict``, rejects it)."""
        from repro.analysis import analyze_semantics

        reg = self._registry(catalog, deco, wf)
        src = scheduling_program(percentile=95, deadline_seconds=1e12)
        report = analyze_semantics(src, registry=reg)
        assert any(d.check == "W401" for d in report.diagnostics)
        reject_fatal(report.diagnostics, src)
        assert deco.solve_program(src, reg).feasible

    def test_each_analyzer_runs_once_per_solve(self, catalog, deco, wf, monkeypatch):
        """The syntactic check assumes the fact surface ``translate``
        materializes (``tests/wlog/test_imports.py::TestFactSurface``),
        so nothing re-checks the program after translation."""
        import repro.analysis.passes as passes
        from repro.wlog.analysis import _Analyzer

        counts = {"syntactic": 0, "bounds": 0}
        run, check_bounds = _Analyzer.run, passes.check_bounds

        def counting_run(analyzer):
            counts["syntactic"] += 1
            return run(analyzer)

        def counting_bounds(ctx):
            counts["bounds"] += 1
            check_bounds(ctx)

        monkeypatch.setattr(_Analyzer, "run", counting_run)
        monkeypatch.setattr(passes, "check_bounds", counting_bounds)
        src = scheduling_program(percentile=96, deadline_seconds=deco.presets(wf).medium)
        assert deco.solve_program(src, self._registry(catalog, deco, wf)).feasible
        assert counts == {"syntactic": 1, "bounds": 1}


class TestNumbersAreNotCoerced:
    """A bool or a fractional count is rejected, not silently truncated."""

    @pytest.mark.parametrize(
        "name,value",
        [("seed", 2.7), ("seed", True), ("num_samples", 20.9), ("num_samples", "200"),
         ("max_evaluations", True), ("max_evaluations", 1500.0)],
    )
    def test_constructor_rejects(self, catalog, name, value):
        with pytest.raises(ValidationError, match=name):
            Deco(catalog, **{name: value})

    @pytest.mark.parametrize("num_samples", [0, -1])
    def test_no_samples_rejected_at_construction(self, catalog, num_samples):
        # Used to construct and fail only at the first solve.
        with pytest.raises(ValidationError, match="num_samples must be >= 1"):
            Deco(catalog, num_samples=num_samples)

    def test_numpy_integers_accepted(self, catalog):
        import numpy as np

        deco = Deco(catalog, seed=np.int64(3), num_samples=np.int32(20))
        assert (deco.seed, deco.num_samples) == (3, 20)
        assert type(deco.seed) is int

    def test_bool_percentile_rejected(self, deco, wf):
        # Used to solve at the 1st percentile and report a feasible plan.
        with pytest.raises(ValidationError, match="percentile"):
            deco.schedule(wf, "medium", True)

    def test_bool_deadline_rejected(self, deco, wf, catalog):
        with pytest.raises(ValidationError, match="deadline"):
            deco.schedule(wf, True)
        with pytest.raises(ValidationError, match="deadline"):
            CompiledProblem.compile(wf, catalog, deadline=True, num_samples=8)


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
        per_iter = deco._search.EXPAND_PER_ITER
        assert max(sizes) == per_iter
        # One call per beam iteration, each carrying a whole batch -- not
        # one per expanded state.
        assert len(sizes) <= -(-result.expansions // per_iter) + 2


LADDER = (1.0, 0.92, 0.85, 0.78, 0.7, 0.6, 0.5, 0.4)


def names_ladder(deco: Deco, problem: CompiledProblem) -> list[bytes]:
    """The warm-start ladder through task names: ``autoscaling_plan``'s
    dicts read back by ``state_from_assignment``."""
    from repro.baselines.autoscaling import autoscaling_plan
    from repro.workflow.runtime_model import RuntimeModel

    catalog = problem.catalog
    model = deco.runtime_model if catalog is deco.catalog else RuntimeModel(catalog)
    return [
        problem.state_from_assignment(
            autoscaling_plan(problem.workflow, catalog, problem.deadline * factor, model)
        ).key
        for factor in LADDER
    ]


class TestIndexLadder:
    """``Deco._warm_starts`` builds its states from type indices; they are
    the states the names route builds, rung for rung."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: montage(degrees=1.0, seed=4),
            lambda: montage(degrees=4.0, seed=4),
            lambda: montage(degrees=8.0, seed=4),
            lambda: epigenomics(100, seed=4),
            lambda: cybershake(300, seed=4),
        ],
        ids=["montage-1", "montage-4", "montage-8", "epigenomics-100", "cybershake-300"],
    )
    def test_equals_the_names_route(self, catalog, make):
        workflow = make()
        deco = Deco(catalog, seed=3, num_samples=8)
        presets = deco.presets(workflow)
        for deadline in (presets.tight, presets.medium, presets.loose):
            problem = deco._compiled(workflow).with_deadline(deadline)
            got = [state.key for state in deco._warm_starts(problem)]
            assert got == names_ladder(deco, problem)

    def test_equals_the_names_route_on_a_foreign_catalog(self, catalog, wf):
        """A WLog program's cloud that is not the engine's: the ladder
        indexes the problem's catalog, with that catalog's mean times."""
        from repro.cloud.instance_types import Catalog, Region
        from repro.engine.compiler import compile_or_raise
        from repro.wlog.probir import translate
        from repro.wlog.program import WLogProgram

        types = [
            dataclasses.replace(t, name=f"mycloud.{t.name.split('.')[1]}")
            for t in list(catalog)[:3]
        ]
        prices = {t.name: 0.05 * 2**i for i, t in enumerate(types)}
        mycloud = Catalog(types, [Region("home", prices)], "home")
        reg = ImportRegistry()
        reg.register_cloud("mycloud", mycloud)
        reg.register_workflow("wf", wf)
        deco = Deco(catalog, seed=1, num_samples=8)
        src = scheduling_program(
            cloud="mycloud", workflow="wf", percentile=96.0,
            deadline_seconds=Deco(mycloud).presets(wf).tight,
        )
        ir = translate(WLogProgram.from_source(src), reg)
        problem = compile_or_raise(ir, num_samples=8, seed=1)
        assert problem.catalog is not deco.catalog
        got = [state.key for state in deco._warm_starts(problem)]
        assert got == names_ladder(deco, problem)
        assert len(set(got)) > 1  # the rungs differ: the comparison has teeth
