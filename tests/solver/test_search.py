"""Tests for the generic (Algorithm 2) and A* searches."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SolverError
from repro.engine.deco import Deco
from repro.engine.plan import deadline_presets
from repro.parallel.arena import arena_available
from repro.solver import backends as backends_module
from repro.solver import levels as levels_module
from repro.solver import search as search_module
from repro.solver.backends import CompiledProblem, ScalarBackend, VectorizedBackend
from repro.solver.search import AStarSearch, GenericSearch
from repro.solver.state import BatchEval, PlanState, StateEval
from repro.workflow.generators import epigenomics, montage, pipeline


@pytest.fixture(scope="module")
def problem(catalog, runtime_model):
    wf = montage(degrees=1, seed=2)
    d = deadline_presets(wf, catalog, runtime_model).medium
    return CompiledProblem.compile(
        wf, catalog, deadline=d, percentile=96.0, num_samples=100,
        seed=5, runtime_model=runtime_model,
    )


class TestGenericSearch:
    def test_finds_feasible_solution(self, problem):
        result = GenericSearch(max_evaluations=1200).solve(problem)
        assert result.feasible_found
        assert result.best_eval.probability >= problem.required_probability - 1e-9

    def test_beats_or_matches_uniform_feasible_states(self, problem):
        result = GenericSearch(max_evaluations=1200).solve(problem)
        backend = VectorizedBackend()
        for t in range(problem.num_types):
            ev = backend.evaluate(problem, PlanState.uniform(problem.num_tasks, t))
            if ev.feasible:
                assert result.best_eval.cost <= ev.cost + 1e-12

    def test_respects_evaluation_budget(self, problem):
        result = GenericSearch(max_evaluations=50).solve(problem)
        assert result.evaluations <= 50 + problem.num_types + 8  # seeds evaluated up front

    def test_seeds_are_used(self, problem):
        seed_state = PlanState.uniform(problem.num_tasks, problem.num_types - 1)
        result = GenericSearch(max_evaluations=20).solve(problem, seeds=[seed_state])
        # The all-fastest seed is feasible, so the best must be at least that good.
        backend = VectorizedBackend()
        ev = backend.evaluate(problem, seed_state)
        assert result.best_eval.cost <= ev.cost + 1e-12

    def test_wrong_seed_length_rejected(self, problem):
        with pytest.raises(SolverError):
            GenericSearch().solve(problem, seeds=[PlanState.uniform(2, 0)])

    def test_trace_monotone(self, problem):
        result = GenericSearch(max_evaluations=800).solve(problem)
        costs = [c for _, c in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(SolverError):
            GenericSearch(max_evaluations=0)
        with pytest.raises(SolverError):
            GenericSearch(analytic_min_tasks=-1)

    def test_batched_expansion_matches_serial_quality(self, problem, monkeypatch):
        """Wider per-iteration expansion keeps priority/pruning semantics:
        both settings must land on a feasible plan no worse than the
        all-fastest uniform seed."""
        monkeypatch.setattr(GenericSearch, "EXPAND_PER_ITER", 1)
        serial = GenericSearch(max_evaluations=400).solve(problem)
        monkeypatch.setattr(GenericSearch, "EXPAND_PER_ITER", 8)
        batched = GenericSearch(max_evaluations=400).solve(problem)
        assert serial.feasible_found and batched.feasible_found
        fastest = VectorizedBackend().evaluate(
            problem, PlanState.uniform(problem.num_tasks, problem.num_types - 1)
        )
        assert serial.best_eval.cost <= fastest.cost + 1e-12
        assert batched.best_eval.cost <= fastest.cost + 1e-12

    def test_cache_counters_on_result(self, problem):
        search = GenericSearch(max_evaluations=60)
        cold = search.solve(problem)
        assert cold.cache_misses > 0
        # Re-solving a with_deadline derivation reuses makespan rows.
        warm = search.solve(problem.with_deadline(problem.deadline * 2.0))
        assert warm.cache_hits > 0
        # A backend that keeps no memo leaves the counters at zero.
        plain = GenericSearch(ScalarBackend(), max_evaluations=60).solve(problem)
        assert plain.cache_hits == 0 and plain.cache_misses == 0
        with pytest.raises(SolverError):
            GenericSearch(max_evaluations=0)

    def test_impossible_deadline_reports_infeasible(self, catalog, runtime_model):
        wf = pipeline(3, seed=0, runtime=600.0)
        prob = CompiledProblem.compile(
            wf, catalog, deadline=1.0, percentile=99.0, num_samples=32,
            runtime_model=runtime_model,
        )
        result = GenericSearch(max_evaluations=300).solve(prob)
        assert not result.feasible_found

    def test_assignment_names(self, problem, catalog):
        result = GenericSearch(max_evaluations=300).solve(problem)
        names = result.assignment_names(problem)
        assert set(names) == set(problem.workflow.task_ids)
        assert set(names.values()) <= set(catalog.type_names)


def count_expansions(monkeypatch) -> list[int]:
    """Record how many children each beam iteration generated.

    Every generated child is evaluated (and consumes budget) whichever
    tier settles it, so the nonzero entries are the expanding iterations.
    """
    sizes: list[int] = []
    expand = search_module.expand_batch

    def counted(*args, **kwargs):
        children = expand(*args, **kwargs)
        sizes.append(len(children))
        return children

    monkeypatch.setattr(search_module, "expand_batch", counted)
    return sizes


def after_last_improvement(result, sizes: list[int]) -> list[int]:
    """The children counts of the iterations after the last trace entry's."""
    done, last = result.trace[0][0], -1  # the seeds
    for i, n in enumerate(sizes):
        done += n
        if n and done == result.trace[-1][0]:
            last = i
    assert done == result.evaluations
    return sizes[last + 1 :]


def expanding(sizes: list[int]) -> int:
    return sum(1 for n in sizes if n)


#: The benchmark's engine knobs.
ENGINE = {"seed": 7, "num_samples": 150, "max_evaluations": 1500}


class TestIdleStop:
    """A solve ends ``IDLE_ITERATIONS`` expanding iterations after its
    last improvement; the evaluation budget stays the cap."""

    @pytest.mark.parametrize("deadline", ["tight", "medium", "loose"])
    def test_stops_idle_iterations_after_the_last_improvement(
        self, catalog, runtime_model, deadline, monkeypatch
    ):
        wf = montage(degrees=1, seed=2)
        d = getattr(deadline_presets(wf, catalog, runtime_model), deadline)
        prob = CompiledProblem.compile(
            wf, catalog, deadline=d, percentile=96.0, num_samples=100,
            seed=5, runtime_model=runtime_model,
        )
        sizes = count_expansions(monkeypatch)
        result = GenericSearch(max_evaluations=1500).solve(prob)
        assert result.evaluations < 1500
        assert expanding(after_last_improvement(result, sizes)) == GenericSearch.IDLE_ITERATIONS

    def test_deduped_iterations_neither_count_nor_reset(self, catalog, monkeypatch):
        """An iteration whose children were all deduped evaluates nothing.
        Here every other one is emptied, and the stop still waits for
        ``IDLE_ITERATIONS`` iterations that evaluated a child."""
        sizes: list[int] = []
        expand = search_module.expand_batch

        def every_other_empty(*args, **kwargs):
            children = expand(*args, **kwargs)
            if len(sizes) % 2:
                children = children.take([])
            sizes.append(len(children))
            return children

        monkeypatch.setattr(search_module, "expand_batch", every_other_empty)
        deco = Deco(catalog, **ENGINE)
        deco.schedule(montage(degrees=4, seed=1), "medium", deadline_percentile=99.0)
        result = deco.last_result
        assert result.evaluations < 1500
        tail = after_last_improvement(result, sizes)
        assert expanding(tail) == GenericSearch.IDLE_ITERATIONS
        assert tail.count(0) >= GenericSearch.IDLE_ITERATIONS - 1  # they ran, uncounted

    def test_an_emptied_frontier_ends_the_search_first(self, catalog, monkeypatch):
        """A 1-task pipeline runs out of states before any stop applies."""
        sizes = count_expansions(monkeypatch)
        deco = Deco(catalog, **ENGINE)
        deco.schedule(pipeline(1, seed=0), "medium", deadline_percentile=96.0)
        result = deco.last_result
        assert result.evaluations < 1500
        assert expanding(after_last_improvement(result, sizes)) < GenericSearch.IDLE_ITERATIONS

    def test_a_late_improvement_resets_the_count(self, catalog, monkeypatch):
        """Epigenomics-100 s0 at medium/99 improves at evaluation 487,
        after more idle expanding iterations in all than the stop allows
        in a row."""
        sizes = count_expansions(monkeypatch)
        deco = Deco(catalog, **ENGINE)
        deco.schedule(epigenomics(100, seed=0), "medium", deadline_percentile=99.0)
        result = deco.last_result
        assert result.trace[-1][0] == 487
        improving = len({n for n, _ in result.trace[1:]})
        assert expanding(sizes) - improving > GenericSearch.IDLE_ITERATIONS
        assert expanding(after_last_improvement(result, sizes)) == GenericSearch.IDLE_ITERATIONS

    def test_the_budget_still_caps_the_search(self, problem):
        full = GenericSearch(max_evaluations=1500).solve(problem)
        cap = full.evaluations // 2
        assert cap > full.trace[0][0]  # the cap falls inside the search
        capped = GenericSearch(max_evaluations=cap).solve(problem)
        assert capped.evaluations == cap
        # Up to the iteration the cap truncates, the two searches agree.
        assert [t for t in capped.trace if t[0] < cap] == [t for t in full.trace if t[0] < cap]

    @pytest.mark.skipif(not arena_available(), reason="POSIX shared memory unavailable")
    def test_sharded_solve_stops_where_the_serial_one_does(self, catalog):
        wf = montage(degrees=1, seed=2)
        plans, results = [], []
        for workers in (None, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # fewer cores than shards
                with Deco(catalog, workers=workers, **ENGINE) as deco:
                    plans.append(deco.schedule(wf, "medium").decision_dict())
                    results.append(deco.last_result)
        serial, sharded = results
        assert sharded.workers == 2
        assert serial.evaluations < 1500
        assert sharded.evaluations == serial.evaluations
        assert sharded.trace == serial.trace
        assert plans[0] == plans[1]


SEARCH_CASES = [(1.0, 3), (1.0, 11), (4.0, 3), (4.0, 11), (8.0, 7)]


class TestKernelBudgetsLeavePlansAlone:
    @pytest.mark.parametrize("degrees,seed", SEARCH_CASES)
    def test_one_state_chunks_and_one_task_tiles(
        self, catalog, runtime_model, degrees, seed, monkeypatch
    ):
        """The full kernel's byte budgets decide how a batch is cut, never
        what a solve sees: at one state per chunk the solve takes the same
        steps to the same plan.  The chunk budget is the one this cuts:
        every Montage join reads its parents in place as one block of
        slots, so the wide-tile budget, patched to one task too, reaches
        no level here (``test_full_kernel.py::TestBudgetsCutAnywhere::
        test_tasks_per_wide_tile`` cuts a gathered level instead)."""
        wf = montage(degrees=degrees, seed=seed)
        problem = CompiledProblem.compile(
            wf, catalog, deadline=deadline_presets(wf, catalog, runtime_model).medium,
            percentile=96.0, num_samples=64, seed=seed, runtime_model=runtime_model,
        )
        default = GenericSearch(VectorizedBackend(), max_evaluations=200).solve(problem)
        monkeypatch.setattr(backends_module, "_FULL_BYTES", 0)
        monkeypatch.setattr(levels_module, "_TILE_BYTES", 0)
        cut = GenericSearch(VectorizedBackend(), max_evaluations=200).solve(problem)
        np.testing.assert_array_equal(
            default.best_state.assignment, cut.best_state.assignment
        )
        assert default.best_eval == cut.best_eval
        assert default.trace == cut.trace
        assert default.evaluations == cut.evaluations
        assert default.screened_out == cut.screened_out
        # (On Montage-8 tier 0 settles every candidate before the kernel.)
        assert default.exact_evals > 0 or default.analytic_evals > 0


class TestIncumbentFold:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12
        ),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sequential_better_than(self, rows, data):
        """``_improvements`` on arrays is the ``StateEval.better_than`` fold
        of the per-state loop: the same record-breaking rows, in order,
        ties (small integers, so there are many) keeping the incumbent."""
        evals = [StateEval(float(c), p / 3, f, 1.0) for f, c, p in rows]
        batch = BatchEval(
            *(np.array([getattr(e, f) for e in evals]) for f in BatchEval.__slots__)
        )
        later = st.lists(st.integers(1, max(1, len(rows) - 1)), unique=True)
        settled = np.array(sorted(data.draw(later)) if len(rows) > 1 else [], dtype=np.intp)
        best, want = evals[0], []
        for row in settled.tolist():
            if evals[row].better_than(best):
                best = evals[row]
                want.append(row)
        assert GenericSearch._improvements(batch, settled, batch.take([0])) == want


class TestPerStateObjects:
    def test_a_solve_builds_objects_for_its_seeds_and_plan_only(self, catalog, monkeypatch):
        """The beam carries candidates as arrays (``StateBlock`` /
        ``BatchEval``): a cold Montage-1 schedule at the default budget
        builds a ``PlanState`` / ``StateEval`` for its seeds and its
        returned plan, not one per candidate (the per-state flow built
        ~1500 of each)."""
        from repro.engine.deco import Deco

        built = {"PlanState": 0, "StateEval": 0}

        def counting(owner, name, label):
            raw = getattr(owner, name)

            def wrapped(*args, **kwargs):
                built[label] += 1
                return raw(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        counting(PlanState, "__init__", "PlanState")
        counting(PlanState, "with_type", "PlanState")  # builds without __init__
        counting(StateEval, "__init__", "StateEval")
        deco = Deco(catalog, seed=7)
        deco.schedule(montage(degrees=1, seed=3), "medium")
        result = deco.last_result
        # The initial state, one uniform state per type and the 8-rung
        # warm-start ladder.
        seeds = 1 + len(catalog) + 8
        assert result.evaluations > 10 * seeds  # a real search ran
        for label, count in built.items():
            assert count <= result.expansions + seeds + 1, (label, count)


class TestAStar:
    def test_finds_shortest_path_on_grid(self):
        """Classic sanity check: A* on a line graph."""
        goal = 7

        def neighbors(x):
            return [x + 1, x + 2]

        result = AStarSearch().solve(
            initial=0,
            neighbors=neighbors,
            g_score=lambda x: float(x != 0),  # not used meaningfully here
            h_score=lambda x: float(goal - x),
            is_goal=lambda x: x >= goal,
        )
        assert result.found_goal
        assert result.best_state >= goal

    def test_admissible_heuristic_optimal_knapsack(self):
        """Subset selection: A* must find the optimal admitted subset."""
        costs = {0: 5.0, 1: 4.0, 2: 3.0}
        scores = {0: 1.0, 1: 0.5, 2: 0.25}
        budget = 7.5
        candidates = sorted(costs)

        def addable(state):
            rem = budget - sum(costs[p] for p in state)
            start = max(state) + 1 if state else 0
            return [p for p in candidates if p >= start and costs[p] <= rem]

        result = AStarSearch().solve(
            initial=frozenset(),
            neighbors=lambda s: [frozenset(s | {p}) for p in addable(s)],
            g_score=lambda s: -sum(scores[p] for p in s),
            h_score=lambda s: -sum(
                scores[p]
                for p in candidates
                if (not s or p > max(s)) and costs[p] <= budget - sum(costs[q] for q in s)
            ),
            is_goal=lambda s: not addable(s),
        )
        # Best subset within 7.5: {0} (score 1.0) vs {1, 2} (0.75) -> {0}... but
        # {0} leaves 2.5 >= cost of nothing else? cost 3 > 2.5, so {0} is terminal.
        assert result.found_goal
        assert result.best_state == frozenset({0})

    def test_expansion_cap(self):
        result = AStarSearch(max_expansions=3).solve(
            initial=0,
            neighbors=lambda x: [x + 1],
            g_score=lambda x: 0.0,
            h_score=lambda x: 0.0,
            is_goal=lambda x: False,
        )
        assert not result.found_goal
        assert result.expanded == 3

    def test_invalid_max_expansions(self):
        with pytest.raises(SolverError):
            AStarSearch(max_expansions=0)

    def test_budget_exhaustion_reports_pushed_goal(self):
        """Regression: ``found_goal`` used to be frozen at
        ``is_goal(initial)`` when the expansion budget ran out, even if a
        goal state had been pushed (and tracked as best) but not popped."""
        result = AStarSearch(max_expansions=1).solve(
            initial=0,
            neighbors=lambda s: [1] if s == 0 else [],
            g_score=lambda s: 0.0 if s == 1 else 1.0,
            h_score=lambda s: 0.0,
            is_goal=lambda s: s == 1,
        )
        assert result.best_state == 1
        assert result.found_goal
