"""Tests for the vectorized analytic (moment-propagation) backend.

Three layers: the Clark-max algebra itself, the propagated moments
against Monte Carlo ground truth (exact on chains, conservatively
biased at correlated joins), and the backend's integration surface --
the backend registry, ``Deco(backend="analytic")``, and the search's
tier-0 screening cascade (which must not change the winning plan).
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cloud.instance_types import ec2_catalog
from repro.engine.deco import Deco
from repro.engine.plan import deadline_presets
from repro.solver.analytic_backend import (
    ANALYTIC_PROB_ERROR_BOUND,
    AnalyticBackend,
    _clark_reduce,
    clark_max,
)
from repro.solver.backends import CompiledProblem, VectorizedBackend, get_backend
from repro.solver.cache import ScratchPool
from repro.solver.search import GenericSearch
from repro.solver.state import PlanState
from repro.workflow.generators import montage, pipeline, random_dag
from repro.workflow.runtime_model import RuntimeModel

CATALOG = ec2_catalog()
MODEL = RuntimeModel(CATALOG)


def compile_wf(wf, num_samples=100, seed=0, deadline=1e9):
    return CompiledProblem.compile(
        wf, CATALOG, deadline=deadline, num_samples=num_samples, seed=seed,
        runtime_model=MODEL,
    )


def uniform_states(problem):
    return [PlanState.uniform(problem.num_tasks, t) for t in range(problem.num_types)]


class TestClarkMax:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        m1, v1, m2, v2 = 10.0, 4.0, 11.0, 9.0
        x1 = rng.normal(m1, np.sqrt(v1), 200_000)
        x2 = rng.normal(m2, np.sqrt(v2), 200_000)
        mx = np.maximum(x1, x2)
        mean, var = clark_max(
            np.array([m1]), np.array([v1]), np.array([m2]), np.array([v2])
        )
        assert mean[0] == pytest.approx(mx.mean(), rel=0.01)
        assert var[0] == pytest.approx(mx.var(), rel=0.03)

    def test_degenerate_operands_exact(self):
        # Deterministic inputs: max collapses to the larger mean, var 0.
        mean, var = clark_max(
            np.array([3.0, 7.0]), np.zeros(2), np.array([5.0, 2.0]), np.zeros(2)
        )
        np.testing.assert_allclose(mean, [5.0, 7.0])
        np.testing.assert_allclose(var, [0.0, 0.0], atol=1e-12)

    def test_reduce_matches_sequential(self):
        rng = np.random.default_rng(0)
        for n, p, b in [(3, 7, 5), (1, 402, 8), (2, 2, 3), (4, 1, 6)]:
            m = rng.normal(50, 10, (n, p, b))
            v = rng.uniform(0.01, 5.0, (n, p, b))
            # Reference: the same pairwise tournament, written with the
            # allocating clark_max.  The pooled in-place reduction must
            # reproduce it to rounding error (the sequential column walk
            # would NOT match -- Clark's surrogate is order-dependent).
            rm, rv = m.copy(), v.copy()
            while rm.shape[1] > 1:
                half = rm.shape[1] // 2
                mh, vh = clark_max(
                    rm[:, :half], rv[:, :half],
                    rm[:, half : 2 * half], rv[:, half : 2 * half],
                )
                if rm.shape[1] % 2:
                    rm = np.concatenate([mh, rm[:, -1:]], axis=1)
                    rv = np.concatenate([vh, rv[:, -1:]], axis=1)
                else:
                    rm, rv = mh, vh
            got_m, got_v = _clark_reduce(m.copy(), v.copy(), ScratchPool())
            np.testing.assert_allclose(got_m, rm[:, 0], rtol=1e-10)
            np.testing.assert_allclose(got_v, rv[:, 0], rtol=1e-8, atol=1e-10)


class TestMomentsVsMonteCarlo:
    # ROADMAP item 5: on these two chains one m1.small Monte Carlo draw has
    # a non-positive Normal bandwidth clamped to the 1 kB/s numerical floor
    # (3 GB at 1 kB/s, a 35-day task), which drags the MC mean far above
    # what the quantile grid reports.  The sampler fix changes every sample
    # tensor, so it is its own change; until then the inputs are pinned.
    TAIL_OUTLIER_CHAINS = ((7, 14), (8, 32))

    @staticmethod
    def _chain_means(n, seed):
        wf = pipeline(n, seed=seed, runtime=600.0, data_mb=1500.0)
        problem = compile_wf(wf, num_samples=60, seed=seed)
        states = uniform_states(problem)
        a_mean, a_var = AnalyticBackend().makespan_moments(problem, states)
        rows = VectorizedBackend().makespan_samples(problem, states)
        return a_mean, a_var, rows.mean(axis=1)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=10, deadline=None)
    def test_exact_on_chains(self, n, seed):
        """No joins -> pure convolution: the mean is exact (within the
        quantile grid's discretization of the common sample tensor)."""
        assume((n, seed) not in self.TAIL_OUTLIER_CHAINS)
        a_mean, a_var, mc_mean = self._chain_means(n, seed)
        np.testing.assert_allclose(a_mean, mc_mean, rtol=0.01)
        assert np.all(a_var >= 0.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5: clamped-bandwidth tail draw")
    @pytest.mark.parametrize("n, seed", TAIL_OUTLIER_CHAINS)
    def test_exact_on_chains_tail_outliers(self, n, seed):
        a_mean, _a_var, mc_mean = self._chain_means(n, seed)
        np.testing.assert_allclose(a_mean, mc_mean, rtol=0.01)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_conservative_at_correlated_joins(self, seed):
        """Shared ancestors correlate joining paths positively; treating
        them as independent overestimates E[max], so the analytic mean
        sits at or above Monte Carlo (never meaningfully below)."""
        wf = random_dag(10, edge_prob=0.4, seed=seed)
        problem = compile_wf(wf, num_samples=150, seed=seed)
        states = uniform_states(problem)
        a_mean, _ = AnalyticBackend().makespan_moments(problem, states)
        mc_mean = VectorizedBackend().makespan_samples(problem, states).mean(axis=1)
        assert np.all(a_mean >= mc_mean * (1.0 - 0.01))

    @staticmethod
    def _check_against_monte_carlo(degrees):
        wf = montage(degrees=degrees, seed=0)
        problem = compile_wf(wf, num_samples=150, seed=0)
        state = problem.state_from_assignment({t: "m1.xlarge" for t in wf.task_ids})
        rows = VectorizedBackend().makespan_samples(problem, [state])
        for q in (50.0, 90.0):
            d = float(np.percentile(rows[0], q))
            p_vec = float(
                AnalyticBackend().deadline_probabilities(problem.with_deadline(d), [state])[0]
            )
            assert abs(p_vec - q / 100.0) <= 0.15

    @pytest.mark.parametrize("degrees", [1.0, 4.0])
    def test_cross_check_histogram_path(self, degrees):
        """Montage deadline probabilities agree with full Monte Carlo,
        the referee, at its makespan's 50th and 90th percentiles."""
        self._check_against_monte_carlo(degrees)

    def test_cross_check_montage8_vs_monte_carlo(self):
        """The same referee check at 680 tasks, where tier 0 settles a search."""
        self._check_against_monte_carlo(8.0)


class TestErrorBound:
    """The bound the service hands to clients as ``probability_error_bound``."""

    @pytest.mark.parametrize("degrees", [1.0, 4.0])
    def test_probability_error_within_advertised_bound(self, degrees):
        """On a search-shaped batch -- a parent and up to 32 single-task
        edits of it, every ``n // 32``-th task alternately demoted and
        promoted -- at the ``medium`` deadline the search uses."""
        wf = montage(degrees=degrees, seed=7)
        problem = compile_wf(
            wf, num_samples=150, seed=7, deadline=deadline_presets(wf, CATALOG, MODEL).medium
        )
        n = problem.num_tasks
        parent = PlanState.uniform(n, 1)
        edits = [
            parent.promote(i, problem.num_types) if j % 2 else parent.demote(i)
            for j, i in enumerate(range(0, n, max(1, n // 32)))
        ][:32]
        states = [parent] + edits
        mc = VectorizedBackend().evaluate_batch(problem, states)
        analytic = AnalyticBackend().deadline_probabilities(problem, states)
        errors = [abs(float(p) - ev.probability) for p, ev in zip(analytic, mc)]
        assert max(errors) <= ANALYTIC_PROB_ERROR_BOUND


class TestBackendInterface:
    def test_registry(self):
        assert get_backend("analytic").name == "analytic"
        assert isinstance(get_backend("analytic"), AnalyticBackend)

    def test_quantile_grid_shape_and_monotonicity(self, monkeypatch):
        monkeypatch.setattr(AnalyticBackend, "QUANTILE_POINTS", 16)
        wf = montage(degrees=1.0, seed=0)
        problem = compile_wf(wf, num_samples=60)
        backend = AnalyticBackend()
        rows = backend.makespan_samples(problem, uniform_states(problem))
        assert rows.shape == (problem.num_types, 16)
        assert np.all(np.diff(rows, axis=1) >= 0.0)

    def test_evaluate_batch_source_and_cost(self):
        wf = montage(degrees=1.0, seed=0)
        problem = compile_wf(wf, num_samples=60)
        states = uniform_states(problem)
        evals = AnalyticBackend().evaluate_batch(problem, states)
        costs = problem.expected_cost_batch(
            np.stack([s.assignment for s in states])
        )
        for ev, cost in zip(evals, costs):
            assert ev.source == "analytic"
            assert ev.cost == pytest.approx(float(cost))
            assert 0.0 <= ev.probability <= 1.0

    def test_empty_and_counters(self):
        wf = montage(degrees=1.0, seed=0)
        problem = compile_wf(wf, num_samples=60)
        backend = AnalyticBackend()
        assert len(backend.evaluate_batch(problem, [])) == 0
        backend.makespan_moments(problem, uniform_states(problem))
        stats = backend.analytic_stats()
        assert stats["states_analytic"] == problem.num_types
        assert stats["calibrations"] == 1

    def test_calibration_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(AnalyticBackend, "MAX_CALIBRATIONS", 1)
        backend = AnalyticBackend()
        p1 = compile_wf(montage(degrees=1.0, seed=0), num_samples=40, seed=0)
        p2 = compile_wf(montage(degrees=1.0, seed=1), num_samples=40, seed=1)
        backend.makespan_moments(p1, uniform_states(p1))
        backend.makespan_moments(p2, uniform_states(p2))
        backend.makespan_moments(p1, uniform_states(p1))  # recalibrates
        assert backend.analytic_stats()["calibrations"] == 3


def quantile_calibration(tensor, q):
    """``AnalyticBackend._calibration`` as it was before the single sort:
    one ``np.quantile`` call over the sample axis.  Kept as the reference
    the sort-based grids must reproduce bit for bit."""
    levels = (np.arange(q) + 0.5) / q
    grids = np.quantile(tensor, levels, axis=1)  # (Q, K, N)
    grids = np.ascontiguousarray(grids.transpose(1, 2, 0))  # (K, N, Q)
    means = np.ascontiguousarray(grids.mean(axis=2).reshape(-1))
    variances = np.ascontiguousarray(grids.var(axis=2).reshape(-1))
    return grids, means, variances


class TestCalibrationBitIdentity:
    """Tier-0 decisions and adopted shard calibrations rest on the grids:
    the one-sort formulation may not move a bit of them."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        s=st.sampled_from([1, 2, 31, 150, 200]),
        n=st.integers(1, 6),
        q=st.sampled_from([4, 32]),
        shape=st.sampled_from(["continuous", "ties", "constant-columns"]),
    )
    def test_equals_np_quantile_formulation(self, seed, k, s, n, q, shape):
        rng = np.random.default_rng(seed)
        tensor = rng.gamma(2.0, 300.0, size=(k, s, n))
        if shape == "ties":
            tensor = np.round(tensor, -2)  # a handful of distinct values per cell
        elif shape == "constant-columns":
            tensor[:, :, ::2] = tensor[:, :1, ::2]
        problem = SimpleNamespace(sample_token=seed, tensor=tensor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AnalyticBackend, "QUANTILE_POINTS", q)
            backend = AnalyticBackend()
            got = backend._calibration(problem)
            assert backend._calibration(problem) is got  # memoised by token
        for ours, ref in zip(got, quantile_calibration(tensor, q)):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            assert ours.flags.c_contiguous and not ours.flags.writeable
            assert np.array_equal(ours, ref)

    @pytest.mark.parametrize("degrees", [1.0, 8.0])
    def test_equals_np_quantile_on_compiled_tensors(self, degrees):
        problem = compile_wf(montage(degrees=degrees, seed=3), num_samples=150, seed=7)
        got = AnalyticBackend()._calibration(problem)
        for ours, ref in zip(got, quantile_calibration(problem.tensor, 32)):
            assert np.array_equal(ours, ref)


class TestDecoAnalytic:
    def test_standalone_schedule(self):
        deco = Deco(CATALOG, backend="analytic", num_samples=40, max_evaluations=200)
        wf = montage(degrees=1.0, seed=0)
        plan = deco.schedule(wf, "medium")
        assert deco.backend.name == "analytic"
        assert plan.assignment  # produced a full plan
        assert deco.cache_stats()["analytic"]["states_analytic"] > 0

    def test_cascade_identity_montage8(self):
        """Tier 0 is an approximation, so it keeps a reference: the same
        search with the tier's size threshold above the workflow's task
        count (the Monte Carlo tiers alone) must pick the same plan."""
        wf = montage(degrees=8.0, seed=0)
        problem = compile_wf(
            wf, num_samples=40, deadline=deadline_presets(wf, CATALOG, MODEL).medium
        )
        cascade = GenericSearch(max_evaluations=400).solve(problem)
        reference = GenericSearch(
            max_evaluations=400, analytic_min_tasks=len(wf) + 1
        ).solve(problem)
        assert np.array_equal(cascade.best_state.assignment, reference.best_state.assignment)
        assert cascade.best_eval == reference.best_eval
        assert cascade.analytic_evals > 0  # the tier actually ran on 680 tasks
        assert reference.analytic_evals == 0

    def test_clear_caches_releases_tier0(self):
        """``Deco.clear_caches`` leaves tier 0 cold too: no calibration, no
        memoized moments -- and the next solve decides as the first did."""
        deco = Deco(CATALOG, num_samples=40, max_evaluations=200)
        wf = montage(degrees=8.0, seed=0)
        first = deco.schedule(wf, "medium").decision_dict()
        assert deco.last_result.analytic_evals > 0
        assert deco._search._analytic._calibrations
        moments = deco.cache_stats()["moments"]
        assert moments["entries"] == moments["misses"] > 0
        assert moments["nbytes"] >= moments["entries"] * (2 * len(wf) + 16)
        deco.clear_caches()
        assert not deco._search._analytic._calibrations
        assert deco.cache_stats()["moments"]["entries"] == 0
        assert deco.schedule(wf, "medium").decision_dict() == first
        assert deco.last_result.analytic_hits == 0

    def test_size_gate_keeps_tier_off_small(self):
        """Below analytic_min_tasks full Monte Carlo is already cheap;
        the tier must not run (measured net-negative on montage-1/4)."""
        wf = montage(degrees=1.0, seed=0)
        deco = Deco(CATALOG, num_samples=40, max_evaluations=200)
        deco.schedule(wf, "medium")
        assert deco.last_result.analytic_evals == 0
