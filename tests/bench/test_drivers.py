"""Smoke + shape tests for the experiment drivers (tiny configurations).

The full experiments live in ``benchmarks/``; here each driver runs at
minimal scale and the *shape* assertions the paper's figures make are
checked where they are cheap enough to check deterministically.
"""

import pytest

from repro.bench import (
    BenchConfig,
    ablation_astar_pruning,
    ablation_fault_aware,
    ablation_probabilistic_vs_deterministic,
    ablation_search_seeds,
    fig01_instance_configs,
    fig02_runtime_variance,
    fig06_network_dynamics,
    fig07_network_histograms,
    fig09_ensemble_scores,
    fig10_follow_the_cost,
    fig11_deadline_sensitivity,
    format_table,
    optimization_overhead,
    solver_speedup,
    table2_io_distributions,
)


@pytest.fixture(scope="module")
def config():
    return BenchConfig(seed=7, num_samples=60, max_evaluations=300, runs_per_plan=3)


class TestFig01:
    @pytest.fixture(scope="class")
    def rows(self, config):
        return fig01_instance_configs(config)

    def test_seven_configurations(self, rows):
        assert {r["config"] for r in rows} == {
            "m1.small", "m1.medium", "m1.large", "m1.xlarge",
            "random", "autoscaling", "deco",
        }

    def test_deco_meets_deadline(self, rows):
        deco = next(r for r in rows if r["config"] == "deco")
        assert deco["meets_deadline"]

    def test_small_violates_deadline(self, rows):
        small = next(r for r in rows if r["config"] == "m1.small")
        assert not small["meets_deadline"]

    def test_deco_cheapest_feasible(self, rows):
        feasible = [r for r in rows if r["meets_deadline"]]
        deco = next(r for r in rows if r["config"] == "deco")
        assert deco["mean_cost"] == min(r["mean_cost"] for r in feasible)

    def test_deco_well_below_xlarge(self, rows):
        """The paper: Deco's cost is ~40% of m1.xlarge's."""
        deco = next(r for r in rows if r["config"] == "deco")
        assert deco["cost_norm"] < 0.6


class TestFig02:
    def test_variance_visible(self, config):
        rows = fig02_runtime_variance(config, degrees=(1.0,))
        row = rows[0]
        assert row["min"] < 1.0 < row["max"]
        assert row["spread"] > 0.02


class TestCalibrationFigures:
    def test_table2_families(self, config):
        rows = table2_io_distributions(config)
        assert all(r["seq_io_family"] == "gamma" for r in rows)
        assert all(r["rand_io_family"] == "normal" for r in rows)

    def test_fig06_normal_accepted(self, config):
        row = fig06_network_dynamics(config)
        assert row["normal_fit_accepted"]
        assert row["max_relative_variation"] > 0.5

    def test_fig07_link_ordering(self, config):
        rows = fig07_network_histograms(config)
        ll = next(r for r in rows if r["link"] == "m1.large<->m1.large")
        ml = next(r for r in rows if r["link"] == "m1.medium<->m1.large")
        assert ll["mean_mbps"] > ml["mean_mbps"]
        assert ll["cv"] < ml["cv"]


class TestFig09:
    def test_shapes(self, config):
        rows = fig09_ensemble_scores(config, kinds=("constant",), num_budgets=3)
        assert len(rows) == 3
        for r in rows:
            assert r["deco_score"] >= r["spss_score"] - 1e-9
        # At the max budget both admit everything affordable.
        last = rows[-1]
        assert last["deco_score"] >= last["spss_score"]


class TestFig10:
    def test_deco_no_worse_than_heuristic(self, config):
        out = fig10_follow_the_cost(config, degrees=(1.0,), thresholds=(0.5,))
        row = out["by_size"][0]
        assert row["deco_cost"] <= row["heuristic_cost"] * 1.05
        assert row["deco_cost"] <= row["static_cost"] * 1.02


class TestFig11:
    def test_cost_decreases_with_looser_deadline(self, config):
        rows = fig11_deadline_sensitivity(config, degrees=1.0)
        assert rows[0]["deadline"] == "tight"
        assert rows[0]["deco_expected_cost"] >= rows[-1]["deco_expected_cost"] - 1e-9

    def test_normalization_reference(self, config):
        rows = fig11_deadline_sensitivity(config, degrees=1.0)
        assert rows[0]["as_cost_norm"] == pytest.approx(1.0)


class TestPerf:
    def test_speedup_positive(self, config):
        rows = solver_speedup(config, degrees=(1.0,), batch=2, num_samples=20)
        assert rows[0]["speedup"] > 1.0

    def test_overhead_scales(self, config):
        rows = optimization_overhead(config, sizes=(20, 60))
        assert all(r["ms_per_task"] > 0 for r in rows)
        assert all(r["feasible"] for r in rows)


class TestAblations:
    def test_probabilistic_vs_deterministic(self, config):
        rows = ablation_probabilistic_vs_deterministic(config)
        prob = next(r for r in rows if r["notion"] == "probabilistic")
        det = next(r for r in rows if r["notion"] == "deterministic")
        assert prob["expected_cost"] >= det["expected_cost"] - 1e-9
        assert prob["deadline_hit_rate"] >= det["deadline_hit_rate"] - 1e-9

    def test_astar_prunes(self, config):
        rows = ablation_astar_pruning(config)
        astar = next(r for r in rows if r["variant"] == "astar")
        blind = next(r for r in rows if r["variant"] == "uninformed")
        assert astar["expanded"] <= blind["expanded"]
        assert astar["score"] == pytest.approx(blind["score"])

    def test_warm_start_not_worse(self, config):
        rows = ablation_search_seeds(config)
        cold = next(r for r in rows if r["variant"] == "cold")
        warm = next(r for r in rows if r["variant"] == "warm")
        if cold["feasible"] and warm["feasible"]:
            assert warm["cost"] <= cold["cost"] + 1e-9

    def test_fault_aware_not_worse_under_faults(self, config):
        rows = ablation_fault_aware(config)
        assert [r["plan"] for r in rows] == ["oblivious", "aware"]
        oblivious, aware = rows
        assert oblivious["deadline"] == aware["deadline"]
        assert oblivious["runs"] == aware["runs"] >= 20
        assert aware["p_deadline"] >= oblivious["p_deadline"]


class TestFormatting:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": True}, {"a": 2.5, "b": False}], "T")
        assert "T" in text and "yes" in text and "2.5" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], "T")
