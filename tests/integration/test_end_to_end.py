"""Integration tests: the full declarative pipeline of the paper's Fig. 3.

DAX file -> mapper -> Deco (WLog program -> probabilistic IR -> compiled
problem -> transformation search) -> provisioning plan -> simulated
execution -> Condor event log, with the measured behaviour validated
against the plan's promises.
"""

import numpy as np
import pytest

from repro.cloud.simulator import CloudSimulator
from repro.common.rng import RngService
from repro.engine.deco import Deco
from repro.wlog.imports import ImportRegistry
from repro.wlog.library import scheduling_program
from repro.wms.pegasus import PegasusLite
from repro.wms.scheduler import DecoScheduler
from repro.workflow.dax import parse_dax_string, to_dax_string
from repro.workflow.generators import montage


@pytest.fixture(scope="module")
def deco(catalog):
    return Deco(catalog, seed=9, num_samples=120, max_evaluations=900)


class TestFullPipeline:
    def test_dax_to_execution(self, catalog, deco, tmp_path_factory):
        # 1. A user writes a DAX file.
        wf = montage(degrees=1, seed=8)
        dax_path = tmp_path_factory.mktemp("dax") / "montage.dax"
        dax_path.write_text(to_dax_string(wf))

        # 2. The WMS plans, Deco schedules, the cloud executes.
        wms = PegasusLite(catalog, DecoScheduler(deco, deadline="medium"))
        result = wms.submit(dax_path)

        # 3. The plan's probabilistic promise holds on repeated runs.
        plan = wms.scheduler.last_plan
        assert plan.feasible
        sim = CloudSimulator(catalog, RngService(77), deco.runtime_model)
        makespans = np.asarray(
            [r.makespan for r in sim.run_many(parse_dax_string(dax_path.read_text()),
                                              dict(plan.assignment), 30)]
        )
        hit_rate = float(np.mean(makespans <= plan.deadline))
        # 96% promised; allow Monte Carlo slack on 30 runs.
        assert hit_rate >= 0.8

        # 4. Execution produced a complete, dependency-clean event log.
        assert result.execution.makespan > 0
        assert len(result.events) >= 3 * len(wf)

    def test_declarative_program_equals_programmatic_api(self, catalog, deco):
        wf = montage(degrees=1, seed=8)
        reg = ImportRegistry()
        reg.register_cloud("amazonec2", catalog)
        reg.register_workflow("montage", wf)
        d = deco.presets(wf).medium
        declarative = deco.solve_program(
            scheduling_program(percentile=96, deadline_seconds=d), reg
        )
        programmatic = deco.schedule(wf, d, deadline_percentile=96.0)
        assert declarative.assignment == programmatic.assignment

    def test_measured_cost_tracks_expected_ordering(self, catalog, deco):
        """A plan that is more expensive in Eq. 1 on a clearly pricier
        uniform configuration must also measure as more expensive."""
        wf = montage(degrees=1, seed=8)
        sim = CloudSimulator(catalog, RngService(5), deco.runtime_model)
        cheap = {t: "m1.small" for t in wf.task_ids}
        pricey = {t: "m1.xlarge" for t in wf.task_ids}
        cheap_cost = np.mean([r.cost for r in sim.run_many(wf, cheap, 5)])
        pricey_cost = np.mean([r.cost for r in sim.run_many(wf, pricey, 5)])
        assert cheap_cost < pricey_cost
