#!/usr/bin/env python3
"""Use case 3: follow-the-cost runtime migration across cloud regions.

A fleet of workflows is deployed across EC2's US East and Singapore
regions (Singapore is ~33% pricier).  Deco's runtime optimizer
periodically re-decides placement -- migrating work toward the cheaper
region when the transfer cost is worth it -- and re-plans the remaining
tasks' instance types with the solver, due in the remaining slack.  Compared against the threshold-triggered
Heuristic and a never-migrate Static policy (paper Section 6.3.3).

Run:  python examples/follow_the_cost.py
"""

from __future__ import annotations

from repro.cloud import ec2_catalog
from repro.engine import Deco, FollowCostDriver, WorkflowDeployment
from repro.workflow.generators import ligo, montage


def main() -> None:
    catalog = ec2_catalog()
    deco = Deco(catalog, seed=21, num_samples=80, max_evaluations=400)
    driver = FollowCostDriver(deco, seed=21, period=1800.0)

    # Mixed fleet: CPU-bound Ligo (migration pays: little data to move)
    # and I/O-bound Montage (type re-optimization pays: time doesn't
    # scale with price), half deployed in each region.
    fleet: list[WorkflowDeployment] = []
    regions = catalog.region_names
    for i in range(6):
        wf = (ligo(num_tasks=60, seed=21 + i) if i % 2 == 0
              else montage(degrees=1, seed=21 + i))
        plan = deco.schedule(wf, "medium", deadline_percentile=96.0)
        serial = sum(deco.runtime_model.mean(wf.task(t), plan.assignment[t])
                     for t in wf.task_ids)
        fleet.append(WorkflowDeployment(
            workflow=wf,
            assignment=dict(plan.assignment),
            region=regions[i % len(regions)],
            deadline=serial * 2.0,
        ))
    print(f"Fleet: {len(fleet)} workflows across {list(regions)}\n")

    print(f"{'policy':<12} {'exec $':>8} {'migration $':>12} {'total $':>9} "
          f"{'migrations':>11} {'deadlines met':>14}")
    results = {}
    for policy in ("static", "heuristic", "deco"):
        res = driver.run(fleet, policy=policy, threshold=0.5)
        results[policy] = res
        print(f"{policy:<12} {res.exec_cost:8.3f} {res.migration_cost:12.4f} "
              f"{res.total_cost:9.3f} {res.num_migrations:11d} "
              f"{res.deadlines_met:>9d}/{len(fleet)}")

    assert results["deco"].total_cost <= results["static"].total_cost * 1.02
    print("\nOK: runtime re-optimization (migration + type adaptation) "
          "reduces the fleet's monetary cost.")


if __name__ == "__main__":
    main()
