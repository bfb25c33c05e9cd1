"""The Deco engine: the public facade tying language, solver and cloud.

* :mod:`~repro.engine.plan` -- the :class:`ProvisioningPlan` result
  object and deadline presets (the paper's tight/medium/loose).
* :mod:`~repro.engine.compiler` -- WLog program -> compiled problem
  (the declarative-to-array bridge used for acceleration).
* :mod:`~repro.engine.deco` -- the :class:`Deco` facade: use case 1
  (workflow scheduling) end to end.
* :mod:`~repro.engine.ensemble` -- use case 2: workflow-ensemble
  admission with A* (paper Section 3.2 / 6.3.2).
* :mod:`~repro.engine.followcost` -- use case 3: runtime follow-the-cost
  migration across regions (paper Section 3.3 / 6.3.3).
"""

from typing import TYPE_CHECKING

from repro.common.lazy import lazy_exports
from repro.engine.plan import ProvisioningPlan, DeadlinePresets, deadline_presets
from repro.engine.compiler import try_compile
from repro.engine.deco import Deco

if TYPE_CHECKING:
    from repro.engine.ensemble import EnsembleDriver, EnsembleDecision, MemberOutcome
    from repro.engine.followcost import (
        FollowCostDriver,
        FollowCostResult,
        WorkflowDeployment,
    )

# Use case 1 (`Deco.schedule`) needs neither driver, and the ensemble
# driver brings the simulator and the worker pools with it.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "EnsembleDriver": "repro.engine.ensemble",
        "EnsembleDecision": "repro.engine.ensemble",
        "MemberOutcome": "repro.engine.ensemble",
        "FollowCostDriver": "repro.engine.followcost",
        "FollowCostResult": "repro.engine.followcost",
        "WorkflowDeployment": "repro.engine.followcost",
    },
)

__all__ = [
    "ProvisioningPlan",
    "DeadlinePresets",
    "deadline_presets",
    "try_compile",
    "Deco",
    "EnsembleDriver",
    "EnsembleDecision",
    "MemberOutcome",
    "FollowCostDriver",
    "FollowCostResult",
    "WorkflowDeployment",
]
