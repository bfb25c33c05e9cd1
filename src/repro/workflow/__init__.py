"""Scientific-workflow substrate.

Implements everything the paper assumes about workflows:

* :mod:`~repro.workflow.dag` -- the task/DAG model (the paper's Fig. 4
  pipeline example is four tasks of this model chained together).
* :mod:`~repro.workflow.dax` -- Pegasus DAX XML reader/writer, the
  interchange format between users and the WMS.
* :mod:`~repro.workflow.critical_path` -- makespan computation: static
  critical path (paper Eq. 3) and vectorized per-sample longest path.
* :mod:`~repro.workflow.runtime_model` -- task execution-time estimation
  (CPU + I/O + network components, Yu et al. style as cited by the paper).
* :mod:`~repro.workflow.generators` -- structure-accurate synthetic
  Montage / Ligo / Epigenomics / pipeline generators.
* :mod:`~repro.workflow.ensembles` -- workflow ensembles with the five
  priority distributions of the paper's Section 6 (constant, uniform
  sorted/unsorted, Pareto sorted/unsorted).
"""

from repro.workflow.dag import FileSpec, Task, Workflow
from repro.workflow.dax import parse_dax, parse_dax_string, write_dax, to_dax_string
from repro.workflow.critical_path import (
    critical_path,
    static_makespan,
    makespan_samples,
    task_levels,
)
from repro.workflow.generators import (
    montage,
    ligo,
    epigenomics,
    cybershake,
    pipeline,
    random_dag,
)
from repro.workflow.ensembles import Ensemble, EnsembleMember, make_ensemble, ENSEMBLE_TYPES
from repro.workflow.analysis import WorkflowProfile, profile_workflow

__all__ = [
    "FileSpec",
    "Task",
    "Workflow",
    "parse_dax",
    "parse_dax_string",
    "write_dax",
    "to_dax_string",
    "critical_path",
    "static_makespan",
    "makespan_samples",
    "task_levels",
    "montage",
    "ligo",
    "epigenomics",
    "cybershake",
    "pipeline",
    "random_dag",
    "Ensemble",
    "EnsembleMember",
    "make_ensemble",
    "ENSEMBLE_TYPES",
    "WorkflowProfile",
    "profile_workflow",
]
