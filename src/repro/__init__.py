"""Deco: declarative optimization of workflow resource provisioning in IaaS clouds.

A from-scratch reproduction of Zhou, He, Cheng & Lau, *"A Declarative
Optimization Engine for Resource Provisioning of Scientific Workflows in
IaaS Clouds"*, HPDC 2015.

Subpackages
-----------
``repro.common``
    Seeded RNG streams, units, errors.
``repro.distributions``
    Parametric families, histograms, fitting (cloud calibration model).
``repro.workflow``
    DAG model, DAX XML, generators (Montage/Ligo/Epigenomics), ensembles,
    runtime model.
``repro.cloud``
    IaaS cloud substrate: instance catalog, pricing, network, the
    discrete-event simulator, calibration micro-benchmarks.
``repro.wlog``
    The WLog declarative language: parser, unification, SLD resolution,
    built-ins, the probabilistic IR and Monte Carlo inference.
``repro.solver``
    Provisioning-plan search: generic (transformation-driven) and A*
    search with scalar ("CPU") and vectorized ("GPU") evaluation backends.
``repro.engine``
    The Deco facade and drivers for the three use cases.
``repro.baselines``
    Autoscaling, SPSS, the migration Heuristic, static/random schedulers.
``repro.wms``
    Pegasus-like workflow management system integration.
``repro.bench``
    Experiment harness regenerating every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
