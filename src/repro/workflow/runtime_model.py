"""Task execution-time estimation (paper Section 5.1).

Following the estimation approach the paper adopts (Yu et al., cited as
[43]): given a task's input size, CPU reference time, and output size,
its execution time on an instance is the **sum of the CPU, I/O and
network components** of running it there:

* CPU: ``runtime_ref / cpu_speed`` -- deterministic (the paper finds
  CPU performance stable in the cloud);
* I/O: ``(input + output bytes) / sequential-I/O bandwidth`` -- the
  bandwidth is *dynamic*, drawn from the calibrated distribution;
* network: ``(input + output bytes) / network bandwidth`` -- staging
  data in/out of the instance, also dynamic.

Because the I/O and network bandwidths are random, the estimated task
time is itself a distribution; this module exposes it as a mean, as
vectorized samples (for the Monte Carlo evaluator) and as a histogram
(for the probabilistic IR).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import spawn_rng
from repro.distributions.histogram import Histogram
from repro.cloud.instance_types import Catalog
from repro.workflow.dag import Task, Workflow

__all__ = ["TaskComponents", "RuntimeModel"]

_MIN_BANDWIDTH = 1e3  # bytes/s floor so sampled times stay finite


@dataclass(frozen=True)
class TaskComponents:
    """The three resource components of one task on one instance type."""

    cpu_seconds: float
    io_bytes: float
    net_bytes: float


class RuntimeModel:
    """Estimates task execution times on a catalog's instance types."""

    def __init__(self, catalog: Catalog, histogram_bins: int = 12):
        if histogram_bins < 1:
            raise ValidationError(f"histogram_bins must be >= 1, got {histogram_bins}")
        self.catalog = catalog
        self.histogram_bins = histogram_bins
        self._hist_cache: dict[tuple[float, float, float, str], Histogram] = {}
        self._mean_cache: dict[tuple[float, float, str], float] = {}
        # Workflow object -> (ref, data, mean matrix), see `_task_arrays`;
        # weak-keyed, so an entry lives as long as its workflow does.
        self._matrix_memo: weakref.WeakKeyDictionary[
            Workflow, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = weakref.WeakKeyDictionary()

    # The model is pickled into simulator worker processes; the array
    # memo is keyed by object identity, which does not survive the trip
    # (nor do weak references), so it starts empty on the other side.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_matrix_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._matrix_memo = weakref.WeakKeyDictionary()

    # Components ------------------------------------------------------------

    def components(self, task: Task, type_name: str) -> TaskComponents:
        """CPU seconds + I/O bytes + network bytes of ``task`` on ``type_name``."""
        itype = self.catalog.type(type_name)
        return TaskComponents(
            cpu_seconds=task.runtime_ref / itype.cpu_speed,
            io_bytes=float(task.input_bytes + task.output_bytes),
            net_bytes=float(task.input_bytes + task.output_bytes),
        )

    # Mean / samples / histogram ---------------------------------------------

    def mean(self, task: Task, type_name: str) -> float:
        """E[t_ij] -- the ``M_ij`` of the paper's Eq. 2.

        Uses E[bytes/BW] ~ bytes/E[BW]; the exact expectation is within a
        few percent for the calibrated coefficient of variations, and the
        optimizer's constraint checks never rely on this approximation
        (they use Monte Carlo samples).
        """
        comp = self.components(task, type_name)
        key = (comp.cpu_seconds, comp.io_bytes, type_name)
        cached = self._mean_cache.get(key)
        if cached is not None:
            return cached
        itype = self.catalog.type(type_name)
        value = (
            comp.cpu_seconds
            + comp.io_bytes / max(itype.seq_io.mean(), _MIN_BANDWIDTH)
            + comp.net_bytes / max(itype.network.mean(), _MIN_BANDWIDTH)
        )
        self._mean_cache[key] = value
        return value

    def sample(
        self,
        task: Task,
        type_name: str,
        rng: np.random.Generator,
        size: int | None = None,
    ):
        """Sample task execution times (dynamic bandwidths)."""
        itype = self.catalog.type(type_name)
        comp = self.components(task, type_name)
        n = 1 if size is None else size
        io_bw = np.maximum(np.asarray(itype.seq_io.sample(rng, n), dtype=float), _MIN_BANDWIDTH)
        net_bw = np.maximum(np.asarray(itype.network.sample(rng, n), dtype=float), _MIN_BANDWIDTH)
        t = comp.cpu_seconds + comp.io_bytes / io_bw + comp.net_bytes / net_bw
        return float(t[0]) if size is None else t

    def histogram(self, task: Task, type_name: str, bins: int | None = None) -> Histogram:
        """The discretized distribution of ``t_ij`` (probabilistic IR facts).

        The CPU point mass is convolved with the I/O-time and network-time
        histograms (each obtained by transforming the bandwidth histogram
        through ``t = bytes / bw``).  The bandwidth histograms themselves
        are per-process memos of :meth:`Histogram.from_distribution`, so
        this is transform + convolve only.
        """
        bins = bins or self.histogram_bins
        itype = self.catalog.type(type_name)
        comp = self.components(task, type_name)
        result = Histogram.point(comp.cpu_seconds)
        for byte_count, dist in ((comp.io_bytes, itype.seq_io), (comp.net_bytes, itype.network)):
            if byte_count <= 0:
                continue
            bw_hist = Histogram.from_distribution(dist, bins=bins)
            values = byte_count / np.maximum(bw_hist.values, _MIN_BANDWIDTH)
            result = (result + Histogram(values, bw_hist.probs)).rebinned(max(bins, 16))
        return result

    def cached_histogram(self, task: Task, type_name: str) -> Histogram:
        """Memoized :meth:`histogram` keyed by (executable profile, type).

        Tasks sharing (runtime_ref, io bytes) -- common in level-structured
        scientific workflows -- share one histogram.
        """
        comp = self.components(task, type_name)
        key = (comp.cpu_seconds, comp.io_bytes, comp.net_bytes, type_name)
        hist = self._hist_cache.get(key)
        if hist is None:
            hist = self.histogram(task, type_name)
            self._hist_cache[key] = hist
        return hist

    # Workflow-level tensors ---------------------------------------------------

    def mean_vector(self, workflow: Workflow, type_name: str) -> np.ndarray:
        """Mean task times for all tasks (topological order) on one type."""
        return self.mean_matrix(workflow)[self.catalog.index_of(type_name)]

    def mean_matrix(self, workflow: Workflow) -> np.ndarray:
        """``(K, N)`` matrix of mean times: rows are catalog types in order.

        Entry ``[k, i]`` is bit-equal to :meth:`mean` of task ``i`` on
        type ``k`` (the same divisions and additions, in the same order,
        over whole rows).  Read-only and memoised per workflow object:
        compilation, deadline presets and the warm-start ladder all read
        the one copy.
        """
        return self._task_arrays(workflow)[2]

    def _task_arrays(self, workflow: Workflow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ref, data, mean matrix)`` of ``workflow``, one pass, memoised.

        ``ref[i]`` / ``data[i]`` are task ``i``'s ``runtime_ref`` and
        staged bytes in topological order -- what :meth:`components`
        reads per task -- so the mean matrix and the sample tensor are
        built from whole rows instead of N scalar calls per type.
        """
        arrays = self._matrix_memo.get(workflow)
        if arrays is not None:
            return arrays
        tasks = list(workflow)
        ref = np.array([t.runtime_ref for t in tasks], dtype=float)
        data = np.array([float(t.input_bytes + t.output_bytes) for t in tasks], dtype=float)
        types = list(self.catalog)
        speed = np.array([[t.cpu_speed] for t in types], dtype=float)
        io_bw = np.array([[max(t.seq_io.mean(), _MIN_BANDWIDTH)] for t in types], dtype=float)
        net_bw = np.array([[max(t.network.mean(), _MIN_BANDWIDTH)] for t in types], dtype=float)
        matrix = ref / speed + data / io_bw + data / net_bw
        for arr in (ref, data, matrix):
            arr.setflags(write=False)
        arrays = self._matrix_memo[workflow] = (ref, data, matrix)
        return arrays

    def sample_tensor(
        self,
        workflow: Workflow,
        num_samples: int,
        seed: int = 0,
        type_names: Sequence[str] | None = None,
    ) -> np.ndarray:
        """``(K, S, N)`` tensor of sampled task times.

        ``tensor[k, s, i]`` is the time of the task with topological index
        ``i`` on type ``k`` in Monte Carlo realization ``s``.  The solver
        backends precompute this once per problem; evaluating a candidate
        plan is then a pure gather + DAG propagation (the same memory
        layout a GPU kernel would use: one realization per thread).

        Each (task, type) cell uses its own deterministic RNG stream, so
        the tensor is reproducible regardless of evaluation order.
        """
        if num_samples < 1:
            raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
        names = tuple(type_names or self.catalog.type_names)
        n = len(workflow)
        ref, data, _ = self._task_arrays(workflow)
        tensor = np.empty((len(names), num_samples, n), dtype=float)
        for k, type_name in enumerate(names):
            itype = self.catalog.type(type_name)
            rng = spawn_rng(seed, f"runtime-model/{workflow.name}/{type_name}")
            io_bw = np.maximum(
                np.asarray(itype.seq_io.sample(rng, (num_samples, n)), dtype=float),
                _MIN_BANDWIDTH,
            )
            net_bw = np.maximum(
                np.asarray(itype.network.sample(rng, (num_samples, n)), dtype=float),
                _MIN_BANDWIDTH,
            )
            cpu = ref / itype.cpu_speed
            # `data` is both io_bytes and net_bytes under the staging model.
            tensor[k] = cpu[None, :] + data[None, :] / io_bw + data[None, :] / net_bw
        return tensor

    def percentile(self, task: Task, type_name: str, q: float) -> float:
        """The q-th percentile of the task-time distribution (histogram)."""
        return self.cached_histogram(task, type_name).percentile(q)
