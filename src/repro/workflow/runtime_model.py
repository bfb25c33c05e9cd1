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

import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.common.host import host_cpu_count
from repro.common.rng import spawn_rng
from repro.distributions.histogram import Histogram
from repro.cloud.instance_types import Catalog
from repro.workflow.dag import Task, Workflow

__all__ = ["TaskComponents", "RuntimeModel"]

_MIN_BANDWIDTH = 1e3  # bytes/s floor so sampled times stay finite

#: Samples per instance type (N * S) from which :meth:`RuntimeModel.
#: sample_tensor` draws the types on threads.  Montage-4 and Montage-8
#: at S = 150 are above it; Montage-1, Epigenomics-100 and 1-task
#: pipelines run inline.  Two threads broke even near 5,000 on a 2-vCPU
#: host; the margin keeps small requests, which service workers run
#: side by side, on one core each.
_THREADED_CELLS = 1 << 15


def _on_threads(fn: Callable[[int], None], workers: int) -> None:
    """``fn(0)`` in the calling thread and ``fn(1)`` ... ``fn(workers - 1)``
    on fresh threads, all joined before the return; the first error any
    of them raised is re-raised here.

    No pool outlives the call: a pool's threads do not survive a
    ``fork``, so a forked shard or service worker would hang on it.
    """
    errors: list[BaseException] = []

    def guarded(worker: int) -> None:
        try:
            fn(worker)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        fn(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class TaskComponents:
    """The three resource components of one task on one instance type."""

    cpu_seconds: float
    io_bytes: float
    net_bytes: float


class RuntimeModel:
    """Estimates task execution times on a catalog's instance types."""

    #: Bandwidth-histogram bins of :meth:`histogram` when none are asked for.
    HISTOGRAM_BINS = 12

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
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
        bins = bins or self.HISTOGRAM_BINS
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
        """``(K, S, N)`` tensor of sampled task times, in the stored form.

        ``tensor[k, s, i]`` is the time of the task with topological index
        ``i`` on type ``k`` in Monte Carlo realization ``s``.  The result
        is the zero-copy ``(K, S, N)`` view of a read-only float32
        task-major ``(K, N, S)`` array -- what a compiled problem keeps
        as is; evaluating a candidate plan is then a pure gather + DAG
        propagation (one realization per GPU thread).

        Each type draws from its own deterministic RNG stream in float64
        (the same draws, divisions and additions as one ``components()``
        call per task) and is rounded once, into its rows of the result.
        From :data:`_THREADED_CELLS` samples per type on, the types are
        drawn on up to one thread per usable CPU: NumPy's draws and
        ufuncs release the GIL, and no stream is shared, so the bytes do
        not depend on the thread count or timing.  Every buffer is
        allocated here, and every thread is joined before the return.
        """
        if num_samples < 1:
            raise ValidationError(f"num_samples must be >= 1, got {num_samples}")
        names = tuple(type_names or self.catalog.type_names)
        n = len(workflow)
        ref, data, _ = self._task_arrays(workflow)
        streams = [spawn_rng(seed, f"runtime-model/{workflow.name}/{name}") for name in names]
        cpus = [ref / self.catalog.type(name).cpu_speed for name in names]
        taskmajor = np.empty((len(names), n, num_samples), dtype=np.float32)
        workers = 1
        if n * num_samples >= _THREADED_CELLS:
            workers = min(len(names), host_cpu_count())
        # One (io, net) pair of float64 draw buffers per worker.
        scratch = [(np.empty((num_samples, n)), np.empty((num_samples, n))) for _ in range(workers)]

        def fill(worker: int) -> None:
            io, net = scratch[worker]
            for k in range(worker, len(names), workers):
                itype = self.catalog.type(names[k])
                itype.seq_io.sample_into(streams[k], io)
                itype.network.sample_into(streams[k], net)
                np.maximum(io, _MIN_BANDWIDTH, out=io)
                np.maximum(net, _MIN_BANDWIDTH, out=net)
                # cpu + data/io + data/net, left to right; `data` is both
                # io_bytes and net_bytes under the staging model.
                np.divide(data, io, out=io)
                np.add(cpus[k], io, out=io)
                np.divide(data, net, out=net)
                np.add(io, net, out=io)
                taskmajor[k] = io.T

        _on_threads(fill, workers)
        taskmajor.setflags(write=False)
        return taskmajor.transpose(0, 2, 1)

    def percentile(self, task: Task, type_name: str, q: float) -> float:
        """The q-th percentile of the task-time distribution (histogram)."""
        return self.cached_histogram(task, type_name).percentile(q)
