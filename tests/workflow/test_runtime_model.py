"""Tests for the task runtime model (CPU + I/O + network)."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.workflow.dag import FileSpec, Task
from repro.workflow.generators import cybershake, epigenomics, ligo, montage, pipeline
from repro.workflow.runtime_model import RuntimeModel

MB = 1_000_000


@pytest.fixture()
def model(catalog):
    return RuntimeModel(catalog)


@pytest.fixture()
def data_task():
    return Task(
        task_id="t",
        runtime_ref=120.0,
        inputs=(FileSpec("in", 1000 * MB),),
        outputs=(FileSpec("out", 500 * MB),),
    )


def components_sample_tensor(model, workflow, num_samples, seed, type_names=None):
    """``RuntimeModel.sample_tensor`` as it was before the shared array pass:
    one ``components()`` call per (task, type).  Same RNG streams and draw
    order; kept as the reference the vectorised rows must equal bit for bit."""
    from repro.common.rng import spawn_rng
    from repro.workflow.runtime_model import _MIN_BANDWIDTH

    names = tuple(type_names or model.catalog.type_names)
    n = len(workflow)
    tensor = np.empty((len(names), num_samples, n), dtype=float)
    for k, type_name in enumerate(names):
        itype = model.catalog.type(type_name)
        rng = spawn_rng(seed, f"runtime-model/{workflow.name}/{type_name}")
        io_bw = np.maximum(
            np.asarray(itype.seq_io.sample(rng, (num_samples, n)), dtype=float), _MIN_BANDWIDTH
        )
        net_bw = np.maximum(
            np.asarray(itype.network.sample(rng, (num_samples, n)), dtype=float), _MIN_BANDWIDTH
        )
        cpu = np.empty(n)
        data = np.empty(n)
        for i, tid in enumerate(workflow.task_ids):
            comp = model.components(workflow.task(tid), type_name)
            cpu[i] = comp.cpu_seconds
            data[i] = comp.io_bytes
        tensor[k] = cpu[None, :] + data[None, :] / io_bw + data[None, :] / net_bw
    return tensor


class TestComponents:
    def test_cpu_scales_with_speed(self, model, data_task, catalog):
        small = model.components(data_task, "m1.small")
        xlarge = model.components(data_task, "m1.xlarge")
        assert small.cpu_seconds == pytest.approx(120.0)
        assert xlarge.cpu_seconds == pytest.approx(120.0 / catalog.type("m1.xlarge").cpu_speed)

    def test_bytes_are_type_independent(self, model, data_task):
        a = model.components(data_task, "m1.small")
        b = model.components(data_task, "m1.large")
        assert a.io_bytes == b.io_bytes == 1500 * MB

    def test_zero_data_task(self, model):
        t = Task(task_id="z", runtime_ref=10.0)
        comp = model.components(t, "m1.small")
        assert comp.io_bytes == 0


class TestMean:
    def test_mean_decomposition(self, model, data_task, catalog):
        itype = catalog.type("m1.small")
        expected = (
            120.0
            + 1500 * MB / itype.seq_io.mean()
            + 1500 * MB / itype.network.mean()
        )
        assert model.mean(data_task, "m1.small") == pytest.approx(expected)

    def test_faster_types_not_slower(self, model, data_task, catalog):
        means = [model.mean(data_task, n) for n in catalog.type_names]
        assert means[0] == max(means)  # m1.small is slowest

    def test_mean_cached(self, model, data_task):
        a = model.mean(data_task, "m1.small")
        b = model.mean(data_task, "m1.small")
        assert a == b


class TestSampling:
    def test_sample_mean_consistent(self, model, data_task, rng):
        samples = model.sample(data_task, "m1.small", rng, 20_000)
        assert samples.mean() == pytest.approx(model.mean(data_task, "m1.small"), rel=0.05)

    def test_samples_exceed_cpu_floor(self, model, data_task, rng):
        samples = model.sample(data_task, "m1.small", rng, 1000)
        assert np.all(samples > model.components(data_task, "m1.small").cpu_seconds)

    def test_scalar_sample(self, model, data_task, rng):
        assert isinstance(model.sample(data_task, "m1.small", rng), float)


class TestHistogram:
    def test_histogram_mean_close(self, model, data_task):
        h = model.histogram(data_task, "m1.small")
        assert h.mean() == pytest.approx(model.mean(data_task, "m1.small"), rel=0.05)

    def test_cpu_only_task_is_point(self, model):
        t = Task(task_id="c", runtime_ref=50.0)
        h = model.histogram(t, "m1.medium")
        assert len(h) == 1
        assert h.mean() == pytest.approx(25.0)

    def test_cached_histogram_shared_for_same_profile(self, model):
        a = Task(task_id="a", runtime_ref=10.0, inputs=(FileSpec("x", MB),))
        b = Task(task_id="b", runtime_ref=10.0, inputs=(FileSpec("y", MB),))
        assert model.cached_histogram(a, "m1.small") is model.cached_histogram(b, "m1.small")

    def test_cached_histogram_keys_on_exact_profile(self, model):
        """Byte counts that agree to six significant digits are still
        different profiles: each gets its own histogram, not a neighbour's."""
        a = Task(task_id="a", runtime_ref=10.0, inputs=(FileSpec("x", 1_234_567_000),))
        b = Task(task_id="b", runtime_ref=10.0, inputs=(FileSpec("y", 1_234_567_999),))
        ha, hb = model.cached_histogram(a, "m1.small"), model.cached_histogram(b, "m1.small")
        assert ha is not hb
        assert hb.mean() > ha.mean()
        assert hb.mean() == model.histogram(b, "m1.small").mean()

    def test_percentile_ordering(self, model, data_task):
        p50 = model.percentile(data_task, "m1.small", 50)
        p95 = model.percentile(data_task, "m1.small", 95)
        assert p50 < p95


class TestTensors:
    def test_shapes(self, model, catalog):
        wf = pipeline(4, seed=0)
        tensor = model.sample_tensor(wf, 30, seed=1)
        assert tensor.shape == (len(catalog), 30, 4)
        assert model.mean_matrix(wf).shape == (len(catalog), 4)

    def test_tensor_reproducible(self, model):
        wf = pipeline(3, seed=0)
        a = model.sample_tensor(wf, 10, seed=5)
        b = model.sample_tensor(wf, 10, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_tensor_type_subset(self, model):
        wf = pipeline(3, seed=0)
        full = model.sample_tensor(wf, 10, seed=5)
        sub = model.sample_tensor(wf, 10, seed=5, type_names=("m1.small",))
        np.testing.assert_array_equal(sub[0], full[0])

    def test_tensor_positive(self, model):
        wf = pipeline(3, seed=0)
        assert np.all(model.sample_tensor(wf, 20, seed=2) > 0)

    def test_tensor_mean_tracks_model_mean(self, model):
        wf = pipeline(2, seed=0, data_mb=2000.0)
        tensor = model.sample_tensor(wf, 4000, seed=3)
        mean = model.mean_matrix(wf)
        np.testing.assert_allclose(tensor.mean(axis=1), mean, rtol=0.05)

    def test_invalid_num_samples(self, model):
        with pytest.raises(ValidationError):
            model.sample_tensor(pipeline(2, seed=0), 0)

    @pytest.mark.parametrize(
        "workflow",
        [montage(degrees=1.0, seed=1), ligo(40, seed=1), epigenomics(40, seed=1),
         cybershake(40, seed=1), pipeline(5, seed=1)],
        ids=["montage", "ligo", "epigenomics", "cybershake", "pipeline"],
    )
    def test_mean_matrix_is_bit_equal_to_scalar_mean(self, catalog, workflow):
        matrix = RuntimeModel(catalog).mean_matrix(workflow)
        scalar = RuntimeModel(catalog)
        want = [[scalar.mean(task, name) for task in workflow] for name in catalog.type_names]
        assert matrix.tolist() == want
        assert np.array_equal(
            RuntimeModel(catalog).mean_vector(workflow, "m1.large"),
            want[catalog.index_of("m1.large")],
        )

    @pytest.mark.parametrize(
        "workflow, type_names",
        [
            (montage(degrees=1.0, seed=2), None),
            (montage(degrees=8.0, seed=2), None),
            (epigenomics(100, seed=2), None),
            (montage(degrees=1.0, seed=2), ("m1.large", "m1.small")),
            (pipeline(1, seed=2), None),
        ],
        ids=["montage-1", "montage-8", "epigenomics-100", "type-subset", "pipeline-1"],
    )
    def test_sample_tensor_is_bit_equal_to_per_task_components(self, catalog, workflow, type_names):
        got = RuntimeModel(catalog).sample_tensor(workflow, 20, seed=11, type_names=type_names)
        want = components_sample_tensor(RuntimeModel(catalog), workflow, 20, 11, type_names)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_mean_matrix_is_memoised_per_workflow_object(self, catalog):
        model = RuntimeModel(catalog)
        wf, twin = pipeline(3, seed=0), pipeline(3, seed=0)
        first = model.mean_matrix(wf)
        assert model.mean_matrix(wf) is first
        assert not first.flags.writeable
        assert model.mean_matrix(twin) is not first  # keyed by identity, not by value
        assert len(model._matrix_memo) == 2
        del twin  # weak-keyed: the entry goes with its workflow
        assert len(model._matrix_memo) == 1

    def test_pickled_model_drops_the_identity_keyed_memo(self, catalog):
        import pickle

        model = RuntimeModel(catalog)
        wf = pipeline(3, seed=0)
        model.mean_matrix(wf)
        clone = pickle.loads(pickle.dumps(model))
        assert not clone._matrix_memo and len(model._matrix_memo) == 1
        assert np.array_equal(clone.mean_matrix(wf), model.mean_matrix(wf))

    def test_invalid_bins(self, catalog):
        with pytest.raises(ValidationError):
            RuntimeModel(catalog, histogram_bins=0)
