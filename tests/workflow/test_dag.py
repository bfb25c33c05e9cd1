"""Tests for the Task/Workflow DAG model."""

import pytest

from repro.common.errors import ValidationError
from repro.workflow.dag import FileSpec, Task, Workflow


def make_workflow(edges, n=4):
    tasks = [Task(task_id=f"t{i}", runtime_ref=float(i + 1)) for i in range(n)]
    return Workflow("wf", tasks, edges)


class TestFileSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ValidationError):
            FileSpec("", 10)

    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError):
            FileSpec("f", -1)


class TestTask:
    def test_byte_totals(self):
        t = Task(
            task_id="a",
            inputs=(FileSpec("i1", 10), FileSpec("i2", 20)),
            outputs=(FileSpec("o", 5),),
        )
        assert t.input_bytes == 30
        assert t.output_bytes == 5

    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError):
            Task(task_id="")

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValidationError):
            Task(task_id="a", runtime_ref=-1.0)


class TestWorkflowConstruction:
    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValidationError):
            Workflow("wf", [Task(task_id="a"), Task(task_id="a")])

    def test_unknown_edge_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            make_workflow([("t0", "zz")])
        with pytest.raises(ValidationError):
            make_workflow([("zz", "t0")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            make_workflow([("t0", "t0")])

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            make_workflow([("t0", "t1"), ("t1", "t2"), ("t2", "t0")])

    def test_duplicate_edges_deduped(self):
        wf = make_workflow([("t0", "t1"), ("t0", "t1")])
        assert wf.num_edges() == 1

    def test_empty_workflow_allowed(self):
        wf = Workflow("empty", [])
        assert len(wf) == 0
        assert wf.roots() == ()


class TestTopology:
    def test_topological_order_respects_edges(self, diamond):
        order = {tid: i for i, tid in enumerate(diamond.task_ids)}
        for parent, child in diamond.edges():
            assert order[parent] < order[child]

    def test_roots_and_leaves(self, diamond):
        assert diamond.roots() == ("a",)
        assert diamond.leaves() == ("d",)

    def test_parents_children(self, diamond):
        assert set(diamond.children("a")) == {"b", "c"}
        assert set(diamond.parents("d")) == {"b", "c"}
        assert diamond.parents("a") == ()

    def test_index_of_is_dense(self, diamond):
        indices = sorted(diamond.index_of(t) for t in diamond.task_ids)
        assert indices == list(range(len(diamond)))

    def test_iteration_topological(self, diamond):
        ids = [t.task_id for t in diamond]
        assert ids == list(diamond.task_ids)

    def test_unknown_task_lookup(self, diamond):
        with pytest.raises(ValidationError):
            diamond.task("nope")
        with pytest.raises(ValidationError):
            diamond.children("nope")


class TestTransferBytes:
    def test_matched_by_filename(self):
        a = Task(task_id="a", outputs=(FileSpec("x", 100), FileSpec("y", 50)))
        b = Task(task_id="b", inputs=(FileSpec("x", 100),))
        wf = Workflow("wf", [a, b], [("a", "b")])
        assert wf.transfer_bytes("a", "b") == 100

    def test_fallback_to_full_output(self):
        a = Task(task_id="a", outputs=(FileSpec("x", 100),))
        b = Task(task_id="b", inputs=(FileSpec("other", 10),))
        wf = Workflow("wf", [a, b], [("a", "b")])
        assert wf.transfer_bytes("a", "b") == 100

    def test_requires_edge(self, diamond):
        with pytest.raises(ValidationError):
            diamond.transfer_bytes("b", "c")
