"""In-memory spans around the calls into each layer's public functions.

The traced run installs wrappers from here -- on module attributes and
class methods of ``repro`` -- so that no file under ``src/`` changes.
A span is ``(name, start, end, parent, op)``: ``parent`` indexes the
span that was open on the same thread when this one started (-1 for a
root) and ``op`` is the id of the plan request being served, so all
spans of one request share an identifier.  Spans stay in a list until
the workload ends and are written out once.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; shares of the op latency are computed
from self times so that they add up to the root span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "install", "LAYER_SPANS"]

_clock = time.perf_counter


class Tracer:
    """Span recorder; one per traced workload process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._local = threading.local()
        self.op: int | None = None  # spans are recorded only inside an op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        """Record a span whose interval was measured elsewhere (a job record)."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            index = len(self.spans)
            record = [name, _clock(), 0.0, stack[-1] if stack else -1, self.op]
            self.spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                stack.pop()

        return traced

    def span_cost_s(self, samples: int = 20000) -> float:
        """Measured cost of one empty wrapped call, for the overhead estimate."""
        probe = Tracer()
        probe.op = 0
        wrapped = probe.wrap(_nothing, "probe")
        t0 = _clock()
        for _ in range(samples):
            wrapped()
        traced = _clock() - t0
        t0 = _clock()
        for _ in range(samples):
            _nothing()
        return max(0.0, traced - (_clock() - t0)) / samples

    # Aggregation ------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """``(self seconds by span name, seconds in root spans)``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for index, (name, start, end, parent, _op) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[index]
            if parent < 0:
                root_s += end - start
        return dict(self_s), root_s

    def dump(self, path, meta: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "meta": meta,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, round(start - origin, 7), round(end - origin, 7), parent, op]
                for name, start, end, parent, op in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _nothing() -> None:
    return None


#: Span name -> (owner, attribute) wrapped by :func:`install`.  Owners
#: are given as dotted import paths; a class owner is ``module:Class``.
#: ``repro.engine.deco`` binds several callees by name at import time,
#: so those are wrapped in its namespace, where the engine looks them up.
LAYER_SPANS: tuple[tuple[str, str, str], ...] = (
    ("engine.schedule", "repro.engine.deco:Deco", "schedule"),
    ("engine.solve_program", "repro.engine.deco:Deco", "solve_program"),
    ("wlog.parse", "repro.wlog.program:WLogProgram", "from_source"),
    ("wlog.check", "repro.engine.deco", "check_program"),
    ("wlog.translate", "repro.engine.deco", "translate"),
    ("analysis.semantic", "repro.analysis", "analyze_semantics"),
    ("analysis.opmask", "repro.engine.deco", "compute_op_mask"),
    ("engine.compile", "repro.engine.deco", "compile_or_raise"),
    ("engine.compile", "repro.solver.backends:CompiledProblem", "compile"),
    ("engine.warmstart", "repro.baselines.autoscaling", "autoscaling_plan"),
    ("solver.search", "repro.solver.search:GenericSearch", "solve"),
    ("solver.tier0", "repro.solver.analytic_backend:AnalyticBackend", "makespan_moments"),
    ("solver.tier1", "repro.solver.backends:VectorizedBackend", "screen_probabilities"),
    ("solver.tier2", "repro.solver.backends:EvaluationBackend", "evaluate_batch"),
    ("solver.tier2", "repro.solver.backends:VectorizedBackend", "ensure_frontier"),
    ("parallel.broadcast", "repro.parallel.executor:ShardPool", "broadcast"),
    ("parallel.broadcast", "repro.parallel.arena:TensorArena", "publish"),
    ("parallel.rounds", "repro.solver.shards:ShardedEvaluator", "screen_round"),
    ("parallel.rounds", "repro.solver.shards:ShardedEvaluator", "eval_round"),
    ("parallel.rounds", "repro.solver.shards:ShardedEvaluator", "submit_eval"),
    ("parallel.rounds", "repro.solver.shards:ShardedEvaluator", "gather_eval"),
)


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`LAYER_SPANS` for the life of the process."""
    import importlib

    for name, owner_path, attr in LAYER_SPANS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        raw = owner.__dict__[attr] if class_name else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name))
