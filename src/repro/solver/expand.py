"""Candidate generation as array passes: cost ~ levels x batches.

:class:`~repro.solver.search.GenericSearch` expands ``expand_per_iter``
beam states per iteration.  Everything it needs to pick their
transformation children -- the mean-time critical path of every parent,
the Promote / Demote rankings and the demote savings -- is computed
here for the **whole batch at once** on its ``(B, N)`` assignment
matrix, one NumPy pass per DAG *level* instead of one interpreter
iteration per *task* per *state*.
:class:`~repro.solver.state.PlanState` objects are built only for the
handful of edits each parent finally emits.

The arithmetic is that of the scalar loops this replaced, operand for
operand (``max`` is exact, each finish time is one ``parent + own``
add), and every tie is broken the same way -- see
:func:`critical_paths` and :func:`expand_batch` -- so the search
trajectory is unchanged; ``tests/solver/test_expand.py`` keeps the
scalar reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.solver.levels import LevelSchedule
from repro.solver.state import PlanState, StateEval

if TYPE_CHECKING:  # pragma: no cover
    from repro.solver.backends import CompiledProblem

__all__ = ["critical_paths", "expand_batch"]


def critical_paths(levels: LevelSchedule, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Critical paths of a ``(B, N)`` batch of per-task time vectors.

    Returns ``(paths, lengths)``: ``paths[b]`` lists the task indices of
    lane ``b``'s longest path from entry to exit, left-padded with
    ``-1`` to the DAG depth; ``lengths[b]`` is its length.

    Same path as :func:`repro.workflow.critical_path.critical_path`, tie
    for tie.  That function keeps the *first* parent with the largest
    finish (``max(parents, key=finish)``, i.e. a strict ``>`` scan) and
    ends on the first maximum in topological order.  Here a level's
    parent slots follow ``parent_indices`` order with the padding -- an
    always-zero row -- *after* the real parents, so it can tie but never
    win: narrow levels scan their slot columns with the same strict
    ``>``, wide ones take ``argmax``, which returns the first maximum;
    the end task is an ``argmax`` over finishes in task order.
    """
    times = np.asarray(times, dtype=float)
    lanes, n = times.shape
    depth = levels.num_levels
    if not n:
        return np.empty((lanes, 0), dtype=np.intp), np.zeros(lanes)
    t = times.T[levels.order]
    finish = np.empty((n + 1, lanes))
    finish[n] = 0.0
    # Arg-max parent slot per (task slot, lane); ``n`` means "no parent"
    # and maps to itself, so a finished walk stays parked there.
    best = np.full((n + 1, lanes), n, dtype=np.intp)
    for (lo, hi), gather, columns in zip(
        levels.level_bounds, levels.level_parents, levels.level_columns
    ):
        if not gather.shape[1]:
            finish[lo:hi] = t[lo:hi]
            continue
        if columns is not None:
            ready = finish[columns[0]]
            who = best[lo:hi]
            who[:] = columns[0][:, None]
            for col in columns[1:]:
                other = finish[col]
                later = other > ready
                np.copyto(ready, other, where=later)
                np.copyto(who, col[:, None], where=later)
        else:
            among = finish[gather]  # (tasks, parents, lanes)
            ready = among.max(axis=1)
            best[lo:hi] = gather[np.arange(hi - lo)[:, None], among.argmax(axis=1)]
        np.add(ready, t[lo:hi], out=finish[lo:hi])

    by_task = finish[levels.rank]
    end = by_task.argmax(axis=0)
    lane_ids = np.arange(lanes)
    steps = np.empty((depth, lanes), dtype=np.intp)
    cur = levels.rank[end]
    for d in range(depth - 1, -1, -1):
        steps[d] = cur
        cur = best[cur, lane_ids]
    return np.append(levels.order, -1)[steps].T, by_task[end, lane_ids]


def _first(flags: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Keep the first ``count[row]`` set flags of every row."""
    return flags & (np.cumsum(flags, axis=1) <= count)


def expand_batch(
    problem: "CompiledProblem",
    parents: Sequence[tuple[PlanState, StateEval]],
    incumbent_feasible: bool,
    children_per_state: int,
) -> list[list[PlanState]]:
    """Transformation children of every ``(state, evaluation)`` in ``parents``.

    Promote when infeasible, Demote when feasible.  Promote targets the
    tasks dominating the (mean-time) critical path under the parent's
    assignment, largest time first, then a few off-path tasks for
    exploration (the per-sample critical path can differ from the mean
    one); Demote targets the tasks with the largest cost saving, first
    off the path (they have slack), then on it.  While the incumbent is
    still infeasible a feasible parent also keeps one promote alive, for
    robustness near the boundary.

    One child list per parent, in emission order.

    Both directions are one ranking: a stable ``argsort`` of the negated
    key (mean time, or saving) over all tasks, cut into an on-path and
    an off-path list.  Ties fall to the lower task index, which on the
    critical path is also path order (a parent's index is below its
    child's).
    """
    out: list[list[PlanState]] = [[] for _ in parents]
    n, k = problem.num_tasks, problem.num_types
    if not parents or not n:
        return out
    assign = np.stack([state.assignment for state, _ in parents])
    cols = np.arange(n)
    lane = np.arange(len(parents))[:, None]
    mean_now = problem.mean_times[assign, cols]
    paths, _ = critical_paths(problem.levels, mean_now)
    on_path = np.zeros((len(parents), n + 1), dtype=bool)
    on_path[lane, paths] = True  # path padding marks the spare column
    feasible = np.array([ev.feasible for _, ev in parents])
    demote = feasible[:, None]

    key = mean_now
    if feasible.any():
        below = np.maximum(assign - 1, 0)
        saving = np.where(
            assign > 0,
            mean_now * problem.prices[assign]
            - problem.mean_times[below, cols] * problem.prices[below],
            -np.inf,
        )
        key = np.where(demote, saving, mean_now)
    order = np.argsort(-key, axis=1, kind="stable")
    worth = ~demote | (key[lane, order] > 0)  # a demote has to save money
    lead = on_path[lane, order] != demote  # promote: the path first; demote: off it first
    half = max(1, children_per_state // 2)
    lead_count = np.where(demote, half, children_per_state)
    rest_count = np.where(demote, half, max(2, children_per_state // 4))
    _, owner, pos = np.nonzero(
        np.stack([_first(worth & lead, lead_count), _first(worth & ~lead, rest_count)])
    )
    tasks = order[owner, pos]
    new_type = assign[owner, tasks] + np.where(feasible, -1, 1)[owner]

    for b, i, t in zip(owner.tolist(), tasks.tolist(), new_type.tolist()):
        if t < k:  # no promote above the top type
            out[b].append(parents[b][0].with_type(i, t))
    if not incumbent_feasible:
        for b in np.flatnonzero(feasible).tolist():
            path = paths[b][paths[b] >= 0]
            child = parents[b][0].promote(int(path[np.argmax(mean_now[b, path])]), k)
            if child is not None:
                out[b].append(child)
    return out
