"""Candidate generation as array passes: cost ~ levels x batches.

:class:`~repro.solver.search.GenericSearch` expands ``EXPAND_PER_ITER``
beam states per iteration.  Everything it needs to pick their
transformation children -- the mean-time critical path of every parent,
the Promote / Demote rankings and the demote savings -- is computed
here for the **whole batch at once** on its ``(B, N)`` assignment
matrix, one NumPy pass per DAG *level* instead of one interpreter
iteration per *task* per *state*: the critical paths are the level
pass of :class:`~repro.solver.levels.LevelSchedule` with a
first-winner join.
The children come out the same way: one ``(C, N)`` child matrix (each
row its parent's with one task edited), their keys cut from one
``tobytes`` and deduped against the visited set in emission order -- a
:class:`~repro.solver.state.StateBlock`, no per-child object.

The arithmetic is that of the scalar loops this replaced, operand for
operand (``max`` is exact, each finish time is one ``parent + own``
add), and every tie is broken the same way -- see
:func:`critical_paths` and :func:`expand_batch` -- so the search
trajectory is unchanged; ``tests/solver/test_expand.py`` keeps the
scalar reference.

A parent's edits -- which task goes to which type -- depend on its row,
its direction and the sample tensor's means and prices, never on the
deadline or on the other rows of the batch (every step is per row).
An :class:`EditMemo` holds them per sample token, so a warm re-solve
walks critical paths and ranks tasks only for parents no earlier solve
of that tensor expanded; the children are assembled from the edits
every time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.solver.cache import MakespanCache
from repro.solver.levels import LevelSchedule
from repro.solver.state import StateBlock, row_keys

if TYPE_CHECKING:  # pragma: no cover
    from repro.solver.backends import CompiledProblem

__all__ = ["EditMemo", "critical_paths", "expand_batch"]


class EditMemo(MakespanCache):
    """Every expanded parent's single-task edits, per sample token.

    Keyed by ``(state key, direction, children per state)`` under the
    problem's ``sample_token``; the direction is 0 to promote (an
    infeasible parent), 1 to demote (a feasible parent, a feasible
    incumbent) and 2 to demote and keep one promote alive (a feasible
    parent, an infeasible incumbent).  The value is a read-only ``(2,
    E)`` array of the parent's edited tasks over their new types, in
    emission order, after the top-type filter.

    A token fixes everything the edits read: ``mean_times``, ``prices``
    and ``cost_rates``, ``levels`` and the type count.
    :meth:`~repro.solver.backends.CompiledProblem.with_deadline` keeps
    the token, so a deadline or percentile sweep hits;
    ``with_faults`` and ``with_sample_prefix`` get a new one.
    """

    #: Cap on held parents.  An entry is its edit array (<= 15 edits at
    #: 12 children per state) and the parent's state key, 2 bytes per
    #: task: ~1.6 KB at 680 tasks, ~13 MB at the cap -- far above one
    #: search's expansions.
    MAX_ENTRIES = 8_192

    def nbytes(self) -> int:
        """Approximate memory held by the edit arrays and their state keys."""
        return sum(
            len(key[0]) + edits.nbytes for rows in self._rows.values()
            for key, edits in rows.items()
        )


def critical_paths(levels: LevelSchedule, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Critical paths of a ``(B, N)`` batch of per-task time vectors.

    Returns ``(paths, lengths)``: ``paths[b]`` lists the task indices of
    lane ``b``'s longest path from entry to exit, left-padded with
    ``-1`` to the DAG depth; ``lengths[b]`` is its length.

    One level pass with :class:`_FirstWinnerJoin`, then a walk back from
    the end task, all lanes at once.  Same path as
    :func:`repro.workflow.critical_path.critical_path`, tie for tie: the
    first parent with the largest finish, and the end task the first
    maximum in topological order (an ``argmax`` over task order).
    """
    times = np.asarray(times, dtype=float)
    lanes, n = times.shape
    if not n:
        return np.empty((lanes, 0), dtype=np.intp), np.zeros(lanes)
    finish = np.empty((n + 1, lanes))
    finish[:n] = times.T[levels.order]
    finish[n] = 0.0
    join = _FirstWinnerJoin(n, lanes)
    levels.propagate(finish, join)

    by_task = finish[levels.rank]
    end = by_task.argmax(axis=0)
    lane_ids = np.arange(lanes)
    steps = np.empty((levels.num_levels, lanes), dtype=np.intp)
    cur = levels.rank[end]
    for d in range(levels.num_levels - 1, -1, -1):
        steps[d] = cur
        cur = join.best[cur, lane_ids]
    return np.append(levels.order, -1)[steps].T, by_task[end, lane_ids]


class _FirstWinnerJoin:
    """The critical paths' join: max with a first-winner witness.

    ``best[r, lane]`` is the parent slot that slot ``r`` took its ready
    time from (N: none, which maps to itself).  Parents are read in
    parent-list order with the zero padding last, where it can tie but
    never win: a strict ``>`` scan of the columns, ``argmax`` (the first
    maximum) over a wide level's gather."""

    def __init__(self, n: int, lanes: int):
        self.best = np.full((n + 1, lanes), n, dtype=np.intp)

    def narrow(self, finish: np.ndarray, columns: tuple, lo: int, hi: int) -> np.ndarray:
        who = self.best[lo:hi]
        who[:] = _slots(columns[0])[:, None]
        ready = finish[columns[0]]
        if len(columns) > 1:
            ready = ready.copy()  # a slot range reads a view
        for col in columns[1:]:
            other = finish[col]
            later = other > ready
            np.copyto(ready, other, where=later)
            np.copyto(who, _slots(col)[:, None], where=later)
        return ready

    def wide(self, finish: np.ndarray, read, lo: int, hi: int) -> np.ndarray:
        among = finish[read.gather]  # (tasks, parents, lanes)
        self.best[lo:hi] = read.gather[np.arange(hi - lo)[:, None], among.argmax(axis=1)]
        return among.max(axis=1)


def _slots(column) -> np.ndarray:
    """A parent column's slots, also when it is a slot range."""
    return np.arange(column.start, column.stop) if isinstance(column, slice) else column


def _first(flags: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Keep the first ``count[row]`` set flags of every row."""
    return flags & (np.cumsum(flags, axis=1) <= count)


def _edits(
    problem: "CompiledProblem",
    assign: np.ndarray,
    feasible: np.ndarray,
    incumbent_feasible: bool,
    children_per_state: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The single-task edits of every row of ``assign``, in emission order.

    Returns ``(owner, tasks, new_type)``: child ``c`` is row
    ``owner[c]`` with task ``tasks[c]`` moved to ``new_type[c]``.  See
    :func:`expand_batch` for the rankings and the order.
    """
    n, k = problem.num_tasks, problem.num_types
    cols = np.arange(n)
    lane = np.arange(len(assign))[:, None]
    mean_now = problem.mean_times[assign, cols]
    paths, _ = critical_paths(problem.levels, mean_now)
    on_path = np.zeros((len(assign), n + 1), dtype=bool)
    on_path[lane, paths] = True  # path padding marks the spare column
    demote = feasible[:, None]

    key = mean_now
    if feasible.any():
        rates = problem.cost_rates
        saving = np.where(
            assign > 0, rates[assign, cols] - rates[np.maximum(assign - 1, 0), cols], -np.inf
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
    if not incumbent_feasible and feasible.any():
        # The kept-alive promote: the path task with the largest mean
        # time (the first of equals; the path's left padding never wins).
        alive = np.flatnonzero(feasible)
        path = paths[alive]
        times = np.where(path >= 0, mean_now[alive[:, None], path], -np.inf)
        top = path[np.arange(len(alive)), np.argmax(times, axis=1)]
        owner = np.concatenate([owner, alive])
        tasks = np.concatenate([tasks, top])
        new_type = np.concatenate([new_type, assign[alive, top] + 1])
    kept = new_type < k  # no promote above the top type
    # Per parent: its lists in cut order, then its kept-alive promote.
    emit = np.flatnonzero(kept)
    emit = emit[np.argsort(owner[emit], kind="stable")]
    return owner[emit], tasks[emit], new_type[emit]


def _memo_edits(
    problem: "CompiledProblem",
    parents: StateBlock,
    feasible: np.ndarray,
    incumbent_feasible: bool,
    children_per_state: int,
    memo: EditMemo,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_edits` through ``memo``: one edit pass over the parents it
    does not hold, the held ones' edits merged in parent order."""
    token = problem.sample_token
    direction = np.where(feasible, 2 - bool(incumbent_feasible), 0).tolist()
    keys = [(key, d, children_per_state) for key, d in zip(parents.keys, direction)]
    found, missing = memo.lookup(token, keys)
    if missing:
        owner, tasks, new_type = _edits(
            problem, parents.assign[missing], feasible[missing], incumbent_feasible,
            children_per_state,
        )
        # One read-only array per pass, a view of its columns per parent:
        # a pass is at most a few KB, so a view keeping it alive is cheap.
        edits = np.stack([tasks, new_type])
        edits.setflags(write=False)
        bounds = np.searchsorted(owner, np.arange(len(missing) + 1)).tolist()
        fresh = [edits[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        memo.store(token, [keys[b] for b in missing], fresh)
        if len(missing) == len(keys):
            return owner, tasks, new_type
        for b, row in zip(missing, fresh):
            found[b] = row
    tasks, new_type = np.concatenate(found, axis=1)
    owner = np.repeat(np.arange(len(found)), [row.shape[1] for row in found])
    return owner, tasks, new_type


def expand_batch(
    problem: "CompiledProblem",
    parents: StateBlock,
    feasible: np.ndarray,
    incumbent_feasible: bool,
    children_per_state: int,
    seen: set[bytes] | None = None,
    limit: int | None = None,
    memo: EditMemo | None = None,
) -> StateBlock:
    """Transformation children of every row of ``parents``, as one block.

    ``feasible[b]`` is parent ``b``'s evaluated feasibility.  Promote
    when infeasible, Demote when feasible.  Promote targets the tasks
    dominating the (mean-time) critical path under the parent's
    assignment, largest time first, then a few off-path tasks for
    exploration (the per-sample critical path can differ from the mean
    one); Demote targets the tasks with the largest cost saving, first
    off the path (they have slack), then on it.  While the incumbent is
    still infeasible a feasible parent also keeps one promote alive, for
    robustness near the boundary.

    Returns the child block: every child is a single-task edit of a
    parent, in emission order -- parent by parent, and per parent the
    lead list, the rest list, then the kept-alive promote.  Children whose key is in
    ``seen`` are dropped and the rest added to it, the first occurrence
    winning; ``limit`` keeps the first that many (the evaluation
    budget).  ``seen=None`` keeps duplicates.  With a ``memo`` the
    edits of a parent it holds are read back, not recomputed: the
    block is the same.

    Both directions are one ranking: a stable ``argsort`` of the negated
    key (mean time, or saving) over all tasks, cut into an on-path and
    an off-path list.  Ties fall to the lower task index, which on the
    critical path is also path order (a parent's index is below its
    child's).
    """
    n = problem.num_tasks
    if not len(parents) or not n:
        return StateBlock(np.empty((0, n), dtype=np.int16))
    assign = parents.assign
    feasible = np.asarray(feasible, dtype=bool)
    if memo is None:
        owner, tasks, new_type = _edits(
            problem, assign, feasible, incumbent_feasible, children_per_state
        )
    else:
        owner, tasks, new_type = _memo_edits(
            problem, parents, feasible, incumbent_feasible, children_per_state, memo
        )

    children = assign[owner]
    children[np.arange(len(owner)), tasks] = new_type
    keys = row_keys(children)
    rows: list[int] | range = range(len(keys))
    if seen is not None:
        rows = []
        for c, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                rows.append(c)
    if limit is not None:
        rows = rows[:limit]
    if len(rows) < len(keys):
        children = children[rows]
        keys = [keys[c] for c in rows]
    return StateBlock(children, keys)
