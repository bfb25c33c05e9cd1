"""Chaos harness for the Deco job service.

Drives a real service (worker processes, on-disk journal) through three
fault families while checking the service's core guarantee -- **every
accepted job reaches a terminal state exactly once**:

* **worker kills** -- SIGKILL busy workers mid-solve (on top of payload
  chaos injections: a job that always crashes its worker, a job that
  raises deterministically);
* **journal truncation** -- replay byte-level prefixes of the journal
  cut mid-record, as a crash during an append would leave it, and check
  no accepted job is lost and no terminal state is doubled;
* **queue latency** -- injected dispatch delay, which widens every
  race window the dispatcher has;
* **failed appends** -- the journal's first append of each event kind
  raises ``OSError(28)``, as a full disk does
  (:func:`run_append_faults`): ``run_until_idle`` must still return.

Before the service closes, every live job must also equal, field by
field, the same job in the fold of the journal
(:func:`live_state_mismatches`).

Each scenario runs under one of two drivers: ``service.step()`` called
synchronously from the harness loop, or the dispatcher thread
``service.start()`` runs (``threaded=True``), whose wake-ups on worker
deaths and backoff timers are what production relies on.

Usable two ways: pytest (``test_chaos.py``) and standalone for CI, which
runs the scenario under both drivers::

    PYTHONPATH=src:tests python -m service.chaos --quick

which also runs the failed-append scenario under ``run_until_idle``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import signal
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from unittest import mock

from repro.service import DecoService, DurableQueue, ServiceConfig
from repro.service.journal import _EVENTS, fold_events, replay_events

#: Engine small enough that a chaos run with retries stays under a minute.
CHAOS_ENGINE = {
    "seed": 7,
    "num_samples": 40,
    "max_evaluations": 120,
}


@dataclass
class ChaosReport:
    """What a chaos run did and whether the invariants held."""

    accepted: int = 0
    terminal_counts: dict = field(default_factory=dict)
    external_kills: int = 0
    worker_respawns: int = 0
    recovery_s: float | None = None
    duration_s: float = 0.0
    truncation_points: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "terminal_counts": self.terminal_counts,
            "external_kills": self.external_kills,
            "worker_respawns": self.worker_respawns,
            "recovery_s": self.recovery_s,
            "duration_s": round(self.duration_s, 3),
            "truncation_points": self.truncation_points,
            "violations": self.violations,
            "ok": self.ok,
        }


@contextlib.contextmanager
def _chaos_limits():
    """Token buckets that never refuse and 20 ms crash backoffs: the run
    submits in bursts and retries every crash."""
    with mock.patch.object(DurableQueue, "TENANT_RATE", 1000.0), mock.patch.object(
        DurableQueue, "TENANT_BURST", 1000.0
    ), mock.patch.object(DecoService, "BACKOFF_BASE_S", 0.02):
        yield


def _payload(seed: int, **extra) -> dict:
    payload = {
        "workflow": {"app": "montage", "degrees": 1.0, "seed": seed},
        "deadline": "medium",
    }
    payload.update(extra)
    return payload


def _check_exactly_once(journal_path: str, accepted_ids: set, report: ChaosReport) -> None:
    """Journal-level invariants: fold succeeds, one terminal event per job."""
    try:
        events = list(replay_events(journal_path))
    except Exception as exc:  # replay itself must never fail post-run
        report.violations.append(f"journal replay failed: {exc!r}")
        return
    terminal_events: dict[str, int] = {}
    for record in events:
        if record["event"] in ("completed", "degraded", "dead_lettered"):
            job_id = record["job_id"]
            terminal_events[job_id] = terminal_events.get(job_id, 0) + 1
    for job_id in accepted_ids:
        n = terminal_events.get(job_id, 0)
        if n != 1:
            report.violations.append(
                f"job {job_id} has {n} terminal journal events (want exactly 1)"
            )
    try:
        jobs = fold_events(iter(events))
    except Exception as exc:
        report.violations.append(f"journal fold failed: {exc!r}")
        return
    if set(jobs) != accepted_ids:
        report.violations.append(
            f"replay lost/invented jobs: {sorted(set(jobs) ^ accepted_ids)}"
        )
    for job in jobs.values():
        if not job.terminal:
            report.violations.append(
                f"job {job.job_id} not terminal after run: {job.state}"
            )


def live_state_mismatches(jobs, journal_path: str) -> list[str]:
    """Where the live jobs differ from the fold of the journal.

    Every field must be equal; the one exception is a running job, which
    the fold re-queues with the same ``attempts``.
    """
    replayed = fold_events(replay_events(journal_path))
    live = {job.job_id: job for job in jobs}
    out = []
    if set(live) != set(replayed):
        out.append(f"live and replayed job ids differ: {sorted(set(live) ^ set(replayed))}")
    for job_id in live.keys() & replayed.keys():
        want = live[job_id]
        if want.state == "running":
            want = dataclasses.replace(want, state="queued")
        if want != replayed[job_id]:
            out.append(f"job {job_id}: live {want} != replayed {replayed[job_id]}")
    return out


def _check_truncations(journal_path: str, report: ChaosReport) -> None:
    """Replay crash-truncated prefixes: cut mid-final-record at several
    byte offsets; replay must keep every job whose 'submitted' survived
    and must never double a terminal state."""
    raw = open(journal_path, "rb").read()
    newlines = [i for i, b in enumerate(raw) if b == 0x0A]
    # Cut points: a few bytes into the record after each of the last 5
    # complete lines -- i.e. a crash partway through the next append.
    cuts = [n + 8 for n in newlines[-6:-1] if n + 8 < len(raw)]
    for cut in cuts:
        report.truncation_points += 1
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as fh:
            fh.write(raw[:cut])
            trunc = fh.name
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                jobs = fold_events(replay_events(trunc))
            # Every complete 'submitted' record before the cut must survive.
            expected = set()
            for line in raw[:cut].split(b"\n")[:-1]:
                if line.strip():
                    record = json.loads(line)
                    if record["event"] == "submitted":
                        expected.add(record["job"]["job_id"])
            if set(jobs) != expected:
                report.violations.append(
                    f"truncation at byte {cut}: replay has {len(jobs)} jobs, "
                    f"expected {len(expected)}"
                )
            terminal_states = ("completed", "degraded", "dead_lettered")
            for job in jobs.values():
                if job.state not in terminal_states + ("queued",):
                    report.violations.append(
                        f"truncation at byte {cut}: job {job.job_id} in "
                        f"impossible replay state {job.state!r}"
                    )
        except Exception as exc:
            report.violations.append(f"truncation at byte {cut}: replay raised {exc!r}")
        finally:
            os.unlink(trunc)


def run_chaos(
    workdir: str | None = None,
    *,
    jobs: int = 6,
    external_kills: int = 2,
    queue_latency_s: float = 0.0,
    workers: int = 2,
    max_attempts: int = 4,
    timeout_s: float = 600.0,
    threaded: bool = False,
) -> ChaosReport:
    """One full chaos run; returns the report (``report.ok`` == no violations).

    ``threaded`` leaves dispatching to the service's own thread; the
    harness loop then only kills workers and watches the queue drain.
    """
    workdir = workdir or tempfile.mkdtemp(prefix="deco-chaos-")
    journal_path = os.path.join(workdir, "chaos.jsonl")
    report = ChaosReport()
    config = ServiceConfig(
        journal_path=journal_path,
        workers=workers,
        max_attempts=max_attempts,
        degrade_depth=max(jobs, 8),
        reject_depth=2 * max(jobs, 8),
        engine=dict(CHAOS_ENGINE),
    )
    t0 = time.monotonic()
    with warnings.catch_warnings(), _chaos_limits():
        warnings.simplefilter("ignore", RuntimeWarning)
        with DecoService(config) as service:
            if queue_latency_s:
                original_claim = service.queue.claim

                def laggy_claim():
                    time.sleep(queue_latency_s)
                    return original_claim()

                service.queue.claim = laggy_claim  # type: ignore[method-assign]
            if threaded:
                service.start()
            submitted: dict[str, str] = {}  # job_id -> expectation
            for i in range(jobs):
                job = service.submit(_payload(seed=i))
                submitted[job.job_id] = "completed"
            crasher = service.submit(_payload(seed=100, inject="exit"))
            submitted[crasher.job_id] = "dead_lettered"
            failer = service.submit(_payload(seed=101, inject="raise"))
            submitted[failer.job_id] = "dead_lettered"
            report.accepted = len(submitted)

            kills_left = external_kills
            first_kill_at = None
            killed_job: str | None = None
            t_deadline = time.monotonic() + timeout_s
            while service.queue.depth > 0:
                if time.monotonic() > t_deadline:
                    report.violations.append(
                        f"service not idle after {timeout_s:g}s "
                        f"({service.queue.depth} jobs stuck)"
                    )
                    break
                if not threaded:
                    service.step()
                if kills_left > 0:
                    # Kill the worker under a *normal* running job (payload
                    # injections already cover self-crashing jobs).
                    for active in service.pool.active():
                        target = service.queue.get(active.job_id)
                        if target.payload.get("inject"):
                            continue
                        pid = service.pool.worker_pids()[active.slot]
                        if pid is None:
                            continue
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:
                            continue
                        kills_left -= 1
                        report.external_kills += 1
                        if first_kill_at is None:
                            first_kill_at = time.monotonic()
                            killed_job = active.job_id
                        break
                time.sleep(0.005)
            # Externally-killed jobs have retry budget left: they complete.
            report.worker_respawns = service.pool.respawns
            for job_id, want in submitted.items():
                record = service.queue.get(job_id)
                if not record.terminal:
                    report.violations.append(
                        f"job {job_id} never reached a terminal state ({record.state})"
                    )
                    continue
                state = record.state
                report.terminal_counts[state] = report.terminal_counts.get(state, 0) + 1
                if want == "completed" and state == "dead_lettered":
                    # An externally killed job may legitimately dead-letter
                    # only if chaos burned its whole attempt budget.
                    if record.attempts < max_attempts:
                        report.violations.append(
                            f"job {job_id} dead-lettered with budget left "
                            f"({record.attempts}/{max_attempts} attempts)"
                        )
                elif want == "dead_lettered" and state != "dead_lettered":
                    report.violations.append(
                        f"chaos-inject job {job_id} ended {state}, want dead_lettered"
                    )
            if first_kill_at is not None and killed_job is not None:
                record = service.queue.get(killed_job)
                if record.terminal:
                    # Kill-to-terminal wall clock: the drain loop exits as
                    # soon as everything is terminal, so "now" is a tight
                    # upper bound on the killed job's recovery.
                    report.recovery_s = round(time.monotonic() - first_kill_at, 3)
            report.violations.extend(live_state_mismatches(service.queue.jobs(), journal_path))
    _check_exactly_once(journal_path, set(submitted), report)
    _check_truncations(journal_path, report)
    report.duration_s = time.monotonic() - t0
    return report


def run_append_faults(workdir: str | None = None, *, timeout_s: float = 300.0) -> ChaosReport:
    """Every event kind's first journal append raises ``OSError(28)``, once.

    Jobs of every outcome -- completed, load-shed to ``degraded``, a
    worker crash that is ``requeued`` and then ``dead_lettered``, a
    raise that dead-letters at once -- go through one service driven by
    ``run_until_idle``, which must return.  A submission refused by a
    failed ``submitted`` append was never accepted and is retried; the
    accepted jobs are those the journal holds.  Afterwards every accepted
    job is terminal exactly once, every live job equals the fold of the
    journal, and every kind's fault has fired.
    """
    workdir = workdir or tempfile.mkdtemp(prefix="deco-chaos-")
    journal_path = os.path.join(workdir, "append-faults.jsonl")
    report = ChaosReport()
    config = ServiceConfig(
        journal_path=journal_path, workers=2, max_attempts=2,
        degrade_depth=3, reject_depth=16, engine=dict(CHAOS_ENGINE),
    )
    armed = set(_EVENTS)
    t0 = time.monotonic()
    with warnings.catch_warnings(), _chaos_limits():
        warnings.simplefilter("ignore", RuntimeWarning)
        with DecoService(config) as service:
            append = service.journal.append

            def disk_full_once(event, **fields):
                if event in armed:
                    armed.discard(event)
                    raise OSError(28, "No space left on device")
                return append(event, **fields)

            service.journal.append = disk_full_once  # type: ignore[method-assign]
            payloads = [_payload(seed=i) for i in range(4)]
            payloads += [_payload(seed=100, inject="exit"), _payload(seed=101, inject="raise")]
            for payload in payloads:
                for _ in range(2):  # a failed ``submitted`` append refuses the job
                    try:
                        service.submit(payload)
                        break
                    except OSError:
                        continue
            try:
                service.run_until_idle(timeout_s=timeout_s)
            except Exception as exc:
                report.violations.append(f"run_until_idle raised {exc!r}")
            jobs = service.queue.jobs()
            report.accepted = len(jobs)
            for job in jobs:
                report.terminal_counts[job.state] = report.terminal_counts.get(job.state, 0) + 1
            report.worker_respawns = service.pool.respawns
            report.violations.extend(live_state_mismatches(jobs, journal_path))
    if armed:
        report.violations.append(f"no append of {sorted(armed)} was attempted")
    _check_exactly_once(journal_path, {job.job_id for job in jobs}, report)
    report.duration_s = time.monotonic() - t0
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Deco service chaos harness")
    parser.add_argument("--quick", action="store_true",
                        help="small profile (6 jobs, 2 kills) for CI")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--kills", type=int, default=None)
    parser.add_argument("--latency", type=float, default=0.0,
                        help="injected queue-claim latency in seconds")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else (6 if args.quick else 12)
    kills = args.kills if args.kills is not None else (2 if args.quick else 4)
    reports = {
        driver: run_chaos(
            jobs=jobs,
            external_kills=kills,
            queue_latency_s=args.latency,
            threaded=driver == "thread",
        )
        for driver in ("step", "thread")
    }
    reports["append_faults"] = run_append_faults()
    print(json.dumps({d: r.to_dict() for d, r in reports.items()}, indent=2))
    return 0 if all(r.ok for r in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
