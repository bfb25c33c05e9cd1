"""Engine/pool lifecycle hardening: idempotent close, exit-safe teardown.

Long-running services open and close engines repeatedly and cannot
afford teardown that raises, leaks processes, or spews warnings at
interpreter exit -- these tests pin all of it.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
import warnings

from repro.engine.deco import Deco
from repro.parallel.executor import ShardPool
from repro.workflow.generators import montage

ENGINE_KW = dict(seed=7, num_samples=40, max_evaluations=100)


def _noop_init(_spec=None) -> None:
    return None


def _echo(payload):
    return payload


class TestDecoClose:
    def test_double_close_is_silent(self, catalog):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="requested .* worker", category=RuntimeWarning
            )
            deco = Deco(catalog, workers=2, **ENGINE_KW)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deco.close()
            deco.close()

    def test_close_without_ever_solving(self, catalog):
        Deco(catalog, workers=2, **ENGINE_KW).close()

    def test_close_then_reuse_rebuilds_pool(self, catalog):
        wf = montage(degrees=1.0, seed=7)
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="requested .* worker", category=RuntimeWarning
            )
            deco = Deco(catalog, workers=2, **ENGINE_KW)
            before = deco.schedule(wf, "medium")
            deco.close()
            after = deco.schedule(wf, "medium")  # lazily rebuilt pool
            deco.close()
        assert before.decision_dict() == after.decision_dict()

    def test_context_manager_reentry(self, catalog):
        wf = montage(degrees=1.0, seed=7)
        deco = Deco(catalog, workers=2, **ENGINE_KW)
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="requested .* worker", category=RuntimeWarning
            )
            with deco as engine:
                first = engine.schedule(wf, "medium")
            with deco as engine:  # re-entering after __exit__ closed the pool
                second = engine.schedule(wf, "medium")
        assert first.decision_dict() == second.decision_dict()


class TestShardPoolClose:
    def test_close_idempotent_and_reentrant(self):
        pool = ShardPool(2, initializer=_noop_init, initargs=({},))
        pool.run(_echo, [1, 2])
        pool.close()
        pool.close()
        pool.close_executors()  # post-close explicit teardown also fine

    def test_respawn_unspawned_shard_is_safe(self):
        pool = ShardPool(2, initializer=_noop_init, initargs=({},))
        pool.respawn(0)
        pool.respawn(5)  # wraps modulo workers
        pool.close()

    def test_worker_pids_reports_down_shards(self):
        pool = ShardPool(2, initializer=_noop_init, initargs=({},))
        assert pool.worker_pids() == [None, None]  # nothing spawned yet
        pool.run(_echo, [1, 2])
        if not pool.is_serial:
            assert any(pid is not None for pid in pool.worker_pids())
        pool.close()
        assert pool.worker_pids() == [None, None]


class TestInterpreterExit:
    """Teardown with live pools must not raise, warn, or hang at exit."""

    def _run(self, body: str) -> subprocess.CompletedProcess:
        import os
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        code = textwrap.dedent(body)
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        return subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            capture_output=True,
            text=True,
            timeout=240,
            env=env,
            cwd=str(repo_root),
        )

    def test_abandoned_deco_pool_exits_clean(self):
        result = self._run(
            """
            import warnings
            warnings.filterwarnings("ignore", message="requested .* worker")
            from repro.cloud import ec2_catalog
            from repro.engine.deco import Deco
            from repro.workflow.generators import montage

            deco = Deco(ec2_catalog(), workers=2, seed=7, num_samples=40,
                        max_evaluations=100)
            plan = deco.schedule(montage(degrees=1.0, seed=7), "medium")
            assert plan.feasible
            print("OK")
            # no close(): the weakref finalizer must tear the pool down
            """
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "Exception" not in result.stderr
        assert "Error" not in result.stderr

    def test_abandoned_service_exits_clean(self):
        result = self._run(
            """
            import tempfile, os, warnings
            warnings.filterwarnings("ignore", message="requested .* worker")
            from repro.service import DecoService, ServiceConfig

            svc = DecoService(ServiceConfig(
                journal_path=os.path.join(tempfile.mkdtemp(), "j.jsonl"),
                workers=2,
                engine={"seed": 7, "num_samples": 40, "max_evaluations": 100},
            ))
            job = svc.submit({"workflow": {"app": "montage", "degrees": 1.0,
                                           "seed": 7}})
            svc.run_until_idle(timeout_s=120)
            assert svc.job_status(job.job_id)["state"] == "completed"
            print("OK")
            # no close(): journal handle + worker pool torn down at exit
            """
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "Exception" not in result.stderr
