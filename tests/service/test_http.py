"""HTTP front end: routes, status codes, structured backpressure."""

from __future__ import annotations

import pytest

from repro.service import DecoService, ServiceConfig, ServiceClient, ServiceServer

from .conftest import ENGINE, montage_payload

pytestmark = pytest.mark.usefixtures("fast_service")


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(
        journal_path=str(tmp_path / "jobs.jsonl"),
        workers=2,
        degrade_depth=4,
        reject_depth=6,
        engine=dict(ENGINE),
    )
    with ServiceServer(DecoService(config), port=0) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def client(server):
    return ServiceClient(server.url, timeout_s=30.0)


class TestRoutes:
    def test_submit_poll_complete(self, client):
        code, doc = client.submit(montage_payload())
        assert code == 202
        assert doc["job_id"].startswith("job-")
        status = client.wait(doc["job_id"], timeout_s=120)
        assert status["state"] == "completed"
        assert status["result"]["plan"]["feasible"] is True

    def test_health_and_readiness(self, client):
        code, doc = client._request("GET", "/healthz")
        assert code == 200 and doc["ok"] is True
        code, doc = client._request("GET", "/readyz")
        assert code == 200 and doc["ok"] is True

    def test_stats_exposes_worker_pids(self, client):
        stats = client.stats()
        assert len(stats["worker_pids"]) == 2
        assert "cache" in stats and "jobs" in stats

    def test_unknown_job_404(self, client):
        code, doc = client.status("job-doesnotexist")
        assert code == 404
        assert doc["job_id"] == "job-doesnotexist"

    def test_unknown_route_404(self, client):
        assert client._request("GET", "/v2/nope")[0] == 404
        assert client._request("POST", "/v1/other")[0] == 404

    def test_malformed_payload_400(self, client):
        code, doc = client.submit({"workflow": {}})
        assert code == 400
        assert "workflow" in doc["error"]

    def test_non_finite_deadline_400(self, client):
        """``json`` writes and parses ``Infinity``: admission refuses it
        instead of queueing a job the engine would dead-letter."""
        code, doc = client.submit(montage_payload(deadline=float("inf")))
        assert code == 400
        assert "payload.deadline" in doc["error"]

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"workflow": {"app": "montage", "degrees": 1.0, "seed": "7"}}, "workflow.seed"),
            ({"wlog": 42}, "wlog"),
            ({"faults": "none"}, "faults"),
        ],
    )
    def test_malformed_workflow_reference_400(self, client, change, field):
        """Admission refuses what ``build_workflow``, ``_build_faults`` or
        ``solve_program`` would raise on after a queue round trip."""
        code, doc = client.submit({**montage_payload(), **change})
        assert code == 400
        assert f"payload.{field}" in doc["error"]

    def test_invalid_json_body_400(self, client, server):
        import urllib.request

        req = urllib.request.Request(
            server.url + "/v1/jobs", data=b"{not json", method="POST"
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            code = 200
        except urllib.error.HTTPError as exc:
            code = exc.code
        assert code == 400


class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(
            journal_path=str(tmp_path / "bp.jsonl"),
            workers=2,
            degrade_depth=1,
            reject_depth=1,
            engine=dict(ENGINE),
        )
        # Dispatcher NOT started: submissions pile up against reject_depth.
        with ServiceServer(DecoService(config), port=0) as srv:
            srv._httpd_thread = None  # only the HTTP listener, no dispatcher
            import threading

            thread = threading.Thread(
                target=srv._httpd.serve_forever, kwargs={"poll_interval": 0.05},
                daemon=True,
            )
            thread.start()
            client = ServiceClient(srv.url, timeout_s=10.0)
            code, first = client.submit(montage_payload(seed=1))
            assert code == 202
            code, doc = client.submit(montage_payload(seed=2))
            assert code == 429
            assert doc["reason"] == "queue_full"
            assert doc["retry_after_s"] > 0

    def test_server_close_is_idempotent(self, tmp_path):
        config = ServiceConfig(
            journal_path=str(tmp_path / "cl.jsonl"),
            workers=2,
            engine=dict(ENGINE),
        )
        srv = ServiceServer(DecoService(config), port=0)
        srv.start()
        srv.close()
        srv.close()
