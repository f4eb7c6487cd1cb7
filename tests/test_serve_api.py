"""Endpoint tests for the digital-twin HTTP API (repro.serve.app).

The app is pure ASGI, so the suite drives the coroutine directly with
the in-repo :class:`repro.serve.testing.ASGIClient` — no HTTP stack,
no optional dependencies.  When the ``serve`` extra is installed
(httpx), the same app is additionally exercised through
``httpx.ASGITransport`` to prove real-transport compatibility.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from repro.experiments import Scenario
from repro.experiments.runner import fleet_sites_for_scenario
from repro.experiments.scenario import WorkloadSpec
from repro.serve import create_app
from repro.serve.testing import ASGIClient
from repro.sim import simulate
from repro.supply.spec import SupplySpec
from repro.units import grid_days


def tiny_scenario(name="twin", days=1.0, seed=3, closed=True) -> Scenario:
    return Scenario(
        name=name,
        sites=("BE-wind", "ES-solar"),
        grid=grid_days(datetime(2020, 5, 3), days),
        workload=WorkloadSpec(kind="vm_requests", utilization=0.7),
        supply=(
            SupplySpec(
                battery_mwh=2.0,
                battery_power_mw=1.0,
                grid_budget_mwh=50.0,
                mode="closed",
            )
            if closed
            else SupplySpec()
        ),
        seed=seed,
    )


@pytest.fixture()
def client():
    return ASGIClient(create_app())


def create_session(client, scenario=None, **payload):
    scenario = scenario or tiny_scenario()
    body = {"scenario": scenario.to_dict(), **payload}
    response = client.post("/sessions", json=body)
    assert response.status == 201, response.body
    return response.json()


class TestEndpoints:
    def test_healthz(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {"ok": True, "sessions": 0}

    def test_create_from_partial_scenario_spec(self, client):
        # Hand-written API specs (the README walkthrough) omit the
        # optional scenario sections; the registry fills the defaults.
        body = {
            "engine": "event",
            "scenario": {
                "name": "twin",
                "sites": ["BE-wind"],
                "grid": {
                    "start": "2020-05-03T00:00:00",
                    "step_seconds": 900.0,
                    "n": 96,
                },
                "workload": {"kind": "vm_requests", "utilization": 0.7},
                "supply": {"battery_mwh": 2.0, "mode": "closed"},
            },
        }
        response = client.post("/sessions", json=body)
        assert response.status == 201, response.body
        sid = response.json()["session_id"]
        status = client.post(f"/sessions/{sid}/tick?n=96").json()
        assert status["done"]
        # Name and sites stay required.
        del body["scenario"]["sites"]
        assert client.post("/sessions", json=body).status == 400

    def test_create_tick_status_results(self, client):
        status = create_session(client, engine="event")
        sid = status["session_id"]
        assert status["step"] == 0
        assert sorted(status["sites"]) == ["BE-wind", "ES-solar"]

        ticked = client.post(f"/sessions/{sid}/tick?n=40").json()
        assert ticked["step"] == 40
        assert not ticked["done"]
        assert (
            client.get(f"/sessions/{sid}/status").json()["step"] == 40
        )

        premature = client.get(f"/sessions/{sid}/results")
        assert premature.status == 400

        done = client.post(f"/sessions/{sid}/tick?n=100000").json()
        assert done["done"]
        results = client.get(f"/sessions/{sid}/results")
        assert results.status == 200
        summaries = results.json()["results"]
        assert sorted(summaries) == ["BE-wind", "ES-solar"]

        # The session's final summaries match the batch fleet engine
        # run of the same scenario exactly.
        want = simulate(
            fleet_sites_for_scenario(tiny_scenario()),
            record_events=True,
        )
        for name, summary in summaries.items():
            assert summary == want[name].summary_dict()

    def test_inject_and_audit(self, client):
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=10")
        queued = client.post(
            f"/sessions/{sid}/inject",
            json={"kind": "blackout", "site": "BE-wind",
                  "duration_steps": 5},
        )
        assert queued.status == 202
        assert queued.json()["queued"]["event"] == "inject"
        client.post(f"/sessions/{sid}/tick?n=5")
        audit = client.get(f"/sessions/{sid}/audit").json()["audit"]
        events = [entry["event"] for entry in audit]
        assert events[0] == "create"
        assert "inject" in events and "apply" in events
        tail = client.get(f"/sessions/{sid}/audit?last_n=2").json()
        assert len(tail["audit"]) == 2

        bad = client.post(
            f"/sessions/{sid}/inject", json={"kind": "earthquake"}
        )
        assert bad.status == 400
        assert "earthquake" in bad.json()["error"]

    def test_audit_last_n_bounds(self, client):
        """``last_n=0`` is an empty tail, not the whole log; a negative
        ``last_n`` is a 400; a ``last_n`` past the log's length is the
        whole log."""
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=3")
        full = client.get(f"/sessions/{sid}/audit").json()["audit"]
        assert len(full) >= 2
        empty = client.get(f"/sessions/{sid}/audit?last_n=0")
        assert empty.status == 200
        assert empty.json()["audit"] == []
        one = client.get(f"/sessions/{sid}/audit?last_n=1").json()
        assert one["audit"] == full[-1:]
        everything = client.get(
            f"/sessions/{sid}/audit?last_n={len(full) + 5}"
        ).json()
        assert everything["audit"] == full
        negative = client.get(f"/sessions/{sid}/audit?last_n=-1")
        assert negative.status == 400
        assert "last_n" in negative.json()["error"]

    def test_checkpoint_restore_fork_roundtrip(self, client):
        sid = create_session(client)["session_id"]
        client.post(f"/sessions/{sid}/tick?n=30")

        forked = client.post(f"/sessions/{sid}/fork")
        assert forked.status == 201
        fork_id = forked.json()["session_id"]
        assert fork_id != sid

        blob = client.get(f"/sessions/{sid}/checkpoint")
        assert blob.status == 200
        assert blob.headers["content-type"] == "application/octet-stream"

        restored = client.post(
            "/sessions/restore?session_id=replay", data=blob.body
        )
        assert restored.status == 201
        assert restored.json()["session_id"] == "replay"
        assert restored.json()["step"] == 30

        # All three finish to identical summaries.
        summaries = []
        for session_id in (sid, fork_id, "replay"):
            client.post(f"/sessions/{session_id}/tick?n=100000")
            summaries.append(
                client.get(f"/sessions/{session_id}/results").json()[
                    "results"
                ]
            )
        assert summaries[0] == summaries[1] == summaries[2]

    def test_list_delete_and_errors(self, client):
        sid = create_session(client)["session_id"]
        listing = client.get("/sessions").json()["sessions"]
        assert [entry["session_id"] for entry in listing] == [sid]

        assert client.delete(f"/sessions/{sid}").status == 200
        assert client.get("/sessions").json()["sessions"] == []

        assert client.get(f"/sessions/{sid}/status").status == 404
        assert client.delete(f"/sessions/{sid}").status == 404
        assert client.get("/nowhere").status == 404
        assert client.post("/sessions", json={}).status == 400
        assert (
            client.post("/sessions", json={"scenario": "x"}).status == 400
        )
        assert client.post("/sessions", data=b"{broken").status == 400
        assert client.request("PUT", "/sessions").status == 405
        assert client.post("/sessions/restore", data=b"junk").status == 400

    def test_engine_soa_session(self, client):
        # "soa" was folded into the event engine: sessions accept an
        # absent or "event" engine field and refuse anything else.
        body = {"scenario": tiny_scenario().to_dict(), "engine": "soa"}
        response = client.post("/sessions", json=body)
        assert response.status == 400
        assert "'event'" in response.json()["error"]
        assert client.get("/healthz").json()["sessions"] == 0
        # Status and listing keep reporting the engine name.
        status = create_session(client)
        assert status["engine"] == "event"
        listed = client.get("/sessions").json()["sessions"]
        assert [entry["engine"] for entry in listed] == ["event"]


class TestConcurrentSessions:
    def test_eight_sessions_round_robin(self, client):
        """≥8 live sessions advance independently and each finishes
        bit-identical to its own batch reference."""
        scenarios = [
            tiny_scenario(name=f"twin-{i}", seed=i, closed=i % 2 == 0)
            for i in range(8)
        ]
        ids = []
        for i, scenario in enumerate(scenarios):
            # Alternate the explicit engine field with its default.
            payload = {"engine": "event"} if i % 2 == 0 else {}
            status = create_session(client, scenario=scenario, **payload)
            ids.append(status["session_id"])
        assert len(set(ids)) == 8
        assert client.get("/healthz").json()["sessions"] == 8

        # Interleave ticks of different sizes across all sessions.
        steps = {sid: 0 for sid in ids}
        for round_no in range(4):
            for i, sid in enumerate(ids):
                n = 13 + 7 * ((i + round_no) % 3)
                payload = client.post(f"/sessions/{sid}/tick?n={n}").json()
                steps[sid] += n
                assert payload["step"] == min(
                    steps[sid], payload["n_steps"]
                )
        for sid in ids:
            client.post(f"/sessions/{sid}/tick?n=100000")

        for sid, scenario in zip(ids, scenarios):
            summaries = client.get(f"/sessions/{sid}/results").json()[
                "results"
            ]
            want = simulate(
                fleet_sites_for_scenario(scenario), record_events=True
            )
            for name, summary in summaries.items():
                assert summary == want[name].summary_dict(), (
                    sid, name,
                )


class TestHttpxTransport:
    def test_via_httpx_asgi_transport(self):
        """Real-transport compatibility, run when the serve extra is
        installed (the dedicated CI leg); skipped otherwise."""
        httpx = pytest.importorskip("httpx")
        import asyncio

        async def drive():
            transport = httpx.ASGITransport(app=create_app())
            async with httpx.AsyncClient(
                transport=transport, base_url="http://twin"
            ) as http:
                health = await http.get("/healthz")
                assert health.json()["ok"] is True
                created = await http.post(
                    "/sessions",
                    json={"scenario": tiny_scenario().to_dict()},
                )
                assert created.status_code == 201
                sid = created.json()["session_id"]
                ticked = await http.post(f"/sessions/{sid}/tick?n=25")
                assert ticked.json()["step"] == 25
                blob = await http.get(f"/sessions/{sid}/checkpoint")
                restored = await http.post(
                    "/sessions/restore", content=blob.content
                )
                assert restored.status_code == 201
                assert restored.json()["step"] == 25

        asyncio.run(drive())
