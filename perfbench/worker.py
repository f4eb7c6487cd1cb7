"""One timed pass of the ``fleet_year`` or ``serve_twin`` workload.

Runs in a fresh interpreter started by ``perfbench/run.py``::

    python perfbench/worker.py --workload fleet_year --seed 3 \\
        --t0 <time.monotonic() at spawn> --out pass.json [--trace] [--split]

Set-up is interpreter start until the inputs are built (``import
repro`` included); the pass is the user-visible work.  The worker
writes one JSON object: timings, the host's pace read just after the
set-up and sampled during the pass (``perfbench/pace.py``), the output
digest the parent checks against its golden, counts of attempted and
failed operations, and, with ``--trace``, the per-layer metrics of the
traced pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402  (imports no part of repro by itself)

#: fleet_year: sites x days, every other site closed-loop.
FLEET_SITES = 64
FLEET_DAYS = 365
CAMPAIGNS = 3
CAMPAIGN_VMS = 400
VM_SHAPES = ((2, 8.0), (4, 16.0), (8, 32.0))

#: The closed-loop supply stack behind every other fleet site and every
#: serve_twin site.
CLOSED_SUPPLY = {
    "battery_mwh": 2.0,
    "grid_budget_mwh": 50.0,
    "price_trace": "double_peak",
    "grid_policy": "threshold",
    "price_threshold": 60.0,
    "mode": "closed",
}

#: Site power traces, in both workloads, are a fixed dataset (their own
#: seeds, as recorded traces would be); the benchmark seed varies the
#: VM requests.  A seeded trace would move the power-matched workload
#: size by 11-28% from seed to seed and swamp every timing.
TRACE_SEED = 0

#: serve_twin: catalog sites, days of 15-minute steps, steps per tick.
SERVE_SITES = ("BE-wind", "ES-solar", "DK-wind", "PT-solar")
SERVE_DAYS = 15
SERVE_TICK = 12


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- fleet_year ---------------------------------------------------------


def campaign_requests(rng, VMRequest, VMType, VMClass):
    """Three sparse week-scale batch campaigns over one site-year."""
    shapes = [VMType(f"D{c}", c, m) for c, m in VM_SHAPES]
    requests = []
    for campaign in range(CAMPAIGNS):
        day = int(rng.integers(campaign * 120, campaign * 120 + 60))
        for _ in range(CAMPAIGN_VMS):
            requests.append(VMRequest(
                len(requests),
                day * 96 + int(rng.integers(0, 48)),
                int(rng.integers(96, 3 * 96)),
                shapes[int(rng.integers(0, len(shapes)))],
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE,
            ))
    return requests


def fleet_inputs(seed: int):
    """The fleet: fixed wind traces, seeded campaign requests, and a
    closed-loop supply stack behind every odd-numbered site."""
    import numpy as np

    from repro import traces
    from repro.cluster import DatacenterConfig
    from repro.experiments.defaults import YEAR_START
    from repro.sim import FleetSite
    from repro.supply.spec import SupplySpec
    from repro.units import grid_days
    from repro.workload import VMClass, VMRequest, VMType

    grid = grid_days(YEAR_START, FLEET_DAYS)
    config = DatacenterConfig()
    spec = SupplySpec(**CLOSED_SUPPLY)
    sites = []
    for index in range(FLEET_SITES):
        rng = np.random.default_rng([seed, index])
        name = f"site{index:03d}"
        trace = traces.synthesize_wind(
            grid, seed=TRACE_SEED + index, name=name
        )
        closed = index % 2 == 1
        sites.append(FleetSite(
            name=name,
            config=config,
            trace=trace,
            requests=campaign_requests(rng, VMRequest, VMType, VMClass),
            supply=spec.build(trace) if closed else None,
            supply_mode="closed" if closed else "open",
        ))
    return sites


def fleet_pass(sites, tracer, sampler, split=False):
    from repro.sim import FleetEngine

    start = time.perf_counter()
    with sampler:
        if not split:
            results = FleetEngine(sites).run()
        else:
            # Two calls so the open and closed halves time apart;
            # per-site results do not depend on the grouping.
            results = FleetEngine(
                [s for s in sites if s.supply is None]
            ).run()
            results.update(FleetEngine(
                [s for s in sites if s.supply is not None]
            ).run())
    wall = time.perf_counter() - start - sampler.spent
    summaries = {name: res.summary_dict() for name, res in results.items()}
    out = {
        "wall_s": wall,
        "digest": layers.digest(summaries),
        "attempted": 1,
        "failed": 0 if len(results) == len(sites) else 1,
        "detail": {"site_years_per_s": len(sites) * FLEET_DAYS / 365 / wall},
    }
    if tracer is not None:
        open_s, closed_s = (
            call["self_s"] for call in tracer.calls()
            if call["name"] == "sim.fleet"
        )
        out["layers"] = {
            "sim.fleet_open_s": open_s,
            "sim.fleet_closed_s": closed_s,
        }
    return out


# -- serve_twin ---------------------------------------------------------


def serve_inputs(seed: int) -> dict:
    """The ``POST /sessions`` body of the seeded twin scenario."""
    return {
        "engine": "event",
        "seed": seed,
        "scenario": {
            "name": "perfbench-twin",
            "sites": list(SERVE_SITES),
            "grid": {
                "start": "2020-05-03T00:00:00",
                "step_seconds": 900.0,
                "n": SERVE_DAYS * 96,
            },
            "workload": {"kind": "vm_requests", "utilization": 0.7},
            "supply": dict(CLOSED_SUPPLY),
            "seed": seed,
            "trace_seed": TRACE_SEED,
        },
    }


def serve_pass(body: dict, tracer, sampler):
    """Create, tick to the end with a status after every tick,
    checkpoint and restore at the halfway tick, then finish the
    restored copy and compare both sessions' results."""
    from repro.serve import create_app
    from repro.serve.testing import ASGIClient

    client = ASGIClient(create_app())
    timings: dict[str, list[float]] = {"tick": [], "status": []}

    def call(kind, method, path, **kwargs):
        start = time.perf_counter()
        response = client.request(method, path, **kwargs)
        timings.setdefault(kind, []).append(time.perf_counter() - start)
        if not 200 <= response.status < 300:
            raise RuntimeError(f"{method} {path} -> {response.status}")
        return response

    n_ticks = math.ceil(body["scenario"]["grid"]["n"] / SERVE_TICK)
    start = time.perf_counter()
    with sampler:
        created = call("create", "POST", "/sessions", json=body).json()
        sid = created["session_id"]
        done = False
        blob = b""
        restored = None
        while not done:
            call("tick", "POST", f"/sessions/{sid}/tick?n={SERVE_TICK}")
            status = call("status", "GET", f"/sessions/{sid}/status").json()
            done = status["done"]
            if len(timings["tick"]) == n_ticks // 2:
                blob = call(
                    "checkpoint", "GET", f"/sessions/{sid}/checkpoint"
                ).body
                restored = call(
                    "restore", "POST", "/sessions/restore", data=blob
                ).json()
        original = call("results", "GET", f"/sessions/{sid}/results").json()
        rid = restored["session_id"]
        remaining = restored["n_steps"] - restored["step"]
        finished = call("tick", "POST", f"/sessions/{rid}/tick?n={remaining}")
        copy = call("results", "GET", f"/sessions/{rid}/results").json()
    wall = time.perf_counter() - start - sampler.spent
    requests = sum(len(samples) for samples in timings.values())
    timings["tick"].pop()  # the restored copy's run to the end
    results = original["results"]
    out = {
        "wall_s": wall,
        "digest": layers.digest(results),
        "attempted": requests + 1,
        "failed": int(results != copy["results"]),
        "detail": {
            "session_create_s": timings["create"][0],
            "tick_p50_ms": 1e3 * nearest_rank(timings["tick"], 0.5),
            "tick_p90_ms": 1e3 * nearest_rank(timings["tick"], 0.9),
            "status_p50_ms": 1e3 * nearest_rank(timings["status"], 0.5),
            "checkpoint_s": timings["checkpoint"][0],
            "restore_s": timings["restore"][0],
            "checkpoint_mb": len(blob) / 1e6,
        },
    }
    if tracer is not None:
        sites = status["sites"]
        out["layers"] = {
            "sim.site_steps": sum(
                site["step"] for site in sites.values()
            ) + sum(
                site["step"] - restored["sites"][name]["step"]
                for name, site in finished.json()["sites"].items()
            ),
            "sim.evictions": sum(site["evicted"] for site in sites.values()),
            "supply.grid_import_mwh": sum(
                summary["sites"][name]["supply"]["grid_import_mwh"]
                for name, summary in results.items()
            ),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fleet_year", "serve_twin"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--split", action="store_true",
        help="fleet_year: run the open and closed sites as two FleetEngine"
        " calls, as the traced pass does",
    )
    args = parser.parse_args(argv)

    imported = layers.timed_import()
    import pace  # after repro, so the timed import still loads numpy

    sampler = pace.Sampler()
    tracer = layers.Tracer().install() if args.trace else None
    if args.workload == "fleet_year":
        sites = fleet_inputs(args.seed)
        setup = time.monotonic() - args.t0
        after_setup = pace.reading()
        out = fleet_pass(
            sites, tracer, sampler, split=args.split or args.trace
        )
    else:
        from repro.serve import create_app  # noqa: F401  (set-up import)

        body = serve_inputs(args.seed)
        setup = time.monotonic() - args.t0
        after_setup = pace.reading()
        out = serve_pass(body, tracer, sampler)
    out["paces"] = {"after_setup": after_setup, "pass": sampler.reading()}
    out["setup_s"] = setup
    if tracer is not None:
        tracer.close()
        out["layers"].update(imported)
        out["layers"].update(layers.layer_metrics(tracer))
        out["wrappers"] = tracer.table()
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
