"""Benchmarks of the supply-stack plumbing at fleet scale.

Not a paper figure — these gate the supply layer's cost on the paths
every run takes.  The composition point sits inside ``Datacenter.run``
for all runs, supply-backed or not, so the empty-stack (pass-through)
case must stay free: a year-horizon fleet run with an empty
``SupplyStack`` may not take more than 1.2x the legacy no-supply call,
and must stay result-identical.  The 4-site run takes 0.04–0.07 s;
fifteen repeats of the gate's measurement on a 2-vCPU box gave ratios
of 0.90–1.07, so 1.2 clears that spread and still catches a stack that
is no longer passed through (which costs a per-step pass over the year).

The battery closed-loop bench carries a second hard gate: on the SoA
step kernel (``engine="event"``), a battery-backed closed-loop
site-year must stay within 4x of the legacy open-loop event run of the
same site.  The closed-loop engine dispatches per step only while the
battery can move and fills pinned windows vectorized, so some multiple
is inherent but an order of magnitude would mean the per-step work
regressed to object-graph walking.  The open-loop evaluation
throughput is recorded without a gate.

The carbon leg carries the third hard gate: swapping the flat-budget
``GridFirmPower`` for its priced twin (constant-price ``always``-policy
``PricedGridPower``, which is result-identical by the degenerate
contract) must cost at most 10% extra wall clock on a closed-loop
site-year — the cost/carbon ledger is two multiply-adds per import
step, not a second dispatch pass.

All three gates compare the minima of interleaved trials
(:func:`_interleaved_min`, ``GATE_TRIALS`` runs a side, the two sides
alternating which runs first), with no absolute slack: a run takes
0.02–0.07 s here, so any fixed allowance would dwarf the quantity
gated.

Every run writes machine-readable ``BENCH_supply.json`` at the repo
root; CI uploads it as an artifact and fails the bench-smoke job if the
empty-stack gate trips.
"""

from __future__ import annotations

import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Datacenter, DatacenterConfig
from repro.experiments.defaults import YEAR_START
from repro.supply import (
    BatteryDispatch,
    GridFirmPower,
    PricedGridPower,
    SupplyStack,
)
from repro.traces import synthesize_wind
from repro.units import grid_days
from repro.workload import VMClass, VMRequest, VMType

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = REPO_ROOT / "BENCH_supply.json"

_RESULTS: dict[str, dict] = {}

_VM_TYPES = (
    VMType("D2", 2, 8.0),
    VMType("D4", 4, 16.0),
    VMType("D8", 8, 32.0),
)


def _record(name: str, **extra) -> None:
    _RESULTS[name] = extra


def _time_once(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


#: Interleaved trials a side behind each ratio gate.
GATE_TRIALS = 7


def _interleaved_min(fn_a, fn_b, k: int = GATE_TRIALS):
    """Min-of-``k`` wall clock of two callables, run alternately.

    Trial ``i`` runs ``fn_a`` first when ``i`` is even and ``fn_b``
    first when it is odd, so load drift hits both sides alike; the
    minimum is each side's least-disturbed run.  Returns
    ``(result_a, result_b, stats)`` with the last results and, per
    side, the min and median seconds.
    """
    times: tuple[list[float], list[float]] = ([], [])
    results: list = [None, None]
    for i in range(k):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results[side], seconds = _time_once((fn_a, fn_b)[side])
            times[side].append(seconds)
    stats = {
        "trials": k,
        "a_min_s": min(times[0]),
        "a_median_s": float(np.median(times[0])),
        "b_min_s": min(times[1]),
        "b_median_s": float(np.median(times[1])),
    }
    return results[0], results[1], stats


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer():
    """Write ``BENCH_supply.json`` after the module's benches ran."""
    yield
    if not _RESULTS:
        return
    cpus = os.cpu_count() or 1
    machine = {
        "cpus": cpus,
        "python": sys.version.split()[0],
    }
    if cpus <= 2:
        # Recorded timings from constrained runners are directional
        # only — treat the intra-run ratios as the signal.
        machine["caveat"] = (
            "recorded on a single-core (or near-single-core) runner; "
            "absolute seconds are pessimistic, compare ratios only"
        )
    payload = {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": machine,
        "benches": dict(sorted(_RESULTS.items())),
    }
    BENCH_JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )
    print(f"\n[supply trajectory written to {BENCH_JSON_PATH}]")


def _fleet_site(site_seed: int, grid) -> tuple:
    """One fleet site-year: three sparse week-scale batch campaigns.

    Mirrors ``bench_sim_sched._fleet_site`` — the shape whose skipped
    steps make the event engine fast, i.e. where added per-run
    composition overhead would show up proportionally largest.
    """
    rng = np.random.default_rng(site_seed)
    trace = synthesize_wind(grid, seed=site_seed, name=f"site{site_seed}")
    requests = []
    vm_id = 0
    for campaign in range(3):
        day = int(rng.integers(campaign * 120, campaign * 120 + 60))
        arrival = day * 96
        for _ in range(400):
            lifetime = int(rng.integers(96, 3 * 96))
            vm_type = _VM_TYPES[rng.integers(0, len(_VM_TYPES))]
            vm_class = (
                VMClass.STABLE if rng.random() < 0.5 else VMClass.DEGRADABLE
            )
            requests.append(
                VMRequest(
                    vm_id,
                    arrival + int(rng.integers(0, 48)),
                    lifetime,
                    vm_type,
                    vm_class,
                )
            )
            vm_id += 1
    return trace, requests


def test_supply_empty_stack_overhead():
    """Year-fleet event run: empty supply stack vs the legacy call.

    The CI gate.  An empty stack is a pass-through — ``Datacenter.run``
    must detect it and take the exact legacy precomputed-budget path,
    so the comparison is plumbing cost only: results identical, min of
    interleaved trials within 1.2x of the legacy call's min.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    sites = [_fleet_site(seed, grid) for seed in range(4)]

    def run(supply):
        return [
            Datacenter(config, trace, supply=supply, supply_mode="open").run(
                requests, engine="event"
            )
            for trace, requests in sites
        ]

    legacy, stacked, timing = _interleaved_min(
        lambda: run(None), lambda: run(SupplyStack())
    )
    for legacy_result, stacked_result in zip(legacy, stacked):
        assert legacy_result.records == stacked_result.records
        assert stacked_result.supply is None
    legacy_s = timing["a_min_s"]
    stacked_s = timing["b_min_s"]
    _record(
        "supply_empty_stack_year_fleet",
        n_steps=grid.n,
        n_sites=len(sites),
        trials=timing["trials"],
        legacy_s=legacy_s,
        legacy_median_s=timing["a_median_s"],
        empty_stack_s=stacked_s,
        empty_stack_median_s=timing["b_median_s"],
        overhead=stacked_s / legacy_s - 1.0,
    )
    assert stacked_s <= legacy_s * 1.2


def test_supply_battery_closed_loop_year():
    """One battery-backed site-year, closed loop, both engines.

    The second CI gate: the closed-loop event path over the SoA step
    kernel must stay within 4x of the legacy open-loop event run of
    the same site, min of interleaved trials against min.  Dispatch is
    stateful at every step, so some multiple is inherent; an order of
    magnitude would mean the per-step work regressed to object-graph
    walking.  The engines stay result-identical.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    trace, requests = _fleet_site(11, grid)
    stack = SupplyStack(
        (BatteryDispatch(capacity_mwh=800.0, max_power_mw=200.0),)
    )

    _, event, timing = _interleaved_min(
        lambda: Datacenter(config, trace).run(requests, engine="event"),
        lambda: Datacenter(config, trace, supply=stack).run(
            requests, engine="event"
        ),
    )
    dense, dense_s = _time_once(
        lambda: Datacenter(config, trace, supply=stack).run(
            requests, engine="dense"
        )
    )
    assert event.records == dense.records
    np.testing.assert_array_equal(
        event.supply.soc_mwh, dense.supply.soc_mwh
    )
    legacy_s = timing["a_min_s"]
    event_s = timing["b_min_s"]
    _record(
        "supply_battery_closed_loop_year",
        n_steps=grid.n,
        trials=timing["trials"],
        legacy_event_s=legacy_s,
        legacy_event_median_s=timing["a_median_s"],
        closed_event_s=event_s,
        closed_event_median_s=timing["b_median_s"],
        closed_dense_s=dense_s,
        closed_event_vs_legacy=event_s / legacy_s,
        charge_mwh=event.supply.charge_total_mwh,
        discharge_mwh=event.supply.discharge_total_mwh,
    )
    # Hard gate: a closed-loop battery year on the event path stays
    # within 4x of the legacy open-loop event run.
    assert event_s <= legacy_s * 4.0


def test_supply_priced_grid_closed_loop_year():
    """Carbon leg: priced closed-loop site-year vs the flat budget.

    The third CI gate.  A constant-price ``always``-policy
    ``PricedGridPower`` is the bitwise degenerate twin of
    ``GridFirmPower`` (pinned in ``tests/test_supply_pricing.py``), so
    the runs are result-identical and the comparison isolates the
    ledger cost: accumulating cost/carbon alongside the budget draw
    must stay within 10% of the flat-budget closed-loop year, min of
    interleaved trials against min.
    """
    grid = grid_days(YEAR_START, 365)
    config = DatacenterConfig()
    trace, requests = _fleet_site(11, grid)
    price = np.full(grid.n, 42.0)
    carbon = np.full(grid.n, 210.0)

    def stack(grid_component):
        # Battery small enough that wind lulls spill onto the grid —
        # the ledger only costs anything on steps that actually import.
        return SupplyStack(
            (
                BatteryDispatch(capacity_mwh=50.0, max_power_mw=15.0),
                grid_component,
            )
        )

    def run(grid_component):
        return Datacenter(
            config,
            trace,
            supply=stack(grid_component),
            supply_mode="closed",
        ).run(requests, engine="event")

    flat, priced, timing = _interleaved_min(
        lambda: run(GridFirmPower(budget_mwh=2000.0, max_power_mw=50.0)),
        lambda: run(
            PricedGridPower(
                budget_mwh=2000.0,
                max_power_mw=50.0,
                price_per_mwh=price,
                carbon_per_mwh=carbon,
                policy="always",
            )
        ),
    )
    flat_s = timing["a_min_s"]
    priced_s = timing["b_min_s"]
    assert flat.records == priced.records
    np.testing.assert_array_equal(
        flat.supply.grid_import_mwh, priced.supply.grid_import_mwh
    )
    imports = priced.supply.grid_import_total_mwh
    assert imports > 0.0
    assert np.isclose(priced.supply.cost_total_usd, imports * 42.0)
    assert np.isclose(priced.supply.carbon_total_kg, imports * 210.0)
    _record(
        "supply_priced_grid_closed_loop_year",
        n_steps=grid.n,
        trials=timing["trials"],
        flat_budget_s=flat_s,
        flat_budget_median_s=timing["a_median_s"],
        priced_s=priced_s,
        priced_median_s=timing["b_median_s"],
        priced_vs_flat=priced_s / flat_s,
        grid_import_mwh=imports,
        cost_usd=priced.supply.cost_total_usd,
        carbon_kg=priced.supply.carbon_total_kg,
    )
    # Hard gate: the cost/carbon ledger is within 10% of flat budget.
    assert priced_s <= flat_s * 1.10


def test_supply_open_loop_evaluation_year():
    """Open-loop battery evaluation over a year trace (35,040 steps).

    The per-step Python dispatch loop is the cost of a non-empty
    open-loop stack (empty stacks never enter it); the bench records
    its throughput.  No gate — this is new capability, not a refactor
    of a hot path.
    """
    grid = grid_days(YEAR_START, 365)
    trace = synthesize_wind(grid, seed=5, name="site")
    stack = SupplyStack(
        (BatteryDispatch(capacity_mwh=800.0, max_power_mw=200.0),)
    )
    evaluation, eval_s = _time_once(lambda: stack.evaluate_open_loop(trace))
    assert len(evaluation.delivered) == grid.n
    _record(
        "supply_open_loop_eval_year",
        n_steps=grid.n,
        eval_s=eval_s,
        steps_per_s=grid.n / eval_s,
        charge_mwh=evaluation.charge_total_mwh,
        discharge_mwh=evaluation.discharge_total_mwh,
    )
