"""Performance benchmarks of the library's hot kernels.

Not a paper figure — these keep the substrate fast enough that the
3-month Figure-4 simulation and the Table-1 MIP stay interactive.
pytest-benchmark tracks regressions run-over-run, and every run also
writes a machine-readable ``BENCH_perf_kernels.json`` at the repo root
(per-kernel timings, loop-vs-vectorized speedups, parallel-sweep wall
clocks, CPU count) so the perf trajectory accrues per PR — CI uploads
the file as an artifact.
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
from repro.experiments import (
    ArtifactCache,
    Scenario,
    WorkloadSpec,
    run_scenarios,
)
from repro.forecast import NoisyOracleForecaster
from repro.sched import MIPScheduler, problem_from_forecasts
from repro.traces import synthesize_solar, synthesize_wind, synthesize_catalog_traces
from repro.traces import weather, wind
from repro.traces.weather import (
    _intraday_ar1_loop,
    first_order_lanes,
    intraday_ar1,
)
from repro.traces.wind import WindConfig, _ou_speed_path_loop, ou_speed_path
from repro.units import grid_days
from repro.workload import generate_vm_requests, workload_matched_to_power

from conftest import SEED, START

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON_PATH = REPO_ROOT / "BENCH_perf_kernels.json"

#: One year of 15-minute steps — the paper's Figure-2b synthesis span.
YEAR_STEPS = 365 * 96

_RESULTS: dict[str, dict] = {}


def _stats_dict(benchmark) -> dict:
    """Extract pytest-benchmark stats defensively (empty when the
    benchmark machinery is disabled)."""
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", None)
    if stats is None:
        return {}
    out = {}
    for field in ("mean", "min", "max", "stddev"):
        value = getattr(stats, field, None)
        if value is not None:
            out[f"{field}_s"] = float(value)
    rounds = getattr(stats, "rounds", None)
    if rounds:
        out["rounds"] = int(rounds)
    return out


def _record(name: str, benchmark=None, **extra) -> None:
    """Stash one kernel's timings for the JSON trajectory file."""
    entry = _stats_dict(benchmark) if benchmark is not None else {}
    entry.update(extra)
    _RESULTS[name] = entry


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _lane_counts(monkeypatch, module, fn) -> dict:
    """Lanes and re-run lanes of the first-order paths ``fn`` evaluates
    through ``module.first_order``.  Re-runs are lanes whose warm-up
    guess missed the exact path, so a rise means the guesses got worse."""
    counts = {"lanes": 0, "rerun_lanes": 0}

    def counted(x, a, y0):
        y, lanes, reruns = first_order_lanes(x, a, y0)
        counts["lanes"] += lanes
        counts["rerun_lanes"] += reruns
        return y

    monkeypatch.setattr(module, "first_order", counted)
    fn()
    monkeypatch.undo()
    return counts


@pytest.fixture(scope="module", autouse=True)
def bench_json_writer():
    """Write ``BENCH_perf_kernels.json`` after the module's benches ran."""
    yield
    if not _RESULTS:
        return
    payload = {
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": {
            "cpus": os.cpu_count() or 1,
            "python": sys.version.split()[0],
        },
        "kernels": dict(sorted(_RESULTS.items())),
    }
    BENCH_JSON_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n"
    )
    print(f"\n[perf trajectory written to {BENCH_JSON_PATH}]")


def test_perf_solar_synthesis_year(benchmark):
    grid = grid_days(START, 365)
    trace = benchmark(lambda: synthesize_solar(grid, seed=1))
    assert len(trace) == YEAR_STEPS
    _record("solar_synthesis_year", benchmark)


def test_perf_wind_synthesis_year(benchmark):
    grid = grid_days(START, 365)
    trace = benchmark(lambda: synthesize_wind(grid, seed=1))
    assert len(trace) == YEAR_STEPS
    _record("wind_synthesis_year", benchmark)


def test_perf_ou_kernel_year(benchmark, monkeypatch):
    """Vectorized OU wind-speed kernel vs. the reference Python loop."""
    config = WindConfig()
    targets = np.full(YEAR_STEPS, config.mean_speed_ms)

    result = benchmark(
        lambda: ou_speed_path(
            targets, 0.25, config, np.random.default_rng(3)
        )
    )
    assert len(result) == YEAR_STEPS
    loop_seconds = _time_once(
        lambda: _ou_speed_path_loop(
            targets, 0.25, config, np.random.default_rng(3)
        )
    )
    stats = _stats_dict(benchmark)
    speedup = loop_seconds / stats["mean_s"] if stats.get("mean_s") else None
    lanes = _lane_counts(
        monkeypatch, wind,
        lambda: ou_speed_path(targets, 0.25, config, np.random.default_rng(3)),
    )
    _record(
        "ou_speed_path_year", benchmark,
        loop_seconds=loop_seconds, speedup_vs_loop=speedup, **lanes,
    )
    if speedup is not None:
        assert speedup >= 5.0


def test_perf_ar1_kernel_year(benchmark, monkeypatch):
    """Vectorized AR(1) weather kernel vs. the reference Python loop."""
    result = benchmark(
        lambda: intraday_ar1(
            YEAR_STEPS, 0.28, 0.45, np.random.default_rng(4)
        )
    )
    assert len(result) == YEAR_STEPS
    loop_seconds = _time_once(
        lambda: _intraday_ar1_loop(
            YEAR_STEPS, 0.28, 0.45, np.random.default_rng(4)
        )
    )
    stats = _stats_dict(benchmark)
    speedup = loop_seconds / stats["mean_s"] if stats.get("mean_s") else None
    lanes = _lane_counts(
        monkeypatch, weather,
        lambda: intraday_ar1(YEAR_STEPS, 0.28, 0.45, np.random.default_rng(4)),
    )
    _record(
        "intraday_ar1_year", benchmark,
        loop_seconds=loop_seconds, speedup_vs_loop=speedup, **lanes,
    )
    if speedup is not None:
        assert speedup >= 5.0


def test_perf_parallel_sweep(tmp_path_factory):
    """8-scenario sweep, jobs=1 vs jobs=4, cold caches both times.

    Results must be identical; the wall-clock ratio is the measured
    batch speedup.  The assertion threshold follows the CPUs actually
    available — a single-core container can only record ~1x.
    """
    scenarios = [
        Scenario(
            name=f"bench-sweep-{seed}",
            sites=("BE-wind",),
            grid=grid_days(START, 21),
            workload=WorkloadSpec(kind="vm_requests"),
            seed=seed,
        )
        for seed in range(8)
    ]
    serial_cache = tmp_path_factory.mktemp("sweep-cache-serial")
    parallel_cache = tmp_path_factory.mktemp("sweep-cache-parallel")

    serial = run_scenarios(
        scenarios, jobs=1, backend="serial",
        cache=ArtifactCache(serial_cache),
    )
    parallel = run_scenarios(
        scenarios, jobs=4, backend="process",
        cache=ArtifactCache(parallel_cache),
    )

    assert serial.summaries() == parallel.summaries()
    speedup = serial.fleet.wall_seconds / parallel.fleet.wall_seconds
    cpus = os.cpu_count() or 1
    _record(
        "parallel_sweep_8x21d",
        jobs1_wall_s=serial.fleet.wall_seconds,
        jobs4_wall_s=parallel.fleet.wall_seconds,
        speedup=speedup,
        cpus=cpus,
        workers=sorted({task.worker for task in parallel.fleet.tasks}),
    )
    if cpus >= 4:
        assert speedup >= 2.0
    elif cpus >= 2:
        assert speedup >= 1.2


def test_perf_datacenter_week(benchmark):
    grid = grid_days(START, 7)
    trace = synthesize_wind(grid, seed=2, name="site")
    config = DatacenterConfig()
    workload = workload_matched_to_power(
        float(trace.values.mean()), config.cluster.total_cores
    )
    requests = generate_vm_requests(grid, workload, seed=3)

    def run():
        return Datacenter(config, trace).run(requests)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.records) == grid.n
    _record("datacenter_week", benchmark)


def test_perf_forecast_issue(benchmark):
    grid = grid_days(START, 30)
    trace = synthesize_wind(grid, seed=4, name="site")
    model = NoisyOracleForecaster(seed=5)

    def run():
        return model.forecast(trace, 0, 96 * 7)

    forecast = benchmark(run)
    assert len(forecast) == 96 * 7
    _record("forecast_issue_week", benchmark)


def test_perf_mip_solve(benchmark, catalog, hourly_week_grid):
    from repro.workload import generate_applications

    trio = catalog.subset(["NO-solar", "UK-wind", "PT-wind"])
    traces = synthesize_catalog_traces(trio, hourly_week_grid, seed=SEED)
    total_cores = {name: 28000 for name in traces}
    apps = generate_applications(
        hourly_week_grid, 100, seed=SEED,
        mean_vm_count=30, mean_duration_days=2.0,
    )
    problem = problem_from_forecasts(
        hourly_week_grid, traces, total_cores, apps,
        NoisyOracleForecaster(seed=SEED),
    )

    def run():
        return MIPScheduler(time_limit_s=120.0).schedule(problem)

    placement = benchmark.pedantic(run, rounds=2, iterations=1)
    placement.validate_complete(problem)
    _record("mip_solve_week", benchmark)
