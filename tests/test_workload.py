"""Tests for the workload subpackage."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.units import grid_days
from repro.workload import (
    Application,
    AzureWorkloadConfig,
    VMClass,
    VMRequest,
    VMType,
    arrival_rate_for_utilization,
    default_vm_catalog,
    generate_applications,
    generate_vm_requests,
    workload_matched_to_power,
)


class TestVMTypes:
    def test_catalog_probabilities_sum_to_one(self):
        assert sum(p for _, p in default_vm_catalog()) == pytest.approx(1.0)

    def test_catalog_skewed_small(self):
        small = sum(p for t, p in default_vm_catalog() if t.cores <= 2)
        assert small > 0.6

    def test_vm_type_validation(self):
        with pytest.raises(ConfigurationError):
            VMType("bad", 0, 4.0)
        with pytest.raises(ConfigurationError):
            VMType("bad", 2, 0.0)

    def test_memory_bytes_binary(self):
        assert VMType("D4", 4, 16.0).memory_bytes == 16 * 2**30

    def test_request_validation(self):
        vm_type = VMType("B1", 1, 4.0)
        with pytest.raises(ConfigurationError):
            VMRequest(0, -1, 10, vm_type, VMClass.STABLE)
        with pytest.raises(ConfigurationError):
            VMRequest(0, 0, 0, vm_type, VMClass.STABLE)

    def test_request_accessors(self):
        vm_type = VMType("D8", 8, 32.0)
        request = VMRequest(7, 5, 10, vm_type, VMClass.DEGRADABLE)
        assert request.cores == 8
        assert request.memory_bytes == 32 * 2**30
        assert request.departure_step == 15


class TestAzureWorkload:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(target_utilization=0.0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(total_cores=0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(mean_lifetime_hours=0.0)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(stable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(diurnal_amplitude=1.0)

    def test_bad_catalog_rejected(self):
        bad = ((VMType("B1", 1, 4.0), 0.5),)
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(catalog=bad)

    def test_arrival_rate_littles_law(self):
        config = AzureWorkloadConfig(
            target_utilization=0.7, total_cores=28000,
            mean_lifetime_hours=24.0,
        )
        rate = arrival_rate_for_utilization(config, step_hours=0.25)
        # rate * lifetime_steps * mean_cores == target cores.
        occupied = rate * (24.0 / 0.25) * config.mean_cores_per_vm
        assert occupied == pytest.approx(0.7 * 28000)

    def test_arrival_rate_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            arrival_rate_for_utilization(AzureWorkloadConfig(), 0.0)

    def test_generate_deterministic(self, week_grid):
        a = generate_vm_requests(week_grid, seed=5)
        b = generate_vm_requests(week_grid, seed=5)
        assert len(a) == len(b)
        assert all(
            x.vm_id == y.vm_id and x.arrival_step == y.arrival_step
            for x, y in zip(a, b)
        )

    def test_generate_sorted_and_dense_ids(self, week_grid):
        requests = generate_vm_requests(week_grid, seed=5)
        steps = [r.arrival_step for r in requests]
        assert steps == sorted(steps)
        assert sorted(r.vm_id for r in requests) == list(range(len(requests)))

    def test_generate_arrivals_within_grid(self, week_grid):
        requests = generate_vm_requests(week_grid, seed=5)
        assert all(0 <= r.arrival_step < week_grid.n for r in requests)

    def test_warm_start_populates_step_zero(self, week_grid):
        warm = generate_vm_requests(week_grid, seed=5, warm_start=True)
        cold = generate_vm_requests(week_grid, seed=5, warm_start=False)
        warm_zero = sum(1 for r in warm if r.arrival_step == 0)
        cold_zero = sum(1 for r in cold if r.arrival_step == 0)
        assert warm_zero > cold_zero + 100

    def test_steady_state_utilization_near_target(self):
        # Run Little's law forward: count core-steps demanded.
        grid = grid_days(datetime(2020, 5, 1), 14)
        config = AzureWorkloadConfig(
            target_utilization=0.5, total_cores=10000,
            diurnal_amplitude=0.0,
        )
        requests = generate_vm_requests(grid, config, seed=9)
        occupancy = np.zeros(grid.n)
        for request in requests:
            end = min(grid.n, request.departure_step)
            occupancy[request.arrival_step : end] += request.cores
        # Skip the first 2 days of residual warm-up noise.
        mean_util = occupancy[192:].mean() / config.total_cores
        assert mean_util == pytest.approx(0.5, rel=0.15)

    def test_stable_fraction_respected(self, week_grid):
        config = AzureWorkloadConfig(stable_fraction=0.8)
        requests = generate_vm_requests(week_grid, config, seed=5)
        stable = sum(1 for r in requests if r.vm_class is VMClass.STABLE)
        assert stable / len(requests) == pytest.approx(0.8, abs=0.05)

    def test_matched_workload_scales_demand(self):
        matched = workload_matched_to_power(0.3, 28000, 0.7)
        assert matched.target_utilization == pytest.approx(0.21)
        assert matched.total_cores == 28000

    def test_matched_workload_validation(self):
        with pytest.raises(ConfigurationError):
            workload_matched_to_power(0.0, 28000)

    def test_lifetimes_heavy_tailed(self, month_grid):
        requests = generate_vm_requests(month_grid, seed=5)
        lifetimes = np.array([r.lifetime_steps for r in requests])
        # Median well below mean is the log-normal signature.
        assert np.median(lifetimes) < 0.6 * lifetimes.mean()


class TestApplications:
    def test_application_validation(self):
        vm_type = VMType("B2", 2, 8.0)
        with pytest.raises(ConfigurationError):
            Application(0, -1, 10, 5, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 0, 5, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 10, 0, vm_type)
        with pytest.raises(ConfigurationError):
            Application(0, 0, 10, 5, vm_type, stable_fraction=2.0)

    def test_application_core_accounting(self):
        app = Application(0, 0, 10, 10, VMType("B2", 2, 8.0), 0.5)
        assert app.total_cores == 20
        assert app.stable_cores == 10
        assert app.degradable_cores == 10
        assert app.stable_cores + app.degradable_cores == app.total_cores

    def test_application_memory_and_end(self):
        app = Application(0, 4, 6, 3, VMType("B1", 1, 4.0))
        assert app.total_memory_bytes == 3 * 4 * 2**30
        assert app.end_step == 10

    def test_generate_applications_deterministic(self, week_grid):
        a = generate_applications(week_grid, 50, seed=3)
        b = generate_applications(week_grid, 50, seed=3)
        assert [x.app_id for x in a] == [y.app_id for y in b]
        assert [x.vm_count for x in a] == [y.vm_count for y in b]

    def test_generate_applications_bounds(self, week_grid):
        apps = generate_applications(week_grid, 100, seed=3)
        assert len(apps) == 100
        for app in apps:
            assert 0 <= app.arrival_step < week_grid.n
            assert app.end_step <= week_grid.n
            assert app.vm_count >= 1

    def test_generate_applications_validation(self, week_grid):
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, -1)
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, 5, mean_vm_count=0.5)
        with pytest.raises(ConfigurationError):
            generate_applications(week_grid, 5, arrival_window_fraction=0.0)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_generate_applications_count(self, n):
        grid = grid_days(datetime(2020, 5, 1), 7)
        assert len(generate_applications(grid, n, seed=1)) == n


def _choice_reference_requests(grid, config, rng):
    """``generate_vm_requests`` as it drew each VM's size with
    ``Generator.choice``, as ``(id, arrival, lifetime, type, class)``."""
    step_hours = grid.step_hours
    base_rate = arrival_rate_for_utilization(config, step_hours)
    rates = base_rate * (1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * (grid.hour_of_day() - 9.0) / 24.0
    ))
    types = [t for t, _ in config.catalog]
    probabilities = np.array([p for _, p in config.catalog])
    sigma = config.lifetime_sigma
    mu = np.log(config.mean_lifetime_hours) - sigma**2 / 2.0
    rows = []

    def draw(arrival, lifetime):
        vm_type = types[rng.choice(len(types), p=probabilities)]
        stable = rng.random() < config.stable_fraction
        rows.append((len(rows), arrival, lifetime, vm_type, stable))

    mean_lifetime_steps = config.mean_lifetime_hours / step_hours
    for _ in range(rng.poisson(base_rate * mean_lifetime_steps)):
        hours = rng.lognormal(mu + sigma**2, sigma)
        lifetime = max(1, int(round(hours / step_hours)))
        draw(0, max(1, int(np.ceil(lifetime * rng.random()))))
    for step in range(grid.n):
        for _ in range(rng.poisson(rates[step])):
            hours = rng.lognormal(mu, sigma)
            draw(step, max(1, int(round(hours / step_hours))))
    return sorted(rows, key=lambda row: (row[1], row[0]))


class TestSizeDrawMatchesChoice:
    """VM sizes are drawn by inverting the catalog CDF with ``bisect``;
    the draws, and the generator's state after them, are ``choice``'s."""

    ODD_CATALOG = (
        (VMType("S", 1, 2.0), 0.0),
        (VMType("M", 3, 12.0), 0.45),
        (VMType("L", 12, 96.0), 0.0),
        (VMType("XL", 24, 96.0), 0.55),
    )

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("catalog", ["default", "odd"])
    def test_vm_requests(self, week_grid, seed, catalog):
        overrides = {} if catalog == "default" else {
            "catalog": self.ODD_CATALOG
        }
        config = AzureWorkloadConfig(total_cores=4000, **overrides)
        rng = np.random.default_rng(seed)
        requests = generate_vm_requests(week_grid, config, rng=rng)
        reference = np.random.default_rng(seed)
        want = _choice_reference_requests(week_grid, config, reference)
        assert [
            (r.vm_id, r.arrival_step, r.lifetime_steps, r.vm_type,
             r.vm_class is VMClass.STABLE)
            for r in requests
        ] == want
        assert len(want) > 100
        assert rng.random() == reference.random()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_applications(self, week_grid, seed):
        rng = np.random.default_rng(seed)
        apps = generate_applications(week_grid, 200, rng=rng)
        reference = np.random.default_rng(seed)
        types = [t for t, _ in default_vm_catalog()]
        probabilities = np.array([p for _, p in default_vm_catalog()])
        want = []
        for app_id in range(200):
            arrival = int(reference.integers(0, int(week_grid.n * 0.5)))
            reference.exponential(3.0)
            vm_count = 1 + reference.geometric(1.0 / 24.0)
            vm_type = types[reference.choice(len(types), p=probabilities)]
            want.append((app_id, arrival, int(vm_count), vm_type))
        got = sorted((a.app_id, a.arrival_step, a.vm_count, a.vm_type)
                     for a in apps)
        assert got == want
        assert rng.random() == reference.random()

    def test_negative_probability_rejected(self):
        bad = ((VMType("B1", 1, 4.0), 1.5), (VMType("B2", 2, 8.0), -0.5))
        with pytest.raises(ConfigurationError):
            AzureWorkloadConfig(catalog=bad)

