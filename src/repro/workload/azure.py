"""Azure-like synthetic VM arrival trace.

Arrivals are Poisson with a mild diurnal modulation (cloud demand peaks
in working hours), sizes draw from the catalog mix, and lifetimes are
log-normal — the public Azure 2019 trace shows a heavy right tail where
most VMs live minutes-to-hours but a meaningful minority runs for days
and dominates core-hours.  The arrival rate is derived from the target
steady-state utilization via Little's law, so the generated load matches
the paper's "cluster running at 70% utilization" setup by construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..units import TimeGrid
from .vmtypes import VMClass, VMRequest, VMType, catalog_cdf, default_vm_catalog


@dataclass(frozen=True)
class AzureWorkloadConfig:
    """Parameters of the synthetic Azure-like workload.

    Attributes:
        target_utilization: Desired steady-state core utilization of the
            cluster the workload is aimed at (paper: 0.7).
        total_cores: Core capacity of that cluster (paper: ~700 servers
            x 40 cores = 28,000).
        mean_lifetime_hours: Mean VM lifetime (log-normal mean).
        lifetime_sigma: Log-normal shape; ~1.5 gives the heavy tail
            where the longest VMs dominate core-hours.
        stable_fraction: Probability a VM is STABLE rather than
            DEGRADABLE.
        diurnal_amplitude: Relative day/night swing of the arrival rate
            (0 = flat Poisson, 0.3 = 30% swing around the mean).
        catalog: (type, probability) size mix.
    """

    target_utilization: float = 0.70
    total_cores: int = 700 * 40
    mean_lifetime_hours: float = 24.0
    lifetime_sigma: float = 1.5
    stable_fraction: float = 0.5
    diurnal_amplitude: float = 0.25
    catalog: tuple[tuple[VMType, float], ...] = field(
        default_factory=lambda: tuple(default_vm_catalog())
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization <= 1.0:
            raise ConfigurationError(
                f"target utilization must be in (0,1]: {self.target_utilization}"
            )
        if self.total_cores <= 0:
            raise ConfigurationError(
                f"total cores must be positive: {self.total_cores}"
            )
        if self.mean_lifetime_hours <= 0 or self.lifetime_sigma <= 0:
            raise ConfigurationError("invalid lifetime parameters")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ConfigurationError(
                f"stable fraction must be in [0,1]: {self.stable_fraction}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal amplitude must be in [0,1): {self.diurnal_amplitude}"
            )
        if any(p < 0 for _, p in self.catalog):
            raise ConfigurationError("catalog probabilities must be >= 0")
        total_p = sum(p for _, p in self.catalog)
        if not np.isclose(total_p, 1.0, atol=1e-9):
            raise ConfigurationError(
                f"catalog probabilities sum to {total_p}, expected 1"
            )

    @property
    def mean_cores_per_vm(self) -> float:
        """Expected cores of a freshly drawn VM."""
        return sum(t.cores * p for t, p in self.catalog)


def arrival_rate_for_utilization(
    config: AzureWorkloadConfig, step_hours: float
) -> float:
    """Mean VM arrivals per step that sustain the target utilization.

    Little's law: in steady state, occupied cores equal
    ``rate * mean_lifetime * mean_cores``; solve for rate such that
    occupied cores equal ``target_utilization * total_cores``.
    """
    if step_hours <= 0:
        raise ConfigurationError(f"step_hours must be positive: {step_hours}")
    mean_lifetime_steps = config.mean_lifetime_hours / step_hours
    target_cores = config.target_utilization * config.total_cores
    return target_cores / (mean_lifetime_steps * config.mean_cores_per_vm)


def workload_matched_to_power(
    mean_norm_power: float,
    total_cores: int,
    utilization: float = 0.70,
    **overrides,
) -> AzureWorkloadConfig:
    """Workload whose steady-state demand fits the site's average power.

    A VB site can only run ``mean_norm_power`` of its cores on average;
    a demand stream sized for the full cluster would leave the admission
    queue permanently backlogged (every minor power gain would trigger
    launches, hiding the paper's ">80% of power changes are silent"
    behaviour).  This helper targets ``utilization`` of the *average
    powered* capacity instead, which is how a provider would size the
    tenancy of a renewable-backed site.

    Args:
        mean_norm_power: Average normalized generation of the site.
        total_cores: Cluster core capacity.
        utilization: Utilization target against powered capacity.
        **overrides: Extra :class:`AzureWorkloadConfig` fields.
    """
    if not 0.0 < mean_norm_power <= 1.0:
        raise ConfigurationError(
            f"mean power must be in (0,1]: {mean_norm_power}"
        )
    return AzureWorkloadConfig(
        target_utilization=min(1.0, utilization * mean_norm_power),
        total_cores=total_cores,
        **overrides,
    )


def generate_vm_requests(
    grid: TimeGrid,
    config: AzureWorkloadConfig | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    warm_start: bool = True,
) -> list[VMRequest]:
    """Generate the VM arrival trace for ``grid``.

    Args:
        grid: Simulation time grid.
        config: Workload parameters.
        rng: Random generator; if omitted, built from ``seed``.
        seed: Convenience seed when ``rng`` is not supplied.
        warm_start: If True, also generate the VMs that would already be
            running at step 0 (arrivals from before the window whose
            lifetimes overlap it, approximated as step-0 arrivals with
            residual lifetimes), so utilization starts near target
            instead of ramping from an empty cluster.

    Returns:
        Requests sorted by arrival step, ids dense from 0.
    """
    config = config or AzureWorkloadConfig()
    if rng is None:
        rng = np.random.default_rng(seed)
    step_hours = grid.step_hours
    base_rate = arrival_rate_for_utilization(config, step_hours)
    hour_of_day = grid.hour_of_day()
    # Demand peaks mid-afternoon (hour 15) with the configured amplitude.
    modulation = 1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * (hour_of_day - 9.0) / 24.0
    )
    rates = base_rate * modulation

    types = [t for t, _ in config.catalog]
    size_cdf = catalog_cdf(config.catalog)
    # Log-normal with the requested mean: mean = exp(mu + sigma^2/2).
    sigma = config.lifetime_sigma
    mu = np.log(config.mean_lifetime_hours) - sigma**2 / 2.0

    requests: list[VMRequest] = []
    vm_id = 0

    def draw_vm(arrival: int, lifetime_steps: int) -> VMRequest:
        nonlocal vm_id
        vm_type = types[bisect_right(size_cdf, rng.random())]
        vm_class = (
            VMClass.STABLE
            if rng.random() < config.stable_fraction
            else VMClass.DEGRADABLE
        )
        request = VMRequest(vm_id, arrival, lifetime_steps, vm_type, vm_class)
        vm_id += 1
        return request

    if warm_start and grid.n > 0:
        # Steady-state population: the number in system is Poisson with
        # mean rate * E[lifetime] (Little's law).  VMs observed at a
        # random instant have *length-biased* lifetimes; for a
        # log-normal(mu, sigma) the length-biased distribution is
        # log-normal(mu + sigma^2, sigma), and the residual is a uniform
        # fraction of the (biased) total.  Without the bias the
        # long-lived stock that dominates core-hours is underweighted
        # and utilization starts far below target.
        mean_lifetime_steps = config.mean_lifetime_hours / step_hours
        n_initial = rng.poisson(base_rate * mean_lifetime_steps)
        for _ in range(n_initial):
            lifetime_hours = rng.lognormal(mu + sigma**2, sigma)
            lifetime_steps = max(1, int(round(lifetime_hours / step_hours)))
            residual = max(1, int(np.ceil(lifetime_steps * rng.random())))
            requests.append(draw_vm(0, residual))

    for step in range(grid.n):
        for _ in range(rng.poisson(rates[step])):
            lifetime_hours = rng.lognormal(mu, sigma)
            lifetime_steps = max(1, int(round(lifetime_hours / step_hours)))
            requests.append(draw_vm(step, lifetime_steps))

    requests.sort(key=lambda r: (r.arrival_step, r.vm_id))
    return requests
