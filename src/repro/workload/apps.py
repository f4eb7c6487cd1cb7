"""Applications: the co-scheduler's unit of placement.

§3.1 schedules *applications*, each requesting a number of VMs, onto a
group of VB sites.  An application carries its VM count, per-VM size,
class mix, and duration; the scheduler decides which site(s) host it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import TimeGrid
from .vmtypes import VMType, catalog_cdf, default_vm_catalog


@dataclass(frozen=True)
class Application:
    """A scheduling request: ``vm_count`` identical VMs for a duration.

    Attributes:
        app_id: Unique id.
        arrival_step: Step at which the application must be placed.
        duration_steps: How long its VMs run.
        vm_count: Number of VMs requested.
        vm_type: Size of each VM.
        stable_fraction: Fraction of the VMs that are STABLE (the rest
            are DEGRADABLE and absorb power dips in place).
    """

    app_id: int
    arrival_step: int
    duration_steps: int
    vm_count: int
    vm_type: VMType
    stable_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.arrival_step < 0:
            raise ConfigurationError(
                f"negative arrival step: {self.arrival_step}"
            )
        if self.duration_steps < 1:
            raise ConfigurationError(
                f"duration must be >= 1: {self.duration_steps}"
            )
        if self.vm_count < 1:
            raise ConfigurationError(f"vm_count must be >= 1: {self.vm_count}")
        if not 0.0 <= self.stable_fraction <= 1.0:
            raise ConfigurationError(
                f"stable fraction must be in [0,1]: {self.stable_fraction}"
            )

    @property
    def total_cores(self) -> int:
        """Cores requested across all the application's VMs."""
        return self.vm_count * self.vm_type.cores

    @property
    def stable_cores(self) -> int:
        """Cores belonging to the STABLE share of the VMs."""
        return round(self.stable_fraction * self.vm_count) * self.vm_type.cores

    @property
    def degradable_cores(self) -> int:
        """Cores belonging to the DEGRADABLE share of the VMs."""
        return self.total_cores - self.stable_cores

    @property
    def total_memory_bytes(self) -> float:
        """Memory footprint across all the application's VMs, bytes."""
        return self.vm_count * self.vm_type.memory_bytes

    @property
    def end_step(self) -> int:
        """First step at which the application is gone."""
        return self.arrival_step + self.duration_steps


def generate_applications(
    grid: TimeGrid,
    count: int,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    mean_vm_count: float = 24.0,
    mean_duration_days: float = 3.0,
    stable_fraction: float = 0.5,
    arrival_window_fraction: float = 0.5,
) -> list[Application]:
    """Generate a stream of applications for the co-scheduler evaluation.

    Args:
        grid: Simulation time grid.
        count: Number of applications.
        rng: Random generator; if omitted, built from ``seed``.
        seed: Convenience seed when ``rng`` is not supplied.
        mean_vm_count: Mean of the (geometric) VM-count distribution.
        mean_duration_days: Mean application duration; durations are
            exponential, truncated to the grid.
        stable_fraction: STABLE share of each application's VMs.
        arrival_window_fraction: Applications arrive uniformly over the
            first this-fraction of the grid, so every app overlaps a
            meaningful amount of future (the MIP needs lookahead to act
            on).

    Returns:
        Applications sorted by arrival step.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0: {count}")
    if mean_vm_count < 1:
        raise ConfigurationError(
            f"mean_vm_count must be >= 1: {mean_vm_count}"
        )
    if not 0.0 < arrival_window_fraction <= 1.0:
        raise ConfigurationError(
            "arrival_window_fraction must be in (0,1]:"
            f" {arrival_window_fraction}"
        )
    if rng is None:
        rng = np.random.default_rng(seed)
    catalog = default_vm_catalog()
    types = [t for t, _ in catalog]
    size_cdf = catalog_cdf(catalog)
    per_day = grid.steps_per_day()
    arrival_limit = max(1, int(grid.n * arrival_window_fraction))

    applications: list[Application] = []
    for app_id in range(count):
        arrival = int(rng.integers(0, arrival_limit))
        duration = max(
            1,
            min(
                grid.n - arrival,
                int(round(rng.exponential(mean_duration_days) * per_day)),
            ),
        )
        vm_count = 1 + rng.geometric(1.0 / mean_vm_count)
        vm_type = types[bisect_right(size_cdf, rng.random())]
        applications.append(
            Application(
                app_id, arrival, duration, int(vm_count), vm_type,
                stable_fraction,
            )
        )
    applications.sort(key=lambda a: (a.arrival_step, a.app_id))
    return applications
