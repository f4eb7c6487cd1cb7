"""Synthetic wind production traces.

Wind speed follows a mean-reverting Ornstein-Uhlenbeck process whose
long-run target is set by the day-scale weather regime (calm / breezy /
stormy).  Speed maps to power through a standard turbine power curve:
zero below cut-in, cubic between cut-in and rated, flat at rated, and a
hard cut-out at storm speeds.  This produces the qualitative wind
behaviour of Figure 2a — sharp peaks and valleys that rarely touch zero
— and the Figure 2b CDF (median well below 20% of peak, modest tail
ratio compared to solar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, TraceError
from ..units import TimeGrid
from .base import PowerTrace
from .weather import (
    RegimeModel,
    default_wind_regimes,
    first_order,
    sample_regime_sequence,
)


@dataclass(frozen=True)
class WindConfig:
    """Parameters of the wind synthesis model.

    Attributes:
        capacity_mw: Rated farm capacity (paper assumes 400 MW).
        mean_speed_ms: Long-run mean wind speed at hub height for a
            ``level=1.0`` regime, metres/second.
        reversion_hours: OU mean-reversion time constant. Shorter values
            give the spikier traces seen at exposed sites.
        speed_volatility_ms: Stationary standard deviation of the OU
            speed fluctuation.
        cut_in_ms: Speed below which turbines produce nothing.
        rated_ms: Speed at which output saturates at capacity.
        cut_out_ms: Storm-protection shutdown speed.
        regime_model: Day-scale regime chain; defaults to calm/breezy/
            stormy.
        n_subfarms: Number of turbine clusters aggregated into the
            site's output.  The paper's "sites" are EMHIRES regional
            series — portfolios of farms whose independent turbulence
            averages out, keeping regional output off the floor even
            when individual turbines idle.  Each sub-farm shares the
            regime-driven mean wind but has independent OU fluctuation;
            site power is the sub-farm average.  Set to 1 for a single
            exposed farm.
    """

    capacity_mw: float = 400.0
    mean_speed_ms: float = 9.5
    reversion_hours: float = 6.0
    speed_volatility_ms: float = 2.8
    cut_in_ms: float = 3.0
    rated_ms: float = 12.0
    cut_out_ms: float = 25.0
    regime_model: RegimeModel | None = None
    n_subfarms: int = 4

    def __post_init__(self) -> None:
        if self.capacity_mw <= 0:
            raise ConfigurationError(
                f"capacity must be positive: {self.capacity_mw}"
            )
        if not 0 < self.cut_in_ms < self.rated_ms < self.cut_out_ms:
            raise ConfigurationError(
                "power curve speeds must satisfy 0 < cut_in < rated < cut_out"
            )
        if self.reversion_hours <= 0 or self.speed_volatility_ms < 0:
            raise ConfigurationError("invalid OU parameters")
        if self.n_subfarms < 1:
            raise ConfigurationError(
                f"n_subfarms must be >= 1: {self.n_subfarms}"
            )
        if self.mean_speed_ms <= 0:
            raise ConfigurationError(
                f"mean speed must be positive: {self.mean_speed_ms}"
            )

    @property
    def regimes(self) -> RegimeModel:
        """The active regime model (default wind regimes if unset)."""
        return self.regime_model or default_wind_regimes()


def turbine_power_curve(speed_ms: np.ndarray, config: WindConfig) -> np.ndarray:
    """Normalized turbine output in [0, 1] for each wind speed.

    Piecewise: 0 below cut-in, cubic ramp to rated, 1 until cut-out,
    0 above cut-out (storm shutdown).
    """
    speed = np.asarray(speed_ms, dtype=float)
    ramp = (speed**3 - config.cut_in_ms**3) / (
        config.rated_ms**3 - config.cut_in_ms**3
    )
    power = np.clip(ramp, 0.0, 1.0)
    power = np.where(speed < config.cut_in_ms, 0.0, power)
    power = np.where(speed >= config.cut_out_ms, 0.0, power)
    return power


def ou_speed_path(
    targets_ms: np.ndarray,
    step_hours: float,
    config: WindConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ornstein-Uhlenbeck wind-speed path tracking per-step targets.

    ``targets_ms`` is the regime-driven long-run mean for every step;
    the OU process relaxes toward it with time constant
    ``config.reversion_hours`` while diffusing with the configured
    stationary volatility.  Speeds are floored at zero.

    The exact recurrence ``s_i = t_i + (s_{i-1} - t_i)·decay + σ·w_i``
    is the linear filter ``s_i = decay·s_{i-1} + x_i`` with input
    ``x_i = (1 - decay)·t_i + σ·w_i``, evaluated here with
    :func:`~repro.traces.weather.first_order`.  RNG draws are consumed
    in the same order as the reference loop (:func:`_ou_speed_path_loop`),
    so outputs agree to float round-off (~1e-14 over a year-long path:
    the filter form groups the terms differently; see the golden tests).
    """
    targets = np.asarray(targets_ms, dtype=float)
    n = len(targets)
    if n == 0:
        return np.empty(0)
    theta = 1.0 / config.reversion_hours
    decay = np.exp(-theta * step_hours)
    innovation = config.speed_volatility_ms * np.sqrt(1.0 - decay**2)
    draws = rng.standard_normal(n)
    state = targets[0] + config.speed_volatility_ms * rng.standard_normal()
    x = targets - decay * targets + innovation * draws
    return np.maximum(first_order(x, decay, state), 0.0)


def _ou_speed_path_loop(
    targets_ms: np.ndarray,
    step_hours: float,
    config: WindConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reference per-step implementation of :func:`ou_speed_path`.

    Kept for the golden equality tests and as executable documentation
    of the recurrence the vectorized kernel evaluates.
    """
    n = len(targets_ms)
    if n == 0:
        return np.empty(0)
    theta = 1.0 / config.reversion_hours
    decay = np.exp(-theta * step_hours)
    innovation = config.speed_volatility_ms * np.sqrt(1.0 - decay**2)
    draws = rng.standard_normal(n)
    path = np.empty(n)
    state = targets_ms[0] + config.speed_volatility_ms * rng.standard_normal()
    for i in range(n):
        state = targets_ms[i] + (state - targets_ms[i]) * decay
        state += innovation * draws[i]
        path[i] = max(state, 0.0)
    return path


def synthesize_wind(
    grid: TimeGrid,
    config: WindConfig | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    name: str = "wind",
    regime_indices: np.ndarray | None = None,
) -> PowerTrace:
    """Generate a synthetic wind :class:`PowerTrace`.

    Args:
        grid: Sampling grid; its step must divide one day evenly.
        config: Model parameters; defaults to a North-Sea-like site.
        rng: Random generator; if omitted, built from ``seed``.
        seed: Convenience seed when ``rng`` is not supplied.
        name: Label for the resulting trace.
        regime_indices: Optional externally-sampled per-day regime
            indices (used by the correlated multi-site synthesizer).

    Returns:
        A normalized wind trace on ``grid``.
    """
    config = config or WindConfig()
    if rng is None:
        rng = np.random.default_rng(seed)
    steps_per_day = grid.steps_per_day()
    if grid.n % steps_per_day:
        raise TraceError(
            f"grid length {grid.n} is not a whole number of days"
            f" ({steps_per_day} steps/day)"
        )
    days = grid.n // steps_per_day
    model = config.regimes
    if regime_indices is None:
        regime_indices = sample_regime_sequence(model, days, rng)
    elif len(regime_indices) != days:
        raise TraceError(
            f"got {len(regime_indices)} regime indices for {days} days"
        )
    # Per-step long-run speed targets from the daily regimes; smooth the
    # day boundaries so regime shifts look like passing fronts rather
    # than square waves.
    levels = np.array([model.regimes[i].level for i in regime_indices])
    targets = np.repeat(levels * config.mean_speed_ms, steps_per_day)
    if len(targets) > 2:
        kernel_width = max(steps_per_day // 4, 1)
        kernel = np.ones(kernel_width) / kernel_width
        targets = np.convolve(targets, kernel, mode="same")
    values = np.zeros(grid.n)
    for _ in range(config.n_subfarms):
        speeds = ou_speed_path(targets, grid.step_hours, config, rng)
        values += turbine_power_curve(speeds, config)
    values /= config.n_subfarms
    return PowerTrace(grid, values, name, "wind", config.capacity_mw)
