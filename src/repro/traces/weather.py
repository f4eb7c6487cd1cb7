"""Weather regime processes driving the synthetic traces.

The paper's Figure 2a highlights three qualitative solar-day types —
sunny, variable (spiky clouds), and overcast — and wind days that swing
between calm and stormy.  We model day-scale weather as a first-order
Markov chain over named regimes, and intra-day fluctuation as an AR(1)
process whose parameters depend on the active regime.

Spatial structure matters for §2.3 (complementary nearby sites): regimes
at different sites are drawn from a shared latent Gaussian field whose
correlation decays with distance, so close sites see similar weather and
distant ones are nearly independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

#: Longest path :func:`first_order` runs as a plain-float loop (see there).
FIRST_ORDER_LOOP_MAX = 4096


@dataclass(frozen=True)
class WeatherRegime:
    """One day-scale weather state.

    Attributes:
        name: Label, e.g. ``"sunny"`` or ``"stormy"``.
        level: Mean modulation applied to the clear-sky / base process
            (1.0 = unattenuated, 0.05 = heavy overcast).
        volatility: Standard deviation of intra-day AR(1) fluctuation.
        persistence: AR(1) coefficient of the intra-day fluctuation in
            (0, 1); high values give slow drifts, low values give spiky
            sample-to-sample variation.
    """

    name: str
    level: float
    volatility: float
    persistence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.5:
            raise ConfigurationError(f"regime level out of range: {self.level}")
        if self.volatility < 0:
            raise ConfigurationError(f"negative volatility: {self.volatility}")
        if not 0.0 < self.persistence < 1.0:
            raise ConfigurationError(
                f"persistence must be in (0,1): {self.persistence}"
            )


@dataclass(frozen=True)
class RegimeModel:
    """A Markov chain over :class:`WeatherRegime` states.

    Attributes:
        regimes: The states, in a fixed order.
        transition: Row-stochastic matrix; ``transition[i][j]`` is the
            probability of moving from regime ``i`` today to ``j``
            tomorrow.
        initial: Initial distribution over regimes.
    """

    regimes: tuple[WeatherRegime, ...]
    transition: np.ndarray
    initial: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.regimes)
        transition = np.asarray(self.transition, dtype=float)
        initial = np.asarray(self.initial, dtype=float)
        if transition.shape != (k, k):
            raise ConfigurationError(
                f"transition matrix shape {transition.shape} != ({k}, {k})"
            )
        if initial.shape != (k,):
            raise ConfigurationError(f"initial shape {initial.shape} != ({k},)")
        if np.any(transition < 0) or np.any(initial < 0):
            raise ConfigurationError("probabilities must be non-negative")
        if not np.allclose(transition.sum(axis=1), 1.0, atol=1e-9):
            raise ConfigurationError("transition rows must each sum to 1")
        if not np.isclose(initial.sum(), 1.0, atol=1e-9):
            raise ConfigurationError("initial distribution must sum to 1")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial", initial)

    @property
    def names(self) -> tuple[str, ...]:
        """Regime names in state order."""
        return tuple(r.name for r in self.regimes)

    def by_name(self, name: str) -> WeatherRegime:
        """Look up a regime by its name."""
        for regime in self.regimes:
            if regime.name == name:
                return regime
        raise KeyError(f"no regime named {name!r}")


def default_solar_regimes() -> RegimeModel:
    """The three solar day types of Figure 2a with plausible persistence.

    Sunny days dominate and persist; overcast days can depress peak
    production to a few percent of capacity (the paper observes 3.5%
    vs. 77% on consecutive days); variable days produce spiky output.
    """
    sunny = WeatherRegime("sunny", level=1.0, volatility=0.03, persistence=0.85)
    variable = WeatherRegime("variable", level=0.6, volatility=0.28, persistence=0.45)
    overcast = WeatherRegime("overcast", level=0.07, volatility=0.04, persistence=0.80)
    transition = np.array(
        [
            [0.62, 0.25, 0.13],
            [0.40, 0.35, 0.25],
            [0.30, 0.30, 0.40],
        ]
    )
    initial = np.array([0.5, 0.3, 0.2])
    return RegimeModel((sunny, variable, overcast), transition, initial)


def default_wind_regimes() -> RegimeModel:
    """Wind day types: calm, breezy, stormy.

    ``level`` here modulates the *mean wind speed* target of the OU
    process (see :mod:`repro.traces.wind`), not the power directly.
    """
    calm = WeatherRegime("calm", level=0.48, volatility=0.10, persistence=0.90)
    breezy = WeatherRegime("breezy", level=0.70, volatility=0.18, persistence=0.80)
    stormy = WeatherRegime("stormy", level=1.10, volatility=0.30, persistence=0.70)
    transition = np.array(
        [
            [0.55, 0.35, 0.10],
            [0.30, 0.45, 0.25],
            [0.15, 0.45, 0.40],
        ]
    )
    initial = np.array([0.4, 0.4, 0.2])
    return RegimeModel((calm, breezy, stormy), transition, initial)


def sample_regime_sequence(
    model: RegimeModel, days: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``days`` regime indices from the Markov chain.

    All uniforms are drawn up front (``rng.random(days)`` consumes the
    generator stream exactly like ``days`` scalar draws) and each step
    inverts the relevant row CDF with ``searchsorted`` — the same
    normalize-then-``searchsorted(side="right")`` arithmetic
    ``Generator.choice(k, p=...)`` performs internally, so the states
    and the RNG stream are bit-identical to the per-day ``choice``
    loop this replaces, at a fraction of its per-call overhead.

    Returns:
        Integer array of regime indices into ``model.regimes``.
    """
    if days < 0:
        raise ConfigurationError(f"days must be >= 0, got {days}")
    states = np.empty(days, dtype=int)
    if days == 0:
        return states
    initial_cdf = np.cumsum(model.initial)
    initial_cdf /= initial_cdf[-1]
    transition_cdf = np.cumsum(model.transition, axis=1)
    transition_cdf /= transition_cdf[:, -1:]
    uniforms = rng.random(days)
    states[0] = initial_cdf.searchsorted(uniforms[0], side="right")
    for day in range(1, days):
        states[day] = transition_cdf[states[day - 1]].searchsorted(
            uniforms[day], side="right"
        )
    return states


def regime_sequence_from_latent(
    model: RegimeModel, latent: np.ndarray
) -> np.ndarray:
    """Map latent standard-normal draws to regime indices.

    Used for spatially-correlated multi-site synthesis: each site gets a
    latent normal per day (correlated across sites), and the normal's CDF
    quantile selects the regime according to the chain's stationary
    distribution.  Persistence across days comes from blending with the
    previous day's latent before calling this (see
    :func:`correlated_daily_latents`).

    The CDF is ``0.5·erfc(-z/√2)``.  It and :func:`scipy.special.ndtr`
    both lie within ~1e-15 of the true value, so only quantiles within
    1e-12 of an edge could pick different regimes; those are recomputed
    with ``ndtr``, which makes the indices exactly ``ndtr``'s.
    """
    stationary = stationary_distribution(model)
    # Map quantiles to regimes through the stationary CDF.
    edges = np.cumsum(stationary)
    z = np.asarray(latent, dtype=float)
    root2 = math.sqrt(2.0)
    quantiles = np.array(
        [0.5 * math.erfc(-v / root2) for v in z.ravel().tolist()]
    ).reshape(z.shape)
    near = (np.abs(quantiles[..., None] - edges) < 1e-12).any(-1)
    if near.any():
        from scipy.special import ndtr

        quantiles[near] = ndtr(z[near])
    return np.searchsorted(edges, quantiles, side="right").clip(
        0, len(model.regimes) - 1
    )


def stationary_distribution(model: RegimeModel) -> np.ndarray:
    """Stationary distribution of the regime Markov chain."""
    k = len(model.regimes)
    # Solve pi P = pi, sum(pi) = 1 via the standard augmented system.
    a = np.vstack([model.transition.T - np.eye(k), np.ones(k)])
    b = np.concatenate([np.zeros(k), [1.0]])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0, None)
    return pi / pi.sum()


def distance_correlation_matrix(
    distances_km: np.ndarray, length_scale_km: float = 600.0
) -> np.ndarray:
    """Exponential-decay spatial correlation from a distance matrix.

    ``corr[i, j] = exp(-d_ij / length_scale)``: sites a few hundred km
    apart share most of their weather, sites across the continent are
    nearly independent — the property §2.3 exploits for complementarity.
    """
    distances = np.asarray(distances_km, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ConfigurationError(
            f"distance matrix must be square, got {distances.shape}"
        )
    if length_scale_km <= 0:
        raise ConfigurationError(
            f"length scale must be positive, got {length_scale_km}"
        )
    corr = np.exp(-distances / length_scale_km)
    np.fill_diagonal(corr, 1.0)
    return corr


def correlated_daily_latents(
    correlation: np.ndarray,
    days: int,
    rng: np.random.Generator,
    day_persistence: float = 0.55,
) -> np.ndarray:
    """Latent standard-normal field: shape ``(days, n_sites)``.

    Spatially correlated via the Cholesky factor of ``correlation`` and
    temporally AR(1)-persistent across days, so weather systems both span
    nearby sites and linger for multiple days.
    """
    if not 0.0 <= day_persistence < 1.0:
        raise ConfigurationError(
            f"day persistence must be in [0,1): {day_persistence}"
        )
    n_sites = correlation.shape[0]
    # Jitter the diagonal so nearly-singular matrices (duplicate sites)
    # still factor.
    chol = np.linalg.cholesky(correlation + 1e-9 * np.eye(n_sites))
    latents = np.empty((days, n_sites))
    innovation_scale = np.sqrt(1.0 - day_persistence**2)
    state = chol @ rng.standard_normal(n_sites)
    for day in range(days):
        if day:
            noise = chol @ rng.standard_normal(n_sites)
            state = day_persistence * state + innovation_scale * noise
        latents[day] = state
    return latents


def intraday_ar1(
    n_steps: int,
    volatility: float,
    persistence: float,
    rng: np.random.Generator,
    initial: float = 0.0,
) -> np.ndarray:
    """Zero-mean AR(1) fluctuation path with stationary std ``volatility``.

    Evaluated as :func:`first_order` (``y_i = persistence·y_{i-1} +
    x_i``) over ``x = innovation·draws``; that performs the identical
    floating-point operations in the identical order, so the output is
    bit-for-bit equal to the reference loop (:func:`_intraday_ar1_loop`,
    golden-tested).
    """
    if n_steps <= 0:
        return np.empty(0)
    innovation = volatility * np.sqrt(1.0 - persistence**2)
    draws = rng.standard_normal(n_steps)
    return first_order(innovation * draws, persistence, initial)


def first_order(x: np.ndarray, a: float, y0: float) -> np.ndarray:
    """The recursion ``y_i = a·y_{i-1} + x_i`` from ``y_{-1} = y0``.

    Each output is one float64 multiply and one add on the exact
    previous output, as in a plain-float loop (and in
    :func:`scipy.signal.lfilter` for ``b=[1], a=[1, -a]`` on finite
    input), so the result is the loop's bit for bit whatever the data;
    see :func:`first_order_lanes`.
    """
    return first_order_lanes(x, a, y0)[0]


def first_order_lanes(
    x: np.ndarray, a: float, y0: float
) -> tuple[np.ndarray, int, int]:
    """:func:`first_order` and its lane counts: ``(y, lanes, reruns)``.

    Paths of up to :data:`FIRST_ORDER_LOOP_MAX` steps run the loop.  A
    longer path is cut into chunks, one *lane* each, and all lanes
    advance together, one ``multiply`` and one ``add`` a step.  Lane 0
    starts from ``y0``.  Lane ``k`` starts a warm-up before its chunk
    from a guess of the state there: the last ``window`` inputs weighted
    by powers of ``a`` (``|a|**window < 2**-64``; ``y0`` is the input
    before the path).  The warm-up shrinks the guess's error by
    ``|a|**warm <= 2**-10``.  A lane is accepted only if its value at
    the step before its chunk equals lane ``k-1``'s last value bit for
    bit (as ``uint64``, so signed zeros and NaN payloads count): from
    equal state both do the same IEEE operations on the same inputs, so
    an accepted lane is exact by induction over the lanes.  A rejected
    lane is re-run with the loop from its exact predecessor, so the data
    can slow the kernel but never change its output.  The loop also
    runs the whole path when ``|a| >= 1`` (the recursion never forgets
    its start) or when the path holds fewer than eight lane spans (the
    loop is then faster).
    """
    x = np.asarray(x, dtype=float)
    a, y0, n = float(a), float(y0), len(x)
    geometry = _lane_geometry(a)
    if (
        n <= FIRST_ORDER_LOOP_MAX
        or geometry is None
        or n < 8 * (geometry[0] + geometry[1])
    ):
        return _first_order_loop(x, a, y0), 1, 0
    warm, chunk, window = geometry
    span = warm + chunk
    lanes = -(-(n - warm) // chunk)
    # ``window`` zeros, y0, the path, and zeros to the end of the last lane.
    padded = np.zeros(window + 1 + (lanes - 1) * chunk + span)
    padded[window] = y0
    padded[window + 1 : window + 1 + n] = x
    strided, item = np.lib.stride_tricks.as_strided, padded.itemsize
    # lanes_x[j, k] = x_{k·chunk + j}: a row a step, a column a lane.
    lanes_x = strided(
        padded[window + 1 :], (span, lanes), (item, chunk * item)
    ).copy()
    # Lane k's guess of y_{k·chunk - 1}: the window of inputs ending there.
    history = strided(
        padded[chunk + 1 :], (lanes - 1, window), (chunk * item, item)
    )
    state = np.empty(lanes)
    state[0] = y0
    state[1:] = history @ a ** np.arange(window - 1, -1, -1)
    # Each step overwrites its row of inputs with the lanes' outputs;
    # ``a`` as an array and positional ``out`` make the cheapest calls.
    coefficient, product = np.full(lanes, a), np.empty(lanes)
    multiply, add = np.multiply, np.add
    for row in lanes_x:
        multiply(state, coefficient, product)
        add(product, row, row)
        state = row
    # Lane 0 from its first step, every other lane from its chunk on.
    y = np.concatenate((lanes_x[:warm, 0], lanes_x[warm:].T.ravel()))[:n]
    bits = y.view(np.uint64)
    joins = lanes_x[warm - 1].view(np.uint64)
    rejected = np.flatnonzero(
        joins[1:] != bits[warm - 1 + chunk * np.arange(1, lanes)]
    )
    # A re-run changes its lane's last value, so the next lane is checked
    # again; the first lane accepted ends the chain, and the lanes after
    # it keep the verdicts computed above.
    reruns = settled = 0
    for k in (rejected + 1).tolist():
        if k < settled:
            continue
        while k < lanes:
            start = warm + k * chunk
            if joins[k] == bits[start - 1]:
                break
            y[start : start + chunk] = _first_order_loop(
                x[start : start + chunk], a, float(y[start - 1])
            )
            reruns += 1
            k += 1
        settled = k + 1
    return y, lanes, reruns


def _lane_geometry(a: float) -> tuple[int, int, int] | None:
    """``(warm, chunk, window)`` steps of :func:`first_order_lanes` for
    the coefficient ``a``; ``None`` when ``|a| >= 1`` or is NaN.  Chunks
    of at least 128 steps keep the lane transposes moving runs of 1 KiB."""
    magnitude = abs(a)
    if not magnitude < 1.0:
        return None
    rate = -math.log(magnitude) if magnitude else math.inf
    warm = max(8, math.ceil(10 * math.log(2) / rate))
    window = math.ceil(64 * math.log(2) / rate)
    while magnitude**window >= 2.0**-64:
        window += 1
    return warm, max(2 * warm, 128), window


def _first_order_loop(x: np.ndarray, a: float, y: float) -> np.ndarray:
    """:func:`first_order` as a plain-float loop, one step at a time."""
    path = []
    for xi in x.tolist():
        y = a * y + xi
        path.append(y)
    return np.array(path, dtype=float)


def _intraday_ar1_loop(
    n_steps: int,
    volatility: float,
    persistence: float,
    rng: np.random.Generator,
    initial: float = 0.0,
) -> np.ndarray:
    """Reference per-step implementation of :func:`intraday_ar1`.

    Kept for the golden equality tests.
    """
    if n_steps <= 0:
        return np.empty(0)
    innovation = volatility * np.sqrt(1.0 - persistence**2)
    path = np.empty(n_steps)
    state = initial
    draws = rng.standard_normal(n_steps)
    for i in range(n_steps):
        state = persistence * state + innovation * draws[i]
        path[i] = state
    return path


def regime_modulation(
    regimes: Sequence[WeatherRegime],
    day_indices: np.ndarray,
    steps_per_day: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-step multiplicative weather modulation in [0, ~1.2].

    For each day, the active regime supplies a base level and an AR(1)
    fluctuation; the result is ``clip(level + fluctuation, 0, 1.25)``
    evaluated at every step of the day.  AR(1) state carries across day
    boundaries so regime changes do not produce artificial jumps.

    Consecutive days in the same regime share AR(1) parameters, so they
    are evaluated as one :func:`intraday_ar1` run per regime streak
    rather than one per day.  ``rng.standard_normal(k·n)`` consumes the
    generator stream exactly like ``k`` consecutive
    ``standard_normal(n)`` calls, so the output is bit-identical to the
    per-day evaluation.
    """
    levels = np.array([r.level for r in regimes])
    total = len(day_indices) * steps_per_day
    modulation = np.empty(total)
    if total == 0:
        return modulation
    state = 0.0
    n_days = len(day_indices)
    day = 0
    while day < n_days:
        regime_index = int(day_indices[day])
        streak_end = day + 1
        while (
            streak_end < n_days
            and int(day_indices[streak_end]) == regime_index
        ):
            streak_end += 1
        regime = regimes[regime_index]
        n_steps = (streak_end - day) * steps_per_day
        fluct = intraday_ar1(
            n_steps, regime.volatility, regime.persistence, rng, state
        )
        state = fluct[-1]
        start = day * steps_per_day
        modulation[start : start + n_steps] = levels[regime_index] + fluct
        day = streak_end
    return np.clip(modulation, 0.0, 1.25)
