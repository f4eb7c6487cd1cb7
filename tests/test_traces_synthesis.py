"""Tests for the solar/wind synthesizers and weather regime machinery."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.traces import (
    RegimeModel,
    SolarConfig,
    WeatherRegime,
    WindConfig,
    clear_sky_profile,
    default_european_catalog,
    sample_regime_sequence,
    synthesize_catalog_traces,
    synthesize_solar,
    synthesize_wind,
    turbine_power_curve,
)
from repro.traces import weather
from repro.traces.weather import (
    FIRST_ORDER_LOOP_MAX,
    _intraday_ar1_loop,
    correlated_daily_latents,
    default_solar_regimes,
    default_wind_regimes,
    distance_correlation_matrix,
    first_order,
    intraday_ar1,
    regime_modulation,
    regime_sequence_from_latent,
    stationary_distribution,
)
from repro.traces.wind import _ou_speed_path_loop, ou_speed_path
from repro.units import grid_days


class TestWeatherRegimes:
    def test_regime_validation(self):
        with pytest.raises(ConfigurationError):
            WeatherRegime("bad", level=-0.1, volatility=0.1, persistence=0.5)
        with pytest.raises(ConfigurationError):
            WeatherRegime("bad", level=0.5, volatility=-0.1, persistence=0.5)
        with pytest.raises(ConfigurationError):
            WeatherRegime("bad", level=0.5, volatility=0.1, persistence=1.0)

    def test_model_validation(self):
        regime = WeatherRegime("a", 0.5, 0.1, 0.5)
        with pytest.raises(ConfigurationError):
            RegimeModel((regime,), np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ConfigurationError):
            RegimeModel((regime,), np.array([[1.0]]), np.array([0.5]))

    def test_model_by_name(self):
        model = default_solar_regimes()
        assert model.by_name("sunny").level == pytest.approx(1.0)
        with pytest.raises(KeyError):
            model.by_name("hurricane")

    def test_sample_sequence_shape_and_range(self, rng):
        model = default_solar_regimes()
        seq = sample_regime_sequence(model, 100, rng)
        assert len(seq) == 100
        assert seq.min() >= 0
        assert seq.max() < len(model.regimes)

    def test_sample_sequence_zero_days(self, rng):
        assert len(sample_regime_sequence(default_solar_regimes(), 0, rng)) == 0

    def test_sample_sequence_negative_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            sample_regime_sequence(default_solar_regimes(), -1, rng)

    def test_stationary_distribution_sums_to_one(self):
        for model in (default_solar_regimes(), default_wind_regimes()):
            pi = stationary_distribution(model)
            assert pi.sum() == pytest.approx(1.0)
            assert np.all(pi >= 0)
            # Fixed point of the chain.
            np.testing.assert_allclose(pi @ model.transition, pi, atol=1e-9)

    def test_latent_regime_mapping_matches_stationary(self, rng):
        model = default_solar_regimes()
        latent = rng.standard_normal(20000)
        seq = regime_sequence_from_latent(model, latent)
        pi = stationary_distribution(model)
        freq = np.bincount(seq, minlength=3) / len(seq)
        np.testing.assert_allclose(freq, pi, atol=0.02)

    def test_intraday_ar1_stationary_std(self, rng):
        path = intraday_ar1(50000, volatility=0.2, persistence=0.7, rng=rng)
        assert np.std(path) == pytest.approx(0.2, rel=0.05)
        assert abs(np.mean(path)) < 0.01

    def test_intraday_ar1_empty(self, rng):
        assert len(intraday_ar1(0, 0.1, 0.5, rng)) == 0

    def test_regime_modulation_bounds(self, rng):
        model = default_solar_regimes()
        days = sample_regime_sequence(model, 10, rng)
        mod = regime_modulation(model.regimes, days, 96, rng)
        assert len(mod) == 960
        assert mod.min() >= 0.0
        assert mod.max() <= 1.25


class TestSpatialCorrelation:
    def test_distance_correlation_properties(self):
        distances = np.array([[0.0, 100.0], [100.0, 1e5]])
        # Matrix must be square + symmetric in use; use a real one.
        distances = np.array([[0.0, 100.0], [100.0, 0.0]])
        corr = distance_correlation_matrix(distances, 600.0)
        assert corr[0, 0] == 1.0
        assert 0 < corr[0, 1] < 1
        assert corr[0, 1] == pytest.approx(np.exp(-100 / 600))

    def test_distance_correlation_rejects_nonsquare(self):
        with pytest.raises(ConfigurationError):
            distance_correlation_matrix(np.zeros((2, 3)))

    def test_distance_correlation_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            distance_correlation_matrix(np.zeros((2, 2)), 0.0)

    def test_correlated_latents_shape_and_marginals(self, rng):
        corr = distance_correlation_matrix(
            np.array([[0.0, 50.0], [50.0, 0.0]])
        )
        latents = correlated_daily_latents(corr, 5000, rng)
        assert latents.shape == (5000, 2)
        # Marginals approximately standard normal.
        assert np.std(latents[:, 0]) == pytest.approx(1.0, rel=0.1)
        # Nearby sites strongly correlated.
        sample_corr = np.corrcoef(latents[:, 0], latents[:, 1])[0, 1]
        assert sample_corr > 0.7

    def test_correlated_latents_distance_decay(self, rng):
        distances = np.array(
            [[0.0, 50.0, 3000.0], [50.0, 0.0, 3000.0], [3000.0, 3000.0, 0.0]]
        )
        corr = distance_correlation_matrix(distances)
        latents = correlated_daily_latents(corr, 5000, rng)
        near = np.corrcoef(latents[:, 0], latents[:, 1])[0, 1]
        far = np.corrcoef(latents[:, 0], latents[:, 2])[0, 1]
        assert near > far + 0.3

    def test_correlated_latents_bad_persistence(self, rng):
        corr = np.eye(2)
        with pytest.raises(ConfigurationError):
            correlated_daily_latents(corr, 10, rng, day_persistence=1.0)


class TestSolarSynthesis:
    def test_diurnal_zero_at_night(self, week_grid, rng):
        trace = synthesize_solar(week_grid, rng=rng)
        hours = week_grid.hour_of_day()
        night = trace.values[(hours < 3) | (hours > 22)]
        assert np.all(night == 0.0)

    def test_values_in_unit_range(self, month_grid, rng):
        trace = synthesize_solar(month_grid, rng=rng)
        assert trace.values.min() >= 0.0
        assert trace.values.max() <= 1.0

    def test_seeded_determinism(self, week_grid):
        a = synthesize_solar(week_grid, seed=42)
        b = synthesize_solar(week_grid, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self, week_grid):
        a = synthesize_solar(week_grid, seed=1)
        b = synthesize_solar(week_grid, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_seasonality_winter_below_summer(self):
        year = grid_days(datetime(2020, 1, 1), 365)
        config = SolarConfig(latitude_deg=51.0)
        profile = clear_sky_profile(year, config)
        per_day = profile.reshape(365, -1).max(axis=1)
        winter_peak = per_day[:30].max()
        summer_peak = per_day[160:190].max()
        # Paper: winter peaks ~75% below summer at these latitudes.
        assert winter_peak < 0.6 * summer_peak

    def test_latitude_affects_day_length(self):
        june = grid_days(datetime(2020, 6, 20), 1)
        north = clear_sky_profile(june, SolarConfig(latitude_deg=65.0))
        south = clear_sky_profile(june, SolarConfig(latitude_deg=35.0))
        # Midsummer at 65N has more daylight samples than at 35N.
        assert np.count_nonzero(north) > np.count_nonzero(south)

    def test_overcast_day_suppresses_peak(self, day_grid, rng):
        model = default_solar_regimes()
        overcast_index = model.names.index("overcast")
        sunny_index = model.names.index("sunny")
        overcast = synthesize_solar(
            day_grid, rng=np.random.default_rng(5),
            regime_indices=np.array([overcast_index]),
        )
        sunny = synthesize_solar(
            day_grid, rng=np.random.default_rng(5),
            regime_indices=np.array([sunny_index]),
        )
        # Paper Fig 2a: overcast peak 3.5% vs 77% on a sunny day.
        assert overcast.values.max() < 0.2
        assert sunny.values.max() > 0.5

    def test_partial_day_grid_rejected(self, rng):
        grid = grid_days(datetime(2020, 5, 1), 1.5)
        with pytest.raises(TraceError):
            synthesize_solar(grid, rng=rng)

    def test_wrong_regime_count_rejected(self, week_grid, rng):
        with pytest.raises(TraceError):
            synthesize_solar(week_grid, rng=rng, regime_indices=np.array([0]))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SolarConfig(latitude_deg=90.0)
        with pytest.raises(ConfigurationError):
            SolarConfig(capacity_mw=-1.0)


class TestWindSynthesis:
    def test_power_curve_regions(self):
        config = WindConfig()
        speeds = np.array([0.0, 2.9, 3.0, 8.0, 12.0, 20.0, 25.0, 30.0])
        power = turbine_power_curve(speeds, config)
        assert power[0] == 0.0 and power[1] == 0.0          # below cut-in
        assert 0.0 <= power[2] < 0.05                        # at cut-in
        assert 0.0 < power[3] < 1.0                          # ramp
        assert power[4] == pytest.approx(1.0)                # rated
        assert power[5] == pytest.approx(1.0)                # rated plateau
        assert power[6] == 0.0 and power[7] == 0.0           # cut-out

    def test_power_curve_monotone_on_ramp(self):
        config = WindConfig()
        speeds = np.linspace(config.cut_in_ms, config.rated_ms, 50)
        power = turbine_power_curve(speeds, config)
        assert np.all(np.diff(power) >= 0)

    def test_values_in_unit_range(self, month_grid, rng):
        trace = synthesize_wind(month_grid, rng=rng)
        assert trace.values.min() >= 0.0
        assert trace.values.max() <= 1.0

    def test_seeded_determinism(self, week_grid):
        a = synthesize_wind(week_grid, seed=42)
        b = synthesize_wind(week_grid, seed=42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_wind_rarely_zero(self):
        # Paper Fig 2a: wind "rarely goes down to zero".
        year = grid_days(datetime(2020, 1, 1), 365)
        trace = synthesize_wind(year, seed=7)
        assert trace.zero_fraction() < 0.30

    def test_wind_median_modest(self):
        # Paper Fig 2b: median wind at most ~20% of peak capacity.
        year = grid_days(datetime(2020, 1, 1), 365)
        trace = synthesize_wind(year, seed=7)
        assert trace.percentile(50) < 0.30

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WindConfig(cut_in_ms=13.0)  # violates cut_in < rated
        with pytest.raises(ConfigurationError):
            WindConfig(reversion_hours=0.0)
        with pytest.raises(ConfigurationError):
            WindConfig(mean_speed_ms=0.0)


class TestCatalog:
    def test_default_catalog_contains_paper_trio(self):
        catalog = default_european_catalog()
        for name in ("NO-solar", "UK-wind", "PT-wind"):
            assert name in catalog

    def test_catalog_unique_names(self):
        catalog = default_european_catalog()
        assert len(set(catalog.names)) == len(catalog)

    def test_subset_and_kind_filters(self):
        catalog = default_european_catalog()
        trio = catalog.subset(["NO-solar", "UK-wind"])
        assert trio.names == ["NO-solar", "UK-wind"]
        wind = catalog.of_kind("wind")
        assert all(s.kind == "wind" for s in wind)

    def test_unknown_site_raises(self):
        catalog = default_european_catalog()
        with pytest.raises(KeyError):
            catalog["Atlantis-solar"]

    def test_distance_matrix_symmetric_zero_diagonal(self):
        catalog = default_european_catalog()
        distances = catalog.distance_matrix_km()
        assert np.allclose(distances, distances.T)
        assert np.all(np.diag(distances) == 0.0)
        # Norway to Portugal is far; sanity check the haversine.
        i = catalog.names.index("NO-solar")
        j = catalog.names.index("PT-wind")
        assert 1500 < distances[i, j] < 3000

    def test_with_capacity(self):
        catalog = default_european_catalog().with_capacity(100.0)
        assert all(s.capacity_mw == 100.0 for s in catalog)

    def test_catalog_synthesis_covers_all_sites(self, rng):
        catalog = default_european_catalog().subset(
            ["NO-solar", "UK-wind", "PT-wind"]
        )
        grid = grid_days(datetime(2020, 5, 1), 4)
        traces = synthesize_catalog_traces(catalog, grid, rng=rng)
        assert set(traces) == {"NO-solar", "UK-wind", "PT-wind"}
        for name, trace in traces.items():
            assert trace.name == name
            assert len(trace) == grid.n

    def test_catalog_synthesis_solar_uses_site_latitude(self, rng):
        catalog = default_european_catalog().subset(["NO-solar", "ES-solar"])
        winter = grid_days(datetime(2020, 1, 1), 14)
        traces = synthesize_catalog_traces(catalog, winter, seed=11)
        # Winter Norwegian solar must be far weaker than Andalusian.
        assert (
            traces["NO-solar"].energy_mwh()
            < 0.7 * traces["ES-solar"].energy_mwh()
        )

    def test_nearby_sites_more_correlated(self):
        catalog = default_european_catalog().subset(
            ["UK-wind", "NL-wind", "RO-wind"]
        )
        grid = grid_days(datetime(2020, 5, 1), 120)
        traces = synthesize_catalog_traces(catalog, grid, seed=13)
        uk = traces["UK-wind"].values
        nl = traces["NL-wind"].values
        ro = traces["RO-wind"].values
        near = np.corrcoef(uk, nl)[0, 1]
        far = np.corrcoef(uk, ro)[0, 1]
        assert near > far


class TestVectorizedKernels:
    """Golden tests: the first-order/searchsorted kernels against the loop
    references they replaced, on shared seeds."""

    def test_ou_matches_loop_reference(self):
        config = WindConfig()
        for seed, steps in ((0, 500), (3, 96 * 30), (11, 7)):
            rng = np.random.default_rng(seed)
            targets = config.mean_speed_ms * (
                0.5 + rng.random(steps)
            )
            a = np.random.default_rng(seed + 100)
            b = np.random.default_rng(seed + 100)
            fast = ou_speed_path(targets, 0.25, config, a)
            slow = _ou_speed_path_loop(targets, 0.25, config, b)
            # The filter form precomputes x_i = (1 - decay)·t_i + σ·w_i,
            # grouping the loop's terms differently, so the outputs
            # agree to accumulated rounding, not bit-for-bit.
            np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-9)
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "n",
        [1, 2, FIRST_ORDER_LOOP_MAX - 1, FIRST_ORDER_LOOP_MAX,
         FIRST_ORDER_LOOP_MAX + 1, 35040],
    )
    @pytest.mark.parametrize("y0", [0.0, -0.0, "random"])
    def test_first_order_loop_bitwise_equals_lfilter(
        self, n, y0, monkeypatch
    ):
        """The plain-float loop performs lfilter's exact operations, on
        both sides of the length cut (the cut is lifted so lengths past
        it run the loop too)."""
        from scipy.signal import lfilter

        rng = np.random.default_rng(n)
        a = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(n) * 3.0
        if y0 == "random":
            y0 = float(rng.standard_normal())
        want = lfilter([1.0], [1.0, -a], x, zi=np.array([a * y0]))[0]
        assert np.array_equal(
            first_order(x, a, y0).view(np.uint64), want.view(np.uint64)
        )
        monkeypatch.setattr(weather, "FIRST_ORDER_LOOP_MAX", 10**9)
        assert np.array_equal(
            first_order(x, a, y0).view(np.uint64), want.view(np.uint64)
        )

    @staticmethod
    def _lane_lengths(a):
        """Lengths around the lane kernel's seams for coefficient ``a``:
        just past the loop cut, a whole number of chunks and one step
        either side, a year of 15-minute steps, and 100,000 steps."""
        geometry = weather._lane_geometry(a)
        lengths = [FIRST_ORDER_LOOP_MAX + 1, 35040, 100_000]
        if geometry is not None:
            warm, chunk, _ = geometry
            whole = warm + (FIRST_ORDER_LOOP_MAX // chunk + 1) * chunk
            lengths += [whole - 1, whole, whole + 1]
        return lengths

    @staticmethod
    def _loop(x, a, y0, monkeypatch):
        """``first_order`` with the cut lifted, so it runs the loop."""
        with monkeypatch.context() as patch:
            patch.setattr(weather, "FIRST_ORDER_LOOP_MAX", 10**9)
            return first_order(x, a, y0)

    @pytest.mark.parametrize("a", [0.45, 0.959, 0.9999, 0.0, -0.5])
    @pytest.mark.parametrize("y0", [0.0, -0.0, "random"])
    def test_lane_kernel_bitwise_equals_lfilter_and_loop(
        self, a, y0, monkeypatch
    ):
        """Past the cut the lane kernel gives lfilter's and the loop's
        exact bits, on lengths around its chunk seams.  At ``a = 0.9999``
        the guess window (``|a|**window < 2**-64``) is longer than every
        path, and a path holds fewer than eight lane spans, so the loop
        runs; every other ``a`` runs the lanes."""
        from scipy.signal import lfilter

        from repro.traces.weather import first_order_lanes

        for n in self._lane_lengths(a):
            rng = np.random.default_rng(n)
            x = rng.standard_normal(n) * 3.0 + 1.0
            start = float(rng.standard_normal()) if y0 == "random" else y0
            want = lfilter([1.0], [1.0, -a], x, zi=np.array([a * start]))[0]
            got, lanes, reruns = first_order_lanes(x, a, start)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            loop = self._loop(x, a, start, monkeypatch)
            assert np.array_equal(got.view(np.uint64), loop.view(np.uint64))
            warm, chunk, window = weather._lane_geometry(a)
            if a == 0.9999:
                assert window > n and lanes == 1 and reruns == 0
            else:
                assert lanes == -(-(n - warm) // chunk) > 1
                assert reruns <= lanes // 10

    @pytest.mark.parametrize("a", [0.45, 0.959, -0.5])
    def test_lane_kernel_non_finite_inputs(self, a, monkeypatch):
        """NaN and infinite inputs give the loop's bits, NaN payloads
        and signs included.  lfilter agrees where the input holds NaN
        but no infinity: its delay update multiplies each input by the
        zero-padded numerator (``inf·0`` is NaN), so after an infinite
        input it yields NaN where the recursion gives an infinity."""
        from scipy.signal import lfilter

        n = 35040
        for case in ("nan", "inf", "mixed"):
            rng = np.random.default_rng(7)
            x = rng.standard_normal(n)
            if case == "nan":
                x[[5000, 20001]] = np.nan
            elif case == "inf":
                x[9000] = np.inf
            else:
                x[[3000, 12000, 30000]] = [np.inf, -np.inf, np.nan]
            got = first_order(x, a, 0.5)
            loop = self._loop(x, a, 0.5, monkeypatch)
            assert np.array_equal(got.view(np.uint64), loop.view(np.uint64))
            if case == "nan":
                want = lfilter([1.0], [1.0, -a], x, zi=np.array([a * 0.5]))[0]
                assert np.array_equal(
                    got.view(np.uint64), want.view(np.uint64)
                )

    def test_lane_kernel_rejected_lanes_stay_exact(self, monkeypatch):
        """With a one-step warm-up the guesses have not rounded onto
        the exact path, so most lanes fail the bitwise join and re-run
        on the loop; the output is still lfilter's, bit for bit."""
        from scipy.signal import lfilter

        from repro.traces.weather import first_order_lanes

        geometry = weather._lane_geometry
        monkeypatch.setattr(
            weather, "_lane_geometry", lambda a: (1, *geometry(a)[1:])
        )
        rng = np.random.default_rng(11)
        x = rng.standard_normal(35040)
        for a in (0.9, 0.959):
            got, lanes, reruns = first_order_lanes(x, a, -0.25)
            assert reruns > lanes // 2
            want = lfilter([1.0], [1.0, -a], x, zi=np.array([a * -0.25]))[0]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_ar1_year_bit_identical_to_loop(self):
        """A year-long AR(1) path runs the lane kernel and still equals
        the per-step reference loop exactly."""
        a = np.random.default_rng(4)
        b = np.random.default_rng(4)
        fast = intraday_ar1(35040, 0.28, 0.45, a, initial=0.1)
        slow = _intraday_ar1_loop(35040, 0.28, 0.45, b, initial=0.1)
        assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64))

    def test_guarded_cdf_matches_ndtr(self, monkeypatch):
        """Regime indices equal ``searchsorted(edges, ndtr(z))`` on
        random latents and on latents within 4 ulp of every edge's
        normal quantile, where the ndtr fallback must run."""
        import scipy.special
        from scipy.special import ndtr, ndtri

        calls = []

        def counting_ndtr(z):
            calls.append(len(z))
            return ndtr(z)

        monkeypatch.setattr(scipy.special, "ndtr", counting_ndtr)
        for seed, model in enumerate(
            (default_solar_regimes(), default_wind_regimes())
        ):
            edges = np.cumsum(stationary_distribution(model))
            k = len(model.regimes)

            def reference(z):
                return np.searchsorted(
                    edges, ndtr(z), side="right"
                ).clip(0, k - 1)

            latent = np.random.default_rng(seed).standard_normal(10**6)
            assert np.array_equal(
                regime_sequence_from_latent(model, latent),
                reference(latent),
            )
            near = []
            for edge in edges:
                centre = float(ndtri(edge))
                for direction in (np.inf, -np.inf):
                    z = centre
                    for _ in range(5):
                        near.append(z)
                        z = float(np.nextafter(z, direction))
            near = np.array(near)
            calls.clear()
            assert np.array_equal(
                regime_sequence_from_latent(model, near), reference(near)
            )
            assert calls and calls[0] == len(near)

    def test_ou_empty(self):
        config = WindConfig()
        rng = np.random.default_rng(0)
        assert len(ou_speed_path(np.empty(0), 0.25, config, rng)) == 0

    def test_ar1_bit_identical_to_loop(self):
        for seed in range(4):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            fast = intraday_ar1(3000, 0.28, 0.45, a, initial=0.1)
            slow = _intraday_ar1_loop(3000, 0.28, 0.45, b, initial=0.1)
            # Identical float ops in identical order: exact equality.
            assert np.array_equal(fast, slow)
            assert a.bit_generator.state == b.bit_generator.state

    def test_regime_modulation_matches_per_day_reference(self):
        """Streak-batched evaluation == one intraday_ar1 call per day."""
        model = default_solar_regimes()
        steps_per_day = 96
        for seed in range(3):
            rng = np.random.default_rng(seed)
            days = sample_regime_sequence(model, 60, rng)
            a = np.random.default_rng(seed + 50)
            b = np.random.default_rng(seed + 50)
            fast = regime_modulation(
                model.regimes, days, steps_per_day, a
            )
            levels = np.array([r.level for r in model.regimes])
            reference = np.empty(len(days) * steps_per_day)
            state = 0.0
            for day, index in enumerate(days):
                regime = model.regimes[int(index)]
                fluct = _intraday_ar1_loop(
                    steps_per_day, regime.volatility,
                    regime.persistence, b, state,
                )
                state = fluct[-1]
                start = day * steps_per_day
                reference[start : start + steps_per_day] = (
                    levels[int(index)] + fluct
                )
            reference = np.clip(reference, 0.0, 1.25)
            assert np.array_equal(fast, reference)
            assert a.bit_generator.state == b.bit_generator.state

    def test_regime_sampling_matches_choice_reference(self):
        """searchsorted inverse-CDF == the rng.choice loop it replaced,
        states and RNG stream both."""
        for model in (default_solar_regimes(), default_wind_regimes()):
            for seed in range(3):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed)
                fast = sample_regime_sequence(model, 200, a)
                k = len(model.regimes)
                reference = np.empty(200, dtype=int)
                reference[0] = b.choice(k, p=model.initial)
                for day in range(1, 200):
                    reference[day] = b.choice(
                        k, p=model.transition[reference[day - 1]]
                    )
                assert np.array_equal(fast, reference)
                assert a.bit_generator.state == b.bit_generator.state

    def test_latent_quantiles_match_erf_reference(self):
        """ndtr == the 0.5*(1+erf(x/sqrt(2))) elementwise mapping."""
        from math import erf, sqrt

        model = default_solar_regimes()
        latent = np.random.default_rng(9).standard_normal(500)
        fast = regime_sequence_from_latent(model, latent)
        stationary = stationary_distribution(model)
        edges = np.cumsum(stationary)
        quantiles = np.array(
            [0.5 * (1.0 + erf(x / sqrt(2.0))) for x in latent]
        )
        reference = np.searchsorted(
            edges, quantiles, side="right"
        ).clip(0, len(model.regimes) - 1)
        assert np.array_equal(fast, reference)
