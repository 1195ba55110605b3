"""Stage chains: construction, simulation, distributional validation."""

import math
import tracemalloc

import numpy as np
import pytest

from hypoexp import (
    EME,
    Erlang,
    Exponential,
    Hypoexponential,
    ParameterError,
    StageChain,
    eme_chain,
    ks_distance,
    simulate_absorption,
    validate_against,
)
from hypoexp.distributions import _PASS_POINTS


class TestChainConstruction:
    def test_eme_chain_layout(self):
        assert eme_chain(3, 2.0, 1.0).rates == (2.0, 2.0, 2.0, 1.0)

    def test_equal_rate_degenerate(self):
        chain = eme_chain(1, 1.0, 1.0)
        assert chain.rates == (1.0, 1.0)
        assert chain.mean == 2.0  # Erlang(2, 1) absorption

    def test_rate_multiplier_correspondence(self):
        # last stage rate rate/w: chain (k at 1.0, then 0.2) is EME w = 5
        chain = eme_chain(4, 1.0, 0.2)
        ref = EME(4, 1.0, 5.0)
        assert chain.mean == pytest.approx(ref.mean, rel=1e-14)
        assert chain.var == pytest.approx(ref.var, rel=1e-14)

    def test_rejects_bad_rates(self):
        with pytest.raises(ParameterError):
            StageChain(rates=())
        with pytest.raises(ParameterError):
            StageChain(rates=(1.0, -2.0))
        with pytest.raises(ParameterError):
            eme_chain(0, 1.0, 2.0)


class TestSimulation:
    def test_deterministic(self):
        chain = StageChain((1.0, 0.5))
        a = simulate_absorption(chain, 1, np.random.default_rng(55))
        b = simulate_absorption(chain, 1, np.random.default_rng(55))
        np.testing.assert_array_equal(a, b)

    def test_single_stage_is_exponential(self):
        n = 200_000
        times = simulate_absorption(StageChain((2.0,)), n, np.random.default_rng(1))
        se = math.sqrt(0.25 / n)
        assert abs(times.mean() - 0.5) < 4.0 * se

    def test_five_unit_stages(self):
        # five states, unit rates: Erlang(5, 1), mean 5
        n = 200_000
        times = simulate_absorption(StageChain((1.0,) * 5), n, np.random.default_rng(2))
        se = math.sqrt(5.0 / n)
        assert abs(times.mean() - 5.0) < 4.0 * se

    def test_mean_and_variance_match_chain(self):
        chain = StageChain((1.0, 3.0, 0.7))
        n = 300_000
        values = simulate_absorption(chain, n, np.random.default_rng(3))
        mean_se = math.sqrt(chain.var / n)
        assert abs(values.mean() - chain.mean) < 4.0 * mean_se
        # variance of the sample variance for a smooth positive law: use a
        # generous 6-standard-error band via the fourth-moment estimate
        m4 = np.mean((values - values.mean()) ** 4)
        var_se = math.sqrt(max(m4 - chain.var**2, 0.0) / n)
        assert abs(values.var() - chain.var) < 6.0 * var_se


class TestValidation:
    def test_ks_distance_hand_value(self):
        # single observation at ln 2 against Exp(1): F = 1/2, ECDF jumps 0 -> 1
        assert ks_distance([math.log(2.0)], Exponential(1.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("dist", [Exponential(0.7), Erlang(3, 2.0)], ids=repr)
    def test_ks_distance_over_blocks_is_the_whole_array_formula(self, dist):
        # three full blocks and a partial one; the cdf of these laws does not
        # depend on the other points of a call, so the maxima agree exactly
        x = np.sort(dist.sample(3 * _PASS_POINTS + 5, np.random.default_rng(8)))
        n = x.size
        cdf = dist.cdf(x)
        grid = np.arange(1, n + 1) / n
        want = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
        assert ks_distance(x, dist) == want
        assert ks_distance(x[::-1], dist) == want

    def test_ks_distance_holds_no_array_of_the_data_size_but_the_sort(self):
        for dist in (EME(2, 1.0, 4.0), EME(3, 2.0, 0.25), EME(20, 1.0, 0.8),
                     Hypoexponential((1.0, 2.0, 3.0, 4.0, 5.0))):
            x = dist.sample(100_000, np.random.default_rng(9))
            ks_distance(x[:10], dist)  # scipy.special loads on first use
            tracemalloc.start()
            try:
                ks_distance(x, dist)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * x.nbytes, (dist, peak)

    def test_eme_chain_times_match_eme_law(self):
        chain = eme_chain(2, 1.0, 0.5)
        times = simulate_absorption(chain, 100_000, np.random.default_rng(4))
        result = validate_against(times, EME(2, 1.0, 2.0))
        assert result.passed
        assert 0.0 <= result.ks_distance <= 1.0

    def test_distinct_rate_chain_matches_hypoexponential(self):
        times = simulate_absorption(StageChain((1.0, 2.0)), 100_000, np.random.default_rng(5))
        assert validate_against(times, Hypoexponential((1.0, 2.0))).passed

    def test_negative_control(self):
        # Erlang(2) absorption times are not exponential
        times = simulate_absorption(StageChain((1.0, 1.0)), 100_000, np.random.default_rng(6))
        result = validate_against(times, Exponential(1.0))
        assert not result.passed
        assert result.ks_distance > 10.0 * result.threshold

    def test_equal_rates_validate_as_erlang(self):
        times = simulate_absorption(StageChain((1.0, 1.0)), 100_000, np.random.default_rng(7))
        assert validate_against(times, Erlang(2, 1.0)).passed

    def test_rejects_non_distribution(self):
        with pytest.raises(ParameterError):
            validate_against([1.0, 2.0], object())
