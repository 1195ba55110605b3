"""Exponentiality test: statistic, bootstrap calibration, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from hypoexp import (
    DataError,
    GofConfig,
    ParameterError,
    empirical_laplace,
    gof,
    gof_residual_curve,
    gof_statistic,
    gof_test,
)
from hypoexp.gof import (
    T_MAX,
    _bootstrap_rows,
    _grid_means,
    _grid_transforms,
    _statistic_rows,
)
from hypoexp.identities import _characterization_residuals


def _residual_rows_reference(phi_t, phi_wt, n, w):
    """The residual as gof evaluated it before the shared kernel: coefficient
    powers ((w-1)/w)^k and transform powers phi(t)^k kept apart."""
    ratio = (w - 1.0) / w
    lead = (w - 1.0) * ratio**n
    acc = np.zeros_like(phi_t)
    power = np.ones_like(phi_t)
    rk = 1.0
    for _ in range(n):
        rk *= ratio
        power = power * phi_t
        acc += rk * power
    return lead * phi_wt * power - (w - 1.0) * phi_wt + acc


class TestEmpiricalLaplace:
    def test_one_at_zero(self):
        rng = np.random.default_rng(0)
        assert empirical_laplace(rng.exponential(1.0, 50), 0.0) == 1.0

    def test_zeros_data(self):
        assert empirical_laplace([0.0, 0.0], 3.7) == 1.0

    def test_single_point(self):
        assert empirical_laplace([1.0], 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_nonincreasing(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(1.0, 200)
        t = np.linspace(0.0, 10.0, 30)
        vals = empirical_laplace(x, t)
        assert np.all(np.diff(vals) <= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            empirical_laplace([], 1.0)

    @pytest.mark.parametrize("n_obs", [1, 1000, 100_000])
    def test_chunked_sum_matches_the_outer_product(self, n_obs):
        x = np.random.default_rng(n_obs).exponential(1.0, n_obs)
        t = np.linspace(0.0, 10.0, 64).reshape(8, 8)
        want = np.exp(-np.multiply.outer(t, x)).mean(-1)
        got = empirical_laplace(x, t)
        assert got.shape == t.shape
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        scalar = empirical_laplace(x, 0.7)
        assert type(scalar) is float
        assert scalar == pytest.approx(np.exp(-0.7 * x).mean(), rel=1e-14, abs=0.0)

    def test_memory_is_bounded_in_the_sample_size(self):
        x = np.random.default_rng(2).exponential(1.0, 100_000)
        t = np.linspace(0.0, 10.0, 64)
        assert _traced_peak(empirical_laplace, x, t) <= 4_000_000


class TestConfig:
    def test_bootstrap_reps_floor(self):
        with pytest.raises(ParameterError):
            GofConfig(bootstrap_reps=0)
        with pytest.raises(ParameterError):
            GofConfig(bootstrap_reps=98)
        GofConfig(bootstrap_reps=99)

    def test_w_one_rejected(self):
        with pytest.raises(ParameterError):
            GofConfig(w=1.0)

    def test_level_range(self):
        with pytest.raises(ParameterError):
            GofConfig(level=0.0)

    @pytest.mark.parametrize("level", [1.0, -0.1, math.nan, math.inf, "0.5", None, [0.5]])
    def test_level_must_be_a_real_in_the_open_unit_interval(self, level):
        # the string "0.5" used to escape as a bare TypeError from the comparison
        with pytest.raises(ParameterError, match="level"):
            GofConfig(level=level)

    def test_level_is_stored_as_float(self):
        for level in (np.float32(0.25), 1e-3):
            cfg = GofConfig(level=level)
            assert type(cfg.level) is float and cfg.level == float(level)

    @pytest.mark.parametrize("decay", [math.inf, math.nan, 0.0, -1.0])
    def test_grid_decay_must_be_finite_positive(self, decay):
        # an infinite decay weighted every grid point by 0: statistic 0, p = 1
        with pytest.raises(ParameterError, match="grid_decay"):
            GofConfig(grid_decay=decay)

    def test_bootstrap_reps_accepts_numpy_integers(self):
        cfg = GofConfig(bootstrap_reps=np.int64(999))
        assert type(cfg.bootstrap_reps) is int and cfg.bootstrap_reps == 999
        for bad in (np.int64(98), 999.0, True):
            with pytest.raises(ParameterError, match="bootstrap_reps"):
                GofConfig(bootstrap_reps=bad)

    def test_w_is_stored_as_float(self):
        assert type(GofConfig(w=3).w) is float
        for bad in (math.inf, 0.0, -2.0):
            with pytest.raises(ParameterError, match="w must"):
                GofConfig(w=bad)


class TestResidualKernel:
    @staticmethod
    def _transforms(seed):
        rng = np.random.default_rng(seed)
        phi_t = rng.uniform(0.0, 1.0, (20, 64))
        return phi_t, phi_t * rng.uniform(0.0, 1.0, (20, 64))

    @pytest.mark.parametrize("w", [2.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_bit_identical_where_scale_factors_are_powers_of_two(self, n, w):
        phi_t, phi_wt = self._transforms(n)
        got = _characterization_residuals(n, w, phi_t, phi_wt, n)[0]
        np.testing.assert_array_equal(got, _residual_rows_reference(phi_t, phi_wt, n, w))

    @pytest.mark.parametrize("w", [2.5, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_rounding_level_elsewhere(self, n, w):
        # the kernel scales phi(t) by (w-1)/w before taking powers, so the
        # residual moves by rounding of its terms, whose sum of magnitudes
        # sets the scale (the residual itself may cancel to ~0)
        phi_t, phi_wt = self._transforms(n)
        got = _characterization_residuals(n, w, phi_t, phi_wt, n)[0]
        phi2 = np.abs((w - 1.0) / w * phi_t)
        scale = (w - 1.0) * phi_wt * (1.0 + phi2**n) + sum(phi2**k for k in range(1, n + 1))
        err = np.abs(got - _residual_rows_reference(phi_t, phi_wt, n, w)) / scale
        assert err.max() <= 4e-15

    def test_every_n_from_one_recurrence(self):
        phi_t, phi_wt = self._transforms(0)
        rows = _characterization_residuals(6, 3.0, phi_t, phi_wt, 2)
        assert len(rows) == 5
        for n, row in zip(range(2, 7), rows):
            alone = _characterization_residuals(n, 3.0, phi_t, phi_wt, n)
            np.testing.assert_array_equal(row, alone[0])


def _traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridMeans:
    """The power-sum kernel behind the empirical transforms."""

    @staticmethod
    def _layouts(cfg):
        # (step, exponents) of each table _grid_transforms builds
        dt = T_MAX / cfg.grid_points
        g = np.arange(1, cfg.grid_points + 1)
        if cfg.w == 2.0:
            return [(dt, np.concatenate([g, 2 * g]))]
        return [(dt, g), (cfg.w * dt, g)]

    @pytest.mark.parametrize("w", [2.0, 3.0, 1e19])
    @pytest.mark.parametrize("grid_points", [1, 64, 4096])  # 1: tables of one or two powers
    @pytest.mark.parametrize("shape", [(3, 90), (1, 4000)])
    def test_matches_direct_exp(self, shape, grid_points, w):
        rng = np.random.default_rng(21)
        rows = rng.exponential(1.0, shape)
        rows[-1] = rng.lognormal(0.0, 1.0, shape[1])
        y = rows / rows.mean(axis=1, keepdims=True)
        for step, exponents in self._layouts(GofConfig(w=w, grid_points=grid_points)):
            got = _grid_means(y, step, exponents)
            want = np.stack([np.exp(-e * step * y).mean(axis=1) for e in exponents], axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_one_row_crosses_observation_chunks(self):
        # the (1, 4000) case above sums its observations in several chunks:
        # a table of S + A >= 2*sqrt(e_max) floats per observation leaves
        # fewer than 4000 observations per chunk
        for grid_points in (64, 4096):
            assert 4000 > gof._TABLE_BYTES / (8 * 2 * math.sqrt(2 * grid_points))

    def test_rows_equal_one_row_calls(self):
        # 40 rows of 200 span several row chunks of the table buffer
        rows = _bootstrap_rows(200, 40, 5, 1)
        y = rows / rows.mean(axis=1, keepdims=True)
        for step, exponents in self._layouts(GofConfig(w=3.0)) + self._layouts(GofConfig()):
            whole = _grid_means(y, step, exponents)
            for r in range(40):
                np.testing.assert_array_equal(whole[r], _grid_means(y[r : r + 1], step, exponents)[0])

    @pytest.mark.parametrize("w", [2.0, 3.0])
    def test_replicates_do_not_depend_on_block_size(self, monkeypatch, w):
        x = np.random.default_rng(22).lognormal(0.0, 1.0, 150)
        cfg = GofConfig(w=w, bootstrap_reps=199, seed=9)
        default = gof_test(x, cfg).replicates
        for block_bytes in (1, 1 << 30):  # one row per block; all rows in one block
            monkeypatch.setattr(gof, "_BLOCK_BYTES", block_bytes)
            np.testing.assert_array_equal(gof_test(x, cfg).replicates, default)

    def test_residual_curve_memory_is_bounded(self):
        x = np.random.default_rng(23).exponential(1.0, 1_000_000)
        assert _traced_peak(gof_residual_curve, x) <= 24 * 2**20

    def test_bootstrap_memory_is_bounded(self):
        x = np.random.default_rng(24).exponential(1.0, 200)
        assert _traced_peak(gof_test, x) <= 2.5 * 2**20


class TestStatistic:
    def test_zero_with_exact_transform(self):
        # replace the empirical transform with rate/(rate+t) at rate 1:
        # the residual is identically zero, so the quadrature is ~0
        cfg = GofConfig()
        t = cfg.grid
        phi_t = (1.0 / (1.0 + t))[None, :]
        phi_wt = (1.0 / (1.0 + cfg.w * t))[None, :]
        resid = _characterization_residuals(cfg.n, cfg.w, phi_t, phi_wt, cfg.n)[0]
        stat = 1e5 * (resid**2 * np.exp(-cfg.grid_decay * t)).sum() * (
            T_MAX / cfg.grid_points
        )
        assert stat < 1e-20

    def test_scale_invariance_exact_for_power_of_two(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(2.0, 300)
        t1, _ = gof_statistic(x)
        t4, _ = gof_statistic(4.0 * x)
        assert t1 == t4

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(0.5, 257)
        t1, lam1 = gof_statistic(x)
        t3, lam3 = gof_statistic(3.0 * x)
        assert t1 == pytest.approx(t3, abs=1e-12)
        assert lam3 == pytest.approx(lam1 / 3.0, rel=1e-12)

    def test_lambda_hat_is_reciprocal_mean(self):
        x = np.array([1.0, 2.0, 3.0])
        _, lam = gof_statistic(x)
        assert lam == pytest.approx(0.5, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            gof_statistic(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("w", [2.0, 3.0, 0.5, 2.5, 10.0, 1e9, 1e19])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_transforms_match_empirical_laplace(self, w, n):
        # one power table at w = 2, one per transform for the rest: both
        # must give the empirical transform at t and at w*t, and a large
        # whole-number w must not walk a power table up to w*G
        cfg = GofConfig(n=n, w=w)
        rng = np.random.default_rng(14)
        rows = rng.exponential(1.0, (3, 90))
        rows[2] = rng.lognormal(0.0, 1.0, 90)
        y = rows / rows.mean(axis=1, keepdims=True)
        phi_t, phi_wt = _grid_transforms(y, cfg)
        for r in range(3):
            np.testing.assert_allclose(phi_t[r], empirical_laplace(y[r], cfg.grid), rtol=1e-12)
            np.testing.assert_allclose(
                phi_wt[r], empirical_laplace(y[r], w * cfg.grid), rtol=1e-12
            )

    def test_residual_curve_matches_statistic(self):
        rng = np.random.default_rng(15)
        x = rng.weibull(0.5, 150)
        cfg = GofConfig()
        t, resid = gof_residual_curve(x, cfg)
        stat, _ = gof_statistic(x, cfg)
        dt = T_MAX / cfg.grid_points
        assert stat == pytest.approx(
            x.size * (resid**2 * np.exp(-cfg.grid_decay * t)).sum() * dt, rel=1e-14
        )

    def test_null_residual_shrinks(self):
        rng = np.random.default_rng(4)
        curves = []
        for n_obs in (1_000, 100_000):
            x = rng.exponential(1.0, n_obs)
            _, resid = gof_residual_curve(x)
            curves.append(np.abs(resid).max())
        assert curves[1] < curves[0]
        assert curves[1] < 0.02


class TestBootstrapTest:
    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(1.0, 120)
        cfg = GofConfig(bootstrap_reps=199, seed=42)
        a = gof_test(x, cfg)
        b = gof_test(x, cfg)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        np.testing.assert_array_equal(a.replicates, b.replicates)

    def test_replicate_stream_is_named_by_index(self):
        # replicate b is the first N of 4k uniforms from Philox(key=seed,
        # counter=(b-1)k), k = ceil(N/4); recompute replicate 5 by hand
        rng = np.random.default_rng(6)
        x = rng.exponential(1.0, 80)
        cfg = GofConfig(bootstrap_reps=99, seed=7)
        res = gof_test(x, cfg)
        k = 20
        stream = np.random.Generator(np.random.Philox(key=7, counter=4 * k))
        row = -np.log1p(-stream.random(4 * k)[:80])
        want = _statistic_rows(row[None, :], cfg)[0]
        assert res.replicates[4] == want

    @pytest.mark.parametrize("n_obs", [1, 7, 80, 201])
    def test_replicate_rows_do_not_depend_on_chunking(self, n_obs):
        whole = _bootstrap_rows(n_obs, 10, 123, 1)
        np.testing.assert_array_equal(whole[7:10], _bootstrap_rows(n_obs, 3, 123, 8))
        # replicate 8 keeps the first n_obs uniforms of its counter block
        k = -(-n_obs // 4)
        stream = np.random.Generator(np.random.Philox(key=123, counter=7 * k))
        np.testing.assert_array_equal(whole[7], -np.log1p(-stream.random(4 * k)[:n_obs]))

    def test_mc_standard_error(self):
        rng = np.random.default_rng(13)
        res = gof_test(rng.exponential(1.0, 60), GofConfig(bootstrap_reps=199, seed=4))
        p = res.p_value
        assert res.mc_standard_error == pytest.approx(math.sqrt(p * (1.0 - p) / 199), rel=1e-15)
        assert "mc_standard_error" not in res.__dataclass_fields__

    def test_p_value_convention(self):
        rng = np.random.default_rng(8)
        x = rng.exponential(1.0, 150)
        cfg = GofConfig(bootstrap_reps=99, seed=3)
        res = gof_test(x, cfg)
        count = int(np.count_nonzero(res.replicates >= res.statistic))
        assert res.p_value == (1 + count) / (99 + 1)
        assert res.reject == (res.p_value <= cfg.level)

    def test_null_is_typically_accepted(self):
        rng = np.random.default_rng(9)
        x = rng.exponential(5.0, 250)
        res = gof_test(x, GofConfig(bootstrap_reps=199, seed=11))
        assert res.p_value > 0.05

    def test_power_smoke(self):
        rng = np.random.default_rng(10)
        lognormal = gof_test(rng.lognormal(0.0, 1.0, 200), GofConfig(bootstrap_reps=199, seed=1))
        weibull = gof_test(rng.weibull(0.5, 200), GofConfig(bootstrap_reps=199, seed=2))
        assert lognormal.reject
        assert weibull.reject

    def test_result_carries_rate_estimate(self):
        rng = np.random.default_rng(12)
        x = rng.exponential(1.0 / 3.0, 400)
        res = gof_test(x, GofConfig(bootstrap_reps=99, seed=0))
        assert res.lambda_hat == pytest.approx(3.0, rel=0.2)

    @pytest.mark.slow
    def test_size_calibration_smoke(self):
        # 100 seeded repetitions: rejection rate should sit near the level
        rejects = 0
        for r in range(100):
            rng = np.random.default_rng([1234, r])
            x = rng.exponential(1.0, 200)
            rejects += gof_test(x, GofConfig(bootstrap_reps=199, seed=r)).reject
        assert 0.0 <= rejects / 100 <= 0.12

    @pytest.mark.slow
    def test_null_residual_consistency_at_one_million(self):
        # the empirical equation residual vanishes under the null: at
        # N = 1e6 its sup over the grid stays below 5e-3 in >= 95/100 runs
        small = 0
        for r in range(100):
            rng = np.random.default_rng([777, r])
            x = rng.exponential(1.0, 1_000_000)
            _, resid = gof_residual_curve(x)
            small += float(np.abs(resid).max()) < 5e-3
        assert small >= 95
