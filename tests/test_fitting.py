"""EME maximum-likelihood fitting."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypoexp import (
    EME,
    ConvergenceError,
    DataError,
    Erlang,
    ParameterError,
    derive_rng,
    eme_log_likelihood,
    fit_eme,
    moment_start,
)
from hypoexp import fitting
from hypoexp.distributions import _eme_logpdf


class TestValidation:
    def test_degenerate_data(self):
        with pytest.raises(DataError):
            fit_eme(np.full(100, 3.0), n=2)

    def test_nonpositive_data(self):
        with pytest.raises(DataError):
            fit_eme(np.array([1.0, 0.0, 2.0]), n=1)

    def test_empty_data(self):
        with pytest.raises(DataError):
            fit_eme(np.array([]), n=1)

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            fit_eme(np.array([1.0, 2.0, 3.0]), n=0)

    def test_bad_max_n(self):
        for bad in (0, 2.5, True):
            with pytest.raises(ParameterError):
                fit_eme(np.array([1.0, 2.0, 3.0]), max_n=bad)

    @pytest.mark.parametrize("bad", [-1, 0, 2.5, True])
    def test_moment_start_bad_n(self, bad):
        # n = -1 gave a negative and a zero rate, n = 0 no start at all
        x = np.random.default_rng(1).exponential(size=100)
        with pytest.raises(ParameterError, match="n must be a positive integer"):
            moment_start(x, bad)

    def test_likelihood_of_a_law_that_is_not_eme(self):
        x = np.random.default_rng(1).exponential(size=100)
        with pytest.raises(ParameterError, match="needs an EME distribution"):
            eme_log_likelihood(x, Erlang(2, 1.0))


class TestMomentStart:
    def test_inverts_true_moments(self):
        # large sample: the start should already be near the truth
        d = EME(2, 1.0, 4.0)
        x = d.sample(200_000, np.random.default_rng(0))
        starts = moment_start(x, 2)
        best = min(starts, key=lambda rw: abs(rw[1] - 4.0))
        assert best[0] == pytest.approx(1.0, rel=0.1)
        assert best[1] == pytest.approx(4.0, rel=0.2)

    def test_extreme_scale_does_not_overflow(self):
        # mean^2 and the variance overflow at 1e200; the ratio must not
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(7))
        for (r1, w1), (r2, w2) in zip(moment_start(x, 2), moment_start(1e200 * x, 2)):
            assert r2 * 1e200 == pytest.approx(r1, rel=1e-12)
            assert w2 == pytest.approx(w1, rel=1e-12)

    def test_offers_both_sides_when_ambiguous(self):
        # near-Erlang data: the moment map admits roots on both sides of 1
        x = Erlang(3, 1.0).sample(50_000, np.random.default_rng(1))
        starts = moment_start(x, 2)
        assert len(starts) >= 1
        assert all(w > 0.0 and rate > 0.0 for rate, w in starts)

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=40),
        scale=st.floats(min_value=-200.0, max_value=200.0).map(lambda e: 10.0**e),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_starts_reproduce_mean_and_clamped_ratio(self, base, scale, n):
        # the clamp keeps ratio in [1.02, n + 0.98], so the root
        # (n + disc)/(ratio - 1) is finite and positive: there is always a start
        x = np.array(base) * scale
        mean = x.mean()
        cv2 = (x / mean).var()
        assume(cv2 > 0.0)
        ratio = min(max(1.0 / cv2, 1.02), n + 1 - 0.02)
        starts = moment_start(x, n)
        assert len(starts) >= 1
        for rate, w in starts:
            assert (n + w) / rate == pytest.approx(mean, rel=1e-12)
            assert (n + w) ** 2 / (n + w * w) == pytest.approx(ratio, rel=1e-12)


class TestRecovery:
    def test_recovers_parameters(self):
        d = EME(2, 1.0, 4.0)
        x = d.sample(30_000, np.random.default_rng(2))
        fit, ll = fit_eme(x, n=2)
        assert fit.rate == pytest.approx(1.0, rel=0.08)
        assert fit.w == pytest.approx(4.0, rel=0.15)
        assert np.isfinite(ll)

    def test_recovers_small_w(self):
        d = EME(3, 2.0, 0.25)
        x = d.sample(30_000, np.random.default_rng(3))
        fit, _ = fit_eme(x, n=3)
        assert fit.rate == pytest.approx(2.0, rel=0.08)
        assert fit.w == pytest.approx(0.25, rel=0.3)

    def test_likelihood_not_below_moment_start(self):
        d = EME(2, 1.5, 3.0)
        x = d.sample(20_000, np.random.default_rng(4))
        fit, ll = fit_eme(x, n=2)
        for rate0, w0 in moment_start(x, 2):
            assert ll >= eme_log_likelihood(x, EME(2, rate0, w0)) - 1e-6

    def test_fit_is_scale_equivariant_at_1e200(self):
        # the fit runs on the data divided by their mean, so the 1e200 scale
        # never enters the likelihood; before that this seed matched only to
        # 7.8e-7.  The tighter bound over ten seeds is the test below.
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(0))
        fit, _ = fit_eme(x, n=2)
        scaled, _ = fit_eme(1e200 * x, n=2)
        assert scaled.rate == pytest.approx(fit.rate / 1e200, rel=1e-6)
        assert scaled.w == pytest.approx(fit.w, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_scale_equivariance_to_1e7(self, seed):
        # summed in the data's own scale these seeds matched to 1.1e-7..9.0e-7
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(seed))
        fit, ll = fit_eme(x, n=2)
        scaled, ll_scaled = fit_eme(1e200 * x, n=2)
        assert scaled.rate * 1e200 == pytest.approx(fit.rate, rel=1e-7)
        assert scaled.w == pytest.approx(fit.w, rel=1e-7)
        assert ll_scaled == pytest.approx(ll - x.size * math.log(1e200), rel=1e-12)

    def test_n1_returns_the_form_with_w_at_least_one(self):
        # EME(1, r, w) and EME(1, r/w, 1/w) are one law; the fit used to
        # return either, by rounding (w = 1.952 here, 0.512 at scale 1e200)
        x = EME(1, 0.5, 2.0).sample(2_000, np.random.default_rng(0))
        fit, ll = fit_eme(x, n=1)
        scaled, _ = fit_eme(1e200 * x, n=1)
        assert fit.w >= 1.0 and scaled.w >= 1.0
        assert scaled.w == pytest.approx(fit.w, rel=1e-7)
        assert scaled.rate * 1e200 == pytest.approx(fit.rate, rel=1e-7)
        mirror = EME(1, fit.rate / fit.w, 1.0 / fit.w)
        assert eme_log_likelihood(x, mirror) == pytest.approx(ll, rel=1e-12)

    def test_score_vanishes_at_the_fit(self):
        # the returned point is stationary: finite differences of the
        # log-likelihood in (log rate, log w) are flat there
        x = EME(3, 2.0, 0.25).sample(20_000, np.random.default_rng(8))
        fit, ll = fit_eme(x, n=3)
        assert ll == pytest.approx(eme_log_likelihood(x, fit), rel=1e-12)
        h = 1e-5
        for d_rate, d_w in ((h, 0.0), (0.0, h)):
            up = eme_log_likelihood(x, EME(3, fit.rate * math.exp(d_rate), fit.w * math.exp(d_w)))
            down = eme_log_likelihood(x, EME(3, fit.rate / math.exp(d_rate), fit.w / math.exp(d_w)))
            assert abs(up - down) / (2 * h) <= 1e-6 * x.size

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(9))
        with pytest.raises(ConvergenceError, match="iteration cap"):
            fit_eme(x, n=2)

    def test_end_away_from_a_stationary_point_raises(self, monkeypatch):
        # no status is accepted without the score test passing
        monkeypatch.setattr(fitting, "STATIONARY_SCORE", 1e-300)
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(9))
        with pytest.raises(ConvergenceError, match="stationary"):
            fit_eme(x, n=2)

    def test_search_on_erlang_data_recovers_mean(self):
        # Erlang(3, 1) sits on the w -> 1 boundary of every EME(n, ., w); the
        # mean stays identified even if (n, w) trade off against each other
        x = Erlang(3, 1.0).sample(30_000, np.random.default_rng(5))
        best, _ = fit_eme(x, n=None, max_n=5)
        assert best.mean == pytest.approx(3.0, rel=0.02)

    def test_search_prefers_better_likelihood_than_fixed_one(self):
        d = EME(3, 1.0, 5.0)
        x = d.sample(20_000, np.random.default_rng(6))
        _, ll_one = fit_eme(x, n=1)
        best, ll_best = fit_eme(x, n=None, max_n=4)
        assert ll_best >= ll_one


class TestNewtonSearch:
    @staticmethod
    def _count(monkeypatch):
        """The number of searches run by ``fit_eme``, and the number of
        points of each kernel pass."""
        counts = {"searches": 0, "sizes": []}
        kernel, minimize = fitting._eme_logpdf, fitting.optimize.minimize

        def counted_kernel(*args, **kwargs):
            counts["sizes"].append(len(args[3]))
            return kernel(*args, **kwargs)

        def counted_minimize(*args, **kwargs):
            counts["searches"] += 1
            return minimize(*args, **kwargs)

        monkeypatch.setattr(fitting, "_eme_logpdf", counted_kernel)
        monkeypatch.setattr(fitting, "optimize", SimpleNamespace(minimize=counted_minimize))
        return counts

    @pytest.mark.parametrize("n, rate, w", [(2, 1.0, 4.0), (3, 2.0, 0.25)])
    def test_passes_per_start_on_acceptance_data(self, monkeypatch, n, rate, w):
        # L-BFGS-B took 30 and 18 passes on all the data over the starts on
        # these datasets, Newton steps from the moment starts 14 and 8; from
        # the end of the coarse search Newton only has to converge.  A pass on
        # all the data is told from a coarse one by its point count.
        data = EME(n, rate, w).sample(100_000, derive_rng(20260110, "fit", n))
        counts = self._count(monkeypatch)
        fit_eme(data, n=n)
        starts = len(moment_start(data, n))
        assert counts["searches"] == 2 * starts
        assert counts["sizes"].count(data.size) <= 4 * starts
        # every 24th order statistic from the 12th
        assert set(counts["sizes"]) == {data.size, len(range(12, data.size, 24))}

    def test_points_and_fits_on_the_benchmark_fit_inputs(self, monkeypatch):
        # the two fixed-n fits and the stage scan of perfbench's
        # model_pipeline, against the laws, log-likelihoods and point counts
        # of the search on all the data from the moment starts
        inputs = [
            (EME(2, 1.0, 4.0).sample(100_000, derive_rng(20260110, "fit", 2)), 2,
             (0.9909747265399209, 3.97192733637236, -263570.21486750315, 1_400_000)),
            (EME(3, 2.0, 0.25).sample(100_000, derive_rng(20260110, "fit", 3)), 3,
             (2.0113031081058073, 0.2624598056781534, -117021.95360717988, 800_000)),
            (EME(2, 1.0, 4.0).sample(20_000, derive_rng(20260110, "scan")), None,
             (0.9946087094039368, 3.9803759614834404, -52667.92589573227, 540_000)),
        ]
        counts = self._count(monkeypatch)
        total = 0
        for data, n, (rate, w, parent_ll, parent_points) in inputs:
            counts["sizes"].clear()
            fit, ll = fit_eme(data, n=n)
            assert fit.n == (2 if n is None else n)
            assert ll >= parent_ll - 1e-12 * abs(parent_ll)
            assert fit.rate == pytest.approx(rate, rel=1e-7)
            assert fit.w == pytest.approx(w, rel=1e-7)
            assert sum(counts["sizes"]) < parent_points
            total += sum(counts["sizes"])
        assert total <= 0.75 * 2_740_000

    def test_n1_runs_one_start_and_finds_the_two_start_law(self, monkeypatch):
        # EME(1, r, w) and EME(1, r/w, 1/w) are one law, so the two moment
        # starts are mirror images; the two-start L-BFGS-B search gave this law
        x = EME(1, 0.5, 2.0).sample(2_000, np.random.default_rng(0))
        assert len(moment_start(x, 1)) == 2
        counts = self._count(monkeypatch)
        fit, ll = fit_eme(x, n=1)
        assert counts["searches"] == 1
        assert fit.rate == pytest.approx(0.4949216432019442, rel=1e-7)
        assert fit.w == pytest.approx(1.9521522158447224, rel=1e-7)
        assert ll >= -5362.472862017984 - 1e-9 * 5362.5

    @pytest.mark.parametrize(
        "n, parent_ll", [(1, -464.1603826863227), (2, -464.16038859538816), (3, -464.1603886784321)])
    def test_exponential_ridge_gives_stationary_fits(self, n, parent_ll):
        # Weibull(0.5) data climb the ridge w -> inf with rate/w fixed; the
        # search must stop there at a stationary point, and no lower than
        # the L-BFGS-B search did
        x = np.random.default_rng([2, 300]).weibull(0.5, 300)
        fit, ll = fit_eme(x, n=n)
        assert ll == pytest.approx(eme_log_likelihood(x, fit), rel=1e-12)
        assert ll >= parent_ll - 1e-9 * abs(parent_ll)
        scale = x.mean()
        _, score, _ = _eme_logpdf(n, fit.rate * scale, fit.w, np.sort(x) / scale, derivatives=True)
        assert np.max(np.abs(score)) <= fitting.STATIONARY_SCORE


class TestCoarseSearch:
    @pytest.mark.parametrize("size, coarse", [(300, None), (8191, None), (8192, 4096)])
    def test_only_from_8192_points_on(self, monkeypatch, size, coarse):
        # below 2 * COARSE_POINTS every kernel call sees all the data and each
        # start runs one search, as before the coarse search; at 8192 every
        # second point is searched first
        x = EME(2, 1.0, 4.0).sample(size, np.random.default_rng(size))
        starts = len(moment_start(x, 2))
        counts = TestNewtonSearch._count(monkeypatch)
        fit_eme(x, n=2)
        if coarse is None:
            assert set(counts["sizes"]) == {size} and counts["searches"] == starts
        else:
            assert set(counts["sizes"]) == {size, coarse} and counts["searches"] == 2 * starts

    @pytest.mark.parametrize("failure", ["raises", "non-finite"])
    def test_failed_coarse_search_leaves_the_search_from_the_moment_start(
            self, monkeypatch, failure):
        x = EME(2, 1.0, 4.0).sample(10_000, np.random.default_rng(11))
        with monkeypatch.context() as m:
            m.setattr(fitting, "COARSE_POINTS", x.size)
            want = fit_eme(x, n=2)
        kernel, search = fitting._eme_logpdf, fitting._search

        def failing_kernel(n, rate, w, y, **kwargs):
            if y.size < x.size:
                raise OverflowError("math range error")
            return kernel(n, rate, w, y, **kwargs)

        def non_finite_search(likelihood, z0, gtol):
            if gtol == fitting.STATIONARY_SCORE:
                return SimpleNamespace(x=np.array([np.nan, 0.0]), fun=np.nan)
            return search(likelihood, z0, gtol)

        if failure == "raises":
            monkeypatch.setattr(fitting, "_eme_logpdf", failing_kernel)
        else:
            monkeypatch.setattr(fitting, "_search", non_finite_search)
        got = fit_eme(x, n=2)
        assert (got[0].rate, got[0].w, got[1]) == (want[0].rate, want[0].w, want[1])

    def test_two_fits_of_the_same_data_are_identical(self):
        x = EME(3, 2.0, 0.25).sample(20_000, np.random.default_rng(12))
        first, second = fit_eme(x), fit_eme(x.copy())
        assert (first[0].n, first[0].rate, first[0].w, first[1]) == (
            second[0].n, second[0].rate, second[0].w, second[1])

    @pytest.mark.parametrize("z", [(0.0, -800.0), (0.0, 800.0), (-800.0, 0.0)])
    def test_step_out_of_range_raises_convergence_error(self, monkeypatch, z):
        # w underflows to 0 (ZeroDivisionError), w overflows (OverflowError),
        # and rate underflows to 0 (math domain error in log rate)
        def minimize(fun, z0, **kwargs):
            fun(np.array(z))

        monkeypatch.setattr(fitting, "optimize", SimpleNamespace(minimize=minimize))
        x = EME(2, 1.0, 4.0).sample(300, np.random.default_rng(0))
        with pytest.raises(ConvergenceError, match=r"out of range for n=2: \(log rate, log w\)"):
            fit_eme(x, n=2)
