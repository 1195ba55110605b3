"""EME maximum-likelihood fitting."""

import numpy as np
import pytest

from hypoexp import (
    EME,
    DataError,
    Erlang,
    ParameterError,
    eme_log_likelihood,
    fit_eme,
    moment_start,
)


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


class TestMomentStart:
    def test_inverts_true_moments(self):
        # large sample: the start should already be near the truth
        d = EME(2, 1.0, 4.0)
        x = d.sample(200_000, np.random.default_rng(0)).values
        starts = moment_start(x, 2)
        best = min(starts, key=lambda rw: abs(rw[1] - 4.0))
        assert best[0] == pytest.approx(1.0, rel=0.1)
        assert best[1] == pytest.approx(4.0, rel=0.2)

    def test_extreme_scale_does_not_overflow(self):
        # mean^2 and the variance overflow at 1e200; the ratio must not
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(7)).values
        for (r1, w1), (r2, w2) in zip(moment_start(x, 2), moment_start(1e200 * x, 2)):
            assert r2 * 1e200 == pytest.approx(r1, rel=1e-12)
            assert w2 == pytest.approx(w1, rel=1e-12)

    def test_offers_both_sides_when_ambiguous(self):
        # near-Erlang data: the moment map admits roots on both sides of 1
        x = Erlang(3, 1.0).sample(50_000, np.random.default_rng(1)).values
        starts = moment_start(x, 2)
        assert len(starts) >= 1
        assert all(w > 0.0 and rate > 0.0 for rate, w in starts)


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
        x = d.sample(20_000, np.random.default_rng(4)).values
        fit, ll = fit_eme(x, n=2)
        for rate0, w0 in moment_start(x, 2):
            assert ll >= eme_log_likelihood(x, EME(2, rate0, w0)) - 1e-6

    def test_fit_is_scale_equivariant_at_1e200(self):
        # the margin is small: this seed matches to 7.8e-7, because the fit
        # sums the log-likelihood in the data's own scale and so is scale-
        # equivariant only to about 1e-6.  Standardizing by the mean before
        # fitting (ROADMAP item 2) is the fix; if this fails after a numpy or
        # scipy update, record it as a finding rather than loosen the bound.
        x = EME(2, 1.0, 4.0).sample(5_000, np.random.default_rng(0)).values
        fit, _ = fit_eme(x, n=2)
        scaled, _ = fit_eme(1e200 * x, n=2)
        assert scaled.rate == pytest.approx(fit.rate / 1e200, rel=1e-6)
        assert scaled.w == pytest.approx(fit.w, rel=1e-6)

    def test_search_on_erlang_data_recovers_mean(self):
        # Erlang(3, 1) sits on the w -> 1 boundary of every EME(n, ., w); the
        # mean stays identified even if (n, w) trade off against each other
        x = Erlang(3, 1.0).sample(30_000, np.random.default_rng(5))
        best, _ = fit_eme(x, n=None, max_n=5)
        assert best.mean == pytest.approx(3.0, rel=0.02)

    def test_search_prefers_better_likelihood_than_fixed_one(self):
        d = EME(3, 1.0, 5.0)
        x = d.sample(20_000, np.random.default_rng(6)).values
        _, ll_one = fit_eme(x, n=1)
        best, ll_best = fit_eme(x, n=None, max_n=4)
        assert ll_best >= ll_one
