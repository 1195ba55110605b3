"""Distribution families: densities, transforms, moments, sampling."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from oracles import upper_gamma_q
from scipy import integrate, special, stats

from hypoexp import (
    EME,
    ConvergenceError,
    DomainError,
    Erlang,
    Exponential,
    Hypoexponential,
    ParameterError,
    dist_from_dict,
    dist_to_dict,
    distributions,
    family_name,
    make_distribution,
)
from hypoexp.cli import main as cli_main
from hypoexp.distributions import FAMILIES, FAMILY_ALIASES, _eme_logpdf, _exp_tail_series


def _eme_logpdf_mp(mpmath, n, log_rate, log_w, x):
    """log density of EME(n, e^log_rate, e^log_w) at x in mpmath, from
    f = (rate/w) e^{-lx} lx^n / n! 1F1(1; n+1; (w-1)/w lx)."""
    rate, w = mpmath.exp(log_rate), mpmath.exp(log_w)
    lx = rate * x
    u = (w - 1) / w * lx
    return (
        mpmath.log(rate / w) - lx + n * mpmath.log(lx) - mpmath.loggamma(n + 1)
        + mpmath.log(mpmath.hyp1f1(1, n + 1, u))
    )

def _eme_cdf_mp(mpmath, n, rate, w, x):
    """CDF of EME(n, rate, w) at x from the closed partial-fraction form in
    300 digits, which absorb its cancellation; v = w/(w-1)."""
    with mpmath.workdps(300):
        rate, w, x = mpmath.mpf(rate), mpmath.mpf(w), mpmath.mpf(x)
        lx, v = rate * x, w / (w - 1)
        total = v**n * (1 - mpmath.exp(-lx / w))
        for k in range(n):
            total -= v ** (n - k) * mpmath.gammainc(k + 1, 0, lx, regularized=True) / w
        return float(total)


def _eme_cdf_quad_mp(mpmath, n, rate, w, x):
    """CDF of EME(n, rate, w) at x by 60-digit quadrature of the density
    f = (rate/w) e^{-lx} lx^n / n! 1F1(1; n+1; (w-1)/w lx).  The integrand is
    f / f(x): mpmath's tolerance is absolute, and F can be far below 1e-60."""
    with mpmath.workdps(60):
        rate, w, x = mpmath.mpf(rate), mpmath.mpf(w), mpmath.mpf(x)

        def density(t):
            lx = rate * t
            return (rate / w * mpmath.exp(-lx) * lx**n / mpmath.factorial(n)
                    * mpmath.hyp1f1(1, n + 1, (w - 1) / w * lx))

        top = density(x)
        return float(mpmath.quad(lambda t: density(t) / top, [0, x]) * top)


ALL_FAMILIES = [
    Exponential(1.3),
    Erlang(3, 2.0),
    Hypoexponential((1.0, 2.0, 3.5)),
    EME(2, 1.0, 3.0),
    EME(3, 2.0, 0.4),
]


class TestExponential:
    def test_pdf_at_zero_is_rate(self):
        assert Exponential(1.0).pdf(0.0) == 1.0
        assert Exponential(2.5).pdf(0.0) == 2.5

    def test_median(self):
        assert Exponential(2.0).cdf(math.log(2.0) / 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_laplace_half(self):
        assert Exponential(1.0).laplace(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_laplace_at_zero_is_one(self):
        for dist in ALL_FAMILIES:
            assert dist.laplace(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_moments(self):
        d = Exponential(2.0)
        assert (d.mean, d.var) == (0.5, 0.25)

    def test_rejects_bad_rate(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ParameterError):
                Exponential(bad)


class TestErlang:
    def test_matches_scipy_gamma(self):
        d = Erlang(4, 2.5)
        x = np.linspace(0.0, 6.0, 50)
        np.testing.assert_allclose(d.pdf(x), stats.gamma.pdf(x, 4, scale=1 / 2.5),
                                   rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(d.cdf(x), stats.gamma.cdf(x, 4, scale=1 / 2.5),
                                   rtol=1e-12, atol=1e-15)

    def test_laplace_is_power_of_exponential(self):
        t = np.linspace(0.0, 8.0, 17)
        np.testing.assert_allclose(Erlang(5, 1.5).laplace(t),
                                   Exponential(1.5).laplace(t) ** 5, rtol=1e-14)

    def test_moments(self):
        d = Erlang(3, 2.0)
        assert (d.mean, d.var) == (1.5, 0.75)

    def test_large_n_density_against_mpmath(self):
        # the density is rate pois(n - 1; rate x) from special.log_poisson_weight;
        # summing n log(rate x) and lgamma(n) apart lost up to 1.4e-11 here
        mpmath = pytest.importorskip("mpmath")
        for n in (50, 1000, 20_000):
            lx = np.array([0.5, 1.0, 1.5, 3.0]) * n
            got = Erlang(n, 1.3).pdf(lx / 1.3)
            with mpmath.workdps(50):
                for gi, li in zip(got, lx):
                    want = 1.3 * mpmath.exp((n - 1) * mpmath.log(li) - li - mpmath.loggamma(n))
                    assert gi == pytest.approx(float(want), rel=1e-13, abs=0.0), (n, li)

    def test_shape_one_is_exponential(self):
        x = np.linspace(0.0, 5.0, 21)
        np.testing.assert_allclose(Erlang(1, 1.7).pdf(x), Exponential(1.7).pdf(x),
                                   rtol=1e-14)


class TestHypoexponential:
    def test_two_rate_closed_form(self):
        # rates (1, 2): f = 2 e^-x (1 - e^-x) and F = (1 - e^-x)^2, both
        # without cancellation
        d = Hypoexponential((1.0, 2.0))
        x = np.concatenate([np.geomspace(1e-8, 1.0, 9), np.linspace(1.5, 60.0, 12)])
        np.testing.assert_allclose(d.pdf(x), -2.0 * np.exp(-x) * np.expm1(-x), rtol=1e-14)
        np.testing.assert_allclose(d.cdf(x), np.expm1(-x) ** 2, rtol=1e-14)

    def test_two_rate_density_value(self):
        # 2 exp(-x) - 2 exp(-2x) at x = ln 2 gives 1 - 1/2
        assert Hypoexponential((1.0, 2.0)).pdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_density_matches_component_convolution(self):
        d = Hypoexponential((1.0, 2.0))
        for x in (0.3, 1.0, 2.7):
            conv, _ = integrate.quad(
                lambda u, xx=x: math.exp(-u) * 2.0 * math.exp(-2.0 * (xx - u)), 0.0, x
            )
            assert d.pdf(x) == pytest.approx(conv, abs=1e-12)

    def test_cdf_boundary(self):
        assert Hypoexponential((1.0, 2.0)).cdf(0.0) == 0.0

    def test_moments(self):
        d = Hypoexponential((1.0, 2.0))
        got = (d.mean, d.var)
        assert got[0] == pytest.approx(1.5, abs=1e-14)
        assert got[1] == pytest.approx(1.25, abs=1e-14)

    def test_normalization_sweep(self):
        # random rate sets, repeated and near-equal rates included: the cdf
        # is the integral of the pdf and reaches 1
        rng = np.random.default_rng(11)
        for _ in range(40):
            rates = np.exp(rng.uniform(-1.5, 1.5, int(rng.integers(1, 7))))
            if rates.size > 1 and rng.random() < 0.5:
                rates[1] = rates[0] * (1.0 + rng.choice([0.0, 1e-12, 1e-6]))
            d = Hypoexponential(tuple(rates))
            x = d.mean
            area, _ = integrate.quad(d.pdf, 0.0, x, epsabs=0.0, epsrel=1e-12, limit=200)
            assert d.cdf(x) == pytest.approx(area, rel=1e-10)
            assert d.cdf(d.mean + 80.0 / rates.min()) == pytest.approx(1.0, abs=1e-14)
            assert d.cdf(1e9) == 1.0 and d.pdf(1e9) == 0.0

    def test_near_equal_rates_evaluate(self):
        # repeated rates are a stage chain like any other: Erlang(2, 1) here
        x = np.linspace(0.0, 30.0, 31)
        erlang = Erlang(2, 1.0)
        np.testing.assert_allclose(Hypoexponential((1.0, 1.0)).pdf(x), erlang.pdf(x),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(Hypoexponential((1.0, 1.0)).cdf(x), erlang.cdf(x),
                                   rtol=1e-14, atol=0.0)
        # rates 1 and b = 1 + 1e-9, against partial fractions in 60 digits:
        # f = b (e^-x - e^-bx) / (b - 1), F = 1 - (b e^-x - e^-bx) / (b - 1)
        mpmath = pytest.importorskip("mpmath")
        near = Hypoexponential((1.0, 1.0 + 1e-9))
        with mpmath.workdps(60):
            b = mpmath.mpf(1.0 + 1e-9)
            for xi, f, F in zip(x, near.pdf(x), near.cdf(x)):
                ea, eb = mpmath.exp(-mpmath.mpf(xi)), mpmath.exp(-b * xi)
                assert f == pytest.approx(float(b * (ea - eb) / (b - 1)), rel=1e-13, abs=0.0)
                assert F == pytest.approx(float(1 - (b * ea - eb) / (b - 1)), rel=1e-13, abs=0.0)

    def test_single_rate_is_exponential(self):
        x = np.linspace(0.0, 700.0, 71)
        d, ref = Hypoexponential((1.0,)), Exponential(1.0)
        np.testing.assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-15, atol=0.0)
        assert d.pdf(0.0) == 1.0

    @pytest.mark.parametrize("rates, xs, tol", [
        (tuple(range(1, 11)), (0.05, 0.5, 2.0, 20.0), 1e-12),
        (tuple(range(1, 26)), (0.05, 0.5, 2.0, 20.0), 1e-12),
        (tuple(range(1, 41)), (0.05, 0.5, 2.0, 20.0), 1e-12),
        # up to 2e5 windows of the rate-100 clock: a rounding error per window
        # would add up, so the diagonals of the window powers are exact
        ((0.01, 100.0), (0.05, 5.0, 100.0, 1000.0, 5000.0, 2e4, 7e4), 1e-11),
        ((1.0, 1.0, 2.0, 2.0, 3.0), (0.05, 0.5, 2.0, 20.0), 1e-13),
        ((1.0,) * 5, (0.05, 0.5, 2.0, 20.0), 1e-13),
        ((2.0, 2.0, 2.0, 0.5), (0.05, 0.5, 2.0, 20.0), 1e-13),
    ])
    def test_against_mpmath(self, rates, xs, tol):
        # distinct rates: partial fractions in 250 digits, which absorb their
        # cancellation (rates 1..25 at x = 0.5 used to give F = 0 for a true
        # 7.46e-11); repeated rates: exp(xQ) of the generator in 80 digits
        mpmath = pytest.importorskip("mpmath")
        d = Hypoexponential(rates)
        got = np.array([d.pdf(np.array(xs)), d.cdf(np.array(xs))])
        k = len(rates)
        for i, x in enumerate(xs):
            if len(set(rates)) == k:
                with mpmath.workdps(250):
                    lam, xm = [mpmath.mpf(r) for r in rates], mpmath.mpf(x)
                    weights = [mpmath.fprod(li / (li - lj) for li in lam if li != lj)
                               for lj in lam]
                    pdf = mpmath.fsum(w * lj * mpmath.exp(-lj * xm) for w, lj in zip(weights, lam))
                    cdf = 1 - mpmath.fsum(w * mpmath.exp(-lj * xm) for w, lj in zip(weights, lam))
            else:
                with mpmath.workdps(80):
                    q = mpmath.zeros(k + 1)
                    for j, r in enumerate(rates):
                        q[j, j], q[j, j + 1] = -r, r
                    e = mpmath.expm(q * x)
                    pdf, cdf = rates[-1] * e[0, k - 1], e[0, k]
            for j, name in enumerate(("pdf", "cdf")):
                want = float((pdf, cdf)[j])
                assert want > 0.0
                assert got[j, i] == pytest.approx(want, rel=tol, abs=0.0), (name, x)
                assert getattr(d, name)(x) == pytest.approx(want, rel=tol, abs=0.0), (name, x)

    def test_closed_forms_where_they_apply(self):
        # a few points per window and thousands (the Horner path), one call each
        x = np.concatenate([np.geomspace(1e-3, 1.0, 7), np.linspace(2.0, 40.0, 3000)])
        for hypo, ref in ((Hypoexponential((1.0,) * 5), Erlang(5, 1.0)),
                          (Hypoexponential((2.0, 2.0, 2.0, 0.5)), EME(3, 2.0, 4.0))):
            np.testing.assert_allclose(hypo.pdf(x), ref.pdf(x), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(hypo.cdf(x), ref.cdf(x), rtol=1e-13, atol=0.0)

    def test_work_is_bounded_in_x(self):
        # every window count past the last square of the window matrix is
        # absorbed: F = 1 and f = 0 exactly, at any x
        for rates in ((1.0, 2.0, 3.0, 4.0, 5.0), (0.01, 100.0)):
            d = Hypoexponential(rates)
            for x in (1e9, 1e300):
                assert d.cdf(x) == 1.0 and d.pdf(x) == 0.0
            np.testing.assert_array_equal(d.cdf(np.array([1e9, 0.0])), [1.0, 0.0])

    def test_laplace_is_product(self):
        d = Hypoexponential((1.0, 2.0, 5.0))
        t = np.linspace(0.0, 4.0, 9)
        want = np.ones_like(t)
        for r in d.rates:
            want *= r / (r + t)
        np.testing.assert_allclose(d.laplace(t), want, rtol=1e-14)


class TestEME:
    def test_pdf_at_zero_is_exactly_zero(self):
        assert EME(1, 1.0, 2.0).pdf(0.0) == 0.0
        assert EME(3, 2.0, 0.5).pdf(0.0) == 0.0

    def test_n1_closed_form(self):
        d = EME(1, 1.0, 2.0)
        x = np.linspace(0.0, 12.0, 49)
        np.testing.assert_allclose(d.pdf(x), np.exp(-x / 2.0) - np.exp(-x), atol=1e-14)

    def test_path_equivalence_with_hypoexponential(self):
        # sum of n=1 stage plus w-scaled stage is hypoexponential(rate, rate/w)
        rng = np.random.default_rng(21)
        for _ in range(50):
            rate = float(np.exp(rng.uniform(-1.2, 1.2)))
            w = float(np.exp(rng.uniform(-1.6, 1.6)))
            if 0.999 <= w <= 1.001:
                continue
            eme = EME(1, rate, w)
            hypo = Hypoexponential((rate, rate / w))
            x = np.linspace(0.0, eme.mean + 6.0 * math.sqrt(eme.var), 40)
            np.testing.assert_allclose(eme.pdf(x), hypo.pdf(x), atol=1e-12)

    def test_incomplete_gamma_form(self):
        # well-conditioned regime: the documented closed form holds verbatim
        for (n, rate, w) in [(2, 1.0, 3.0), (3, 2.0, 0.5), (1, 0.7, 2.2)]:
            d = EME(n, rate, w)
            beta = rate * (w - 1.0) / w
            for x in (0.4, 1.3, 3.7):
                closed = (
                    (rate / w)
                    * math.exp(-rate * x / w)
                    * (w / (w - 1.0)) ** n
                    * (1.0 - upper_gamma_q(n, beta * x))
                )
                assert d.pdf(x) == pytest.approx(closed, rel=1e-11)

    def test_cdf_against_quadrature(self):
        d = EME(2, 1.0, 3.0)
        val, err = integrate.quad(d.pdf, 0.0, 5.0, limit=200, epsabs=1e-12)
        assert d.cdf(5.0) == pytest.approx(val, abs=1e-9)

    def test_moments(self):
        d = EME(2, 1.0, 3.0)
        assert (d.mean, d.var) == (5.0, 11.0)

    def test_laplace_value(self):
        assert EME(1, 1.0, 2.0).laplace(1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_laplace_factorizes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            rate = float(np.exp(rng.uniform(-1.0, 1.0)))
            w = float(np.exp(rng.uniform(-1.5, 1.5)))
            d = EME(n, rate, w)
            t = np.linspace(0.0, 10.0, 13)
            factored = Exponential(rate / w).laplace(t) * Erlang(n, rate).laplace(t)
            np.testing.assert_allclose(d.laplace(t), factored, rtol=1e-14)

    def test_erlang_limit(self):
        # at and near w = 1 the law is Erlang(n+1, rate)
        for w in (1.0, 1.0 + 1e-8, 1.0 - 1e-8):
            d = EME(2, 1.5, w)
            ref = Erlang(3, 1.5)
            x = np.linspace(0.0, 8.0, 33)
            np.testing.assert_allclose(d.pdf(x), ref.pdf(x), rtol=1e-7, atol=1e-12)
            np.testing.assert_allclose(d.cdf(x), ref.cdf(x), rtol=1e-7, atol=1e-12)

    def test_tail_series_at_branch_point_large_n(self):
        # the series is 1F1(1; n+1; u); at |u| = n+1 it needs ~9.2 sqrt(n)
        # terms, beyond any fixed cap for large n
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        n = 20_000
        u = np.array([n + 1.0, -(n + 1.0)])
        got = _exp_tail_series(n, u)
        for ui, gi in zip(u, got):
            want = float(mpmath.hyp1f1(1, n + 1, ui))
            assert gi == pytest.approx(want, rel=1e-12)

    def test_direct_branch_large_n_against_mpmath(self):
        # just past the branch point |u| = n+1 the partial sum of the direct
        # branch used to overflow from n ~ 510 on and return -inf
        mpmath = pytest.importorskip("mpmath")
        assert EME(1000, 1.0, 2.0).logpdf(2004.0) == pytest.approx(-310.18199176976, rel=1e-12)
        for n in (510, 1000, 20_000):
            for w in (2.0, 0.5, 0.9):
                edge = (n + 1) * w / abs(w - 1.0)  # rate x at |u| = n+1
                lx = np.array([edge * (1 + 1e-9), edge * 1.001, edge * 1.05])
                got = _eme_logpdf(n, 1.0, w, lx)
                for xi, gi in zip(lx, got):
                    with mpmath.workdps(40):
                        want = float(_eme_logpdf_mp(mpmath, n, 0.0, math.log(w), xi))
                    assert gi == pytest.approx(want, rel=1e-12), (n, w, xi)

    @staticmethod
    def _score_grid():
        rate = 1.3
        for n in (1, 2, 3, 20):
            for w in (0.25, 1.0 - 1e-6, 1.0, 1.0 + 1e-9, 4.0):
                x = [0.05, 0.7, (n + 1) / rate, 4.0 * (n + 1) / rate]
                if w != 1.0:
                    edge = (n + 1) * w / (abs(w - 1.0) * rate)
                    x += [edge * (1 - 1e-6), edge * (1 + 1e-6), 2.0 * edge]
                for xi in x:
                    yield n, rate, w, xi

    @staticmethod
    def _mp_derivatives(mpmath, n, rate, w, xi, orders, dps=40):
        def logf(a, b):
            return _eme_logpdf_mp(mpmath, n, a, b, xi)

        with mpmath.workdps(dps):
            a0, b0 = mpmath.log(rate), mpmath.log(w)
            return [float(mpmath.diff(logf, (a0, b0), order)) for order in orders]

    def test_score_against_mpmath(self):
        # one point at a time: the kernel's means are then that point's values
        mpmath = pytest.importorskip("mpmath")
        for n, rate, w, xi in self._score_grid():
            _, score, _ = _eme_logpdf(n, rate, w, np.array([xi]), derivatives=True)
            d_rate, d_w = score
            assert np.isfinite(d_rate) and np.isfinite(d_w)
            wants = self._mp_derivatives(mpmath, n, rate, w, xi, [(1, 0), (0, 1)])
            for got, want in zip((d_rate, d_w), wants):
                assert abs(got - want) <= 1e-8 * max(abs(want), 1.0), (n, w, xi)

    def test_hessian_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for n, rate, w, xi in self._score_grid():
            _, _, hessian = _eme_logpdf(n, rate, w, np.array([xi]), derivatives=True)
            assert hessian[0, 1] == hessian[1, 0]
            wants = self._mp_derivatives(mpmath, n, rate, w, xi, [(2, 0), (1, 1), (0, 2)])
            for got, want in zip((hessian[0, 0], hessian[0, 1], hessian[1, 1]), wants):
                assert abs(got - want) <= 1e-8 * max(abs(want), 1.0), (n, w, xi)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("w", [1e-3, 0.25, 4.0, 1e3])
    def test_direct_branch_derivatives_at_large_u(self, n, w):
        # out to |u| = 1e5.  For w < 1 the forms in t = n/S and R = u S'/S
        # lost up to 1.2e-6 relative there: t and lx/w are both about -u
        mpmath = pytest.importorskip("mpmath")
        rate = 1.3
        for abs_u in (1e2, 1e4, 1e5):
            xi = abs_u * w / (abs(w - 1.0) * rate)
            mean_ll, score, hessian = _eme_logpdf(n, rate, w, np.array([xi]), derivatives=True)
            got = [score[0], score[1], hessian[0, 0], hessian[0, 1], hessian[1, 1]]
            wants = self._mp_derivatives(
                mpmath, n, rate, w, xi, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], dps=60)
            for g, want in zip(got, wants):
                assert abs(g - want) <= 1e-13 * max(abs(want), 1.0), (abs_u, g, want)
            assert mean_ll == _eme_logpdf(n, rate, w, np.array([xi]))[0]

    def test_derivatives_are_means_over_the_points(self):
        # both branches and the three kinds of term in one call
        rng = np.random.default_rng(3)
        for n, w in ((2, 4.0), (3, 0.25), (1, 1.0)):
            x = np.sort(rng.exponential(2.0, 50))
            mean_ll, score, hessian = _eme_logpdf(n, 1.1, w, x, derivatives=True)
            points = [_eme_logpdf(n, 1.1, w, np.array([xi]), derivatives=True) for xi in x]
            assert mean_ll == pytest.approx(np.mean([p[0] for p in points]), rel=1e-14)
            np.testing.assert_allclose(score, np.mean([p[1] for p in points], axis=0),
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(hessian, np.mean([p[2] for p in points], axis=0),
                                       rtol=1e-12, atol=1e-14)
            assert mean_ll == pytest.approx(_eme_logpdf(n, 1.1, w, x).mean(), rel=1e-15)

    def test_derivative_pass_over_blocks_matches_one_block(self, monkeypatch):
        # three full blocks and a partial one, against the same pass in one
        # block; only the order of the sums differs
        rng = np.random.default_rng(4)
        x = np.sort(rng.exponential(2.0, 3 * distributions._PASS_POINTS + 5))
        for n, w in ((2, 4.0), (3, 0.25), (20, 0.8)):
            blocks = _eme_logpdf(n, 1.1, w, x, derivatives=True)
            monkeypatch.setattr(distributions, "_PASS_POINTS", x.size)
            whole = _eme_logpdf(n, 1.1, w, x, derivatives=True)
            monkeypatch.undo()
            assert blocks[0] == pytest.approx(whole[0], rel=1e-14)
            np.testing.assert_allclose(blocks[1], whole[1], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(blocks[2], whole[2], rtol=1e-12, atol=1e-14)

    def test_derivative_pass_holds_no_array_of_the_data_size(self):
        x = np.sort(np.random.default_rng(5).exponential(2.0, 100_000))
        for n, w in ((2, 4.0), (3, 0.25), (20, 0.8)):
            tracemalloc.start()
            try:
                _eme_logpdf(n, 1.1, w, x, derivatives=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * x.nbytes, (n, w, peak)

    @pytest.mark.parametrize("n, w", [(20, 0.8), (40, 0.55)])
    def test_cdf_series_branch_against_mpmath(self, n, w):
        # F(x) = P(n, lx) - v^n e^{-lx/w} (1 - e^{-u} sum_{k<n} u^k/k!), in
        # enough digits to absorb its cancellation in the left tail
        mpmath = pytest.importorskip("mpmath")
        d = EME(n, 1.0, w)
        x = np.array([1e-3, 0.05, 0.5, 2.0, 0.3 * d.mean, 0.7 * d.mean, d.mean,
                      1.5 * d.mean, 3.0 * d.mean])
        got = d.cdf(x)
        for xi, gi in zip(x, got):
            with mpmath.workdps(300):
                lx, wm = mpmath.mpf(xi), mpmath.mpf(w)
                u = (wm - 1) / wm * lx
                poly = mpmath.fsum(u**k / mpmath.factorial(k) for k in range(n))
                want = mpmath.gammainc(n, 0, lx, regularized=True) - (wm / (wm - 1)) ** n * (
                    mpmath.exp(-lx / wm) * (1 - mpmath.exp(-u) * poly)
                )
            # abs=0: the default abs=1e-12 would pass any left-tail value
            assert gi == pytest.approx(float(want), rel=1e-12, abs=0.0), xi
            assert d.cdf(float(xi)) == pytest.approx(float(want), rel=1e-12, abs=0.0), xi

    @pytest.mark.parametrize(
        "n, rate, w, x",
        [(20, 1.0, 0.45, 1e-3), (20, 1.0, 0.45, 0.3), (20, 1.0, 0.45, 2.0),
         (5, 1.0, 3.0, 1e-3), (3, 2.0, 0.25, 1e-3), (2, 1.0, 4.0, 1e-3)],
    )
    def test_cdf_left_tail_against_mpmath(self, n, rate, w, x):
        # the closed partial-fraction form cancelled here (EME(20, 1, 0.45)
        # gave 5.8e-21 at x = 1e-3 for a true 4.3e-83); |u| <= n+1 now takes
        # the series form
        mpmath = pytest.importorskip("mpmath")
        want = _eme_cdf_mp(mpmath, n, rate, w, x)
        assert EME(n, rate, w).cdf(x) == pytest.approx(want, rel=1e-13, abs=0.0)
        assert EME(n, rate, w).cdf(np.array([x]))[0] == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "n, rate, w",
        [(20, 1.0, 0.45), (5, 1.0, 3.0), (3, 2.0, 0.25), (2, 1.0, 4.0), (1, 1.0, 0.3),
         (4, 1.0, 0.5), (10, 1.0, 0.1), (30, 1.0, 0.01), (6, 1.0, 2.0), (3, 1.0, 1e-12)],
    )
    def test_cdf_bulk_against_mpmath(self, n, rate, w):
        # left tail to upper bulk, across the |u| = n+1 split, on one vector call
        mpmath = pytest.importorskip("mpmath")
        d = EME(n, rate, w)
        x = np.concatenate([np.geomspace(1e-4, 1.0, 12), np.linspace(0.05, 4.0, 24)]) * d.mean
        for xi, gi in zip(x, d.cdf(x)):
            assert gi == pytest.approx(_eme_cdf_mp(mpmath, n, rate, w, xi), rel=1e-13, abs=0.0), xi

    @pytest.mark.parametrize(
        "n, w", [(40, 0.05), (40, 0.3), (40, 0.5), (100, 0.05), (100, 0.3), (100, 0.5),
                 (40, 20.0), (100, 50.0)])
    def test_closed_cdf_at_large_n_against_quadrature(self, n, w):
        # P(k+1, lx) for k < n-1 come from P(n, lx) by adding Poisson terms;
        # points 1% either side of |u| = n + 1, where the closed form starts
        # (v^n <= 32 for the w > 1 cases), and in the bulk
        mpmath = pytest.importorskip("mpmath")
        d = EME(n, 1.0, w)
        cut = (n + 1.0) * w / abs(w - 1.0)  # rate x at |u| = n + 1
        x = np.array([0.99 * cut, 1.01 * cut, 1.2 * cut, d.mean + 3.0 * math.sqrt(d.var)])
        for xi, gi in zip(x, d.cdf(x)):
            want = _eme_cdf_quad_mp(mpmath, n, 1.0, w, xi)
            assert gi == pytest.approx(want, rel=1e-13, abs=0.0), xi
            assert d.cdf(float(xi)) == pytest.approx(want, rel=1e-13, abs=0.0), xi

    def test_closed_cdf_calls_gammainc_once(self, monkeypatch):
        calls = []

        class CountingSpecial:
            def gammainc(self, a, x):
                calls.append(a)
                return special.gammainc(a, x)

        monkeypatch.setattr(distributions, "sp_special", CountingSpecial())
        for n, w in ((2, 4.0), (5, 0.25), (40, 0.3), (40, 20.0)):
            d = EME(n, 1.0, w)
            cut = (n + 1.0) * w / abs(w - 1.0)
            for x in (cut * np.array([1.5, 2.0, 3.0]), 1.5 * cut):  # closed points only
                calls.clear()
                d.cdf(x)
                assert calls == [n], (n, w, x)
            # a mixed call: the series runs gammainc twice, at orders above n
            calls.clear()
            d.cdf(cut * np.array([0.5, 1.5, 3.0]))
            assert len(calls) == 3 and calls.count(n) == 1, (n, w, calls)

    def test_tail_series_raises_when_unconverged(self):
        # far outside its branch (|u| >> n+1) the terms grow past the cap
        with pytest.raises(ConvergenceError):
            _exp_tail_series(1, np.array([500.0]))

    def test_extreme_w_stays_finite_and_normalized(self):
        for (n, rate, w) in [(10, 1.0, 0.1), (10, 1.0, 10.0), (5, 3.0, 100.0),
                             (5, 0.5, 0.01), (2, 1.0, 1.0 + 5e-7)]:
            d = EME(n, rate, w)
            sd = math.sqrt(d.var)
            x = np.array([0.0, 0.5 * d.mean, d.mean, d.mean + 10 * sd, d.mean + 60 * sd])
            p = d.pdf(x)
            c = d.cdf(x)
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
            assert np.all(np.diff(c) >= -1e-15) and c[-1] <= 1.0


# one example parameter set per registry entry
FAMILY_EXAMPLES = {
    "exponential": {"rate": 2.5},
    "erlang": {"n": 4, "rate": 0.7},
    "hypoexponential": {"rates": (1.0, 2.0, 4.5)},
    "eme": {"n": 3, "rate": 1.25, "w": 0.4},
}


_CLI_FLAGS = {"rate": "--lambda", "n": "--n", "w": "--w", "rates": "--rates"}


def _cli_flags(params):
    argv = []
    for key, value in params.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += [_CLI_FLAGS[key], text]
    return argv


class TestFamilyRegistry:
    def test_every_family_has_an_example(self):
        assert set(FAMILY_EXAMPLES) == set(FAMILIES)
        for name, (_, _, keys) in FAMILIES.items():
            assert set(FAMILY_EXAMPLES[name]) == set(keys)

    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_make_distribution_by_name_and_alias(self, alias):
        name = FAMILY_ALIASES[alias]
        cls, aliases, _ = FAMILIES[name]
        assert alias == name or alias in aliases
        params = FAMILY_EXAMPLES[name]
        dist = make_distribution(alias.upper(), **params, unused=1.0)
        assert type(dist) is cls
        assert dist == cls(**params)
        assert family_name(dist) == name

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_missing_parameter_is_named(self, name):
        for key in FAMILIES[name][2]:
            params = {k: v for k, v in FAMILY_EXAMPLES[name].items() if k != key}
            with pytest.raises(ParameterError, match=f"requires parameter {key!r}"):
                make_distribution(name, **params)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_parameter_record_round_trip(self, name):
        dist = make_distribution(name, **FAMILY_EXAMPLES[name])
        record = dist_to_dict(dist)
        assert record["family"] == name
        assert json.loads(json.dumps(record)) == record
        assert dist_from_dict(record) == dist

    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_cli_eval_by_alias(self, alias, capsys):
        name = FAMILY_ALIASES[alias]
        params = FAMILY_EXAMPLES[name]
        code = cli_main(["eval", "--dist", alias, *_cli_flags(params), "--x", "0.5",
                         "--format", "structured"])
        record = json.loads(capsys.readouterr().out)
        assert code == 0
        assert record["family"] == alias
        assert record["cdf"] == make_distribution(name, **params).cdf(0.5)

    @pytest.mark.parametrize("alias", sorted(FAMILY_ALIASES))
    def test_cli_missing_parameter_names_its_flag(self, alias, capsys):
        params = FAMILY_EXAMPLES[FAMILY_ALIASES[alias]]
        for key in params:
            rest = {k: v for k, v in params.items() if k != key}
            code = cli_main(["eval", "--dist", alias, *_cli_flags(rest), "--x", "0.5"])
            err = capsys.readouterr().err
            assert code == 2
            assert f"{_CLI_FLAGS[key]} is required for --dist {alias}" in err

    def test_unknown_family_and_non_distribution(self):
        with pytest.raises(ParameterError, match="unknown distribution family"):
            make_distribution("cauchy", rate=1.0)
        with pytest.raises(ParameterError, match="not a distribution"):
            family_name(object())


class TestConsistencyAcrossFamilies:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_cdf_derivative_matches_pdf(self, dist):
        scale = max(dist.mean, 1.0)
        grid = np.linspace(0.02 * scale, dist.mean + 4.0 * math.sqrt(dist.var), 100)
        h = 1e-5 * scale
        for x in grid:
            num = (dist.cdf(x + h) - dist.cdf(max(x - h, 0.0))) / (2.0 * h)
            assert num == pytest.approx(dist.pdf(x), abs=1e-6)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_density_normalizes(self, dist):
        upper = dist.mean + 40.0 * math.sqrt(dist.var)
        total, _ = integrate.quad(dist.pdf, 0.0, upper, limit=400, epsabs=1e-11)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_laplace_decreasing_from_one(self, dist):
        t = np.linspace(0.0, 20.0, 41)
        vals = dist.laplace(t)
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(vals) < 0.0)

    @pytest.mark.parametrize(
        "dist, x",
        [(Exponential(1.3), [0.0, 0.5, 3.0]),
         (Erlang(3, 2.0), [0.0, 0.4, 1.5, 6.0]),
         # checkpoint windows of 32 / max rate = 6.4: window 0, then 1, 3 and 9
         (Hypoexponential((1.0, 2.0, 3.0, 4.0, 5.0)), [0.0, 0.3, 2.0, 6.0, 7.0, 20.0, 60.0]),
         (Hypoexponential((1.0, 2.0, 2.0, 5.0)), [0.05, 1.5, 12.0]),
         (EME(2, 1.0, 4.0), [5.0, 8.0, 20.0]),  # closed form only (|u| > 3)
         (EME(20, 1.0, 0.8), [0.5, 10.0, 25.0, 60.0]),  # series only
         (EME(3, 2.0, 0.25), [0.0, 0.1, 0.5, 1.0, 3.0]),  # both
         (EME(40, 1.0, 20.0), [10.0, 43.0, 44.0, 90.0])],  # both
        ids=repr)
    def test_one_point_calls_give_floats_equal_to_the_array_call(self, dist, x):
        # one point takes its own short path; the EME series may also stop
        # sooner for it than for the largest point of an array
        for name in ("pdf", "cdf"):
            method = getattr(dist, name)
            for xi, want in zip(x, method(np.array(x))):
                got = method(xi)
                assert type(got) is float, name
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (name, xi)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_domain_errors(self, dist):
        with pytest.raises(DomainError):
            dist.pdf(-0.1)
        with pytest.raises(DomainError):
            dist.cdf(np.array([0.5, -2.0]))
        with pytest.raises(DomainError):
            dist.laplace(-1.0)


class TestSampling:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_deterministic_given_seed(self, dist):
        a = dist.sample(5, np.random.default_rng(99))
        b = dist.sample(5, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_mean_within_four_standard_errors(self, dist):
        n = 200_000
        values = dist.sample(n, np.random.default_rng(7))
        se = math.sqrt(dist.var / n)
        assert abs(values.mean() - dist.mean) < 4.0 * se
        assert np.all(values >= 0.0)

    def test_exponential_mean_large_sample(self):
        n = 1_000_000
        values = Exponential(1.0).sample(n, np.random.default_rng(12))
        assert abs(values.mean() - 1.0) < 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_kolmogorov_distance_small(self, dist):
        from hypoexp import validate_against

        n = 50_000
        batch = dist.sample(n, np.random.default_rng(31))
        assert validate_against(batch, dist).passed

    @pytest.mark.slow
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: repr(d))
    def test_sampling_soundness_hundred_seeds(self, dist):
        # 1e5 draws stay under the 1% KS critical value in >= 95/100 runs
        from hypoexp import validate_against

        passed = 0
        for seed in range(100):
            batch = dist.sample(100_000, np.random.default_rng([313, seed]))
            passed += validate_against(batch, dist).passed
        assert passed >= 95

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            Exponential(1.0).sample(0, np.random.default_rng(0))
