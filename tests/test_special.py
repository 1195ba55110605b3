"""Integer-order regularized upper incomplete gamma, both signs of t."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sp

from hypoexp import ParameterError, regularized_upper_gamma


def exact_partial_sum(n, t):
    """sum_{k<n} t^k/k! in exact rationals (t must be a float, hence exact)."""
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(n):
        acc += term
        term = term * Fraction(t) / (k + 1)
    return acc


def test_single_term_is_exp():
    for t in (-7.0, -1.0, 0.5, 3.0, 40.0):
        assert regularized_upper_gamma(1, t) == pytest.approx(math.exp(-t), rel=1e-14)


def test_two_term_value():
    assert regularized_upper_gamma(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


def test_at_zero_is_one():
    for n in (1, 2, 3, 10):
        assert regularized_upper_gamma(n, 0.0) == 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
@pytest.mark.parametrize("t", [0.01, 0.3, 5.0, 40.0, 200.0, 650.0])
def test_matches_scipy_for_nonnegative_t(n, t):
    mine = regularized_upper_gamma(n, t)
    ref = float(sp.gammaincc(n, t))
    assert mine == pytest.approx(ref, rel=5e-13, abs=1e-300)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("t", [-0.5, -3.0, -12.0, -25.0])
def test_negative_t_matches_exact_polynomial(n, t):
    # independent arithmetic: exact rational polynomial times exp(-t)
    want = float(exact_partial_sum(n, t)) * math.exp(-t)
    assert regularized_upper_gamma(n, t) == pytest.approx(want, rel=1e-11)


def test_value_in_unit_interval_for_nonnegative_t():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        t = float(rng.uniform(0.0, 80.0))
        q = regularized_upper_gamma(n, t)
        assert 0.0 <= q <= 1.0


def test_log_space_agrees_with_direct_near_crossover():
    # every t takes the log-space path; these points on both sides of
    # |t| = 30 check it against the exact rational sum
    for n in (2, 7, 25):
        for t in (29.9, 30.1, -29.9, -30.1):
            direct = float(exact_partial_sum(n, t)) * math.exp(-t)
            assert regularized_upper_gamma(n, t) == pytest.approx(direct, rel=1e-10)


def test_overflow_raises():
    with pytest.raises(OverflowError):
        regularized_upper_gamma(3, -800.0)
    with pytest.raises(OverflowError):
        regularized_upper_gamma(2, -1e6)


def test_huge_positive_t_underflows_to_zero():
    assert regularized_upper_gamma(4, 1000.0) == 0.0


def test_parameter_validation():
    with pytest.raises(ParameterError):
        regularized_upper_gamma(0, 1.0)
    with pytest.raises(ParameterError):
        regularized_upper_gamma(2, math.inf)
    with pytest.raises(ParameterError):
        regularized_upper_gamma(2.5, 1.0)


def test_accepts_arrays_like_scalars():
    t = np.array([-30.0, -3.0, 0.0, 0.3, 5.0, 40.0, 650.0])
    for n in (1, 4, 60):
        got = regularized_upper_gamma(n, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        want = [regularized_upper_gamma(n, float(ti)) for ti in t]
        np.testing.assert_allclose(got, want, rtol=1e-15)


def test_partial_sum_tracks_sign_past_overflow():
    # sum_{k<n} t^k/k! = t^k*/k*! * B overflows for t << 0; B and k* do not
    from hypoexp.special import partial_exp_sum

    for n in (2, 3, 7, 40):
        t = np.array([-800.0, -1e4, -30.0, 12.5])
        pivot, total = partial_exp_sum(n, t)
        pivot = np.broadcast_to(pivot, t.shape)
        for ti, k, b in zip(t, pivot, total):
            exact = exact_partial_sum(n, ti)
            assert math.copysign(1.0, ti) ** int(k) * math.copysign(1.0, b) == (
                1.0 if exact > 0 else -1.0
            )
            got = int(k) * math.log(abs(ti)) - math.lgamma(int(k) + 1) + math.log(abs(b))
            want = math.log(abs(exact))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("k", [1, 5, 20, 127, 128, 20_000])
def test_log_poisson_weight_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    from hypoexp.special import log_poisson_weight

    lam = np.array([1e-3, 0.5 * k, 0.9 * k, float(k), k + 1.0, 1.9 * k, 10.0 * k + 5])
    got = log_poisson_weight(k, lam)
    for li, gi in zip(lam, got):
        with mpmath.workdps(40):
            want = float(k * mpmath.log(li) - li - mpmath.loggamma(k + 1))
        assert abs(gi - want) <= 1e-13 * max(abs(want), 1.0), (k, li)
