"""The pieces of the integer-order regularized upper incomplete gamma
Q(n, t) = exp(-t) sum_{k<n} t^k/k!, both signs of t.

``partial_exp_sum`` holds for |t| >= n - 1, where the EME density's direct
branch uses it, and Q formed from the pieces must match scipy, mpmath or
exact rationals there.  The scipy and mpmath tests also check, at every one
of their points, in that domain or not, the exact-rational Q of
``oracles.upper_gamma_q``, on which the incomplete-gamma test of the EME
density rests.
"""

import math

import numpy as np
import pytest
from oracles import exact_partial_sum, upper_gamma_q
from scipy import special as sp

from hypoexp.special import log_poisson_weight, partial_exp_sum


def _q_from_pieces(n, t):
    """Q(n, t) from ``partial_exp_sum`` for |t| >= n - 1: pois(n - 1, t) B
    for t > 0, as the EME direct branch forms it, and
    exp(-t) t^(n-1)/(n-1)! B for t <= 0."""
    assert abs(t) >= n - 1
    b = float(partial_exp_sum(n, np.array([t]))[0])
    if t > 0:
        return float(np.exp(log_poisson_weight(n - 1, np.array([t])))[0]) * b
    return math.exp(-t) * t ** (n - 1) / math.factorial(n - 1) * b


def test_single_term_is_exp():
    for t in (-7.0, -1.0, 0.5, 3.0, 40.0):
        assert _q_from_pieces(1, t) == pytest.approx(math.exp(-t), rel=1e-14)


def test_two_term_value():
    assert _q_from_pieces(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
@pytest.mark.parametrize("t", [0.01, 0.3, 5.0, 40.0, 200.0, 650.0])
def test_matches_scipy_for_nonnegative_t(n, t):
    ref = float(sp.gammaincc(n, t))
    assert upper_gamma_q(n, t) == pytest.approx(ref, rel=5e-13, abs=1e-300)
    if t >= n - 1:
        assert _q_from_pieces(n, t) == pytest.approx(ref, rel=5e-13, abs=1e-300)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("t", [-0.5, -3.0, -12.0, -25.0])
def test_negative_t_matches_exact_polynomial(n, t):
    # independent arithmetic: 40-digit mpmath against the exact rational
    # polynomial times exp(-t)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = float(mpmath.gammainc(n, t, regularized=True))
    assert upper_gamma_q(n, t) == pytest.approx(ref, rel=1e-11)
    if abs(t) >= n - 1:
        assert _q_from_pieces(n, t) == pytest.approx(ref, rel=1e-11)


def test_value_in_unit_interval_for_nonnegative_t():
    # the EME direct branch takes 1 - Q, with Q in (0, 1/2] for t > n + 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        t = float(rng.uniform(n + 1.0, n + 80.0))
        q = _q_from_pieces(n, t)
        assert 0.0 < q <= 0.5


def test_log_space_agrees_with_direct_near_crossover():
    # points on both sides of |t| = 30 against the exact rational sum
    for n in (2, 7, 25):
        for t in (29.9, 30.1, -29.9, -30.1):
            direct = float(exact_partial_sum(n, t)) * math.exp(-t)
            assert _q_from_pieces(n, t) == pytest.approx(direct, rel=1e-10)


def test_huge_positive_t_underflows_to_zero():
    assert _q_from_pieces(4, 1000.0) == 0.0


def test_accepts_arrays_like_scalars():
    for n in (1, 4, 60):
        t = np.array([-1e4, -650.0, -30.0 - n, 1.0 - n, n - 1.0, 40.0 + n, 650.0])
        got = partial_exp_sum(n, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        want = [partial_exp_sum(n, np.array([ti]))[0] for ti in t]
        np.testing.assert_allclose(got, want, rtol=1e-15)


def test_partial_sum_tracks_sign_past_overflow():
    # sum_{k<n} t^k/k! = t^(n-1)/(n-1)! * B overflows for t << 0; B does not
    for n in (2, 3, 7, 40):
        t = np.array([-800.0, -1e4, -30.0, 12.5, 1.0 - n, n - 1.0])
        t = t[np.abs(t) >= n - 1]  # the domain of partial_exp_sum
        k = n - 1
        for ti, b in zip(t, partial_exp_sum(n, t)):
            exact = exact_partial_sum(n, ti)
            if exact == 0:  # 1 + t at the edge t = -1 of n = 2
                assert b == 0.0
                continue
            assert math.copysign(1.0, ti) ** k * math.copysign(1.0, b) == (
                1.0 if exact > 0 else -1.0
            )
            got = k * math.log(abs(ti)) - math.lgamma(k + 1) + math.log(abs(b))
            want = math.log(abs(exact))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("k", [1, 5, 20, 127, 128, 20_000])
def test_log_poisson_weight_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")

    lam = np.array([1e-3, 0.5 * k, 0.9 * k, float(k), k + 1.0, 1.9 * k, 10.0 * k + 5])
    got = log_poisson_weight(k, lam)
    for li, gi in zip(lam, got):
        with mpmath.workdps(40):
            want = float(k * mpmath.log(li) - li - mpmath.loggamma(k + 1))
        assert abs(gi - want) <= 1e-13 * max(abs(want), 1.0), (k, li)
