"""Cross-oracle properties of the stage-sum laws.

EME, Erlang and Exponential have closed forms; ``Hypoexponential`` is the
law of any stage chain by uniformization.  Where two of them describe one
law they must agree, each law must be equivariant under a change of time
scale, and each pdf must integrate to its cdf.  A disagreement beyond the
bounds below is decided against mpmath and kept as an example test at the
end of this file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoexp import EME, Erlang, Exponential, Hypoexponential

# Relative agreement of two evaluators of one law, in pdf and cdf, over
# n <= 40, w in [0.05, 100] or near 1, points from 1e-3 to 8 means and rates
# from 1e-300 to 1e300.  The largest disagreement seen there was 2.1e-13:
# the EME closed forms' own error against 60-digit mpmath, where the chain
# was within 6e-14.
BOUND = 4e-13

EPS = 2.0**-52

stages = st.integers(min_value=1, max_value=40)
rates = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
unit_rates = st.floats(min_value=-1.0, max_value=1.0).map(lambda e: 10.0**e)
weights = st.one_of(
    st.floats(min_value=0.05, max_value=100.0),
    st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-6, 1.0 + 1e-6, 0.999, 1.001]),
)
# points as multiples of the law's mean, log-uniform over [1e-3, 8]
spans = st.lists(st.floats(min_value=-3.0, max_value=math.log10(8.0)),
                 min_size=1, max_size=8).map(lambda e: 10.0 ** np.array(e))


def _eme_cdf_bound(n, w):
    """BOUND, widened where ``EME.cdf`` takes its closed partial-fraction
    form (w > 1 with v^n <= 1e4, v = w / (w - 1)): its terms reach v^n and
    cancel to at most 1."""
    if w > 1.0 and n * (math.log(w) - math.log(w - 1.0)) <= math.log(1e4):
        return BOUND + 2.0 * EPS * (w / (w - 1.0)) ** n
    return BOUND


def _agree(got, want, bound, what):
    np.testing.assert_allclose(got, want, rtol=bound, atol=0.0, err_msg=what)


@settings(max_examples=60, deadline=None)
@given(n=stages, rate=rates, w=weights, span=spans)
def test_eme_is_its_stage_chain(n, rate, w, span):
    eme = EME(n, rate, w)
    chain = Hypoexponential((rate,) * n + (rate / w,))
    x = span * eme.mean
    _agree(eme.pdf(x), chain.pdf(x), BOUND, "pdf")
    _agree(eme.cdf(x), chain.cdf(x), _eme_cdf_bound(n, w), "cdf")


@settings(max_examples=40, deadline=None)
@given(n=stages, rate=rates, span=spans)
def test_erlang_is_its_stage_chain(n, rate, span):
    erlang = Erlang(n, rate)
    chain = Hypoexponential((rate,) * n)
    x = span * erlang.mean
    _agree(erlang.pdf(x), chain.pdf(x), BOUND, "pdf")
    _agree(erlang.cdf(x), chain.cdf(x), BOUND, "cdf")


@settings(max_examples=40, deadline=None)
@given(n=stages, rate=rates, span=spans)
def test_eme_at_w_one_is_erlang(n, rate, span):
    eme, erlang = EME(n, rate, 1.0), Erlang(n + 1, rate)
    x = span * erlang.mean
    _agree(eme.pdf(x), erlang.pdf(x), BOUND, "pdf")
    _agree(eme.cdf(x), erlang.cdf(x), BOUND, "cdf")


def _family(draw, scale):
    """A law of each family drawn with its rates near 1, and the same law with
    its time sped up by ``scale``, with its cdf bound."""
    kind = draw(st.sampled_from(["exponential", "erlang", "eme", "hypoexponential"]))
    rate = draw(unit_rates)
    if kind == "exponential":
        return Exponential(rate), Exponential(rate * scale), BOUND
    n = draw(stages)
    if kind == "erlang":
        return Erlang(n, rate), Erlang(n, rate * scale), BOUND
    if kind == "eme":
        w = draw(weights)
        return EME(n, rate, w), EME(n, rate * scale, w), _eme_cdf_bound(n, w)
    lam = draw(st.lists(unit_rates, min_size=1, max_size=12))
    return Hypoexponential(tuple(lam)), Hypoexponential(tuple(r * scale for r in lam)), BOUND


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scale=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
       span=spans)
def test_pdf_and_cdf_are_scale_equivariant(data, scale, span):
    # X / c has cdf F(c x) and pdf c f(c x)
    law, fast, cdf_bound = _family(data.draw, scale)
    x = span * fast.mean
    _agree(fast.pdf(x), scale * law.pdf(scale * x), BOUND, "pdf")
    _agree(fast.cdf(x), law.cdf(scale * x), cdf_bound, "cdf")


# 20-point Gauss-Legendre on [0, 1]: exact for polynomials of degree < 40,
# and far below the bounds for the analytic densities on a step of a
# fifth of a standard deviation
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
_NODES, _WEIGHTS = (_NODES + 1.0) / 2.0, _WEIGHTS / 2.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), at=st.floats(min_value=-3.0, max_value=math.log10(3.0)))
def test_pdf_is_the_derivative_of_cdf(data, at):
    law, _, cdf_bound = _family(data.draw, 1.0)
    a = 10.0**at * law.mean
    h = 0.2 * math.sqrt(law.var)
    integral = h * float(_WEIGHTS @ law.pdf(a + h * _NODES))
    lo, hi = law.cdf(a), law.cdf(a + h)
    # each cdf value carries its own bound; the integral carries BOUND
    assert abs((hi - lo) - integral) <= BOUND * integral + cdf_bound * (lo + hi)


def _mp_cdf(rates, x):
    """The stage chain's cdf at x in 40 digits: exp(x Q)[0, K] of its
    generator Q, K the absorbing state."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        q = mpmath.zeros(len(rates) + 1)
        for i, r in enumerate(rates):
            q[i, i], q[i, i + 1] = -mpmath.mpf(r), mpmath.mpf(r)
        return float(mpmath.expm(q * mpmath.mpf(x))[0, len(rates)])


@pytest.mark.parametrize("x", [0.0363209, 0.0520801, 0.0582884])
def test_eme_closed_cdf_carries_its_cancellation(x):
    # EME(9, 884, 1.572) has v^9 = 9.0e3, so its closed partial-fraction
    # cdf cancels terms of that size, and it was found 1.8e-12 off its
    # chain.  mpmath: the chain is right to rounding; the EME cdf is within
    # its widened bound.
    n, rate, w = 9, 883.993297650083, 1.5718094759059973
    rates = (rate,) * n + (rate / w,)
    want = _mp_cdf(rates, x)
    assert Hypoexponential(rates).cdf(x) == pytest.approx(want, rel=4 * EPS, abs=0.0)
    assert EME(n, rate, w).cdf(x) == pytest.approx(want, rel=_eme_cdf_bound(n, w), abs=0.0)
