"""The stage-sum base: moments, transform and draws derived from the stage
rates, checked against each family's closed forms and draw layouts."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypoexp import (
    EME,
    DataError,
    DomainError,
    Erlang,
    Exponential,
    Hypoexponential,
    ParameterError,
    StageChain,
    StageSum,
    distributions,
    eme_chain,
    simulate_absorption,
)

rates = st.floats(min_value=0.01, max_value=100.0)
points = st.floats(min_value=0.0, max_value=100.0)
stages = st.integers(min_value=1, max_value=40)


def _close(value, reference):
    assert value == pytest.approx(reference, rel=1e-13, abs=0.0)


# Each family's moments and transform in closed form, as the families wrote
# them before they derived them from their stage rates.

@settings(max_examples=200, deadline=None)
@given(rate=rates, t=points)
def test_exponential_closed_forms(rate, t):
    d = Exponential(rate)
    _close(d.mean, 1.0 / rate)
    _close(d.var, 1.0 / rate**2)
    _close(d.laplace(t), rate / (rate + t))


@settings(max_examples=200, deadline=None)
@given(n=stages, rate=rates, t=points)
def test_erlang_closed_forms(n, rate, t):
    d = Erlang(n, rate)
    _close(d.mean, n / rate)
    _close(d.var, n / rate**2)
    _close(d.laplace(t), (rate / (rate + t)) ** n)


@settings(max_examples=200, deadline=None)
@given(n=stages, rate=rates, w=st.floats(min_value=0.01, max_value=100.0), t=points)
def test_eme_closed_forms(n, rate, w, t):
    d = EME(n, rate, w)
    _close(d.mean, (n + w) / rate)
    _close(d.var, (n + w**2) / rate**2)
    odd = rate / w
    _close(d.laplace(t), (odd / (odd + t)) * (rate / (rate + t)) ** n)


# repeated and near-equal rates come up often from the fixed pool
chain_rates = st.lists(st.one_of(rates, st.sampled_from([0.5, 1.0, 1.0 + 1e-9, 2.0])),
                       min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(lam=chain_rates, t=points)
def test_hypoexponential_and_chain_closed_forms(lam, t):
    for d in (Hypoexponential(tuple(lam)), StageChain(tuple(lam))):
        _close(d.mean, math.fsum(1.0 / r for r in lam))
        _close(d.var, math.fsum(1.0 / r**2 for r in lam))
        _close(d.laplace(t), math.prod(r / (r + t) for r in lam))


@settings(max_examples=40, deadline=None)
@given(lam=chain_rates, scale=st.floats(min_value=0.2, max_value=4.0))
def test_hypoexponential_law_against_generator_exponential(lam, scale):
    # the chain's law from exp(x Q) of its generator in 40 digits, an
    # oracle independent of uniformization: F = exp(xQ)[0, K] and
    # f = lam_{K-1} exp(xQ)[0, K-1]
    mpmath = pytest.importorskip("mpmath")
    d = Hypoexponential(tuple(lam))
    x = scale * d.mean
    with mpmath.workdps(40):
        q = mpmath.zeros(len(lam) + 1)
        for i, r in enumerate(lam):
            q[i, i], q[i, i + 1] = -r, r
        e = mpmath.expm(q * x)
        want_pdf, want_cdf = float(lam[-1] * e[0, len(lam) - 1]), float(e[0, len(lam)])
    assert d.pdf(x) == pytest.approx(want_pdf, rel=1e-12, abs=0.0)
    assert d.cdf(x) == pytest.approx(want_cdf, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [10**5, 10**7])
def test_many_equal_stages_cost_one_power(n):
    # equal stages are one (rate, count) pair: no length-n array, and no
    # rounding gathered over n factors
    erlang, eme = Erlang(n, 1.5), EME(n, 1.5, 3.0)
    _close(erlang.mean, n / 1.5)
    _close(erlang.var, n / 1.5**2)
    _close(eme.mean, (n + 3.0) / 1.5)
    _close(eme.var, (n + 9.0) / 1.5**2)
    t = np.array([0.0, 1e-6, 1e-4, 0.01])
    np.testing.assert_allclose(erlang.laplace(t), (1.5 / (1.5 + t)) ** n, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(
        eme.laplace(t), 0.5 / (0.5 + t) * (1.5 / (1.5 + t)) ** n, rtol=1e-13, atol=0.0
    )


# The draw layout of each family before the base, kept as the reference: the
# base must reproduce it bit for bit.

def _std_exp(rng, shape):
    return -np.log1p(-rng.random(shape))


def _reference_draws(dist, count, rng):
    if isinstance(dist, Exponential):
        return _std_exp(rng, count) / dist.rate
    if isinstance(dist, Erlang):
        return _std_exp(rng, (count, dist.n)).sum(axis=1) / dist.rate
    if isinstance(dist, EME):
        draws = _std_exp(rng, (count, dist.n + 1))
        return (draws[:, : dist.n].sum(axis=1) + dist.w * draws[:, dist.n]) / dist.rate
    lam = np.asarray(dist.rates)  # Hypoexponential and StageChain
    return (_std_exp(rng, (count, lam.size)) / lam).sum(axis=1)


DRAW_CASES = [
    Exponential(1.3),
    Erlang(1, 0.7),
    Erlang(9, 0.7),
    Hypoexponential((1.0, 2.0, 3.5)),
    Hypoexponential((0.3, 1.7)),
    EME(1, 2.0, 0.5),
    EME(2, 1.0, 4.0),
    EME(3, 2.0, 0.25),
    EME(7, 1.5, 0.3),
    EME(20, 1.0, 0.8),
    *(pytest.param(StageChain(rates), id=f"StageChain(rates={rates!r})")
      for rates in [(2.0,), (1.0, 1.0, 1.0, 1.0, 0.2), (1.0, 3.0, 0.7)]),
]


@pytest.mark.parametrize("dist", DRAW_CASES, ids=repr)
def test_draws_match_the_family_layout_bit_for_bit(dist):
    for seed in range(3):
        got = dist.sample(1000, np.random.default_rng([77, seed]))
        want = _reference_draws(dist, 1000, np.random.default_rng([77, seed]))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dist", DRAW_CASES, ids=repr)
def test_draws_do_not_depend_on_the_block_size(dist):
    # the draws come in blocks of ``rows`` rows; counts around one block,
    # an odd count and a large one give the one-call reference bit for bit,
    # and leave the generator where the reference leaves it
    rows = distributions._DRAW_BYTES // (8 * len(dist.stage_rates))
    for count in (1, rows - 1, rows, rows + 1, 12_483, 10**5):
        got_rng, want_rng = np.random.default_rng([78, count]), np.random.default_rng([78, count])
        got = dist.sample(count, got_rng)
        np.testing.assert_array_equal(got, _reference_draws(dist, count, want_rng))
        assert got_rng.random() == want_rng.random()


def test_absorption_draws_run_in_bounded_memory():
    # 1e5 draws of 21 stages: the one-call layout held two 16.8 MB arrays
    tracemalloc.start()
    try:
        times = simulate_absorption(eme_chain(20, 1, 1.25), 10**5, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= times.nbytes + 2 * 2**20


@pytest.fixture
def setup_builds(monkeypatch):
    """Rate vectors of the ``_Uniformization`` set-ups built, in order."""
    built = []

    class Counted(distributions._Uniformization):
        def __init__(self, rates):
            built.append(rates)
            super().__init__(rates)

    monkeypatch.setattr(distributions, "_Uniformization", Counted)
    return built


def test_a_law_builds_its_setup_once(setup_builds):
    law = Hypoexponential((1.0, 2.0, 3.0))
    assert setup_builds == []  # nothing is built before the first evaluation
    x = np.array([0.3, 2.0])
    law.cdf(1.0), law.pdf(x), law.cdf(x), law.pdf(1.0)
    assert setup_builds == [law.rates]
    # an equal law owns its set-up: it builds one on its own first evaluation
    other = StageChain((1.0, 2.0, 3.0))
    np.testing.assert_array_equal(other.cdf(x), law.cdf(x))
    assert setup_builds == [law.rates, law.rates]


def test_sampling_builds_no_setup(setup_builds):
    Hypoexponential((1.0, 2.0, 3.0)).sample(10, np.random.default_rng(2))
    assert setup_builds == []


@pytest.mark.slow
def test_dropped_laws_release_their_setups():
    # 40 set-ups of 200 stages hold about 3.6 MB each while their law lives;
    # a cache bounded by its entry count kept 32 of them
    x = np.array([0.5, 150.0])
    tracemalloc.start()
    try:
        for i in range(40):
            Hypoexponential(tuple(1.0 + 0.01 * (i + k) for k in range(200))).cdf(x)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 2**20


def test_one_law_under_threads():
    # more threads than cores evaluate one fresh law at once; the build
    # count is not checked, since Python 3.12 dropped cached_property's lock
    rates = tuple(1.0 + 0.05 * k for k in range(60))
    x = np.linspace(0.0, 150.0, 301)
    want = Hypoexponential(rates).pdf(x), Hypoexponential(rates).cdf(x)
    law = Hypoexponential(rates)
    got = [None] * 6

    def work(t):
        try:
            got[t] = law.pdf(x), law.cdf(x)
        except Exception as exc:  # a thread's error would otherwise be lost
            got[t] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for result in got:
        assert isinstance(result, tuple), result
        for value, reference in zip(result, want):
            np.testing.assert_array_equal(value, reference)


def test_equal_laws_stay_equal_after_evaluation():
    fresh, used = Hypoexponential((1.0, 2.0)), Hypoexponential((1.0, 2.0))
    used.cdf(np.array([0.5, 1.0]))
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
    assert StageChain((1.0, 2.0)) == used
    assert len({fresh, used}) == 1


@pytest.mark.parametrize("rates", [(2.0,), (1.0, 1.0, 0.25), (1.0, 2.0, 3.0, 4.0, 5.0)])
def test_simulate_absorption_is_the_chain_draw(rates):
    chain = StageChain(rates)
    times = simulate_absorption(chain, 500, np.random.default_rng(11))
    want = _reference_draws(chain, 500, np.random.default_rng(11))
    np.testing.assert_array_equal(times, want)


@pytest.mark.parametrize("dist", [Exponential(1.3), Erlang(3, 0.7), Hypoexponential((1.0, 2.0)),
                                  EME(2, 1.0, 4.0), StageChain((1.0, 0.5))], ids=repr)
def test_draws_are_a_float64_array(dist):
    for draws in (dist.sample(7, np.random.default_rng(1)),
                  simulate_absorption(dist, 7, np.random.default_rng(1))):
        assert type(draws) is np.ndarray
        assert draws.dtype == np.float64 and draws.shape == (7,)


def test_overflowing_draws_raise():
    # 1/1e-310 is past the float range, so every draw overflows to inf
    with np.errstate(over="ignore"), pytest.raises(DataError, match="non-finite"):
        Exponential(1e-310).sample(5, np.random.default_rng(0))


def test_every_family_is_a_stage_sum():
    for d in (Exponential(1.0), Erlang(2, 1.0), Hypoexponential((1.0, 2.0)),
              EME(2, 1.0, 3.0), StageChain((1.0,))):
        assert isinstance(d, StageSum)
    lam, m = EME(2, 1.0, 4.0).stages
    np.testing.assert_array_equal(lam, [1.0, 0.25])
    np.testing.assert_array_equal(m, [2, 1])
    np.testing.assert_array_equal(EME(2, 1.0, 4.0).stage_rates, [1.0, 1.0, 0.25])
    np.testing.assert_array_equal(Erlang(3, 2.0).stage_rates, [2.0, 2.0, 2.0])


SHAPE_CASES = [
    Exponential(1.3),
    Erlang(3, 2.0),
    Hypoexponential((1.0, 2.0)),
    Hypoexponential((1.0, 2.0, 3.5)),
    EME(2, 1.0, 3.0),
    EME(3, 2.0, 0.4),
]


@pytest.mark.parametrize("x", [[[0.0, 0.5, 1.0], [2.0, 3.5, 7.0]], [[1.0, 1.0], [0.5, 4.0]]])
@pytest.mark.parametrize("dist", SHAPE_CASES, ids=repr)
def test_two_dimensional_points_keep_their_shape(dist, x):
    x = np.array(x)
    methods = ["pdf", "cdf", "laplace"] + (["logpdf"] if isinstance(dist, EME) else [])
    for name in methods:
        method = getattr(dist, name)
        got = method(x)
        assert got.shape == x.shape, name
        np.testing.assert_array_equal(got, method(x.ravel()).reshape(x.shape), err_msg=name)
        # the EME cdf series stops by the largest point of a call, so a
        # scalar call may end it sooner: equal to rounding, not bit for bit
        want = np.array([[method(float(v)) for v in row] for row in x])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=name)


@pytest.mark.parametrize("make", [StageChain, Hypoexponential],
                         ids=["StageChain", "Hypoexponential"])
def test_rates_must_be_one_dimensional(make):
    with pytest.raises(ParameterError, match="one-dimensional"):
        make([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ParameterError):
        make([[1.0, 2.0], [3.0]])
    with pytest.raises(ParameterError):
        make(())


def test_bad_points_raise_domain_error_which_is_a_parameter_error():
    assert issubclass(DomainError, ParameterError)
    for bad in (-0.5, math.nan, math.inf, [1.0, -1.0], np.array([[0.0], [math.nan]])):
        with pytest.raises(DomainError, match="x must be finite and nonnegative"):
            EME(2, 1.0, 3.0).cdf(bad)
    with pytest.raises(DomainError, match="t must be"):
        Erlang(2, 1.0).laplace(-1.0)


def test_scalar_points_give_floats():
    d = Hypoexponential((1.0, 2.0))
    for x in (1, 1.0, np.float64(1.0), np.array(1.0)):
        assert type(d.pdf(x)) is float
        assert type(d.laplace(x)) is float
    assert d.cdf([1.0]).shape == (1,)
    assert d.cdf(np.empty(0)).shape == (0,)
