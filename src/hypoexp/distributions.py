"""Exponential, Erlang, distinct-rate hypoexponential, and exponentially
modified Erlang (EME) distributions.

Each family is a sum of independent exponential stages (``StageSum``): it
gives its ``stages`` (each stage rate and how many stages run at it) and its
``pdf``/``cdf``, and the base derives ``mean``/``var``, ``laplace`` (the
Laplace transform ``E[exp(-t X)]``) and inverse-CDF ``sample`` from them.  All evaluation methods are pure and
thread-safe; sampling mutates only the generator passed in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    LazyModule,
    as_points,
    as_values,
    check_positive_int,
    check_positive_real,
    check_rates,
)
from .errors import ConvergenceError, ParameterError
from .special import log_poisson_weight, partial_exp_sum

sp_special = LazyModule("scipy.special")

# Rate pairs closer than this relative gap are rejected by Hypoexponential:
# the partial-fraction weights cancel catastrophically there.  Equal-rate
# stages belong in Erlang or EME instead.
MIN_RELATIVE_RATE_GAP = 1e-8

# Below this |w - 1| an EME is flagged as sitting on the Erlang(n+1) limit.
# Evaluation does not need a special branch (the series form is exact through
# w = 1); the flag is metadata for callers.
ERLANG_LIMIT_TOL = 1e-6

_EPS = np.finfo(float).eps


def _pointwise(method):
    """Check the points of ``method(self, x)`` with ``as_points``; the method
    sees a float64 array, and a scalar point gets a float back."""
    name = method.__code__.co_varnames[1]

    @functools.wraps(method)
    def checked(self, x):
        x = as_points(x, name)
        if isinstance(x, float):
            return float(method(self, np.array([x]))[0])
        return method(self, x)

    return checked


def _std_exp(rng, shape):
    # inverse-CDF draw; 1 - U lies in (0, 1] so log1p never sees -1
    return -np.log1p(-rng.random(shape))


@dataclass(frozen=True)
class Sample:
    """A batch of nonnegative observations with a provenance label."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = as_values(self.values, what="sample values")
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return self.values.size

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


class StageSum:
    """Sum of independent exponential stages.  A subclass gives ``stages``:
    the rates ``lam`` and how many stages ``m`` run at each.  The moments and
    the Laplace transform follow in O(len(lam)), so n equal stages cost one
    power, and the draws from the expanded ``stage_rates``."""

    @property
    def stage_rates(self):
        """The rate of every stage, equal stages repeated."""
        return np.repeat(*self.stages)

    @property
    def mean(self):
        lam, m = self.stages
        return float(np.sum(m / lam))

    @property
    def var(self):
        lam, m = self.stages
        return float(np.sum(m / lam**2))

    @_pointwise
    def laplace(self, t):
        lam, m = self.stages
        return ((lam / (lam + t[..., None])) ** m).prod(axis=-1)

    def sample(self, count, rng, label=None):
        count = check_positive_int(count, "count")
        draws = _std_exp(rng, (count, int(self.stages[1].sum())))
        return Sample(self._sum_stages(draws), label if label is not None else repr(self))

    def _sum_stages(self, draws):
        """One value per row of standard exponential draws, one column per
        stage.  Divides in place: the draws are the caller's scratch, and a
        copy would double the peak memory of a large sample."""
        draws /= self.stage_rates
        return draws.sum(axis=1)


def distinct_stages(rates):
    """``StageSum.stages`` for one stage at each of ``rates``."""
    return np.asarray(rates), np.ones(len(rates), dtype=int)


@dataclass(frozen=True)
class Exponential(StageSum):
    """Exponential distribution with density rate * exp(-rate * x)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", check_positive_real(self.rate, "rate"))

    @property
    def stages(self):
        return np.array([self.rate]), np.array([1])

    @_pointwise
    def pdf(self, x):
        return self.rate * np.exp(-self.rate * x)

    @_pointwise
    def cdf(self, x):
        return -np.expm1(-self.rate * x)


@dataclass(frozen=True)
class Erlang(StageSum):
    """Sum of ``n`` independent Exponential(rate) stages."""

    n: int
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_positive_int(self.n, "n"))
        object.__setattr__(self, "rate", check_positive_real(self.rate, "rate"))

    @property
    def stages(self):
        return np.array([self.rate]), np.array([self.n])

    @_pointwise
    def pdf(self, x):
        n, lam = self.n, self.rate
        if n == 1:
            return lam * np.exp(-lam * x)
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(
                n * math.log(lam) + (n - 1) * np.log(xp) - lam * xp - math.lgamma(n)
            )
        return out

    @_pointwise
    def cdf(self, x):
        return sp_special.gammainc(self.n, self.rate * x)

    def _sum_stages(self, draws):
        return draws.sum(axis=1) / self.rate


def hypoexp_weights(rates):
    """Partial-fraction weights l_j = prod_{i != j} rate_i / (rate_i - rate_j).

    The weights are signed and sum to 1; they express the density of a sum of
    independent exponentials with distinct rates as a linear combination of
    the component densities.
    """
    lam = np.asarray(rates, dtype=float)
    diff = lam[:, None] - lam[None, :]
    np.fill_diagonal(diff, 1.0)  # placeholder; the diagonal ratio is forced to 1
    ratio = lam[:, None] / diff
    np.fill_diagonal(ratio, 1.0)
    return ratio.prod(axis=0)


@dataclass(frozen=True)
class Hypoexponential(StageSum):
    """Sum of independent exponentials with pairwise-distinct rates.

    Construction rejects rate pairs with relative gap below
    ``MIN_RELATIVE_RATE_GAP`` and weights whose sum strays from 1 beyond
    rounding, because the partial-fraction weights become meaningless there.
    """

    rates: tuple
    weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rates = check_rates(self.rates, "rate", least=2)
        lam = np.asarray(rates)
        gap = np.abs(lam[:, None] - lam[None, :])
        rel = gap / np.maximum(lam[:, None], lam[None, :])
        rel[np.eye(len(rates), dtype=bool)] = np.inf
        if rel.min() < MIN_RELATIVE_RATE_GAP:
            i, j = np.unravel_index(np.argmin(rel), rel.shape)
            raise ParameterError(
                f"rates {lam[i]!r} and {lam[j]!r} are closer than relative gap "
                f"{MIN_RELATIVE_RATE_GAP:g}; use Erlang or EME for repeated rates"
            )
        weights = hypoexp_weights(lam)
        drift = abs(weights.sum() - 1.0)
        if drift > max(1e-10, 8.0 * _EPS * np.abs(weights).sum()):
            raise ParameterError(
                f"partial-fraction weights sum to 1{weights.sum() - 1.0:+.3e}; "
                "rates are too close for reliable weights"
            )
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))

    @property
    def stages(self):
        return distinct_stages(self.rates)

    @_pointwise
    def pdf(self, x):
        lam = np.asarray(self.rates)
        vals = np.exp(-np.outer(x, lam)) @ (np.asarray(self.weights) * lam)
        return np.maximum(vals, 0.0).reshape(x.shape)

    @_pointwise
    def cdf(self, x):
        # 1 - sum_j l_j exp(-rate_j x), evaluated as -sum_j l_j expm1(-rate_j x)
        # so that F(0) = 0 exactly
        vals = -np.expm1(-np.outer(x, self.rates)) @ np.asarray(self.weights)
        return np.clip(vals, 0.0, 1.0).reshape(x.shape)


@dataclass(frozen=True)
class EME(StageSum):
    """Exponentially modified Erlang: X_1 + ... + X_n + w * X_{n+1} with the
    X_i independent Exponential(rate).

    Equivalently Erlang(n, rate) convolved with Exponential(rate / w).  The
    density in incomplete-gamma form is

        f(x) = (rate/w) exp(-rate x / w) (w/(w-1))^n [1 - Q(n, beta x)],

    with ``beta = rate (w - 1) / w`` and Q the integer-order regularized upper
    incomplete gamma (finite-sum form, valid for beta of either sign).  The
    implementation expands the bracket into numerically safe branches; at
    w = 1 it reduces exactly to Erlang(n+1, rate).
    """

    n: int
    rate: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_positive_int(self.n, "n"))
        object.__setattr__(self, "rate", check_positive_real(self.rate, "rate"))
        object.__setattr__(self, "w", check_positive_real(self.w, "w"))

    @property
    def stages(self):
        return np.array([self.rate, self.rate / self.w]), np.array([self.n, 1])

    @property
    def is_erlang_limit(self):
        """True when w is within ERLANG_LIMIT_TOL of 1 (Erlang(n+1) regime)."""
        return abs(self.w - 1.0) < ERLANG_LIMIT_TOL

    @property
    def beta(self):
        """Scale of the incomplete-gamma argument: rate * (w - 1) / w."""
        return self.rate * (self.w - 1.0) / self.w

    @_pointwise
    def logpdf(self, x):
        return _eme_logpdf(self.n, self.rate, self.w, x)

    @_pointwise
    def pdf(self, x):
        return np.exp(_eme_logpdf(self.n, self.rate, self.w, x))

    @_pointwise
    def cdf(self, x):
        return _eme_cdf(self.n, self.rate, self.w, x)

    def _sum_stages(self, draws):
        return (draws[:, :-1].sum(axis=1) + self.w * draws[:, -1]) / self.rate


def _exp_tail_series(n, u, derivative=False):
    """sum_{j>=0} u^j * n! / (n+j)! = 1F1(1; n+1; u); stable for |u| <= n + 1.

    With ``derivative`` also returns the u-derivative
    sum_{j>=1} j u^(j-1) n! / (n+j)!, summed alongside (no division by u).
    On |u| <= n + 1 the sum is at least e^-1 and the derivative at least
    e^-2 / (n+1) (Jensen's inequality on the Beta(1, n) mixture), so the loop
    stops once the largest term, at max |u|, falls below 1e-18 of those.  At
    |u| = n + 1 the terms fall like exp(-j^2 / 2n), so about 9.4 sqrt(n)
    of them are needed; the cap leaves room above that."""
    u_max = float(np.abs(u).max()) if u.size else 0.0
    limit = 1e-19 / (n + 1) if derivative else 1e-19
    term = np.ones_like(u)
    acc = np.ones_like(u)
    dacc = np.zeros_like(u)
    bound = 1.0
    for j in range(1, math.ceil(10.0 * math.sqrt(n)) + 600):
        if derivative:
            dacc += (j / (n + j)) * term
        term *= u
        term *= 1.0 / (n + j)
        acc += term
        bound *= u_max / (n + j)
        if bound <= limit:
            break
    else:
        raise ConvergenceError(
            f"EME series for n={n} did not converge in {j} terms (max |u| = {u_max:.6g})"
        )
    return (acc, dacc) if derivative else acc


def _eme_logpdf(n, rate, w, x, score=False):
    """log density of EME(n, rate, w) at nonnegative x.

    With lx = rate*x, u = (w-1)/w * lx and pois(k, a) = a^k e^{-a} / k!,
    the density factors as

        f(x) = (rate/w) pois(n, lx) S(u),
        S(u) = 1F1(1; n+1; u) = sum_{j>=0} u^j n!/(n+j)!

    (series branch, used for |u| <= n+1: cancellation-free, exact at w = 1),
    and as

        f(x) = (rate/w) v^n e^{-lx/w} [1 - Q(n, u)],   v = w/(w-1)

    (direct branch for |u| > n+1, where v is finite).  There
    Q(n, u) = pois(n-1, u) B, with B the overflow-free
    ``special.partial_exp_sum`` summed from its k = n-1 term.  For u > n+1,
    Q lies in (0, 1/2] and the bracket is 1 - Q.  For u < -(n+1), |Q| > 1
    and 1 - Q = -Q (1 - 1/Q), whose large factors combine with
    v^n e^{-lx/w} into |v| pois(n-1, lx) B (1 - 1/Q).  log pois is taken
    from ``special.log_poisson_weight``, which does not cancel at large n.

    With ``score`` the derivatives of the log density in (log rate, log w)
    are returned too, from the identity u S' = n (1 - S) + u S:

        d/dlog rate = 1 - lx/w + n/S
        d/dlog w    = -1 + (lx/w) S'/S  =  -1 + (n/S - n + u) / (w - 1)

    The first w form serves the series branch, where S' is summed with S and
    w may be 1; the second the direct branch, where |u| > n+1 keeps w away
    from 1 relative to the point.
    """
    shape = x.shape
    x = x.ravel()
    out = np.empty_like(x)
    lx = rate * x
    u = (w - 1.0) / w * lx
    abs_u = np.abs(u)
    if np.all(x[1:] >= x[:-1]):
        # ascending points (as fitting passes them): |u| ascends too, so the
        # series branch is a prefix and both branches are slices
        cut = int(np.searchsorted(abs_u, n + 1.0, side="right"))
        series, direct = slice(0, cut), slice(cut, None)
    else:
        inside = abs_u <= n + 1.0
        series, direct = np.flatnonzero(inside), np.flatnonzero(~inside)
    log_rw = math.log(rate / w)
    if score:
        n_over_s = np.empty_like(x)
        g_w = np.empty_like(x)

    lxs = lx[series]
    if lxs.size:
        if score:
            s, ds = _exp_tail_series(n, u[series], derivative=True)
            n_over_s[series] = n / s
            g_w[series] = -1.0 + lxs / w * ds / s
        else:
            s = _exp_tail_series(n, u[series])
        out[series] = log_rw + log_poisson_weight(n, lxs) + np.log(s)

    ud = u[direct]
    if ud.size:
        lxd = lx[direct]
        # Q(n, u) = pois(n-1, u) B, with B summed from its k = n-1 term
        b = partial_exp_sum(n, ud)[1]
        if w > 1.0:
            q = np.exp(log_poisson_weight(n - 1, ud)) * b  # in (0, 1/2] for u > n+1
            out[direct] = (
                log_rw + n * (math.log(w) - math.log(w - 1.0)) - lxd / w + np.log1p(-q)
            )
            if score:
                nd = ud * q / (b * (1.0 - q))  # n/S = u Q / (B (1 - Q))
        else:
            inv_q = (-1.0) ** (n - 1) * np.exp(
                ud - (n - 1) * np.log(-ud) + math.lgamma(n) - np.log(b)
            )
            out[direct] = (
                log_rw
                + math.log(w / (1.0 - w))
                + log_poisson_weight(n - 1, lxd)
                + np.log(b * (1.0 - inv_q))
            )
            if score:
                nd = ud / (b * (inv_q - 1.0))
        if score:
            n_over_s[direct] = nd
            g_w[direct] = -1.0 + (nd - n + ud) / (w - 1.0)

    if score:
        return out.reshape(shape), (1.0 - lx / w + n_over_s).reshape(shape), g_w.reshape(shape)
    return out.reshape(shape)


def _eme_cdf(n, rate, w, x):
    """CDF of EME(n, rate, w), by termwise integration of the density.

    Integrated series form, r = (w-1)/w, P the regularized lower incomplete
    gamma:

        F(x) = (1/w) sum_{j>=0} r^j P(n+j+1, rate x).

    Its terms fall like those of the density series in u = r rate x, so it
    serves every point with |u| <= n+1, the split ``_eme_logpdf`` uses.
    Points with |u| > n+1 take the closed partial-fraction form, v = w/(w-1),

        F(x) = v^n (1 - e^{-rate x / w}) - (1/w) sum_{k=0}^{n-1} v^{n-k} P(k+1, rate x)

    when w <= 1/2 or w > 1 with |v|^n <= 1e4.  Its terms cancel in the left
    tail, which |u| <= n+1 covers, and wherever |v|^n is large (w near 1); for
    those w, and for 1/2 < w < 1, |r| < 1 and the series serves every point.
    """
    lx = rate * x
    closed_ok = w <= 0.5 or (w > 1.0 and n * (math.log(w) - math.log(w - 1.0)) <= math.log(1e4))
    closed = abs(w - 1.0) / w * lx > n + 1.0
    if not (closed_ok and closed.any()):
        return np.clip(_eme_cdf_series(n, w, lx), 0.0, 1.0)
    v = w / (w - 1.0)
    vals = v**n * (-np.expm1(-lx / w))
    for k in range(n):
        vals -= v ** (n - k) * sp_special.gammainc(k + 1, lx) / w
    if not closed.all():
        vals[~closed] = _eme_cdf_series(n, w, lx[~closed])
    return np.clip(vals, 0.0, 1.0)


def _eme_cdf_series(n, w, lx):
    """F at the points lx = rate x by the integrated series of ``_eme_cdf``.

    It stops at the first J whose next term at the largest point is bounded
    below 1e-18 of the partial sum there.  With P(a, x) = P(a+1, x) + pois(a, x),
    pois(a, x) = x^a e^{-x} / a!, the sum regroups into

        w F(x) = R_J P(n+J+1, x) + sum_{j<J} R_j pois(n+j+1, x),
        R_j = sum_{i<=j} r^i = (1 - r^{j+1}) / (1 - r),

    so ``gammainc`` runs once, at the top order, and the lower orders follow
    from pois(a, x) = pois(a+1, x) (a+1) / x.
    """
    r = (w - 1.0) / w
    lx_max = float(lx.max()) if lx.size else 0.0
    if lx_max == 0.0:
        return np.zeros_like(lx)
    # Top order from bounds at lx_max.  w F = int_0^x pois(n, y) S(r y) dy with
    # S(u) >= exp(u/(n+1)) (Jensen on the Beta(1, n) mixture), so the partial
    # sum is at least low P(n+1, x), low = min(1, exp(r x/(n+1))); for
    # -1 < r < 0 the alternating series also gives 1 + r.  And
    # P(a, x) <= pois(a, x) (a+1)/(a+1-x) for a + 1 > x, else 1.
    low = min(1.0, max(1.0 + r, math.exp(r * lx_max / (n + 1))))
    floor = 1e-18 * low * sp_special.gammainc(n + 1, lx_max)
    log_x = math.log(lx_max)
    log_pois = (n + 1) * log_x - lx_max - math.lgamma(n + 2)
    coeff = 1.0
    top = n + 1
    while True:
        coeff *= r
        log_pois += log_x - math.log(top + 1)
        bound = 1.0
        if top + 2 > lx_max:
            bound = min(1.0, math.exp(log_pois) * (top + 2) / (top + 2 - lx_max))
        if abs(coeff) * bound <= floor:
            break
        top += 1
    shape = lx.shape
    if lx.size == 1:  # one point, as in root finding: numpy scalars skip the array overhead
        lx = lx.flat[0]
    # x = 0 gives pois = 0 at every order >= 1 through a tiny positive lx
    lx = np.maximum(lx, 1e-300)
    inv_lx = 1.0 / lx
    vals = (1.0 - r ** (top - n)) / (1.0 - r) * sp_special.gammainc(top, lx)
    for a in range(top - 1, n, -1):
        if (top - a) % 16 == 1:  # exact every 16 orders, so rounding cannot build up
            pois = np.exp(log_poisson_weight(a, lx))
        else:
            pois *= (a + 1) * inv_lx
        vals += (1.0 - r ** (a - n)) / (1.0 - r) * pois
    return np.reshape(vals, shape) / w


# canonical name -> (class, aliases, constructor parameters); drives
# make_distribution, family_name, the io parameter records and the CLI --dist
FAMILIES = {
    "exponential": (Exponential, ("exp",), ("rate",)),
    "erlang": (Erlang, (), ("n", "rate")),
    "hypoexponential": (Hypoexponential, ("hypo",), ("rates",)),
    "eme": (EME, (), ("n", "rate", "w")),
}

# every accepted family string (canonical names and aliases) -> canonical name
FAMILY_ALIASES = {
    alias: name for name, (_, aliases, _) in FAMILIES.items() for alias in (name, *aliases)
}


def make_distribution(family, **params):
    """Build a distribution from a family name or alias (see ``FAMILIES``) and
    keyword parameters: ``exponential`` (rate), ``erlang`` (n, rate),
    ``hypoexponential`` (rates), ``eme`` (n, rate, w)."""
    family = str(family).lower()
    if family not in FAMILY_ALIASES:
        raise ParameterError(f"unknown distribution family {family!r}")
    cls, _, keys = FAMILIES[FAMILY_ALIASES[family]]
    for key in keys:
        if params.get(key) is None:
            raise ParameterError(f"family {family!r} requires parameter {key!r}")
    return cls(**{key: params[key] for key in keys})


def family_name(dist):
    """Canonical family string for a distribution instance."""
    for name, (cls, _, _) in FAMILIES.items():
        if isinstance(dist, cls):
            return name
    raise ParameterError(f"not a distribution: {dist!r}")
