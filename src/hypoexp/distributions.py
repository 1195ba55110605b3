"""Exponential, Erlang, distinct-rate hypoexponential, and exponentially
modified Erlang (EME) distributions.

Every family supports ``pdf``, ``cdf``, ``laplace`` (the Laplace transform
``E[exp(-t X)]``), ``mean``/``var``, and inverse-CDF ``sample``.  All
evaluation methods are pure and thread-safe; sampling mutates only the
generator passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp_special

from ._util import as_values
from .errors import ConvergenceError, DomainError, ParameterError

# Rate pairs closer than this relative gap are rejected by Hypoexponential:
# the partial-fraction weights cancel catastrophically there.  Equal-rate
# stages belong in Erlang or EME instead.
MIN_RELATIVE_RATE_GAP = 1e-8

# Below this |w - 1| an EME is flagged as sitting on the Erlang(n+1) limit.
# Evaluation does not need a special branch (the series form is exact through
# w = 1); the flag is metadata for callers.
ERLANG_LIMIT_TOL = 1e-6

_EPS = np.finfo(float).eps


def _check_rate(value, name="rate"):
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a finite positive real, got {value!r}")
    return value


def _check_count(n, name="n"):
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ParameterError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def _as_points(x, name="x"):
    """Validate evaluation points; returns (array, was_scalar)."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if np.any(arr < 0.0):
        raise DomainError(f"{name} must be nonnegative, got min {arr.min()!r}")
    return arr, scalar


def _ret(values, scalar):
    return float(values[0]) if scalar else values


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


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with density rate * exp(-rate * x)."""

    rate: float

    def __post_init__(self):
        object.__setattr__(self, "rate", _check_rate(self.rate))

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def var(self):
        return 1.0 / self.rate**2

    def pdf(self, x):
        x, scalar = _as_points(x)
        return _ret(self.rate * np.exp(-self.rate * x), scalar)

    def cdf(self, x):
        x, scalar = _as_points(x)
        return _ret(-np.expm1(-self.rate * x), scalar)

    def laplace(self, t):
        t, scalar = _as_points(t, name="t")
        return _ret(self.rate / (self.rate + t), scalar)

    def sample(self, count, rng, label=None):
        count = _check_count(count, "count")
        values = _std_exp(rng, count) / self.rate
        return Sample(values, label if label is not None else repr(self))


@dataclass(frozen=True)
class Erlang:
    """Sum of ``n`` independent Exponential(rate) stages."""

    n: int
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n))
        object.__setattr__(self, "rate", _check_rate(self.rate))

    @property
    def mean(self):
        return self.n / self.rate

    @property
    def var(self):
        return self.n / self.rate**2

    def pdf(self, x):
        x, scalar = _as_points(x)
        n, lam = self.n, self.rate
        if n == 1:
            return _ret(lam * np.exp(-lam * x), scalar)
        out = np.zeros_like(x)
        pos = x > 0.0
        xp = x[pos]
        with np.errstate(divide="ignore"):
            out[pos] = np.exp(
                n * math.log(lam) + (n - 1) * np.log(xp) - lam * xp - math.lgamma(n)
            )
        return _ret(out, scalar)

    def cdf(self, x):
        x, scalar = _as_points(x)
        return _ret(sp_special.gammainc(self.n, self.rate * x), scalar)

    def laplace(self, t):
        t, scalar = _as_points(t, name="t")
        return _ret((self.rate / (self.rate + t)) ** self.n, scalar)

    def sample(self, count, rng, label=None):
        count = _check_count(count, "count")
        values = _std_exp(rng, (count, self.n)).sum(axis=1) / self.rate
        return Sample(values, label if label is not None else repr(self))


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
class Hypoexponential:
    """Sum of independent exponentials with pairwise-distinct rates.

    Construction rejects rate pairs with relative gap below
    ``MIN_RELATIVE_RATE_GAP`` and weights whose sum strays from 1 beyond
    rounding, because the partial-fraction weights become meaningless there.
    """

    rates: tuple
    weights: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rates = tuple(_check_rate(r, "rate") for r in np.atleast_1d(self.rates))
        if len(rates) < 2:
            raise ParameterError("Hypoexponential needs at least two rates")
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
    def mean(self):
        return float(np.sum(1.0 / np.asarray(self.rates)))

    @property
    def var(self):
        return float(np.sum(1.0 / np.asarray(self.rates) ** 2))

    def pdf(self, x):
        x, scalar = _as_points(x)
        lam = np.asarray(self.rates)
        w = np.asarray(self.weights)
        vals = np.exp(-np.outer(x, lam)) @ (w * lam)
        return _ret(np.maximum(vals, 0.0), scalar)

    def cdf(self, x):
        # 1 - sum_j l_j exp(-rate_j x), evaluated as -sum_j l_j expm1(-rate_j x)
        # so that F(0) = 0 exactly
        x, scalar = _as_points(x)
        lam = np.asarray(self.rates)
        w = np.asarray(self.weights)
        vals = -np.expm1(-np.outer(x, lam)) @ w
        return _ret(np.clip(vals, 0.0, 1.0), scalar)

    def laplace(self, t):
        t, scalar = _as_points(t, name="t")
        lam = np.asarray(self.rates)
        return _ret((lam / (lam + t[:, None])).prod(axis=1), scalar)

    def sample(self, count, rng, label=None):
        count = _check_count(count, "count")
        lam = np.asarray(self.rates)
        values = (_std_exp(rng, (count, lam.size)) / lam).sum(axis=1)
        return Sample(values, label if label is not None else repr(self))


@dataclass(frozen=True)
class EME:
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
        object.__setattr__(self, "n", _check_count(self.n))
        object.__setattr__(self, "rate", _check_rate(self.rate))
        object.__setattr__(self, "w", _check_rate(self.w, "w"))

    @property
    def is_erlang_limit(self):
        """True when w is within ERLANG_LIMIT_TOL of 1 (Erlang(n+1) regime)."""
        return abs(self.w - 1.0) < ERLANG_LIMIT_TOL

    @property
    def beta(self):
        """Scale of the incomplete-gamma argument: rate * (w - 1) / w."""
        return self.rate * (self.w - 1.0) / self.w

    @property
    def mean(self):
        return (self.n + self.w) / self.rate

    @property
    def var(self):
        return (self.n + self.w**2) / self.rate**2

    def logpdf(self, x):
        x, scalar = _as_points(x)
        out = _eme_logpdf(self.n, self.rate, self.w, x)
        return _ret(out, scalar)

    def pdf(self, x):
        x, scalar = _as_points(x)
        out = np.exp(_eme_logpdf(self.n, self.rate, self.w, x))
        return _ret(out, scalar)

    def cdf(self, x):
        x, scalar = _as_points(x)
        return _ret(_eme_cdf(self.n, self.rate, self.w, x), scalar)

    def laplace(self, t):
        # product of the component transforms: Exp(rate/w) times Erlang(n, rate)
        t, scalar = _as_points(t, name="t")
        odd = self.rate / self.w
        vals = (odd / (odd + t)) * (self.rate / (self.rate + t)) ** self.n
        return _ret(vals, scalar)

    def sample(self, count, rng, label=None):
        count = _check_count(count, "count")
        draws = _std_exp(rng, (count, self.n + 1))
        values = (draws[:, : self.n].sum(axis=1) + self.w * draws[:, self.n]) / self.rate
        return Sample(values, label if label is not None else repr(self))


def _exp_tail_series(n, u):
    """sum_{j>=0} u^j * n! / (n+j)! = 1F1(1; n+1; u); stable for |u| <= n + 1.

    At |u| = n + 1 the terms fall like exp(-j^2 / 2n), so about 9.2 sqrt(n)
    of them reach the 1e-18 cutoff; the cap leaves room above that."""
    term = np.ones_like(u)
    acc = np.ones_like(u)
    for j in range(1, math.ceil(10.0 * math.sqrt(n)) + 600):
        term = term * u / (n + j)
        acc = acc + term
        if np.all(np.abs(term) <= 1e-18 * np.abs(acc)):
            break
    else:
        raise ConvergenceError(
            f"EME series for n={n} did not converge in {j} terms "
            f"(max |u| = {np.abs(u).max():.6g})"
        )
    return acc


def _exp_partial_sum(n, u):
    """sum_{k=0}^{n-1} u^k / k! via incremental terms."""
    term = np.ones_like(u)
    acc = np.ones_like(u)
    for k in range(1, n):
        term = term * u / k
        acc = acc + term
    return acc


def _eme_logpdf(n, rate, w, x):
    """log density of EME(n, rate, w) at nonnegative x.

    With u = rate*x*(w-1)/w the density factors as

        f(x) = (rate/w) e^{-rate x} (rate x)^n / n! * sum_{j>=0} u^j n!/(n+j)!

    (series branch, used for |u| <= n+1: cancellation-free, exact at w = 1),
    and as

        f(x) = (rate/w) [v^n e^{-rate x / w} - v^n e^{-rate x} p(u)],
        v = w/(w-1),  p(u) = sum_{k<n} u^k/k!

    (partial-fraction branch for |u| > n+1, assembled in log space: there the
    two terms no longer cancel catastrophically and v is finite).
    """
    out = np.full(x.shape, -np.inf)
    lx = rate * x
    u = (w - 1.0) / w * lx

    series = np.abs(u) <= n + 1.0
    if series.any():
        s = _exp_tail_series(n, u[series])
        lxs = lx[series]
        with np.errstate(divide="ignore"):
            out[series] = (
                math.log(rate / w)
                - lxs
                + n * np.log(lxs)
                + np.log(s)
                - math.lgamma(n + 1)
            )

    direct = ~series
    if direct.any():
        ud = u[direct]
        lxd = lx[direct]
        log_abs_vn = n * (math.log(w) - math.log(abs(w - 1.0)))
        sign_vn = 1.0 if (w > 1.0 or n % 2 == 0) else -1.0
        p = _exp_partial_sum(n, ud)
        # p can only overflow when the density has already underflowed to 0
        overflowed = ~np.isfinite(p)
        p = np.where(overflowed, 1.0, p)
        a1 = log_abs_vn - lxd / w
        with np.errstate(divide="ignore"):
            a2 = log_abs_vn + np.log(np.abs(p)) - lxd
        peak = np.maximum(a1, a2)
        inner = sign_vn * np.exp(a1 - peak) - sign_vn * np.sign(p) * np.exp(a2 - peak)
        with np.errstate(divide="ignore"):
            vals = math.log(rate / w) + peak + np.log(np.maximum(inner, 0.0))
        out[direct] = np.where(overflowed, -np.inf, vals)
    return out


def _eme_cdf(n, rate, w, x):
    """CDF of EME(n, rate, w), by termwise integration of the density.

    Closed partial-fraction form (used while |v|^n stays small, v = w/(w-1)):

        F(x) = v^n (1 - e^{-rate x / w}) - (1/w) sum_{k=0}^{n-1} v^{n-k} P(k+1, rate x)

    with P the regularized lower incomplete gamma.  Near w = 1 the weights
    v^{n-k} blow up, so there the integrated series form is used instead:

        F(x) = (1/w) sum_{j>=0} r^j P(n+j+1, rate x),   r = (w-1)/w,

    whose terms are bounded by |r|^j with |r| < 1 whenever |v|^n is large.
    """
    lx = rate * x
    if w != 1.0 and n * (math.log(w) - math.log(abs(w - 1.0))) <= math.log(1e4):
        v = w / (w - 1.0)
        vals = v**n * (-np.expm1(-lx / w))
        for k in range(n):
            vals -= v ** (n - k) * sp_special.gammainc(k + 1, lx) / w
    else:
        r = (w - 1.0) / w
        vals = np.zeros_like(lx)
        coeff = 1.0 / w
        lx_max = lx.max() if lx.size else 0.0
        for j in range(200_000):
            tail = sp_special.gammainc(n + j + 1, lx)
            vals += coeff * tail
            coeff *= r
            if abs(coeff) * sp_special.gammainc(n + j + 2, lx_max) < 1e-18:
                break
    return np.clip(vals, 0.0, 1.0)


def moments(dist):
    """(mean, variance) of any distribution in this module."""
    return dist.mean, dist.var


def _required(params, key, family):
    if params.get(key) is None:
        raise ParameterError(f"family {family!r} requires parameter {key!r}")
    return params[key]


def make_distribution(family, **params):
    """Build a distribution from a family name and keyword parameters.

    Accepted families: ``exponential`` (rate), ``erlang`` (n, rate),
    ``hypoexponential`` (rates), ``eme`` (n, rate, w).
    """
    family = str(family).lower()
    if family in ("exp", "exponential"):
        return Exponential(rate=_required(params, "rate", family))
    if family == "erlang":
        return Erlang(n=_required(params, "n", family), rate=_required(params, "rate", family))
    if family in ("hypo", "hypoexponential"):
        return Hypoexponential(rates=tuple(_required(params, "rates", family)))
    if family == "eme":
        return EME(
            n=_required(params, "n", family),
            rate=_required(params, "rate", family),
            w=_required(params, "w", family),
        )
    raise ParameterError(f"unknown distribution family {family!r}")


def family_name(dist):
    """Canonical family string for a distribution instance."""
    if isinstance(dist, Exponential):
        return "exponential"
    if isinstance(dist, Erlang):
        return "erlang"
    if isinstance(dist, Hypoexponential):
        return "hypoexponential"
    if isinstance(dist, EME):
        return "eme"
    raise ParameterError(f"not a distribution: {dist!r}")
