"""Exponential, Erlang, hypoexponential, and exponentially modified Erlang
(EME) distributions.

Each family is a sum of independent exponential stages (``StageSum``): it
gives its ``stages`` (each stage rate and how many stages run at it) and its
``pdf``/``cdf``, and the base derives ``mean``/``var``, ``laplace`` (the
Laplace transform ``E[exp(-t X)]``) and inverse-CDF ``sample`` from them.
``Hypoexponential`` is the law for any stage rates, repeated or not, by
uniformization; Exponential, Erlang and EME keep their closed forms.  All
evaluation methods are pure and thread-safe; sampling mutates only the
generator passed in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

# Mean uniformization jumps per checkpoint window of ``_Uniformization``;
# a point's residual then sums about 90 terms.
_WINDOW = 32.0

# Bytes of standard exponential draws that ``StageSum.sample`` holds at once.
_DRAW_BYTES = 1 << 17

# Points per block of an EME derivative pass (``_eme_logpdf``).
_PASS_POINTS = 8192


def _pointwise(method):
    """Check the points of ``method(self, x)`` with ``as_points``; the method
    sees a float64 array, 0-d for a scalar point, which gets a float back."""
    name = method.__code__.co_varnames[1]

    @functools.wraps(method)
    def checked(self, x):
        x = as_points(x, name)
        if isinstance(x, float):
            return float(method(self, np.array(x)))
        return method(self, x)

    return checked


def _std_exp(rng, shape):
    # inverse-CDF draw, in place; 1 - U lies in (0, 1] so log1p never sees -1
    draws = rng.random(shape)
    np.negative(draws, out=draws)
    np.log1p(draws, out=draws)
    return np.negative(draws, out=draws)


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

    def sample(self, count, rng):
        """``count`` draws as a 1-D float64 array; DataError if one overflows.

        The standard exponential draws come in blocks of rows that fill at
        most ``_DRAW_BYTES``, one column per stage.  ``Generator.random``
        fills row-major and continues its stream from call to call, so the
        draws, and the generator's state after them, do not depend on the
        block size."""
        count = check_positive_int(count, "count")
        stages = int(self.stages[1].sum())
        rows = max(1, _DRAW_BYTES // (8 * stages))
        out = np.empty(count)
        with np.errstate(over="ignore"):  # an overflow is the DataError below
            for start in range(0, count, rows):
                stop = min(start + rows, count)
                out[start:stop] = self._sum_stages(_std_exp(rng, (stop - start, stages)))
        return as_values(out, what="sample values")

    def _sum_stages(self, draws):
        """One value per row of standard exponential draws, one column per
        stage.  Divides in place: the draws are the caller's scratch."""
        draws /= self.stage_rates
        return draws.sum(axis=1)


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
        return self.rate * np.exp(log_poisson_weight(self.n - 1, self.rate * x))

    @_pointwise
    def cdf(self, x):
        return sp_special.gammainc(self.n, self.rate * x)

    def _sum_stages(self, draws):
        return draws.sum(axis=1) / self.rate


@dataclass(frozen=True)
class Hypoexponential(StageSum):
    """Sum of independent exponential stages at ``rates``, repeated or not.

    It is also the absorption time of the chain that leaves stage i at rate
    ``rates[i]``: ``chains.StageChain`` is this class.  ``pdf`` and ``cdf``
    come from ``_Uniformization``, built on the law's first evaluation and
    kept on the law, so its memory goes with the law.
    """

    rates: tuple

    def __post_init__(self):
        object.__setattr__(self, "rates", check_rates(self.rates, "rate"))

    @property
    def stages(self):
        return np.asarray(self.rates), np.ones(len(self.rates), dtype=int)

    @functools.cached_property
    def _setup(self):
        return _Uniformization(self.rates)

    @_pointwise
    def pdf(self, x):
        return self.rates[-1] * self._setup(x, -2)

    @_pointwise
    def cdf(self, x):
        return np.minimum(self._setup(x, -1), 1.0)


class _Uniformization:
    """Density and CDF of a stage chain by uniformization (Jensen 1953).

    At Lambda = max rate the chain jumps at the events of a Poisson(Lambda x)
    clock; at a jump stage i moves on with probability lam_i / Lambda and
    otherwise stays.  With P that jump matrix (absorbing state K last),

        F(x) = sum_k pois(k; Lambda x) (e_0 P^k)[K],
        f(x) = lam_{K-1} sum_k pois(k; Lambda x) (e_0 P^k)[K-1].

    Every term is nonnegative, so neither sum cancels: the left tail keeps
    its relative accuracy and repeated rates need no special case.

    The work per point is bounded in x.  Lambda x splits into j windows of
    ``_WINDOW`` mean jumps and a residual s below one window.  The
    checkpoint row e_0 M^j, M = sum_k pois(k; _WINDOW) P^k the window's
    transition matrix, comes from binary powers of M.  They are squared until
    the transient mass of e_0 M^(2^b) underflows; from that cap on, e_0 M^j
    is the absorbed row, and F = 1 and f = 0 exactly.  The residual sums as
    many terms in s as leave every row of M, in both columns, a relative
    tail below 2^-56.  That tail grows with s, and the tail of a nonnegative
    combination of rows is at most the largest of theirs, so the bound holds
    at every checkpoint and point.  The diagonal of each power of M is set
    to its exact exp(-lam_i t): its rounding would otherwise grow with j.
    Rates too far apart for that (the slowest below about 1e-17 of the
    fastest, or tails that the table of terms cannot reach) raise
    ``ConvergenceError``.
    """

    def __init__(self, rates):
        move = np.asarray(rates) / max(rates)
        jump = np.diag(np.append(1.0 - move, 1.0)) + np.diag(move, 1)  # P
        size = len(jump)
        self.scale = max(rates) / _WINDOW
        # terms[k]: the two columns of P^k times _WINDOW^k / k!, the
        # coefficient of (s / _WINDOW)^k; pois(size + 160; _WINDOW) < 1e-60
        factor, power = 1.0, np.eye(size)
        window = np.zeros((size, size))
        terms = np.empty((size + 160, size, 2))
        for k in range(len(terms)):
            window += factor * power
            terms[k] = factor * power[:, -2:]
            factor *= _WINDOW / (k + 1)
            power = jump @ power
        tails = np.cumsum(terms[::-1], axis=0)[::-1] + 2.0 * factor * (window[:, -2:] > 0)
        enough = np.all(tails <= 2.0**-56 * window[:, -2:], axis=(1, 2))
        self.coef = np.moveaxis(terms[: int(np.argmax(enough))], 0, -1)
        exits = _WINDOW * np.append(move, 0.0)
        self.start = np.eye(size)[0]
        self.powers, square = [], window * math.exp(-_WINDOW)
        while not self.powers or (self.powers[-1][0, :-1].any() and len(self.powers) < 64):
            np.fill_diagonal(square, np.exp(-exits * 2.0 ** len(self.powers)))
            self.powers.append(square)
            square = square @ square
        if not enough[-1] or self.powers[-1][0, :-1].any():
            raise ConvergenceError(f"rates {rates} are beyond the range of uniformization")
        self.powers[-1][0, -1] = 1.0  # e_0 M^cap: the transient mass has underflowed

    def __call__(self, x, col):
        """sum_k pois(k; Lambda x) (e_0 P^k)[col] at the points x."""
        cap = 2.0 ** (len(self.powers) - 1)
        if x.ndim == 0:  # one point, as in root finding: no sort and no window groups
            y = min(float(x) * self.scale, cap)
            return self._residual(self._row(int(y)) @ self.coef[:, col], y % 1.0)
        flat = x.ravel()
        order = np.argsort(flat, kind="stable")
        y = np.minimum(flat[order] * self.scale, cap)  # Lambda x / _WINDOW
        windows = np.floor(y)
        u = y - windows  # s / _WINDOW, in [0, 1)
        starts = np.flatnonzero(windows != np.concatenate(([-1.0], windows[:-1]))).tolist()
        rows = np.reshape([self._row(int(windows[a])) for a in starts], (-1, self.start.size))
        out = np.empty_like(flat)
        for coef, a, b in zip(rows @ self.coef[:, col], starts, starts[1:] + [y.size]):
            out[order[a:b]] = self._residual(coef, u[a:b])
        return out.reshape(x.shape)

    @staticmethod
    def _residual(coef, u):
        """sum_k coef[k] u^k exp(-_WINDOW u) at u, a float or an array."""
        if np.size(u) > 256:  # many points: Horner with scalar coefficients
            acc = np.full(u.size, coef[-1])
            for c in coef[-2::-1]:
                acc *= u
                acc += c
        else:  # few: one table of powers, cheaper than a loop per term
            acc = np.power.outer(u, np.arange(coef.size)) @ coef
        return acc * np.exp(-_WINDOW * u)

    def _row(self, j):
        """e_0 M^j from the binary powers of M."""
        powers = (self.powers[b] for b in range(j.bit_length()) if j >> b & 1)
        return functools.reduce(np.matmul, powers, self.start)


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


def _exp_tail_series(n, u, derivatives=False):
    """sum_{j>=0} u^j * n! / (n+j)! = 1F1(1; n+1; u); stable for |u| <= n + 1.

    With ``derivatives`` also returns the first and second u-derivatives
    sum_{j>=1} j u^(j-1) n!/(n+j)! and sum_{j>=2} j (j-1) u^(j-2) n!/(n+j)!,
    summed alongside (no division by u).  S(u) = E[exp(u B)], B ~ Beta(1, n),
    so on |u| <= n + 1 Jensen's inequality on the Beta(1, n), Beta(2, n) and
    Beta(3, n) mixtures bounds the sum below by e^-1, the first derivative by
    e^-2 / (n+1) and the second by 2 e^-3 / ((n+1)(n+2)); the loop stops once
    the largest term, at max |u|, falls below 1e-18 of the smallest bound in
    use.  At |u| = n + 1 the terms fall like exp(-j^2 / 2n), so about
    9.4 sqrt(n) of them are needed; the cap leaves room above that."""
    u_max = float(np.abs(u).max()) if u.size else 0.0
    limit = 1e-19 / ((n + 1) * (n + 2)) if derivatives else 1e-19
    term = np.ones_like(u)
    acc = np.ones_like(u)
    dacc = np.zeros_like(u)
    d2acc = np.zeros_like(u)
    dterm = np.empty_like(u)  # one buffer: fresh arrays per term cost page faults
    bound = 1.0
    for j in range(1, math.ceil(10.0 * math.sqrt(n)) + 600):
        if derivatives:
            # term of index j of the first derivative, and from it the term
            # of index j + 1 of the second; both are summed past index j
            np.multiply(term, j / (n + j), out=dterm)
            dacc += dterm
            dterm *= (j + 1) / (n + j + 1)
            d2acc += dterm
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
    return (acc, dacc, d2acc) if derivatives else acc


def _eme_logpdf(n, rate, w, x, derivatives=False):
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

    With ``derivatives`` it returns instead the mean log density over x, its
    mean gradient and its mean Hessian in (a, b) = (log rate, log w).  With
    t = n/S, L1 = S'/S, L2 = (log S)'' and R = u L1, and from du/da = u,
    du/db = lx/w and dt/du = -t L1, each point contributes

        d/da = 1 - lx/w + t              d2/da2  = -lx/w - t R
        d/db = -1 + L1 lx/w              d2/dadb = lx/w - t L1 lx/w
                                         d2/db2  = -L1 lx/w + L2 (lx/w)^2

    The series branch sums S' and S'' with S.  The direct branch has t in
    closed form and, from the identity u S' = n (1 - S) + u S,
    R = t - n + u, so L1 lx/w = R/(w - 1) and, through L2 = (1 - t L1)/u - R/u^2,
    d2/db2 = (u - (t + w) R)/(w - 1)^2, which does not cancel at large u as
    S''/S - L1^2 does.  For w < 1, t and lx/w are both about -u and R about
    -1, so these forms lose eps |u| absolutely; there rho = R + 1 is taken
    from B, its moment E = -u dB/du and 1/Q, as
    rho = (-E/B + (n - 1 - u)/Q)/(1 - 1/Q), and with
    K = (n - 1) + u rho + (2 - n) rho - rho^2 the point contributes

        d/da = n + rho - lx              d2/da2  = K - lx
        d/db = (rho - w)/(w - 1)         d2/dadb = K/(w - 1)
                                         d2/db2  = (K + w (1 - rho))/(w - 1)^2

    which stay accurate as w -> 0, towards the Erlang(n) limit.  The terms
    are reduced by sums and dot products; no per-point Hessian is formed.
    A derivative pass takes the points ``_PASS_POINTS`` at a time, so the many
    passes of a fit reuse small blocks instead of faulting in full-size ones.
    """
    if not derivatives:
        return _eme_terms(n, rate, w, x.ravel()).reshape(x.shape)
    x = x.ravel()
    # sums over the points of log f, and of d/da, d/db, d2/da2, d2/dadb, d2/db2
    ll, sums = 0.0, np.zeros(5)
    for start in range(0, x.size, _PASS_POINTS):
        ll += _eme_terms(n, rate, w, x[start : start + _PASS_POINTS], sums).sum()
    d_a, d_b, h_aa, h_ab, h_bb = sums / x.size
    return float(ll / x.size), np.array([d_a, d_b]), np.array([[h_aa, h_ab], [h_ab, h_bb]])


def _eme_terms(n, rate, w, x, sums=None):
    # log densities at the flat array x; with ``sums``, the sums over x of
    # their derivatives in _eme_logpdf's order are added into it
    derivatives = sums is not None
    out = np.empty_like(x)
    lx = rate * x
    u = (w - 1.0) / w * lx
    series, direct = _branches(n, np.abs(u))
    log_rw = math.log(rate / w)

    lxs = lx[series]
    if lxs.size:
        if derivatives:
            us = u[series]
            s, ds, d2s = _exp_tail_series(n, us, derivatives=True)
            t = n / s
            l1 = ds / s
            lxw = lxs / w
            g = l1 * lxw
            lxw_sum, g_sum = lxw.sum(), g.sum()
            sums += (lxs.size - lxw_sum + t.sum(), g_sum - lxs.size,
                     -lxw_sum - t @ (l1 * us), lxw_sum - t @ g,
                     (d2s / s) @ (lxw * lxw) - g @ g - g_sum)
        else:
            s = _exp_tail_series(n, u[series])
        out[series] = log_rw + log_poisson_weight(n, lxs) + np.log(s)

    ud = u[direct]
    if ud.size:
        lxd = lx[direct]
        # Q(n, u) = pois(n-1, u) B, with B summed from its k = n-1 term
        if w > 1.0:
            b = partial_exp_sum(n, ud)
            q = np.exp(log_poisson_weight(n - 1, ud)) * b  # in (0, 1/2] for u > n+1
            out[direct] = (
                log_rw + n * (math.log(w) - math.log(w - 1.0)) - lxd / w + np.log1p(-q)
            )
            if derivatives:
                t = ud * q / (b * (1.0 - q))  # n/S = u Q / (B (1 - Q))
                r = t - n + ud
                lxw_sum, t_r = lxd.sum() / w, t @ r
                sums += (ud.size - lxw_sum + t.sum(), r.sum() / (w - 1.0) - ud.size,
                         -lxw_sum - t_r, lxw_sum - t_r / (w - 1.0),
                         (ud.sum() - (t + w) @ r) / (w - 1.0) ** 2)
        else:
            if derivatives:
                b, e = partial_exp_sum(n, ud, moment=True)
            else:
                b = partial_exp_sum(n, ud)
            inv_q = (-1.0) ** (n - 1) * np.exp(
                ud - (n - 1) * np.log(-ud) + math.lgamma(n) - np.log(b)
            )
            out[direct] = (
                log_rw
                + math.log(w / (1.0 - w))
                + log_poisson_weight(n - 1, lxd)
                + np.log(b * (1.0 - inv_q))
            )
            if derivatives:
                rho = (-e / b + (n - 1.0 - ud) * inv_q) / (1.0 - inv_q)
                rho_sum, lx_sum = rho.sum(), lxd.sum()
                k_sum = (n - 1.0) * ud.size + (2.0 - n) * rho_sum - rho @ rho + ud @ rho
                sums += (n * ud.size + rho_sum - lx_sum, (rho_sum - w * ud.size) / (w - 1.0),
                         k_sum - lx_sum, k_sum / (w - 1.0),
                         (k_sum + w * (ud.size - rho_sum)) / (w - 1.0) ** 2)

    return out


def _branches(n, abs_u):
    """(series, other): the points with |u| <= n + 1 and the rest.  Ascending
    |u| (as fitting and ``validate_against`` pass points) makes the series
    points a prefix, and both are slices; else they are index arrays."""
    if np.all(abs_u[1:] >= abs_u[:-1]):
        cut = int(np.searchsorted(abs_u, n + 1.0, side="right"))
        return slice(0, cut), slice(cut, None)
    inside = abs_u <= n + 1.0
    return np.flatnonzero(inside), np.flatnonzero(~inside)


def _eme_cdf(n, rate, w, x):
    """CDF of EME(n, rate, w), by termwise integration of the density.

    Integrated series form, r = (w-1)/w, P the regularized lower incomplete
    gamma:

        F(x) = (1/w) sum_{j>=0} r^j P(n+j+1, rate x).

    Its terms fall like those of the density series in u = r rate x, so it
    serves every point with |u| <= n+1, the split ``_eme_logpdf`` uses.
    Points with |u| > n+1 take the closed partial-fraction form, v = w/(w-1),

        F(x) = v^n (1 - e^{-rate x / w}) - (1/w) sum_{k=0}^{n-1} v^{n-k} P(k+1, rate x)

    when w <= 1/2 or w > 1 with v^n <= 32.  Its terms cancel in the left
    tail, which |u| <= n+1 covers, and wherever v^n is large (w near 1): they
    reach v^n and leave about 2 eps v^n of rounding, 1.4e-14 at the cap.  For
    the other w > 1, and for 1/2 < w < 1, |r| < 1 and the series serves every
    point.

    Each branch runs only on its own points, and ``gammainc`` once on them:
    the closed form at order n, the series at its top order.  The lower
    orders follow from P(a, x) = P(a+1, x) + pois(a, x), which adds positive
    terms.  One point (a 0-d ``x``, as root finding passes) runs its branch
    on a Python float and gets a float back.
    """
    closed_ok = w <= 0.5 or (w > 1.0 and n * (math.log(w) - math.log(w - 1.0)) <= math.log(32.0))
    # x = 0 gives pois = 0 at every order >= 1 through a tiny positive lx
    if x.ndim == 0:
        lx = max(rate * float(x), 1e-300)
        closed = closed_ok and abs(w - 1.0) / w * lx > n + 1.0
        vals = _eme_cdf_closed(n, w, lx) if closed else _eme_cdf_series(n, w, lx, lx)
        return min(max(vals, 0.0), 1.0)
    lx = np.maximum(rate * x.ravel(), 1e-300)
    series, closed = _branches(n, abs(w - 1.0) / w * lx) if closed_ok else (slice(None), slice(0))
    vals = np.empty_like(lx)
    lxs, lxc = lx[series], lx[closed]
    if lxs.size:
        vals[series] = _eme_cdf_series(n, w, lxs, float(lxs.max()))
    if lxc.size:
        vals[closed] = _eme_cdf_closed(n, w, lxc)
    return np.minimum(np.maximum(vals, 0.0), 1.0).reshape(x.shape)


def _eme_cdf_closed(n, w, lx):
    """F at the points lx = rate x by the closed form of ``_eme_cdf``, with
    P(n, lx) from ``gammainc`` and P(a, lx) = P(a+1, lx) + pois(a, lx) for
    a = n-1 down to 1, pois taken downward by pois(a, x) = pois(a+1, x) (a+1) / x."""
    plain = float if isinstance(lx, float) else np.asarray  # one point: Python floats
    v = w / (w - 1.0)
    p = plain(sp_special.gammainc(n, lx))  # P(a, lx), from a = n down
    total = v * p
    for a in range(n - 1, 0, -1):
        pois = plain(np.exp(log_poisson_weight(a, lx))) if a == n - 1 else pois * ((a + 1) / lx)
        p += pois
        total += v ** (n + 1 - a) * p
    return v**n * -np.expm1(-lx / w) - total / w


def _eme_cdf_series(n, w, lx, lx_max):
    """F at the points lx = rate x, the largest lx_max, by the integrated
    series of ``_eme_cdf``.

    It stops at the first J whose next term at the largest point is bounded
    below 1e-18 of the partial sum there.  With P(a, x) = P(a+1, x) + pois(a, x),
    pois(a, x) = x^a e^{-x} / a!, the sum regroups into

        w F(x) = R_J P(n+J+1, x) + sum_{j<J} R_j pois(n+j+1, x),
        R_j = sum_{i<=j} r^i = (1 - r^{j+1}) / (1 - r),

    so ``gammainc`` runs once, at the top order, and the lower orders follow
    from pois(a, x) = pois(a+1, x) (a+1) / x.
    """
    r = (w - 1.0) / w
    # Top order from bounds at lx_max.  w F = int_0^x pois(n, y) S(r y) dy with
    # S(u) >= exp(u/(n+1)) (Jensen on the Beta(1, n) mixture), so the partial
    # sum is at least low P(n+1, x), low = min(1, exp(r x/(n+1))); for
    # -1 < r < 0 the alternating series also gives 1 + r.  And
    # P(a, x) <= pois(a, x) (a+1)/(a+1-x) for a + 1 > x, else 1.
    # It stops at the first top with |r|^(top-n) min(1, that bound) <= floor,
    # which is |r|^(top-n) <= floor or |r|^(top-n) bound <= floor.
    low = min(1.0, max(1.0 + r, math.exp(r * lx_max / (n + 1))))
    floor = 1e-18 * low * float(sp_special.gammainc(n + 1, lx_max))
    log_x = math.log(lx_max)
    log_pois = (n + 1) * log_x - lx_max - math.lgamma(n + 2)
    coeff, abs_r, top = 1.0, abs(r), n + 1
    while True:
        coeff *= abs_r
        log_pois += log_x - math.log(top + 1)
        if coeff <= floor or top + 2 > lx_max and (
                coeff * (math.exp(log_pois) * (top + 2) / (top + 2 - lx_max)) <= floor):
            break
        top += 1
    plain = float if isinstance(lx, float) else np.asarray  # one point: Python floats
    inv_lx = 1.0 / lx
    vals = (1.0 - r ** (top - n)) / (1.0 - r) * plain(sp_special.gammainc(top, lx))
    for a in range(top - 1, n, -1):
        if (top - a) % 16 == 1:  # exact every 16 orders, so rounding cannot build up
            pois = plain(np.exp(log_poisson_weight(a, lx)))
        else:
            pois *= (a + 1) * inv_lx
        vals += (1.0 - r ** (a - n)) / (1.0 - r) * pois
    return vals / w


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
