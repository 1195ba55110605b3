"""Integer-order regularized incomplete gamma, valid for negative arguments.

For integer ``n`` the upper tail has the finite form

    Q(n, t) = Gamma(n, t) / (n-1)! = exp(-t) * sum_{k=0}^{n-1} t^k / k!,

which remains meaningful for ``t < 0`` (where it can exceed 1 and alternate
in magnitude).  The negative-argument branch is what makes the exponentially
modified Erlang density with multiplier ``w < 1`` computable; the EME density
and CDF use its two pieces directly: the partial sum taken relative to its
largest term (``partial_exp_sum``) and the Poisson weight in log form
(``log_poisson_weight``).
"""

import math

import numpy as np

from ._util import LazyModule, check_positive_int
from .errors import ParameterError

sp_special = LazyModule("scipy.special")

_LOG_MAX = math.log(np.finfo(float).max)  # ~709.78


def _stirling_tail(k):
    """lgamma(k+1) - (k + 1/2) log k + k - log(2 pi)/2 for integer k >= 1."""
    if k > 15:
        k2 = k * k
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2) / k2) / k2) / k
    return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)


def log_poisson_weight(k, lam):
    """log(lam^k e^{-lam} / k!) for an integer k >= 0 and an array lam >= 0.

    Written as k (log y - y + 1) - log(2 pi k)/2 - stirling_tail(k) with
    y = lam/k, which keeps k log(lam), lam and log(k!) from cancelling at
    large k.  The error is then about k ulps of log y; from k = 128 on,
    log y - y + 1 is taken as log1p(d) - d, d = (lam - k)/k, wherever lam is
    within a factor 2 of k, where lam - k is exact."""
    if k == 0:
        return -lam
    y = lam / k
    with np.errstate(divide="ignore"):
        core = np.log(y) - (y - 1.0)
        if k >= 128:
            d = (lam - k) / k
            core = np.where(np.abs(d) < 0.5, np.log1p(d) - d, core)
    return k * core - (0.5 * math.log(2 * math.pi * k) + _stirling_tail(k))


def partial_exp_sum(n, t):
    """(k*, B) with sum_{k<n} t^k / k! = (t^k* / k*!) B elementwise, k* the
    index of the largest term, min(n - 1, floor|t|).

    Every other term is reached from k* by factors of modulus at most 1
    (downward by (k + 1) / t, upward by t / k), so nothing overflows and the
    signs stay exact.  When every |t| >= n - 1, k* = n - 1 is returned as a
    scalar and the sum is one backward recurrence."""
    abs_t = np.abs(t)
    if abs_t.size == 0 or abs_t.min() >= n - 1:
        pivot, low, high = float(n - 1), n - 1, n - 1
        safe_t = t
    else:
        pivot = np.minimum(np.floor(abs_t), n - 1)
        low, high = int(pivot.min()), int(pivot.max())
        safe_t = np.where(t == 0.0, 1.0, t)
    total = np.ones_like(t)
    term = np.ones_like(t)
    for d in range(1, high + 1):  # k = k* - d
        term *= np.maximum(pivot - d + 1.0, 0.0) / safe_t
        total += term
        if d % 16 == 0 and not np.any(np.abs(term) > 1e-18):
            break
    term = np.ones_like(t)
    for d in range(1, n - low):  # k = k* + d
        k = pivot + d
        term *= np.where(k <= n - 1, t / k, 0.0)
        total += term
        if d % 16 == 0 and not np.any(np.abs(term) > 1e-18):
            break
    return pivot, total


def regularized_upper_gamma(n, t):
    """Q(n, t) = exp(-t) * sum_{k<n} t^k / k! for integer n >= 1 and real t.

    For t >= 0 the value lies in [0, 1] and agrees with
    ``scipy.special.gammaincc(n, t)``; for t < 0 it grows like
    ``exp(-t) * t^(n-1) / (n-1)!``.  Accepts a scalar (returns a float) or an
    array; the sum is taken in log space with its sign tracked
    (``partial_exp_sum``).

    Raises OverflowError when the value itself leaves float range.
    """
    n = check_positive_int(n, "order n")
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ParameterError("argument t must be finite")
    pivot, total = partial_exp_sum(n, t)
    with np.errstate(divide="ignore"):
        log_q = (
            -t
            + pivot * np.log(np.where(t == 0.0, 1.0, np.abs(t)))
            - sp_special.gammaln(pivot + 1.0)
            + np.log(np.abs(total))
        )
    if np.any(log_q > _LOG_MAX):
        raise OverflowError(
            f"Q({n}, t) reaches exp({log_q.max():.1f}), beyond float64 range"
        )
    odd = (t < 0.0) & (np.fmod(pivot, 2.0) == 1.0)
    q = np.where(odd, -1.0, 1.0) * np.sign(total) * np.exp(log_q)
    q = np.where(t > 0.0, np.clip(q, 0.0, 1.0), q)
    return float(q) if scalar else q
