"""Pieces of the integer-order regularized upper incomplete gamma.

For integer ``n`` the upper tail has the finite form

    Q(n, t) = Gamma(n, t) / (n-1)! = exp(-t) * sum_{k=0}^{n-1} t^k / k!,

which remains meaningful for ``t < 0`` (where it can exceed 1 and alternate
in magnitude).  The EME density's direct branch evaluates it, at either sign
of ``t`` and only where |t| > n + 1, from two pieces: the partial sum taken
relative to its k = n - 1 term (``partial_exp_sum``) and the Poisson weight
in log form (``log_poisson_weight``), which Erlang and the EME series and
CDF use too.
"""

import contextlib
import math

import numpy as np

_NO_ERRSTATE = contextlib.nullcontext()


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
    # only lam = 0 warns (its weight is 0); one positive float skips np.errstate,
    # which costs more than the rest at one point
    with _NO_ERRSTATE if isinstance(y, float) and y > 0.0 else np.errstate(divide="ignore"):
        core = np.log(y) - (y - 1.0)
        if k >= 128:
            d = (lam - k) / k
            core = np.where(np.abs(d) < 0.5, np.log1p(d) - d, core)
    return k * core - (0.5 * math.log(2 * math.pi * k) + _stirling_tail(k))


def partial_exp_sum(n, t, moment=False):
    """B with sum_{k<n} t^k / k! = (t^(n-1) / (n-1)!) B elementwise, for an
    array t with every |t| >= n - 1.

    The sum runs backward from its k = n - 1 term by factors (k + 1) / t of
    modulus at most 1, so nothing overflows and the signs stay exact.  With
    ``moment`` it also returns E, the same terms summed with weight
    n - 1 - k, which is E = -t dB/dt."""
    total = np.ones_like(t)
    term = np.ones_like(t)
    first = np.zeros_like(t) if moment else None
    for d in range(1, n):  # k = n - 1 - d
        term *= (n - d) / t
        total += term
        if moment:
            first += d * term
        if d % 16 == 0 and not np.any(np.abs(term) > 1e-18):
            break
    return (total, first) if moment else total
