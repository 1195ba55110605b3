"""Maximum-likelihood fitting of the exponentially modified Erlang family.

The stage count n is discrete, so it is either supplied or scanned; for each
n the likelihood is maximized over (rate, w) with a derivative-free simplex
search in (log rate, log w) coordinates, started from the method-of-moments
inversion of mean = (n + w)/rate and var = (n + w^2)/rate^2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from ._util import as_values
from .distributions import EME, _eme_logpdf
from .errors import ConvergenceError, DataError, ParameterError

MAX_ITERATIONS = 500
RELATIVE_LL_TOL = 1e-9


def eme_log_likelihood(values, dist):
    """Sum of log densities of ``values`` under an EME distribution."""
    x = as_values(values, require_positive=True)
    return float(_eme_logpdf(dist.n, dist.rate, dist.w, x).sum())


def moment_start(values, n):
    """Method-of-moments starting points (rate, w) for a given stage count.

    The moment map w -> mean^2/var is two-to-one (it peaks at w = 1), so when
    the data admit solutions on both sides of 1 this returns both; the
    optimizer is launched from each.
    """
    x = as_values(values, require_positive=True)
    mean = x.mean()
    # mean^2/var, computed on x/mean so that no square can overflow
    cv2 = (x / mean).var()
    if cv2 <= 0.0:
        raise DataError("data are degenerate: zero variance")
    # ratio = (n + w)^2 / (n + w^2) lies in (1, n + 1]; clamp the sample value
    # into the open interior so the quadratic below stays solvable
    ratio = min(max(1.0 / cv2, 1.02), n + 1 - 0.02)
    disc = math.sqrt(n * ratio * (n + 1 - ratio))
    starts = []
    for root in ((n + disc) / (ratio - 1), (-n + disc) / (1 - ratio)):
        if math.isfinite(root) and root > 0.0:
            starts.append((float((n + root) / mean), float(root)))
    if not starts:
        starts.append((float((n + 1) / mean), 1.5))
    return starts


def _fit_fixed_n(x, n):
    def neg_ll(z):
        return -float(_eme_logpdf(n, math.exp(z[0]), math.exp(z[1]), x).sum())

    best = None
    start_ll = -math.inf
    for rate0, w0 in moment_start(x, n):
        z0 = np.array([math.log(rate0), math.log(w0)])
        f0 = neg_ll(z0)
        start_ll = max(start_ll, -f0)
        res = optimize.minimize(
            neg_ll,
            z0,
            method="Nelder-Mead",
            options={
                "maxiter": MAX_ITERATIONS,
                "xatol": 1e-8,
                "fatol": max(RELATIVE_LL_TOL * abs(f0), 1e-12),
            },
        )
        if not res.success:
            raise ConvergenceError(
                f"simplex search hit the {MAX_ITERATIONS}-iteration cap for n={n}: "
                f"{res.message}"
            )
        if best is None or res.fun < best.fun:
            best = res
    rate, w = math.exp(best.x[0]), math.exp(best.x[1])
    ll = -float(best.fun)
    if ll < start_ll:  # the simplex never accepts a worse point, but be explicit
        raise ConvergenceError(f"optimizer returned below its starting likelihood for n={n}")
    return EME(n=n, rate=rate, w=w), ll


def fit_eme(data, n=None, max_n=5):
    """Fit an EME distribution by maximum likelihood.

    Parameters
    ----------
    data : Sample or array-like
        Strictly positive observations.
    n : int, optional
        Stage count.  When omitted, n = 1..max_n are fitted and the best
        log-likelihood wins.
    max_n : int
        Upper bound of the stage-count scan when ``n`` is None.

    Returns
    -------
    (EME, float)
        The fitted distribution and its log-likelihood.

    Raises
    ------
    DataError
        Empty, nonpositive, or degenerate (all-identical) data.
    ConvergenceError
        The simplex search hit its iteration cap before converging.
    """
    x = as_values(data, require_positive=True)
    if np.ptp(x) == 0.0:
        raise DataError("data are degenerate: all values identical")
    if n is not None:
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        return _fit_fixed_n(x, int(n))
    if not isinstance(max_n, (int, np.integer)) or isinstance(max_n, bool) or max_n < 1:
        raise ParameterError(f"max_n must be a positive integer, got {max_n!r}")
    best = None
    for cand in range(1, int(max_n) + 1):
        dist, ll = _fit_fixed_n(x, cand)
        if best is None or ll > best[1]:
            best = (dist, ll)
    return best
