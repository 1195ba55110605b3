"""Maximum-likelihood fitting of the exponentially modified Erlang family.

The stage count n is discrete, so it is either supplied or scanned; for each
n the likelihood is maximized over (rate, w) by a quasi-Newton search
(L-BFGS-B) in (log rate, log w) coordinates with the closed-form score of the
density kernel, started from the method-of-moments inversion of
mean = (n + w)/rate and var = (n + w^2)/rate^2.  The search runs on the data
divided by their mean; EME is a scale family, so the fitted rate maps back
exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import LazyModule, as_values, check_positive_int
from .distributions import EME, _eme_logpdf
from .errors import ConvergenceError, DataError

optimize = LazyModule("scipy.optimize")

MAX_ITERATIONS = 500
# The search converges when the largest component of the mean score (per
# observation, in log rate and log w) is below SCORE_TOL.  Its relative-
# reduction test is off (ftol = 0): at the default it left w off by 7e-6
# relative on the EME(3, 2, 0.25) sample of acceptance 10.  It also stops
# when rounding in the likelihood defeats its line search, which leaves mean
# scores up to a few 1e-8 (2e-7 seen at the w -> 0 edge); however it ends,
# its result is accepted only below STATIONARY_SCORE.  The sampling spread
# of the mean score is of order 1/sqrt(N), far above either bound.
SCORE_TOL = 1e-9
STATIONARY_SCORE = 1e-6


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
    return starts


def _fit_fixed_n(x, n):
    # EME is a scale family: fit the data divided by their mean and rescale
    # the rate, so no log(scale) term enters the likelihood the search sees.
    # Ascending order lets the density kernel split its branches by slices.
    scale = x.mean()
    y = np.sort(x) / scale

    evaluated = {}

    def objective(z):
        # mean negative log-likelihood and its gradient in (log rate, log w);
        # remembered, because the search starts where the start was scored
        key = tuple(z)
        if key not in evaluated:
            logf, d_rate, d_w = _eme_logpdf(n, math.exp(z[0]), math.exp(z[1]), y, score=True)
            evaluated[key] = (-logf.mean(), -d_rate.mean(), -d_w.mean())
        value, g_rate, g_w = evaluated[key]
        return value, np.array([g_rate, g_w])

    best = None
    start_ll = -math.inf
    for rate0, w0 in moment_start(y, n):
        z0 = np.array([math.log(rate0), math.log(w0)])
        start_ll = max(start_ll, -objective(z0)[0])
        res = optimize.minimize(
            objective,
            z0,
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": MAX_ITERATIONS, "ftol": 0.0, "gtol": SCORE_TOL},
        )
        if res.status == 1:
            raise ConvergenceError(
                f"quasi-Newton search hit the {MAX_ITERATIONS}-iteration cap for n={n}: "
                f"{res.message}"
            )
        # whatever the status, only a stationary point is accepted
        if not np.max(np.abs(res.jac)) <= STATIONARY_SCORE:
            raise ConvergenceError(
                f"quasi-Newton search stopped away from a stationary point for n={n}: "
                f"{res.message} (mean score {res.jac.tolist()})"
            )
        if best is None or res.fun < best.fun:
            best = res
    ll = -float(best.fun)
    if not ll >= start_ll:
        raise ConvergenceError(f"optimizer returned below its starting likelihood for n={n}")
    rate, w = math.exp(best.x[0]) / scale, math.exp(best.x[1])
    if n == 1 and w < 1.0:
        # EME(1, rate, w) and EME(1, rate/w, 1/w) are one law (two stages of
        # rates rate and rate/w); report the form with w >= 1
        rate, w = rate / w, 1.0 / w
    return EME(n=n, rate=rate, w=w), y.size * (ll - math.log(scale))


def fit_eme(data, n=None, max_n=5):
    """Fit an EME distribution by maximum likelihood.

    Parameters
    ----------
    data : array-like
        Strictly positive observations.
    n : int, optional
        Stage count.  When omitted, n = 1..max_n are fitted and the best
        log-likelihood wins.
    max_n : int
        Upper bound of the stage-count scan when ``n`` is None.

    Returns
    -------
    (EME, float)
        The fitted distribution and its log-likelihood.  For n = 1, where
        EME(1, rate, w) and EME(1, rate/w, 1/w) are the same law, the form
        with w >= 1 is returned.

    Raises
    ------
    DataError
        Empty, nonpositive, or degenerate (all-identical) data.
    ConvergenceError
        The search hit its iteration cap, ended away from a stationary point,
        or ended below its starting likelihood.
    """
    x = as_values(data, require_positive=True)
    if np.ptp(x) == 0.0:
        raise DataError("data are degenerate: all values identical")
    if n is not None:
        return _fit_fixed_n(x, check_positive_int(n, "n"))
    best = None
    for cand in range(1, check_positive_int(max_n, "max_n") + 1):
        dist, ll = _fit_fixed_n(x, cand)
        if best is None or ll > best[1]:
            best = (dist, ll)
    return best
