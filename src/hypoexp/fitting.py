"""Maximum-likelihood fitting of the exponentially modified Erlang family.

The stage count n is discrete, so it is either supplied or scanned; for each
n the likelihood is maximized over (rate, w) by Newton steps in a trust
region (scipy's ``trust-exact``) in (log rate, log w) coordinates.  One pass
of the density kernel gives the mean log-likelihood with its exact score and
Hessian.  The search starts from the method-of-moments inversion of
mean = (n + w)/rate and var = (n + w^2)/rate^2, from both roots where there
are two, except at n = 1, where the two are mirror images of one law.  It
runs on the data divided by their mean; EME is a scale family, so the fitted
rate maps back exactly.  From N = 8192 on, each start is first searched on
every k-th of the sorted data, k = N // 4096, then on all of them from there.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ._util import LazyModule, as_values, check_positive_int
from .distributions import EME, _eme_logpdf
from .errors import ConvergenceError, DataError, ParameterError

optimize = LazyModule("scipy.optimize")

MAX_ITERATIONS = 500
# The search converges when the mean score (per observation, in log rate and
# log w) has norm below SCORE_TOL, so that each component is below it.  Where
# rounding keeps the score above that, in the last steps towards a maximum or
# at the edges where the likelihood has none (w -> 0 towards Erlang(n), and
# w -> inf with rate/w fixed towards the exponential), the trust region
# shrinks until its model predicts no decrease, and the search ends there.
# However it ends, its result is accepted only below STATIONARY_SCORE.  The
# sampling spread of the mean score is of order 1/sqrt(N), far above either
# bound.
SCORE_TOL = 1e-9
STATIONARY_SCORE = 1e-6
# size of the subsample each start is first searched on (to STATIONARY_SCORE)
COARSE_POINTS = 4096


def eme_log_likelihood(values, dist):
    """Sum of log densities of ``values`` under an EME distribution."""
    if not isinstance(dist, EME):
        raise ParameterError(f"eme_log_likelihood needs an EME distribution, got {dist!r}")
    x = as_values(values, require_positive=True)
    return float(_eme_logpdf(dist.n, dist.rate, dist.w, x).sum())


def moment_start(values, n):
    """Method-of-moments starting points (rate, w) for a given stage count.

    The moment map w -> mean^2/var is two-to-one (it peaks at w = 1), so when
    the data admit solutions on both sides of 1 this returns both; the
    optimizer is launched from each.
    """
    n = check_positive_int(n, "n")
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


def _objective(n, y):
    """Mean negative log-likelihood of EME(n, e^z[0], e^z[1]) on ``y``, with
    its gradient and Hessian in z, from one kernel pass per point z;
    remembered, because the search asks for the Hessian apart and starts
    where the start was scored."""
    passes = {}

    def likelihood(z):
        key = tuple(z)
        if key not in passes:
            try:
                ll, score, hessian = _eme_logpdf(
                    n, math.exp(z[0]), math.exp(z[1]), y, derivatives=True)
            except (ArithmeticError, ValueError) as exc:  # rate or w is 0 or overflows
                raise ConvergenceError(
                    f"Newton search stepped out of range for n={n}: "
                    f"(log rate, log w) = {list(key)} ({exc})") from exc
            passes[key] = (-ll, -score, -hessian)
        return passes[key]

    return likelihood


def _search(likelihood, z0, gtol):
    return optimize.minimize(lambda z: likelihood(z)[:2], z0, method="trust-exact", jac=True,
                             hess=lambda z: likelihood(z)[2],
                             options={"maxiter": MAX_ITERATIONS, "gtol": gtol})


def _fit_fixed_n(y, coarse, scale, n):
    # y: the sorted data over their mean ``scale``; coarse: every k-th of y, or None
    likelihood = _objective(n, y)
    coarse_likelihood = None if coarse is None else _objective(n, coarse)
    # EME(1, r, w) and EME(1, r/w, 1/w) are one law, so the two moment
    # starts at n = 1 are mirror images of one search; the w >= 1 one runs
    starts = moment_start(y, n)[: 1 if n == 1 else None]
    best = None
    start_ll = -math.inf
    for rate0, w0 in starts:
        z0 = np.array([math.log(rate0), math.log(w0)])
        if coarse_likelihood is not None:
            # advisory: only the full search below is checked; where this
            # one fails, that one starts from the moment start
            with contextlib.suppress(ConvergenceError):
                res = _search(coarse_likelihood, z0, STATIONARY_SCORE)
                if np.isfinite([*res.x, res.fun]).all():
                    z0 = res.x
        start_ll = max(start_ll, -likelihood(z0)[0])
        res = _search(likelihood, z0, SCORE_TOL)
        if res.status == 1:
            raise ConvergenceError(
                f"Newton search hit the {MAX_ITERATIONS}-iteration cap for n={n}: "
                f"{res.message}"
            )
        # whatever the status, only a stationary point is accepted
        if not np.max(np.abs(res.jac)) <= STATIONARY_SCORE:
            raise ConvergenceError(
                f"Newton search stopped away from a stationary point for n={n}: "
                f"{res.message} (mean score {res.jac.tolist()})"
            )
        if best is None or res.fun < best.fun:
            best = res
    ll = -float(best.fun)
    if not ll >= start_ll:
        raise ConvergenceError(f"optimizer returned below its starting likelihood for n={n}")
    rate, w = math.exp(best.x[0]) / scale, math.exp(best.x[1])
    if n == 1 and w < 1.0:
        # report the form with w >= 1 of the one law (two stages of rates
        # rate and rate/w)
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
        The search stepped to a rate or w that is not a positive float, hit
        its iteration cap, ended away from a stationary point, or ended below
        its starting likelihood.
    """
    x = as_values(data, require_positive=True)
    if np.ptp(x) == 0.0:
        raise DataError("data are degenerate: all values identical")
    if n is not None:
        stage_counts = [check_positive_int(n, "n")]
    else:
        stage_counts = range(1, check_positive_int(max_n, "max_n") + 1)
    # EME is a scale family: fit the data divided by their mean and rescale
    # the rate, so no log(scale) term enters the likelihood the search sees.
    # Ascending order lets the density kernel split its branches by slices.
    scale = x.mean()
    y = np.sort(x) / scale
    k = y.size // COARSE_POINTS
    coarse = y[k // 2 :: k].copy() if k >= 2 else None
    # the first of the best log-likelihoods wins
    return max((_fit_fixed_n(y, coarse, scale, cand) for cand in stage_counts),
               key=lambda fit: fit[1])
