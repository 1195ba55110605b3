"""Sequential-stage absorption processes.

A chain is an ordered list of transient stages, each left at an exponential
rate, followed by an implicit absorbing stage.  Its absorption time is the
sum of one exponential per stage, so ``StageChain`` is
``distributions.Hypoexponential``: the chain's exact law for any rates,
repeated or not.  Erlang (equal rates) and EME (k equal stages plus one odd
stage) are the closed forms of special layouts.  ``validate_against`` closes
the loop by comparing simulated absorption times with an analytic law via
the Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_values, check_positive_int
from .distributions import _PASS_POINTS, Hypoexponential
from .errors import ParameterError

# Asymptotic 1% Kolmogorov-Smirnov critical constant: pass below 1.63/sqrt(N).
KS_CRITICAL_1PCT = 1.63

# Ordered transient stages; ``rates[i]`` is the rate of leaving stage i.
StageChain = Hypoexponential


def eme_chain(k, rate_main, rate_last):
    """Chain with k stages at ``rate_main`` followed by one at ``rate_last``.

    When ``rate_last = rate_main / w`` the absorption time is distributed as
    EME(n=k, rate=rate_main, w).
    """
    k = check_positive_int(k, "k")
    return StageChain(rates=(rate_main,) * k + (rate_last,))


def simulate_absorption(chain, count, rng):
    """Absorption times as a float64 array: per draw, the sum of one
    exponential holding time per stage (inverse-CDF sampling; deterministic
    given the generator state)."""
    return chain.sample(count, rng)


def ks_distance(data, dist):
    """sup_x |F_N(x) - F(x)| evaluated at the sample points, which is exact
    for an ECDF against a continuous reference.  The sorted sample goes to
    ``dist.cdf`` ``_PASS_POINTS`` at a time and the largest gap is kept, so
    the temporaries are small blocks that malloc reuses, not arrays of the
    sample's size."""
    x = np.sort(as_values(data))
    n = x.size
    worst = 0.0
    for start in range(0, n, _PASS_POINTS):
        cdf = dist.cdf(x[start : start + _PASS_POINTS])
        grid = np.arange(start + 1, start + cdf.size + 1) / n
        worst = max(worst, float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n)))))
    return worst


@dataclass(frozen=True)
class SimResult:
    """Comparison of simulated times against an analytic law."""

    times: np.ndarray
    ks_distance: float
    reference: object

    @property
    def threshold(self):
        return KS_CRITICAL_1PCT / math.sqrt(len(self.times))

    @property
    def passed(self):
        return self.ks_distance < self.threshold


def validate_against(times, dist):
    """KS-compare absorption times with a distribution from this package."""
    if not hasattr(dist, "cdf"):
        raise ParameterError(f"reference must be a distribution, got {dist!r}")
    times = as_values(times)
    return SimResult(times=times, ks_distance=ks_distance(times, dist), reference=dist)
