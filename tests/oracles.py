"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's own evaluation paths: densities are
cross-checked against grid convolutions of the raw component exponentials,
series coefficients against exact-rational long division, and the
incomplete-gamma form against an exact-rational partial sum.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.signal import fftconvolve


def trapezoid_convolve(f, g, step):
    """Trapezoid-rule convolution of two sampled functions on a shared
    uniform grid starting at 0; returns samples on the same grid."""
    full = fftconvolve(f, g)[: f.size]
    full = full - 0.5 * (f[0] * g + f * g[0])
    return full * step


def eme_density_by_convolution(n, rate, w, x_max, points):
    """Density of sum of n Exp(rate) stages plus one Exp(rate/w) stage via
    repeated trapezoidal convolution.  Returns (grid, density)."""
    grid = np.linspace(0.0, x_max, points + 1)
    step = x_max / points
    stage = rate * np.exp(-rate * grid)
    odd_rate = rate / w
    dens = odd_rate * np.exp(-odd_rate * grid)
    for _ in range(n):
        dens = trapezoid_convolve(dens, stage, step)
    return grid, dens


def eme_density_richardson(n, rate, w, x_max, points):
    """Richardson-extrapolated convolution density plus the step-halving
    discrepancy (an error estimate for the h^2 rule)."""
    _, coarse = eme_density_by_convolution(n, rate, w, x_max, points)
    grid, fine = eme_density_by_convolution(n, rate, w, x_max, 2 * points)
    fine_on_coarse = fine[::2]
    extrapolated = (4.0 * fine_on_coarse - coarse) / 3.0
    gap = float(np.abs(fine_on_coarse - coarse).max()) / 3.0
    return np.linspace(0.0, x_max, points + 1), extrapolated, gap


def reciprocal_series_by_long_division(moment_fractions, order):
    """Exact-rational long division of 1 by the alternating moment series
    sum_k (-1)^k m_k t^k / k!; returns Fractions a_0..a_order."""
    b = [Fraction(1)]
    fact = 1
    for k, mk in enumerate(moment_fractions[:order], start=1):
        fact *= k
        b.append(Fraction(-1) ** k * Fraction(mk) / fact)
    remainder = {0: Fraction(1)}
    quotient = []
    for j in range(order + 1):
        coef = remainder.get(j, Fraction(0))
        quotient.append(coef)
        for i, bi in enumerate(b):
            key = j + i
            remainder[key] = remainder.get(key, Fraction(0)) - coef * bi
    return quotient


def exact_partial_sum(n, t):
    """sum_{k<n} t^k/k! in exact rationals (t must be a float, hence exact)."""
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(n):
        acc += term
        term = term * Fraction(t) / (k + 1)
    return acc


def upper_gamma_q(n, t):
    """Q(n, t) = exp(-t) sum_{k<n} t^k/k!, the integer-order regularized upper
    incomplete gamma, for real t of either sign: the exact partial sum,
    rounded once, times exp(-t)."""
    return float(exact_partial_sum(n, t)) * math.exp(-t)
