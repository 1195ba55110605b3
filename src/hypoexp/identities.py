"""Verification of the transform and summation identities behind the
exponential characterization.

Combinatorial identities are certified in exact arithmetic: a "zero" here is
the integer zero and a "nonzero" claim is certified, not approximated.  The
denominators of v = p/q (and of v - 1 = d/q, d = p - q) are cleared once, so
each check compares Python integers; the termwise sums over k < n follow
recurrences such as lhs_{n+1} = q lhs_n + c_n p^n, and one pass over
n = 1..max_n yields the exact numerator at every n.  A sweep builds the
tables of p^k, q^k and d^k once per rational and one Pascal table for all
its binomial recurrences, and starts each recurrence at its first nonzero
term.  The public functions return the same ``Fraction`` values as a direct
rational evaluation.

Transform-level identities are checked in compensated double-double floating
point (:class:`DD`), whose ~32 digits keep the residuals meaningful even where
the geometric terms reach 1e10.  A ``DD`` may hold float64 arrays, so a sweep
evaluates one stacked (rate, w, t) grid at once, bit-identical to the scalar
calls, and one power/geometric recurrence gives the residual at every n.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat

import numpy as np

from ._ddouble import DD
from ._util import as_points, check_positive_int, check_positive_real, check_w
from .errors import ParameterError

__all__ = [
    "DD",
    "binomial_sum_residual",
    "shifted_binomial_sum_residual",
    "geometric_weight_gap",
    "geometric_weight_gap_closed_form",
    "gap_vanishes",
    "CoefficientBrackets",
    "series_coefficient_brackets",
    "exp_lt_identity_residual",
    "partial_fraction_residual",
    "functional_equation_residual",
    "characterization_residual",
    "reciprocal_series_from_moments",
    "FamilyReport",
    "IdentityReport",
    "run_identity_checks",
]


def _as_fraction(v, name="v"):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, float, str)):
        return Fraction(v)
    raise ParameterError(f"{name} must be rational (Fraction, int, str), got {type(v)}")


def _check_nonnegative_int(value, name):
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 0:
        raise ParameterError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _numerator_denominator(v, exclude_zero):
    """(p, q) with v = p/q in lowest terms, q > 0, after the v = 1 (and
    optionally v = 0) exclusions."""
    v = _as_fraction(v)
    if v == 1 or (exclude_zero and v == 0):
        raise ParameterError("v in {0, 1} is excluded" if exclude_zero else "v = 1 is excluded")
    return v.numerator, v.denominator


# ---------------------------------------------------------------------------
# exact combinatorial identities
# ---------------------------------------------------------------------------

def _powers(x, count):
    """[x^0, x^1, ..., x^count]."""
    return list(accumulate(repeat(x, count), operator.mul, initial=1))


def _pascal(rows, cols):
    """Columns of Pascal's triangle: ``table[c][r]`` = C(r, c) for r < rows."""
    return {c: [math.comb(r, c) for r in range(rows)] for c in cols}


def _binomial_sides(max_n, m, j, pk, qk, pascal):
    """Lists of both sides of the shifted binomial identity at v = p/q, each
    times q^n, for n = max(1, j - m)..max_n in one pass:

        lhs_n = sum_{k<n} (C(k+m, j-1) p + C(k+m, j)(p-q)) p^k q^{n-1-k},
        rhs_n = C(n+m, j) p^n - C(m, j) q^n.

    ``pk`` and ``qk`` hold p^k and q^k for k <= max_n, and ``pascal`` holds
    the columns j - 1 and j of ``_pascal(max_n + m + 1, ...)``.  With c_k the
    bracketed coefficient, the termwise sum follows lhs_{n+1} = q lhs_n +
    c_n p^n, so every n costs a few integer operations instead of a fresh
    n-term sum.  The pass starts at the first nonzero term, k = j - 1 - m:
    for n + m < j every binomial on both sides is 0, so both sides are 0.
    """
    p, q = pk[1], qk[1]
    d = p - q
    below, at = pascal[j - 1], pascal[j]
    boundary = at[m]
    lhs = 0
    lhs_n, rhs_n = [], []
    for k in range(max(j - 1 - m, 0), max_n):
        lhs = q * lhs + (below[k + m] * p + at[k + m] * d) * pk[k]
        lhs_n.append(lhs)
        rhs_n.append(at[k + 1 + m] * pk[k + 1] - boundary * qk[k + 1])
    return lhs_n, rhs_n


def _binomial_residual(n, m, j, v):
    p, q = _numerator_denominator(v, exclude_zero=False)
    if n + m < j:  # both sides are 0
        return Fraction(0)
    lhs, rhs = _binomial_sides(n, m, j, _powers(p, n), _powers(q, n),
                               _pascal(n + m + 1, (j - 1, j)))
    return Fraction(lhs[-1] - rhs[-1], q**n)


def binomial_sum_residual(n, j, v):
    """Exact residual of the binomial-geometric summation identity

        v sum_{k<n} C(k, j-1) v^k + (v-1) sum_{k<n} C(k, j) v^k = C(n, j) v^n

    for integers n >= 1, j >= 1 and rational v != 1.  Returns a Fraction;
    the identity holds, so the result is the exact rational zero.  This is
    the m = 0 case of :func:`shifted_binomial_sum_residual`.
    """
    n = check_positive_int(n, "n")
    j = check_positive_int(j, "j")
    return _binomial_residual(n, 0, j, v)


def shifted_binomial_sum_residual(n, m, j, v):
    """Exact residual of the index-shifted variant

        v sum_{k<n} C(k+m, j-1) v^k + (v-1) sum_{k<n} C(k+m, j) v^k
            = C(n+m, j) v^n - C(m, j).

    The constant C(m, j) is the k = 0 boundary term of the telescoping sum;
    it vanishes when j > m, which is why the unshifted identity has no such
    term.  Returns the exact rational zero for all n >= 1, m >= 0, j >= 1.
    """
    n = check_positive_int(n, "n")
    j = check_positive_int(j, "j")
    return _binomial_residual(n, _check_nonnegative_int(m, "m"), j, v)


def _geometric_sums(max_n, p, q):
    """Termwise G_n = sum_{k<n} p^k q^{n-1-k} and W_n = sum_{k<n} k p^k q^{n-1-k}
    (q^{n-1} times sum v^k and sum k v^k at v = p/q) for n = 1..max_n, in one
    pass: G_{n+1} = q G_n + p^n, W_{n+1} = q W_n + n p^n."""
    g = w = 0
    pk = 1
    sums = []
    for k in range(max_n):
        g = q * g + pk
        w = q * w + k * pk
        pk *= p
        sums.append((g, w))
    return sums


def _gap_numerator(n, d, pj, dj1, pn, g, w):
    """d^{j-1} q^n times the gap at v = p/q, d = p - q, from the powers
    pj = p^j, dj1 = d^{j-1}, pn = p^n and the termwise sums g = G_n and
    w = W_n: p^j G_n + d^{j-1}(d W_n - n p^n)."""
    return pj * g + dj1 * (d * w - n * pn)


def _closed_form_numerator(p, pj, dj1, pn, qn):
    """d^j q^n times the gap's closed form: (p^j - p d^{j-1})(p^n - q^n)."""
    return (pj - p * dj1) * (pn - qn)


def _gap_vanishes(pn, qn, pj1, dj1):
    """p^n = q^n or p^{j-1} = d^{j-1}: the gap's closed form is 0."""
    return pn == qn or pj1 == dj1


def _check_gap_args(n, j, v):
    n = check_positive_int(n, "n")
    j = check_positive_int(j, "j")
    if j < 2:
        raise ParameterError(f"j must be >= 2, got {j}")
    return n, j, _numerator_denominator(v, exclude_zero=True)


def geometric_weight_gap(n, j, v):
    """Exact value of

        (v/(v-1))^{j-1} v sum_{k<n} v^k + (v-1) sum_{k<n} k v^k - n v^n

    computed from the termwise sums (brute force) for n >= 1, j >= 2,
    rational v not in {0, 1}.  Equals :func:`geometric_weight_gap_closed_form`,
    which is nonzero except on the boundary cases flagged by
    :func:`gap_vanishes`.
    """
    n, j, (p, q) = _check_gap_args(n, j, v)
    d = p - q
    gap = _gap_numerator(n, d, p**j, d ** (j - 1), p**n, *_geometric_sums(n, p, q)[-1])
    return Fraction(gap, d ** (j - 1) * q**n)


def geometric_weight_gap_closed_form(n, j, v):
    """[(v/(v-1))^j - v/(v-1)] (v^n - 1), the resolved form of the gap."""
    n, j, (p, q) = _check_gap_args(n, j, v)
    d = p - q
    return Fraction(_closed_form_numerator(p, p**j, d ** (j - 1), p**n, q**n), d**j * q**n)


def gap_vanishes(n, j, v):
    """True where the gap's closed form provably vanishes.

    That happens when v^n = 1 (e.g. v = -1 with n even) or when
    (v/(v-1))^{j-1} = 1 (only v = 1/2 with j odd, where v/(v-1) = -1).
    These boundary cases are recorded rather than asserted nonzero; neither
    arises from v = w/(w-1) with w > 0.
    """
    n = check_positive_int(n, "n")
    j = check_positive_int(j, "j")
    p, q = _numerator_denominator(v, exclude_zero=True)
    return _gap_vanishes(p**n, q**n, p ** (j - 1), (p - q) ** (j - 1))


@dataclass(frozen=True)
class CoefficientBrackets:
    """The two bracketed sums multiplying a_1^j and a_j in the j-th derivative
    of the characterization's functional equation at t = 0."""

    a1_bracket: Fraction
    aj_bracket: Fraction
    n: int
    j: int
    v: Fraction


def series_coefficient_brackets(n, j, v):
    """Brackets in front of a_1^j and a_j for integers n >= 2, j >= 2.

        a1_bracket = C(n,j) v^n - v sum C(k,j-1) v^k - (v-1) sum C(k,j) v^k
        aj_bracket = n v^n - (v/(v-1))^{j-1} v sum v^k - (v-1) sum k v^k

    The sign arrangement is the one annihilated by the binomial-sum identity
    (a1_bracket = 0 exactly) and kept nonzero by the geometric-weight gap
    (aj_bracket != 0 whenever ``gap_vanishes`` is false), which is what pins
    the reciprocal-transform series coefficients a_j, j >= 2, to zero.
    """
    n = check_positive_int(n, "n")
    j = check_positive_int(j, "j")
    if n < 2 or j < 2:
        raise ParameterError(f"brackets need n >= 2 and j >= 2, got n={n}, j={j}")
    v = Fraction(*_numerator_denominator(v, exclude_zero=True))
    a1 = -binomial_sum_residual(n, j, v)
    aj = -geometric_weight_gap(n, j, v)
    return CoefficientBrackets(a1_bracket=a1, aj_bracket=aj, n=n, j=j, v=v)


# ---------------------------------------------------------------------------
# transform-level identities (double-double floating point)
# ---------------------------------------------------------------------------

def _magnitude(x):
    """|x| of a residual: a float, or a float64 array for array components."""
    if isinstance(x, DD):
        x = x.hi + x.lo
    return np.abs(x) if isinstance(x, np.ndarray) else abs(float(x))


def _characterization_residuals(max_n, w, phi_t, phi_wt, min_n=1):
    """Signed residuals Phi1 Phi2^n - Phi1 + sum_{k=1}^n Phi2^k for
    n = min_n..max_n, with Phi1 = (w-1) phi(wt) and Phi2 = ((w-1)/w) phi(t),
    from one power/geometric recurrence in Phi2.

    Zero exactly when phi is an exponential transform.  Works alike on
    floats, float64 arrays and ``DD`` values (pass ``w`` as a ``DD`` for
    full double-double precision)."""
    phi1 = (w - 1.0) * phi_wt
    phi2 = ((w - 1.0) / w) * phi_t
    power = geo = phi2
    residuals = []
    for n in range(1, max_n + 1):
        if n > 1:
            power = power * phi2
            geo = geo + power
        if n >= min_n:
            residuals.append(phi1 * power - phi1 + geo)
    return residuals


def _lt_identity_residuals(max_n, w, rate, t, min_n=1):
    """|residual| of the product identity for the exponential transform,
    n = min_n..max_n, in double-double."""
    wd = DD(w)
    td = DD(t)
    lam = DD(rate)
    phi_t = lam / (lam + td)
    phi_wt = lam / (lam + wd * td)
    return [_magnitude(r) for r in _characterization_residuals(max_n, wd, phi_t, phi_wt, min_n)]


def exp_lt_identity_residual(n, w, rate, t):
    """|Phi1 Phi2^n - Phi1 + sum_{k=1}^n Phi2^k| for the exponential Laplace
    transform Phi(s) = rate/(rate + s), with the scaled factors

        Phi1(t) = (w-1) Phi(w t),   Phi2(t) = ((w-1)/w) Phi(t).

    The identity Phi1 Phi2^n = Phi1 - sum Phi2^k holds exactly for the
    exponential transform; the returned residual is pure rounding noise
    (double-double evaluation keeps it far below 1e-12 for n <= 10 and
    w in [0.1, 10]).  An array ``t`` gives an array of residuals, each
    bit-identical to the scalar call at that point.
    """
    n = check_positive_int(n, "n")
    w, rate = check_w(w), check_positive_real(rate, "rate")
    return _lt_identity_residuals(n, w, rate, as_points(t, "t"), n)[0]


def partial_fraction_residual(w, t):
    """|(w-1)/((1+wt)(1+t)) - w/(1+wt) + 1/(1+t)|, the two-factor linear
    fraction split that seeds the transform identity.  Exact algebraically;
    the return value is rounding noise below 1e-14 on any sane (w, t).
    An array ``t`` gives an array of residuals."""
    w = check_w(w)
    t = as_points(t, "t")
    wd = DD(w)
    td = DD(t)
    lhs = (wd - 1.0) / ((1.0 + wd * td) * (1.0 + td))
    rhs = wd / (1.0 + wd * td) - 1.0 / (1.0 + td)
    return _magnitude(lhs - rhs)


def _functional_equation_residuals(max_n, w, psi, t, min_n=1):
    """Residuals of the functional equation for n = min_n..max_n, from one
    recurrence in v^k Psi^k(t)."""
    if isinstance(t, DD):
        wd = DD(w)
        one = DD(1.0)
    else:
        wd = w
        one = 1.0
    v = wd / (wd - 1.0)
    psi_t = psi(t)
    tail = (v - one) * psi(wd * t)
    vp = one
    psip = one
    acc = one  # k = 0 term of sum v^k Psi^k
    residuals = []
    for n in range(1, max_n + 1):
        if n > 1:
            vp = vp * v
            psip = psip * psi_t
            acc = acc + vp * psip
        if n >= min_n:
            residuals.append(_magnitude(one - vp * v * psip * psi_t + tail * acc))
    return residuals


def functional_equation_residual(n, w, psi, t):
    """Residual of  1 = v^n Psi^n(t) - (v-1) Psi(wt) sum_{k<n} v^k Psi^k(t)
    with v = w/(w-1), for a reciprocal-transform evaluator ``psi``.

    ``psi`` is called with the same numeric type as ``t``; pass a ``DD`` for
    full double-double precision (any evaluator built from +,-,*,/ and integer
    powers works transparently).  ``t`` may also be an array, or a ``DD``
    with array components; the residuals are then an array.  Psi(t) =
    1 + t/rate, the reciprocal of the exponential transform, satisfies the
    equation identically; any other Psi with Psi(0) = 1 violates it at some t.
    """
    n = check_positive_int(n, "n")
    w = check_w(w)
    if not isinstance(t, DD):
        t = as_points(t, "t")
    return _functional_equation_residuals(n, w, psi, t, n)[0]


def characterization_residual(n, w, phi, t):
    """Residual of the scaled product-vs-sum arrangement

        (w-1)^{n+1}/w^n phi(wt) phi(t)^n
            = (w-1) phi(wt) - sum_{k=1}^n ((w-1)/w)^k phi(t)^k

    for a transform evaluator ``phi``.  Zero (to rounding) exactly when phi is
    an exponential transform; this is the population version of the
    goodness-of-fit residual.  Like :func:`functional_equation_residual`,
    evaluation follows the numeric type of ``t``.
    """
    n = check_positive_int(n, "n")
    w = check_w(w)
    if isinstance(t, DD):
        w = DD(w)
    else:
        t = as_points(t, "t")
    return _magnitude(_characterization_residuals(n, w, phi(t), phi(w * t), n)[0])


# ---------------------------------------------------------------------------
# series coefficients from moments
# ---------------------------------------------------------------------------

def reciprocal_series_from_moments(moments, order):
    """Coefficients a_0..a_order of the reciprocal 1/Phi(t) where Phi has the
    moment expansion Phi(t) = sum_k (-1)^k m_k t^k / k!  (m_0 = 1).

    The reciprocal is the formal power-series inverse:
    a_0 = 1 and a_j = -sum_{i=1}^{j} b_i a_{j-i} with b_i = (-1)^i m_i / i!.
    For exponential moments m_k = k!/rate^k this returns
    [1, 1/rate, 0, 0, ...], the signature that characterizes the family.
    """
    order = _check_nonnegative_int(order, "order")
    m = np.asarray(moments, dtype=float)
    if m.size < order:
        raise ParameterError(
            f"need at least {order} moments for order {order}, got {m.size}"
        )
    b = np.empty(order + 1)
    b[0] = 1.0
    for k in range(1, order + 1):
        b[k] = (-1) ** k * m[k - 1] / math.factorial(k)
    a = np.zeros(order + 1)
    a[0] = 1.0
    for j in range(1, order + 1):
        a[j] = -np.dot(b[1 : j + 1], a[j - 1 :: -1])
    return a


# ---------------------------------------------------------------------------
# sweep runner
# ---------------------------------------------------------------------------

@dataclass
class FamilyReport:
    name: str
    sweep: str
    checks: int
    failures: int
    worst_residual: float  # 0.0 for exact families when everything passed
    exact: bool
    elapsed: float

    def to_record(self):
        return {
            "family": self.name,
            "sweep": self.sweep,
            "checks": self.checks,
            "failures": self.failures,
            "worst_residual": self.worst_residual,
            "exact": self.exact,
        }


@dataclass
class IdentityReport:
    families: list

    @property
    def total_checks(self):
        return sum(f.checks for f in self.families)

    @property
    def total_failures(self):
        return sum(f.failures for f in self.families)

    @property
    def worst_float_residual(self):
        floats = [f.worst_residual for f in self.families if not f.exact]
        return max(floats) if floats else 0.0

    def render_text(self):
        lines = ["identity verification report", "=" * 68]
        for f in self.families:
            kind = "exact" if f.exact else f"worst residual {f.worst_residual:.3e}"
            lines.append(
                f"{f.name:<38} checks {f.checks:>7}  failures {f.failures:>3}  {kind}"
            )
            lines.append(f"{'':<38} sweep: {f.sweep}  ({f.elapsed:.2f}s)")
        lines.append("-" * 68)
        lines.append(
            f"total: {self.total_checks} checks, {self.total_failures} failures, "
            f"worst floating residual {self.worst_float_residual:.3e}"
        )
        return "\n".join(lines)


def random_rationals(count, rng):
    """Deterministic pool of random Fractions other than 0 and 1, with
    numerator and denominator magnitudes up to 10^6."""
    bound = 10**6
    out = []
    while len(out) < count:
        num = int(rng.integers(-bound, bound + 1))
        den = int(rng.integers(1, bound + 1))
        cand = Fraction(num, den)
        if cand not in (0, 1):
            out.append(cand)
    return out


def _reciprocal_exp_transform(rate):
    """Psi(t) = 1 + t/rate, the reciprocal of the exponential transform."""

    def psi(t):
        return 1.0 + t / rate

    return psi


def run_identity_checks(
    exact_max_n=30,
    shift_max_m=10,
    n_rationals=40,
    bracket_max_n=20,
    float_max_n=10,
    float_ws=(0.1, 0.5, 1.5, 2.0, 5.0, 10.0),
    float_rates=(1.0, 2.0),
    grid_points=100,
    seed=20260101,
):
    """Run every identity family over its sweep and collect a report.

    Defaults reproduce the certified sweeps: exact identities for
    n <= 30 (j <= n, shifts m <= 10) over ``n_rationals`` random rationals,
    brackets for n <= 20 over v = w/(w-1) with w in {1/5, 1/2, 3/2, 2, 5},
    and the transform identities for n <= 10, w in ``float_ws`` on
    ``grid_points``-point t-grids.

    Every check is counted and decided on its own, but the work is shared:
    each exact family clears denominators once per v = p/q, reads its powers
    from tables built once per v and its binomials from one Pascal table,
    and walks n in one integer recurrence from the first n where the
    identity's sides are not both 0; each transform family evaluates every
    (rate, w, t) point at once as array double-doubles, with one
    power/geometric recurrence giving every n.  A sweep that would check
    nothing (a size below its minimum, or an empty list of w or rates)
    raises ParameterError.
    """
    exact_max_n = check_positive_int(exact_max_n, "exact_max_n")
    shift_max_m = _check_nonnegative_int(shift_max_m, "shift_max_m")
    n_rationals = check_positive_int(n_rationals, "n_rationals")
    bracket_max_n = check_positive_int(bracket_max_n, "bracket_max_n")
    if bracket_max_n < 2:
        raise ParameterError(f"bracket_max_n must be >= 2, got {bracket_max_n}")
    float_max_n = check_positive_int(float_max_n, "float_max_n")
    grid_points = check_positive_int(grid_points, "grid_points")
    ws = [check_w(w) for w in float_ws]
    rates = [check_positive_real(rate, "rate") for rate in float_rates]
    if not ws or not rates:
        raise ParameterError("float_ws and float_rates must each hold at least one value")

    rng = np.random.default_rng(seed)
    pqs = [(v.numerator, v.denominator) for v in random_rationals(n_rationals, rng)]
    # p^k, q^k and d^k (d = p - q) per rational, and one Pascal table for
    # every binomial recurrence of the sweep
    tables = [[_powers(x, exact_max_n) for x in (p, q, p - q)] for p, q in pqs]
    size = max(exact_max_n + shift_max_m, bracket_max_n + 5) + 1
    pascal = _pascal(size, range(size))
    families = []

    def binomial_family(shifts):
        checks = failures = 0
        for pk, qk, _ in tables:
            for m in shifts:
                for j in range(1, exact_max_n + m + 1):
                    lhs, rhs = _binomial_sides(exact_max_n, m, j, pk, qk, pascal)
                    checks += len(lhs)
                    failures += sum(map(operator.ne, lhs, rhs))
        return checks, failures, 0.0

    def gap_family():
        checks = failures = 0
        for (p, q), (pk, qk, dk) in zip(pqs, tables):
            d = p - q
            for n, (g, w) in enumerate(_geometric_sums(exact_max_n, p, q), 1):
                pn, qn = pk[n], qk[n]
                for j in range(2, n + 1):
                    checks += 1
                    gap = _gap_numerator(n, d, pk[j], dk[j - 1], pn, g, w)
                    if d * gap != _closed_form_numerator(p, pk[j], dk[j - 1], pn, qn):
                        failures += 1
                    elif _gap_vanishes(pn, qn, pk[j - 1], dk[j - 1]):
                        if gap != 0:
                            failures += 1
                    elif gap == 0:
                        failures += 1
        return checks, failures, 0.0

    def bracket_family():
        checks = failures = 0
        for w in (Fraction(1, 5), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5)):
            v = w / (w - 1)
            p, q = v.numerator, v.denominator
            d = p - q
            pk, qk, dk = (_powers(x, bracket_max_n + 5) for x in (p, q, d))
            sums = _geometric_sums(bracket_max_n, p, q)
            for j in range(2, bracket_max_n + 6):
                lhs, rhs = _binomial_sides(bracket_max_n, 0, j, pk, qk, pascal)  # n >= j
                for n in range(max(2, j - 5), bracket_max_n + 1):
                    checks += 1
                    # the a_1^j bracket; for n < j both of its sides are 0
                    if n >= j and lhs[n - j] != rhs[n - j]:
                        failures += 1
                    elif (not _gap_vanishes(pk[n], qk[n], pk[j - 1], dk[j - 1])
                          and _gap_numerator(n, d, pk[j], dk[j - 1], pk[n], *sums[n - 1]) == 0):
                        failures += 1
        return checks, failures, 0.0

    def float_family(residual_arrays, tol):
        checks = failures = 0
        worst = 0.0
        for residuals in residual_arrays:
            checks += residuals.size
            failures += int(np.count_nonzero(~(residuals <= tol)))  # NaN fails
            # the worst of each t-grid's maxima; a grid with a NaN has a NaN
            # maximum, which max() passes over
            worst = max(worst, *residuals.max(axis=-1).ravel().tolist())
        return checks, failures, worst

    # one stacked (rate, w, t) grid: axis 0 the rates, axis 1 the w, axis 2 t
    rate_axis = np.array(rates)[:, None, None]
    w_axis = np.array(ws)[None, :, None]
    t_grids = np.stack([np.linspace(0.0, 10.0 * rate, grid_points) for rate in rates])[:, None]

    def lt_identity_family():
        return float_family(_lt_identity_residuals(float_max_n, w_axis, rate_axis, t_grids), 1e-12)

    def partial_fraction_family():
        grid = np.linspace(0.0, 10.0, grid_points)
        return float_family((partial_fraction_residual(w, grid) for w in ws), 1e-14)

    def functional_equation_family():
        return float_family(
            _functional_equation_residuals(float_max_n, w_axis,
                                           _reciprocal_exp_transform(rate_axis), DD(t_grids)),
            1e-10,
        )

    specs = [
        ("binomial weighted sum", f"n<={exact_max_n}, j<=n, {n_rationals} rationals",
         True, lambda: binomial_family((0,))),
        ("shifted binomial weighted sum",
         f"n<={exact_max_n}, m<={shift_max_m}, j<=n+m, {n_rationals} rationals",
         True, lambda: binomial_family(range(shift_max_m + 1))),
        ("geometric weight gap vs closed form",
         f"n<={exact_max_n}, 2<=j<=n, {n_rationals} rationals", True, gap_family),
        ("series coefficient brackets",
         f"2<=n<={bracket_max_n}, 2<=j<=n+5, w in {{1/5,1/2,3/2,2,5}}",
         True, bracket_family),
        ("scaled-transform product identity",
         f"n<={float_max_n}, w in {float_ws}, {grid_points}-pt t-grid, tol 1e-12",
         False, lt_identity_family),
        ("partial fraction split",
         f"w in {float_ws}, {grid_points}-pt t-grid, tol 1e-14",
         False, partial_fraction_family),
        ("functional equation (reciprocal exp)",
         f"n<={float_max_n}, w in {float_ws}, {grid_points}-pt t-grid, tol 1e-10",
         False, functional_equation_family),
    ]
    for name, sweep, exact, fn in specs:
        start = time.perf_counter()
        checks, failures, worst = fn()
        families.append(
            FamilyReport(
                name=name,
                sweep=sweep,
                checks=checks,
                failures=failures,
                worst_residual=worst,
                exact=exact,
                elapsed=time.perf_counter() - start,
            )
        )
    return IdentityReport(families=families)
