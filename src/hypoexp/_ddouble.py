"""Compensated double-double arithmetic (roughly 32 significant digits).

The transform-identity residuals combine terms as large as ``9**10`` that
cancel to zero; plain float64 leaves ~1e-7 of rounding noise there, far above
the certified tolerances.  A double-double carries the extra ~16 digits needed
while staying ordinary fixed-precision floating point.

The error-free primitives are the classic Dekker/Knuth constructions
(Dekker 1971, "A floating-point technique for extending the available
precision"); the composite +,-,*,/ follow the usual double-double recipes.

Both components may be float64 arrays of one shape, so one ``DD`` carries a
whole grid of values.  The primitives are written with plain ``+ - *``, which
numpy evaluates elementwise in IEEE double precision without fusing, so every
element of an array result is bit-identical to the scalar computation on that
element; scalar and array operands mix freely.  Equality, hash and float
stay scalar-only; there is no ordering.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, splits a 53-bit significand in half


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float):
    p = a * b
    ta = _SPLITTER * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = _SPLITTER * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, err


def _component(x):
    return np.asarray(x, dtype=float) if isinstance(x, np.ndarray) else float(x)


class DD:
    """An unevaluated sum ``hi + lo`` of two non-overlapping floats, or,
    elementwise, of two float64 arrays."""

    __slots__ = ("hi", "lo")
    # keeps ``ndarray + DD`` from broadcasting the DD as an object scalar:
    # numpy returns NotImplemented and Python calls the reflected operator
    __array_ufunc__ = None

    def __init__(self, hi=0.0, lo=0.0):
        if isinstance(hi, DD):
            self.hi, self.lo = hi.hi, hi.lo
            return
        self.hi = _component(hi)
        self.lo = _component(lo)

    @staticmethod
    def _coerce(x) -> "DD":
        if isinstance(x, DD):
            return x
        if isinstance(x, (int, float, np.ndarray)):
            return DD(x)
        return NotImplemented

    def __add__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        s1, s2 = _two_sum(self.hi, other.hi)
        t1, t2 = _two_sum(self.lo, other.lo)
        s1, s2 = _quick_two_sum(s1, s2 + t1)
        hi, lo = _quick_two_sum(s1, s2 + t2)
        return DD(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p1, p2 = _two_prod(self.hi, other.hi)
        hi, lo = _quick_two_sum(p1, p2 + (self.hi * other.lo + self.lo * other.hi))
        return DD(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        s, e = _quick_two_sum(q1, q2)
        return DD(s, e) + q3

    def __rtruediv__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = DD(1.0)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __float__(self):
        return self.hi + self.lo

    def __eq__(self, other):
        other = DD._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self - other
        return bool(d.hi == 0.0 and d.lo == 0.0)

    def __hash__(self):
        return hash((self.hi, self.lo))

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"
