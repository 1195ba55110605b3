"""The double-double type must track exact rational arithmetic to ~1e-30."""

from fractions import Fraction

import numpy as np
import pytest

from hypoexp._ddouble import DD


def _frac(x):
    return Fraction(x.hi) + Fraction(x.lo) if isinstance(x, DD) else Fraction(x)


@pytest.mark.parametrize("seed", range(5))
def test_arithmetic_matches_fractions(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        a = float(rng.uniform(-10, 10))
        b = float(rng.uniform(-10, 10))
        if abs(b) < 1e-3:
            continue
        for op in ("add", "sub", "mul", "div"):
            got = {
                "add": DD(a) + DD(b),
                "sub": DD(a) - DD(b),
                "mul": DD(a) * DD(b),
                "div": DD(a) / DD(b),
            }[op]
            want = {
                "add": Fraction(a) + Fraction(b),
                "sub": Fraction(a) - Fraction(b),
                "mul": Fraction(a) * Fraction(b),
                "div": Fraction(a) / Fraction(b),
            }[op]
            err = abs(_frac(got) - want)
            scale = max(abs(want), Fraction(1))
            assert err <= Fraction(1, 10**28) * scale, (op, a, b)


def test_mixed_scalars_promote():
    x = DD(0.1)
    assert isinstance(1 + x, DD)
    assert isinstance(2.0 - x, DD)
    assert isinstance(3 * x, DD)
    assert isinstance(1.0 / x, DD)
    assert float(1 + x - 1 - x) == 0.0


def test_integer_powers():
    v = DD(3.0) / DD(7.0)
    direct = DD(1.0)
    for _ in range(9):
        direct = direct * v
    assert abs(_frac(v**9) - _frac(direct)) < Fraction(1, 10**25)
    assert float(v**0) == 1.0


def test_cancellation_keeps_low_bits():
    # (1 + 1e-20) - 1 is exactly 1e-20 in double-double, zero in float64
    x = DD(1.0) + DD(1e-20)
    assert float(x - 1.0) == 1e-20
    assert 1.0 + 1e-20 == 1.0  # the float64 baseline this improves on


def test_comparisons():
    assert DD(2.0) == 2.0
    assert DD(1.0) + 1e-25 != DD(1.0)
    # equality only: an ordering or abs() raises instead of comparing objects
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(DD(1.0) + 1e-25, DD(1.0))
        with pytest.raises(TypeError):
            compare(DD(1.0), 2.0)
    with pytest.raises(TypeError):
        abs(DD(-3.0))


def _bits(x, size):
    return np.broadcast_to(np.asarray(x, dtype=float), size).view(np.uint64)


def _scalar_dds(rng, size):
    # quotients carry a nonzero low part; scale them across 16 decades
    num = rng.uniform(-10, 10, size)
    den = rng.uniform(0.5, 10, size)
    scale = 10.0 ** rng.integers(-8, 9, size)
    return [DD(float(a)) / DD(float(b)) * float(s) for a, b, s in zip(num, den, scale)]


def _stack(dds):
    return DD(np.array([x.hi for x in dds]), np.array([x.lo for x in dds]))


@pytest.mark.parametrize("seed", range(3))
def test_array_operations_are_bit_identical_to_scalar(seed):
    rng = np.random.default_rng(100 + seed)
    size = 40
    xs, ys = _scalar_dds(rng, size), _scalar_dds(rng, size)
    fs = rng.uniform(-5, 5, size)
    xa, ya = _stack(xs), _stack(ys)
    c, f = ys[0], float(fs[0])
    ops = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    for name, op in ops.items():
        cases = [
            (op(xa, ya), [op(x, y) for x, y in zip(xs, ys)]),  # array, array
            (op(xa, c), [op(x, c) for x in xs]),  # array, scalar DD
            (op(c, xa), [op(c, x) for x in xs]),  # scalar DD, array
            (op(xa, f), [op(x, f) for x in xs]),  # array, float
            (op(f, xa), [op(f, x) for x in xs]),  # float, array
            (op(xa, fs), [op(x, float(g)) for x, g in zip(xs, fs)]),  # array, ndarray
            (op(fs, xa), [op(float(g), x) for x, g in zip(xs, fs)]),  # ndarray, array
            (op(np.float64(f), xa), [op(f, x) for x in xs]),
        ]
        for got, want in cases:
            assert isinstance(got, DD), name
            np.testing.assert_array_equal(_bits(got.hi, size), _bits([w.hi for w in want], size))
            np.testing.assert_array_equal(_bits(got.lo, size), _bits([w.lo for w in want], size))
    for got, want in [(-xa, [-x for x in xs]), (xa**5, [x**5 for x in xs])]:
        np.testing.assert_array_equal(_bits(got.hi, size), _bits([w.hi for w in want], size))
        np.testing.assert_array_equal(_bits(got.lo, size), _bits([w.lo for w in want], size))

