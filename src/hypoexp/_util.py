"""Small shared helpers: seeding, argument validation, data coercion, and
the deferred import of scipy."""

import importlib
import math
from zlib import crc32

import numpy as np

from .errors import DataError, DomainError, ParameterError

# Every CLI subcommand that consumes randomness falls back to this seed so
# runs are reproducible out of the box.
DEFAULT_SEED = 1729


class LazyModule:
    """Stand-in for the module ``name`` that imports it on the first
    attribute read and caches each attribute it hands out on itself.

    ``import hypoexp`` then loads no scipy module: ``verify`` and ``gof``
    never call scipy, and importing ``scipy.special`` and ``scipy.optimize``
    costs more than the rest of the start-up together.  After the first read
    an attribute is a plain instance attribute, so a call through the
    stand-in costs what a call through the module does."""

    def __init__(self, name):
        self._name = name

    def __getattr__(self, attr):
        if attr.startswith("_"):  # own state, and copy/pickle/introspection probes
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


def derive_rng(seed, *scope):
    """Build an independent generator from a base seed and a naming scope.

    Strings in ``scope`` are hashed with CRC-32 so the derivation is stable
    across platforms and sessions; integers pass through unchanged.  Streams
    derived with different scopes never collide regardless of call order.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for part in scope:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFF)
        else:
            entropy.append(crc32(str(part).encode("utf-8")))
    return np.random.default_rng(entropy)


def check_positive_int(value, name):
    """``value`` as an int; ParameterError unless it is a positive integer
    (bools are rejected, numpy integers accepted)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _checked_real(value, ok, message):
    """float(value); ParameterError "<message>, got ..." unless it converts
    and ``ok`` holds for it (a string such as "2.5" converts)."""
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{message}, got {value!r}") from exc
    if not ok(real):
        raise ParameterError(f"{message}, got {real!r}")
    return real


def check_positive_real(value, name):
    """``value`` as a float; ParameterError unless it is finite and positive."""
    return _checked_real(value, lambda v: 0.0 < v < math.inf, f"{name} must be a finite positive real")


def check_rates(rates, name):
    """``rates`` as a tuple of floats; ParameterError unless it is one rate
    or a nonempty 1-D sequence of finite positive reals."""
    try:
        arr = np.atleast_1d(np.asarray(rates, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name}s must be a sequence of reals, got {rates!r}") from exc
    if arr.ndim != 1:
        raise ParameterError(f"{name}s must be one-dimensional, got shape {arr.shape}")
    if not arr.size:
        raise ParameterError(f"need at least one {name}")
    return tuple(check_positive_real(r, name) for r in arr)


def check_w(w):
    """The odd-stage multiplier ``w`` as a float; ParameterError unless it is
    finite, positive and != 1 (at w = 1 the characterization is empty)."""
    return _checked_real(w, lambda v: 0.0 < v < math.inf and v != 1.0,
                         "w must be positive, finite and != 1")


def as_points(x, name="x"):
    """Evaluation points: a float for a scalar ``x``, else a float64 array of
    its shape; DomainError unless every point is finite and nonnegative."""
    if type(x) is float and 0.0 <= x < math.inf:
        return x
    arr = np.asarray(x, dtype=float)
    ok = (arr >= 0.0) & (arr < math.inf)
    if not ok.all():
        bad = float(arr[~ok].flat[0])
        raise DomainError(f"{name} must be finite and nonnegative, got {bad!r}")
    return float(arr) if arr.ndim == 0 else arr


def as_values(data, require_positive=False, what="data"):
    """Coerce an array-like to a 1-D float array, validating it."""
    arr = np.atleast_1d(np.asarray(data, dtype=float))
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{what} is empty")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite values")
    if require_positive:
        if np.any(arr <= 0):
            raise DataError(f"{what} must be strictly positive")
    elif np.any(arr < 0):
        raise DataError(f"{what} must be nonnegative")
    return arr
