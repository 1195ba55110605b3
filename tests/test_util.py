"""The shared validators and the callers that use them."""

import math

import numpy as np
import pytest

from hypoexp import EME, DomainError, Erlang, Exponential, GofConfig, ParameterError
from hypoexp import _util
from hypoexp._util import as_points, check_positive_int, check_positive_real, check_w
from hypoexp.identities import binomial_sum_residual


def test_accepts_python_and_numpy_integers():
    assert check_positive_int(1, "n") == 1
    value = check_positive_int(np.int64(7), "n")
    assert value == 7 and type(value) is int


@pytest.mark.parametrize("bad", [0, -3, True, False, 2.0, "3", None, np.float64(2.0)])
def test_rejects_everything_else_naming_the_parameter(bad):
    with pytest.raises(ParameterError, match=r"^count must be a positive integer, got "):
        check_positive_int(bad, "count")


def test_callers_keep_their_parameter_names():
    cases = [
        (lambda: Erlang(0, 1.0), "n must"),
        (lambda: EME(2, 1.0, 2.0).sample(0, np.random.default_rng(0)), "count must"),
        (lambda: GofConfig(n=0), "n must"),
        (lambda: GofConfig(grid_points=0), "grid_points must"),
        (lambda: binomial_sum_residual(3, 0, 2), "j must"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError, match=message):
            call()


def test_gof_config_normalizes_numpy_integers():
    cfg = GofConfig(n=np.int64(3), grid_points=np.int32(16))
    assert type(cfg.n) is int and cfg.n == 3
    assert type(cfg.grid_points) is int and cfg.grid_points == 16
    with pytest.raises(ParameterError):
        GofConfig(n=True)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_real_validators_reject_non_finite_and_non_positive(bad):
    with pytest.raises(ParameterError, match=r"^rate must be a finite positive real"):
        check_positive_real(bad, "rate")
    with pytest.raises(ParameterError, match=r"^w must be positive, finite and != 1"):
        check_w(bad)


def test_real_validators_return_floats():
    assert check_positive_real(np.int64(3), "rate") == 3.0
    assert type(check_w(2)) is float
    with pytest.raises(ParameterError):
        check_w(1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Exponential("abc"), "rate must"),  # float() raised ValueError
        (lambda: GofConfig(w="x"), "w must"),
        (lambda: EME(2, None, 3.0), "rate must"),  # float() raised TypeError
        (lambda: GofConfig(grid_decay=None), "grid_decay must"),
        (lambda: Exponential(10**400), "rate must"),  # float() raised OverflowError
    ],
)
def test_real_validators_turn_conversion_errors_into_parameter_errors(call, message):
    with pytest.raises(ParameterError, match=message) as info:
        call()
    assert isinstance(info.value.__cause__, (TypeError, ValueError, OverflowError))


def test_real_validators_still_convert_numeric_strings():
    assert Exponential("2.5").rate == 2.5
    assert GofConfig(w="3", grid_decay="0.5").w == 3.0
    assert check_w("0.5") == 0.5


def test_lazy_module_imports_on_first_read_and_caches():
    import scipy.special

    from hypoexp._util import LazyModule

    lazy = LazyModule("scipy.special")
    assert "gammaln" not in vars(lazy)
    assert lazy.gammaln is scipy.special.gammaln
    assert vars(lazy)["gammaln"] is scipy.special.gammaln
    with pytest.raises(AttributeError):
        lazy.no_such_function
    with pytest.raises(AttributeError):
        lazy.__wrapped__


def test_library_calls_go_through_a_swappable_module_name(monkeypatch):
    # a caller may replace hypoexp.fitting.optimize (the benchmark's tracer
    # does, to count iterations) and the fit must go through the replacement
    import hypoexp.fitting

    calls = []
    real = hypoexp.fitting.optimize

    class Counting:
        def minimize(self, *args, **kwargs):
            calls.append(1)
            return real.minimize(*args, **kwargs)

    monkeypatch.setattr(hypoexp.fitting, "optimize", Counting())
    sample = EME(2, 1.0, 3.0).sample(500, np.random.default_rng(3))
    hypoexp.fitting.fit_eme(sample, n=2)
    assert calls


def _as_points_by_array(x, name="x"):
    """``as_points`` as it was before its float shortcut: every point through
    one numpy round trip."""
    arr = np.asarray(x, dtype=float)
    ok = (arr >= 0.0) & (arr < math.inf)
    if not ok.all():
        bad = float(arr[~ok].flat[0])
        raise DomainError(f"{name} must be finite and nonnegative, got {bad!r}")
    return float(arr) if arr.ndim == 0 else arr


@pytest.mark.parametrize("value", [1.5, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
def test_as_points_returns_a_valid_float_as_the_array_path_does(value):
    got, want = as_points(value), _as_points_by_array(value)
    assert type(got) is float and got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_as_points_rejects_a_float_with_the_array_path_text(value):
    with pytest.raises(DomainError) as want:
        _as_points_by_array(value, "t")
    with pytest.raises(DomainError) as got:
        as_points(value, "t")
    assert str(got.value) == str(want.value)


def test_as_points_takes_the_array_path_for_every_other_scalar(monkeypatch):
    class CountingNumpy:
        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def asarray(self, *args, **kwargs):
            CountingNumpy.calls += 1
            return np.asarray(*args, **kwargs)

    monkeypatch.setattr(_util, "np", CountingNumpy())
    assert as_points(2.5) == 2.5 and CountingNumpy.calls == 0
    for value, want in [(np.float64(2.5), 2.5), (3, 3.0), (True, 1.0), (np.float64(-0.0), -0.0)]:
        got = as_points(value)
        assert type(got) is float and got == want
    assert CountingNumpy.calls == 4
    with pytest.raises(DomainError, match="got -1.0"):
        as_points(np.float64(-1.0))
