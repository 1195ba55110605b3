"""The shared validators and the callers that use them."""

import numpy as np
import pytest

from hypoexp import EME, Erlang, Exponential, GofConfig, ParameterError
from hypoexp._util import check_positive_int, check_positive_real, check_w
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
