"""Goodness-of-fit test for exponentiality.

The exponential Laplace transform is the only one satisfying

    (w-1)^{n+1}/w^n Phi(wt) Phi^n(t) = (w-1) Phi(wt) - sum_{k=1}^n ((w-1)/w)^k Phi^k(t)

for fixed integer n >= 1 and w > 0, w != 1.  The test plugs the empirical
transform of rate-standardized data into this equation, integrates the squared
residual against an exponential weight on a fixed grid, and calibrates the
statistic by parametric bootstrap from the standard exponential.  Rescaling by
the sample mean makes the statistic exactly scale-invariant, so the null needs
no parameters.

This statistic construction (weight, grid, bootstrap) is artifact design
around the characterization, not a published recipe; the report says so.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._util import (
    DEFAULT_SEED,
    as_points,
    as_values,
    check_positive_int,
    check_positive_real,
    check_w,
)
from .errors import DataError, ParameterError
from .identities import _characterization_residuals

METHOD_NOTE = (
    "empirical-Laplace residual of the exponential characterization "
    "(n, w as configured), integrated with weight exp(-decay*t) on a fixed "
    "grid and calibrated by parametric bootstrap; construction is this "
    "package's own design"
)

# Upper end of the t-grid: past it the standard-exponential transform is
# essentially flat and contributes nothing.
T_MAX = 10.0

# Replicates per bootstrap block: about 512 KiB of draws, so the block and the
# kernel's working arrays stay in a typical L2 cache.
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class GofConfig:
    """Configuration of the exponentiality test.

    ``n`` and ``w`` select which instance of the characterization is tested;
    the defaults (2, 2) are a design choice, not canon.  The grid spans
    (0, ``T_MAX``].
    """

    n: int = 2
    w: float = 2.0
    grid_points: int = 64
    grid_decay: float = 1.0
    bootstrap_reps: int = 999
    level: float = 0.05
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "n", check_positive_int(self.n, "n"))
        object.__setattr__(self, "w", check_w(self.w))
        object.__setattr__(self, "grid_points", check_positive_int(self.grid_points, "grid_points"))
        object.__setattr__(self, "grid_decay", check_positive_real(self.grid_decay, "grid_decay"))
        reps = check_positive_int(self.bootstrap_reps, "bootstrap_reps")
        if reps < 99:
            raise ParameterError(f"bootstrap_reps must be >= 99, got {reps!r}")
        object.__setattr__(self, "bootstrap_reps", reps)
        if not (isinstance(self.level, numbers.Real) and 0.0 < self.level < 1.0):
            raise ParameterError(f"level must be a real in (0, 1), got {self.level!r}")
        object.__setattr__(self, "level", float(self.level))

    @property
    def grid(self):
        step = T_MAX / self.grid_points
        return step * np.arange(1, self.grid_points + 1)


@dataclass(frozen=True)
class GofResult:
    """Outcome of the bootstrap test.

    ``p_value`` follows the (1 + #{T_b >= T}) / (B + 1) convention, which
    keeps the bootstrap p-value valid at finite B; ``reject`` is
    ``p_value <= level``.
    """

    statistic: float
    p_value: float
    lambda_hat: float
    reject: bool
    replicates: np.ndarray = field(repr=False)
    config: GofConfig = None

    @property
    def mc_standard_error(self):
        """Monte Carlo standard error of ``p_value``, sqrt(p(1-p)/B): how far
        the bootstrap p-value may sit from its B -> infinity limit."""
        return math.sqrt(self.p_value * (1.0 - self.p_value) / len(self.replicates))


def empirical_laplace(data, t):
    """Empirical Laplace transform (1/N) sum_i exp(-t x_i), t >= 0; a float
    for a scalar ``t``, else an array of t's shape."""
    x = as_values(data)
    t = as_points(t, "t")
    vals = np.exp(-np.multiply.outer(t, x)).mean(axis=-1)
    return float(vals) if isinstance(t, float) else vals


def _grid_means(y, step, exponents):
    """Row means of exp(-y*step)**e for each integer e in the increasing
    list ``exponents`` (rows: R x N).

    One exp per element, then in-place multiplies: exp(-y*step*e) =
    exp(-y*step)**e, so memory stays at O(R x N) whatever the grid."""
    base = np.exp(-step * y)
    power = base.copy()
    out = np.empty((y.shape[0], len(exponents)))
    reached = 1
    for col, e in enumerate(exponents):
        for _ in range(e - reached):
            power *= base
        reached = e
        out[:, col] = power.sum(axis=1)
    out /= y.shape[1]
    return out


def _grid_transforms(y, cfg):
    """Empirical Phi(t) and Phi(wt) on the grid t = dt*(1..G), per row of y.

    At the default w = 2, Phi(2t) sits at the even exponents of Phi(t)'s
    power table, so one pass over {1..G} U 2*{1..G} gives both and saves an
    exp and G/2 row sums.  Any other w takes one pass per transform: a larger
    whole-number w would need w*G multiplies in one table."""
    dt = T_MAX / cfg.grid_points
    g = np.arange(1, cfg.grid_points + 1)
    if cfg.w == 2.0:
        exponents = np.union1d(g, 2 * g)
        means = _grid_means(y, dt, exponents)
        return means[:, : cfg.grid_points], means[:, np.searchsorted(exponents, 2 * g)]
    return _grid_means(y, dt, g), _grid_means(y, cfg.w * dt, g)


def _residuals(rows, cfg):
    """Characterization residual on the grid for each row of positive
    observations (rows: R x N), after rescaling each row by its mean."""
    y = rows / rows.mean(axis=1, keepdims=True)  # standardized: null becomes Exp(1)
    phi_t, phi_wt = _grid_transforms(y, cfg)
    return _characterization_residuals(cfg.n, cfg.w, phi_t, phi_wt, cfg.n)[0]


def _statistic_rows(rows, cfg):
    """Statistic for each row of positive observations (rows: R x N)."""
    x = np.asarray(rows, dtype=float)
    resid = _residuals(x, cfg)
    weight = np.exp(-cfg.grid_decay * cfg.grid)
    return x.shape[1] * (resid * resid * weight).sum(axis=1) * (T_MAX / cfg.grid_points)


def gof_statistic(data, cfg=None):
    """Test statistic and plug-in rate estimate for one data batch.

    Returns (T, lambda_hat) with lambda_hat = 1/mean; the data are rescaled
    by lambda_hat before the residual is formed, so T is scale-invariant.
    """
    cfg = cfg or GofConfig()
    x = as_values(data, require_positive=True)
    lam_hat = 1.0 / x.mean()
    t_stat = float(_statistic_rows(x[None, :], cfg)[0])
    return t_stat, lam_hat


def gof_residual_curve(data, cfg=None):
    """(t grid, residual) of the empirical characterization equation; the
    plot-ready diagnostic behind the statistic."""
    cfg = cfg or GofConfig()
    x = as_values(data, require_positive=True)
    return cfg.grid, _residuals(x[None, :], cfg)[0]


def _bootstrap_rows(n_obs, reps, seed, start):
    """Standard-exponential replicate rows start .. start+reps-1.

    Replicate b is -log1p(-u) of the first n_obs of the 4k uniforms drawn
    from Generator(Philox(key=seed & 0xFFFFFFFF, counter=(b-1)k)),
    k = ceil(n_obs/4).  numpy's Philox steps the counter before each 4-word
    output, so replicate b uses counter values (b-1)k+1 .. bk, a block of its
    own: results do not depend on chunking or scheduling."""
    k = -(-n_obs // 4)
    bits = np.random.Philox(key=int(seed) & 0xFFFFFFFF, counter=(start - 1) * k)
    uniforms = np.random.Generator(bits).random((reps, 4 * k))[:, :n_obs]
    return -np.log1p(-uniforms)


def gof_test(data, cfg=None):
    """Parametric-bootstrap exponentiality test.

    Draws ``cfg.bootstrap_reps`` standard-exponential samples of the observed
    size, recomputes the statistic on each (including the rate rescaling), and
    returns the finite-sample-valid bootstrap p-value.  Deterministic given
    ``cfg.seed``.
    """
    cfg = cfg or GofConfig()
    x = as_values(data, require_positive=True)
    if x.size < 2:
        raise DataError("need at least two observations")
    t_obs, lam_hat = gof_statistic(x, cfg)

    n_obs = x.size
    reps = cfg.bootstrap_reps
    block = max(1, _BLOCK_BYTES // (8 * n_obs))
    replicates = np.empty(reps)
    for done in range(0, reps, block):
        take = min(block, reps - done)
        rows = _bootstrap_rows(n_obs, take, cfg.seed, start=done + 1)
        replicates[done : done + take] = _statistic_rows(rows, cfg)

    p_value = (1.0 + np.count_nonzero(replicates >= t_obs)) / (reps + 1.0)
    return GofResult(
        statistic=t_obs,
        p_value=float(p_value),
        lambda_hat=lam_hat,
        reject=bool(p_value <= cfg.level),
        replicates=replicates,
        config=cfg,
    )
