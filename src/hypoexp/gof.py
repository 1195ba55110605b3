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

# Bytes of power table that _grid_means holds at once.  One buffer of at most
# this size is reused for every chunk of rows and observations: a fresh table
# per block of rows costs more in page faults than the power sums save.
_TABLE_BYTES = 1 << 19

# Replicates per bootstrap block: about 128 KiB of draws.  The block's draws,
# its standardized rows and the table stay in a typical L2 cache.
_BLOCK_BYTES = 1 << 17


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
    for a scalar ``t``, else an array of t's shape.  The sum runs over chunks
    of observations whose terms fill at most ``_TABLE_BYTES``."""
    x = as_values(data)
    t = as_points(t, "t")
    neg_t = -np.asarray(t)
    width = max(1, _TABLE_BYTES // (8 * max(1, neg_t.size)))
    total = np.zeros(neg_t.shape)
    for c in range(0, x.size, width):
        terms = np.multiply.outer(neg_t, x[c : c + width])
        total += np.exp(terms, out=terms).sum(axis=-1)
    vals = total / x.size
    return float(vals) if isinstance(t, float) else vals


def _powers(y, step, out):
    """out[k] = exp(-step*y)**k for k < len(out), by repeated products."""
    out[0] = 1.0
    if len(out) > 1:
        np.exp(np.multiply(y, -step, out=out[1]), out=out[1])
    for k in range(2, len(out)):
        np.multiply(out[k - 1], out[1], out=out[k])


def _grid_means(y, step, exponents):
    """Row means of exp(-y*step)**e for each positive integer e in
    ``exponents`` (rows: R x N).

    With b = exp(-step*y), S = isqrt(e_max) and A = e_max//S + 1, every
    power b**e, e <= e_max, is b**c * b**(S*a) for one c < S and one a < A.
    The tables L[c] = b**c and H[a] = b**(S*a) take S + A (about
    2*sqrt(e_max)) passes, and sum_i b_i**(S*a+c) is entry [a, c] of H L^T,
    so one stacked matmul gives every power sum of a chunk of rows.  H[1] is
    its own exp, so no power takes more than S + A roundings.

    The table is one buffer of at most ``_TABLE_BYTES``, reused for every
    chunk of rows and of observations, so memory stays bounded whatever N
    and the grid.  The observation chunks depend only on N and
    max(exponents), so each row's sums equal those of a one-row call."""
    e_max = int(np.max(exponents))
    low = math.isqrt(e_max)
    high = e_max // low + 1
    rows, n_obs = y.shape
    width = min(n_obs, max(1, _TABLE_BYTES // (8 * (low + high))))
    height = min(rows, max(1, _TABLE_BYTES // (8 * (low + high) * width)))
    table = np.empty((low + high, height, width))
    sums = np.zeros((rows, high, low))
    for r in range(0, rows, height):
        for c in range(0, n_obs, width):
            chunk = y[r : r + height, c : c + width]
            part = table[:, : chunk.shape[0], : chunk.shape[1]]
            _powers(chunk, step, part[:low])
            _powers(chunk, low * step, part[low:])
            sums[r : r + height] += np.matmul(part[low:].transpose(1, 0, 2),
                                              part[:low].transpose(1, 2, 0))
    # take keeps the rows C-ordered; [:, exponents] would not, and numpy sums
    # the rows of a Fortran-ordered array in another order than one row
    return np.take(sums.reshape(rows, -1), exponents, axis=1) / n_obs


def _grid_transforms(y, cfg):
    """Empirical Phi(t) and Phi(wt) on the grid t = dt*(1..G), per row of y.

    At the default w = 2, Phi(2t) is the power sum at exponent 2e of Phi(t)'s
    base, so one table up to 2G gives both.  Any other w takes one table per
    transform: a larger whole-number w would need a table up to w*G."""
    dt = T_MAX / cfg.grid_points
    g = np.arange(1, cfg.grid_points + 1)
    if cfg.w == 2.0:
        means = _grid_means(y, dt, np.concatenate([g, 2 * g]))
        return means[:, : cfg.grid_points], means[:, cfg.grid_points :]
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
