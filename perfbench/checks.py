"""Per-operation correctness checks.

Each check returns a list of problems; an empty list means the output is
correct.  Every oracle is independent of the code path it checks: counting
replicates instead of trusting the reported p-value, scale invariance of the
statistic, known true parameters for fits, a KS critical value for
simulation, adaptive quadrature of the density for the CDF, and the pinned
check count of the identity sweep.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

# Asymptotic 0.1% Kolmogorov-Smirnov critical constant sqrt(ln(2/0.001)/2).
KS_CRITICAL_01PCT = math.sqrt(math.log(2.0 / 0.001) / 2.0)

# Acceptance criterion 10: relative error of the fitted parameters at N=1e5.
FIT_RATE_TOL = 0.05
FIT_W_TOL = 0.10

QUAD_CDF_TOL = 1e-9
QUAD_NORM_TOL = 1e-8

VERIFY_WORST_RESIDUAL = 1e-10


def gof_result(result, data, cfg, statistic_of):
    """p-value recount from the replicates, and scale invariance of the
    statistic (doubling the data is exact in binary floating point)."""
    problems = []
    reps = np.asarray(result.replicates)
    if reps.size != cfg.bootstrap_reps:
        problems.append(f"gof: {reps.size} replicates, expected {cfg.bootstrap_reps}")
    expected_p = (1.0 + np.count_nonzero(reps >= result.statistic)) / (reps.size + 1.0)
    if result.p_value != expected_p:
        problems.append(f"gof: p_value {result.p_value!r} != recount {expected_p!r}")
    if result.reject != (result.p_value <= cfg.level):
        problems.append(f"gof: reject={result.reject} disagrees with p_value {result.p_value!r}")
    scaled = statistic_of(2.0 * np.asarray(data), cfg)[0]
    if scaled != result.statistic:
        problems.append(f"gof: statistic {result.statistic!r} != {scaled!r} on data x2")
    return problems


def _structured_records(rc, stdout, what):
    if rc != 0:
        return None, [f"{what}: exit code {rc}"]
    try:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()], []
    except json.JSONDecodeError as exc:
        return None, [f"{what}: unparsable structured output: {exc}"]


def fit_record(rc, stdout, law, count):
    """CLI fit record at a fixed stage count against the true parameters."""
    records, problems = _structured_records(rc, stdout, "fit")
    if problems:
        return problems
    rec = records[-1]
    if rec.get("type") != "fit" or rec.get("n") != law.n or rec.get("count") != count:
        return [f"fit: unexpected record {rec}"]
    rate_err = abs(rec["lambda"] - law.rate) / law.rate
    w_err = abs(rec["w"] - law.w) / law.w
    if not rate_err <= FIT_RATE_TOL:
        problems.append(f"fit: rate error {rate_err:.3%} > {FIT_RATE_TOL:.0%} for {law}")
    if not w_err <= FIT_W_TOL:
        problems.append(f"fit: w error {w_err:.3%} > {FIT_W_TOL:.0%} for {law}")
    return problems


def scan_record(rc, stdout, count, fixed_ll):
    """CLI stage-scan fit: it includes the true n, so its log-likelihood is at
    least that of the fixed-n fit at the true n."""
    records, problems = _structured_records(rc, stdout, "scan fit")
    if problems:
        return problems
    rec = records[-1]
    if rec.get("type") != "fit" or rec.get("count") != count:
        return [f"scan fit: unexpected record {rec}"]
    if not rec["log_likelihood"] >= fixed_ll:
        return [f"scan fit: log-likelihood {rec['log_likelihood']!r} < fixed-n {fixed_ll!r}"]
    return []


def validation(sim, law, count):
    """Simulated absorption times against the analytic law."""
    problems = []
    if len(sim.times) != count:
        problems.append(f"validate: {len(sim.times)} times, expected {count}")
    critical = KS_CRITICAL_01PCT / math.sqrt(count)
    if not sim.ks_distance < critical:
        problems.append(
            f"validate: KS distance {sim.ks_distance:.3e} >= 0.1% critical {critical:.3e} for {law}"
        )
    return problems


def percentile_table(law, table):
    """Percentiles p=1..99 found on ``law.cdf``: increasing, cdf at each equal
    to p/100, and ``cdf`` equal to the quadrature of ``pdf`` at each decile;
    the density integrates to one."""
    problems = []
    xs = np.asarray(table)
    if xs.size != 99 or not np.all(np.diff(xs) > 0.0):
        return [f"percentiles: table for {law} is not 99 increasing values"]
    for p, x in zip(range(10, 100, 10), xs[9::10]):
        cdf = law.cdf(float(x))
        if abs(cdf - p / 100.0) > QUAD_CDF_TOL:
            problems.append(f"percentiles: cdf({x!r}) = {cdf!r}, expected {p / 100}")
        area, _ = integrate.quad(law.pdf, 0.0, float(x), epsabs=1e-13, epsrel=1e-12, limit=200)
        if abs(area - cdf) > QUAD_CDF_TOL:
            problems.append(
                f"percentiles: quad(pdf, 0, {x:.6g}) = {area!r} vs cdf {cdf!r} for {law}"
            )
    total, _ = integrate.quad(law.pdf, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
    if abs(total - 1.0) > QUAD_NORM_TOL:
        problems.append(f"percentiles: pdf of {law} integrates to {total!r}")
    return problems


def verify_records(rc, stdout, expected_checks):
    """CLI verify --format structured: exit 0, no failures, the pinned check
    count, and the float residual bound."""
    records, problems = _structured_records(rc, stdout, "verify")
    if problems:
        return problems
    totals = [r for r in records if r.get("type") == "verify-total"]
    families = [r for r in records if r.get("type") == "verify-family"]
    if len(totals) != 1:
        return [f"verify: {len(totals)} verify-total records"]
    total = totals[0]
    if total["failures"] != 0 or any(f["failures"] != 0 for f in families):
        problems.append(f"verify: {total['failures']} failures")
    if total["checks"] != expected_checks or sum(f["checks"] for f in families) != expected_checks:
        problems.append(f"verify: {total['checks']} checks, expected {expected_checks}")
    if not total["worst_float_residual"] <= VERIFY_WORST_RESIDUAL:
        problems.append(f"verify: worst float residual {total['worst_float_residual']!r}")
    return problems
