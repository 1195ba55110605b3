"""The two benchmark workloads.

Each workload is a closed loop driven by one client: it builds its inputs
in ``__init__`` (before any timing), then ``run(i)`` performs operation
``i`` (the timed part) and ``check(i, output)`` returns the problems an
independent oracle finds in that output (untimed).  ``warmup()`` runs before
the first timed operation.

gof_study       repeated bootstrap exponentiality tests, N=200, B=999
model_pipeline  simulate + validate four laws, CLI fits, percentile tables,
                CLI ``verify`` at its defaults (the identity sweeps)
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time

import numpy as np
from scipy import optimize

import hypoexp as hx
import hypoexp.cli

import checks

SIZES = {
    "full": {
        "gof_n": 200, "gof_reps": 999, "gof_per_family": 20,
        "sim_count": 100_000, "fit_count": 100_000, "scan_count": 20_000,
        "verify_args": [], "verify_checks": 178_425,
    },
    "smoke": {
        "gof_n": 200, "gof_reps": 99, "gof_per_family": 2,
        "sim_count": 20_000, "fit_count": 20_000, "scan_count": 5_000,
        "verify_args": ["--sweep", "quick"], "verify_checks": 7_265,
    },
}

# Seed of acceptance criterion 10's fit datasets.
FIT_DATA_SEED = 20260110


def _cli(argv):
    """``hypoexp.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hypoexp.cli.main(argv)
    return rc, out.getvalue()


class GofStudy:
    """Monte Carlo size/power study: ``gof_test`` on a rotating pool of
    datasets from Exp(rate 3), lognormal(0, 1) and Weibull(0.5), as in
    acceptance criteria 8 and 9.  Each pool entry has its own bootstrap seed,
    so its decision is fixed and the rejection counts repeat exactly."""

    name = "gof_study"
    families = ("exp", "lognormal", "weibull")

    def __init__(self, seed, size, workdir):
        s = SIZES[size]
        draws = {
            "exp": lambda rng, n: rng.exponential(1.0 / 3.0, n),
            "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
            "weibull": lambda rng, n: rng.weibull(0.5, n),
        }
        self.pool = []
        for i in range(len(self.families) * s["gof_per_family"]):
            family = self.families[i % len(self.families)]
            rng = np.random.default_rng([seed, i])
            data = draws[family](rng, s["gof_n"])
            cfg = hx.GofConfig(bootstrap_reps=s["gof_reps"], level=0.05,
                               seed=int(rng.integers(2**31)))
            self.pool.append((family, data, cfg))
        self.min_ops = len(self.pool)
        self.decisions = {}  # pool index -> (family, reject)

    def warmup(self):
        self.run(0)

    def run(self, i):
        _, data, cfg = self.pool[i % len(self.pool)]
        return hx.gof_test(data, cfg)

    def check(self, i, result):
        family, data, cfg = self.pool[i % len(self.pool)]
        self.decisions[i % len(self.pool)] = (family, result.reject)
        return checks.gof_result(result, data, cfg, hx.gof_statistic)

    def rejections(self, family):
        return sum(1 for fam, reject in self.decisions.values() if fam == family and reject)

    def report(self, times, phases):
        return {
            "gof_tests_per_s": (len(times) / sum(times), "1/s"),
            "gof_p50_ms": (1e3 * statistics.median(times), "ms"),
        }


class ModelPipeline:
    """The analyst's modelling path; one pass has five phases:

    validate   simulate absorption times of four chains, validate_against
               the analytic law;
    fit_fixed  CLI ``fit --n k`` on 1e5-value files of the first two laws;
    fit_scan   CLI ``fit`` (stage scan 1..5) on a 2e4-value file;
    quantiles  percentiles 1..99 of all four laws by root finding on cdf;
    verify     CLI ``verify --format structured`` at its defaults.  The
               sweep's rationals are pinned inside ``run_identity_checks``
               and the CLI takes no seed, so this phase does not depend on
               ``--seed``.

    The identity sweep is a phase of this workload rather than a workload
    of its own so that each run can be long enough to be steady: one sweep
    takes seconds, and a workload of its own had a handful of them per run.
    """

    name = "model_pipeline"
    min_ops = 1

    def __init__(self, seed, size, workdir):
        s = SIZES[size]
        self.sim_count = s["sim_count"]
        self.fit_count = s["fit_count"]
        self.scan_count = s["scan_count"]
        self.verify_argv = ["verify", *s["verify_args"], "--format", "structured"]
        self.verify_checks = s["verify_checks"]
        self.laws = [
            (hx.EME(2, 1.0, 4.0), hx.eme_chain(2, 1.0, 0.25)),  # w > 1
            (hx.EME(3, 2.0, 0.25), hx.eme_chain(3, 2.0, 8.0)),  # w < 1
            (hx.EME(20, 1.0, 0.8), hx.eme_chain(20, 1.0, 1.25)),  # series CDF branch
            (hx.Hypoexponential((1.0, 2.0, 3.0, 4.0, 5.0)),
             hx.StageChain((1.0, 2.0, 3.0, 4.0, 5.0))),
        ]
        self.sim_seeds = [[seed, j] for j in range(len(self.laws))]
        # The fit files come from fixed streams, not from the seed: the cost
        # of a fit depends on its data (for EME(2,1,4) the moment map gives
        # one or two optimizer starts depending on the sign of the sample
        # mean^2/var - 2, which doubles the work), so seeded fit data would
        # make this workload's timings bimodal across seeds.  The fixed-n
        # files are acceptance criterion 10's own datasets.
        self.fit_files = []
        for j, (law, _) in enumerate(self.laws[:2]):
            path = workdir / f"fit_{j}.txt"
            rng = hx.derive_rng(FIT_DATA_SEED, "fit", law.n)
            hx.write_samples(path, law.sample(self.fit_count, rng))
            self.fit_files.append((str(path), law))
        scan_law = self.laws[0][0]
        scan_data = scan_law.sample(self.scan_count, hx.derive_rng(FIT_DATA_SEED, "scan"))
        self.scan_file = workdir / "scan.txt"
        hx.write_samples(self.scan_file, scan_data)
        # oracle for the scan: the fixed-n fit at the true n (untimed)
        self.scan_reference_ll = hx.fit_eme(scan_data, n=scan_law.n)[1]

    def warmup(self):
        """Nothing: a pass is too long to repeat untimed, and its lazy set-up
        (first calls into scipy) is a negligible share of it."""

    def run(self, i):
        phases = {}
        start = time.perf_counter()
        sims = [
            hx.validate_against(
                hx.simulate_absorption(chain, self.sim_count, np.random.default_rng(seeds)), law)
            for (law, chain), seeds in zip(self.laws, self.sim_seeds)
        ]
        phases["validate_s"] = time.perf_counter() - start

        start = time.perf_counter()
        fixed = [
            _cli(["fit", "--in", path, "--n", str(law.n), "--format", "structured"])
            for path, law in self.fit_files
        ]
        phases["fit_fixed_s"] = time.perf_counter() - start

        start = time.perf_counter()
        scan = _cli(["fit", "--in", str(self.scan_file), "--format", "structured"])
        phases["fit_scan_s"] = time.perf_counter() - start

        start = time.perf_counter()
        tables = [percentiles(law) for law, _ in self.laws]
        phases["quantiles_s"] = time.perf_counter() - start

        start = time.perf_counter()
        verify = _cli(self.verify_argv)
        phases["verify_s"] = time.perf_counter() - start
        return {"sims": sims, "fixed": fixed, "scan": scan, "tables": tables, "verify": verify,
                "phases": phases}

    def check(self, i, out):
        problems = []
        for sim, (law, _) in zip(out["sims"], self.laws):
            problems += checks.validation(sim, law, self.sim_count)
        for (rc, stdout), (_, law) in zip(out["fixed"], self.fit_files):
            problems += checks.fit_record(rc, stdout, law, self.fit_count)
        problems += checks.scan_record(*out["scan"], self.scan_count, self.scan_reference_ll)
        for table, (law, _) in zip(out["tables"], self.laws):
            problems += checks.percentile_table(law, table)
        problems += checks.verify_records(*out["verify"], self.verify_checks)
        return problems

    def report(self, times, phases):
        return {name: (statistics.median(p[name] for p in phases), "s") for name in phases[0]}


def percentiles(law):
    """Percentiles p = 1..99 of ``law`` by scalar root finding on its cdf."""
    table = []
    lo, hi = 0.0, law.mean
    for p in range(1, 100):
        q = p / 100.0
        while law.cdf(hi) < q:
            lo, hi = hi, 2.0 * hi
        lo = optimize.brentq(lambda x: law.cdf(x) - q, lo, hi, xtol=1e-13, rtol=1e-14)
        table.append(lo)
    return table


WORKLOADS = {w.name: w for w in (GofStudy, ModelPipeline)}
