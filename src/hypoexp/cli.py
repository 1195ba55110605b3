"""Command-line interface.

Subcommands: ``eval``, ``sample``, ``fit``, ``gof``, ``verify``,
``simulate``.  Exit codes: 0 success, 1 domain/data error, 2 usage error.
A ``gof`` run exits 0 whether or not the null is rejected; the decision is
data, not failure.

All randomness flows from ``--seed`` (default ``DEFAULT_SEED``) through named
stream derivation, so any subcommand with an explicit seed is reproducible
byte for byte in ``--format structured`` output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from ._util import DEFAULT_SEED, derive_rng
from .chains import StageChain, simulate_absorption
from .distributions import FAMILIES, FAMILY_ALIASES, make_distribution
from .errors import HypoexpError
from .fitting import fit_eme
from .gof import METHOD_NOTE, GofConfig, gof_residual_curve, gof_test
from .identities import run_identity_checks
from .io import dist_to_dict, open_output, print_samples, read_samples, write_samples


class _UsageError(Exception):
    pass


def _csv_floats(text):
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from exc


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _emit(args, records, text_lines):
    if getattr(args, "format", "text") == "structured":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _build_dist(args):
    if args.dist is None:
        raise _UsageError("--dist is required")
    params = {}
    for key in FAMILIES[FAMILY_ALIASES[args.dist]][2]:
        params[key] = getattr(args, key)
        if params[key] is None:
            flag = "--lambda" if key == "rate" else f"--{key}"
            raise _UsageError(f"{flag} is required for --dist {args.dist}")
    return make_distribution(args.dist, **params)


def _write_or_print(args, sample, record, message):
    """Write ``sample`` to ``--out`` and report it, or print its values."""
    if args.out:
        write_samples(args.out, sample)
        _emit(args, [{**record, "count": len(sample), "seed": args.seed, "out": str(args.out)}],
              [message])
    elif args.format == "structured":
        _emit(args, [{"type": "value", "value": v} for v in sample.tolist()], [])
    else:
        print_samples(sample, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_eval(args):
    if not args.x:
        raise _UsageError("--x is required (at least one evaluation point)")
    dist = _build_dist(args)
    records, lines = [], []
    for x in args.x:
        p = dist.pdf(x)
        c = dist.cdf(x)
        records.append({"type": "eval", "family": args.dist, "x": x, "pdf": p, "cdf": c})
        lines.append(f"x={_fmt(x)} pdf={_fmt(p)} cdf={_fmt(c)}")
    _emit(args, records, lines)
    return 0


def _cmd_sample(args):
    if args.count is None:
        raise _UsageError("--count is required")
    dist = _build_dist(args)
    rng = derive_rng(args.seed, "sample")
    batch = dist.sample(args.count, rng)
    return _write_or_print(
        args, batch, {"type": "sample", "family": args.dist},
        f"wrote {len(batch)} values to {args.out} (seed={args.seed})",
    )


def _cmd_fit(args):
    if args.infile is None:
        raise _UsageError("--in is required")
    if args.n is not None and args.search is not None:
        raise _UsageError("--n and --search are mutually exclusive")
    if args.search is not None and args.search < 1:
        raise _UsageError(f"--search must be at least 1, got {args.search}")
    batch = read_samples(args.infile, column=args.column)
    if args.n is not None:
        dist, ll = fit_eme(batch, n=args.n)
    else:
        dist, ll = fit_eme(batch, n=None, max_n=args.search or 5)
    record = {"type": "fit", **dist_to_dict(dist), "log_likelihood": ll, "count": len(batch)}
    lines = [
        f"family=eme n={dist.n} lambda={_fmt(dist.rate)} w={_fmt(dist.w)} "
        f"log_likelihood={_fmt(ll)} count={len(batch)}"
    ]
    _emit(args, [record], lines)
    return 0


def _cmd_gof(args):
    if args.infile is None:
        raise _UsageError("--in is required")
    batch = read_samples(args.infile, column=args.column)
    cfg = GofConfig(
        n=args.n,
        w=args.w,
        grid_points=args.grid_points,
        grid_decay=args.grid_decay,
        bootstrap_reps=args.bootstrap_reps,
        level=args.alpha,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = gof_test(batch, cfg)
    runtime = time.perf_counter() - start
    if args.residual_table:
        t_grid, resid = gof_residual_curve(batch, cfg)
        with open_output(args.residual_table) as out:
            out.write("".join(f"{t:.17g} {d:.17g}\n" for t, d in zip(t_grid, resid)))
    record = {
        "type": "gof",
        "statistic": result.statistic,
        "p_value": result.p_value,
        "lambda_hat": result.lambda_hat,
        "n": cfg.n,
        "w": cfg.w,
        "B": cfg.bootstrap_reps,
        "alpha": cfg.level,
        "seed": cfg.seed,
        "reject": result.reject,
        "count": len(batch),
    }
    lines = [
        f"statistic={_fmt(result.statistic)}",
        f"p_value={_fmt(result.p_value)}",
        f"lambda_hat={_fmt(result.lambda_hat)}",
        f"n={cfg.n} w={_fmt(cfg.w)} B={cfg.bootstrap_reps} alpha={_fmt(cfg.level)} "
        f"seed={cfg.seed}",
        f"reject={_fmt(result.reject)}",
        f"runtime={runtime:.3f}s",
        f"method: {METHOD_NOTE}",
    ]
    _emit(args, [record], lines)
    return 0


def _cmd_verify(args):
    if args.max_n < 1:
        raise _UsageError(f"--max-n must be at least 1, got {args.max_n}")
    if args.sweep == "quick":
        report = run_identity_checks(
            exact_max_n=min(args.max_n, 10),
            shift_max_m=4,
            n_rationals=8,
            bracket_max_n=8,
            float_max_n=5,
            grid_points=25,
        )
    else:
        report = run_identity_checks(exact_max_n=args.max_n)
    records = [{"type": "verify-family", **family.to_record()} for family in report.families]
    records.append({
        "type": "verify-total",
        "checks": report.total_checks,
        "failures": report.total_failures,
        "worst_float_residual": report.worst_float_residual,
    })
    _emit(args, records, [report.render_text()])
    return 0 if report.total_failures == 0 else 1


def _cmd_simulate(args):
    if not args.stages:
        raise _UsageError("--stages is required (at least one rate)")
    if args.count is None:
        raise _UsageError("--count is required")
    chain = StageChain(rates=tuple(args.stages))
    rng = derive_rng(args.seed, "simulate")
    times = simulate_absorption(chain, args.count, rng)
    return _write_or_print(
        args, times, {"type": "simulate", "stages": list(chain.rates)},
        f"wrote {len(times)} absorption times to {args.out} "
        f"(stages={','.join(_fmt(r) for r in chain.rates)}, seed={args.seed})",
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_dist_flags(sub):
    sub.add_argument("--dist", choices=list(FAMILY_ALIASES), help="distribution family")
    sub.add_argument("--lambda", dest="rate", type=float, help="rate parameter")
    sub.add_argument("--n", type=int, help="stage count (erlang, eme)")
    sub.add_argument("--w", type=float, help="odd-stage multiplier (eme)")
    sub.add_argument("--rates", type=_csv_floats, help="comma-separated rates (hypo)")


def _add_common(sub):
    sub.add_argument("--format", choices=["text", "structured"], default="text",
                     help="text lines or JSON records (one per line)")
    sub.add_argument("--config", default=None,
                     help="key=value file supplying defaults (flags override)")


def build_parser():
    # allow_abbrev=False everywhere: a prefix such as --conf would otherwise
    # parse as --config without the file being read
    parser = argparse.ArgumentParser(
        prog="hypoexp",
        allow_abbrev=False,
        description="Hypoexponential/EME distributions, identity verification, "
                    "exponentiality testing, and absorption-chain simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", allow_abbrev=False, help="evaluate pdf/cdf on a list of points")
    _add_dist_flags(p)
    p.add_argument("--x", type=_csv_floats,
                   help="comma-separated evaluation points")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("sample", allow_abbrev=False, help="draw values from a distribution")
    _add_dist_flags(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output sample file (one value per line)")
    _add_common(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("fit", allow_abbrev=False, help="maximum-likelihood EME fit")
    p.add_argument("--in", dest="infile", default=None, help="sample file")
    p.add_argument("--column", default=None, help="CSV column name")
    p.add_argument("--n", type=int, default=None, help="fixed stage count")
    p.add_argument("--search", type=int, default=None,
                   help="scan stage counts 1..SEARCH and keep the best likelihood")
    _add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("gof", allow_abbrev=False, help="bootstrap exponentiality test")
    p.add_argument("--in", dest="infile", default=None, help="sample file")
    p.add_argument("--column", default=None, help="CSV column name")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=float, default=2.0)
    p.add_argument("--B", dest="bootstrap_reps", type=int, default=999)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grid-points", type=int, default=64)
    p.add_argument("--grid-decay", type=float, default=1.0)
    p.add_argument("--residual-table", default=None,
                   help="write the per-grid residual curve (two columns: t, residual)")
    _add_common(p)
    p.set_defaults(handler=_cmd_gof)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="run the identity verification sweeps")
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--sweep", choices=["default", "quick"], default="default")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", allow_abbrev=False,
                       help="simulate absorption times of a stage chain")
    p.add_argument("--stages", type=_csv_floats, default=None,
                   help="comma-separated stage rates, e.g. 1,1,1,1,0.2")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="output sample file")
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def _apply_config(argv):
    """Expand --config into synthetic flags placed before the explicit ones.

    The path follows as ``--config FILE`` or ``--config=FILE``; a second
    --config is a usage error.  Each ``key = value`` line becomes
    ``--key value`` right after the subcommand, so argparse applies its own
    type conversion and any explicit flag, coming later, wins.
    """
    argv = [tok for arg in argv
            for tok in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if argv.count("--config") > 1:
        raise _UsageError("--config may be given only once")
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv) or idx == 0:
        return argv  # let argparse report the malformed call
    path = argv[idx + 1]
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"--config: cannot read {path}: {exc}") from exc
    injected = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, raw = line.partition("=")
        injected += [f"--{key.strip().replace('_', '-')}", raw.strip()]
    return argv[:1] + injected + argv[1:]


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HypoexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
