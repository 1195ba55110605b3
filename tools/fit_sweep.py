"""A sweep of EME fits over fixed datasets, and a comparison of two sweeps.

Fits ``fit_eme(x, n=k)`` for every family, size N, seed and stage count k
below, with the library found under ``--src`` (one checkout's ``src/``), and
writes one JSON line per fit: its key (family, N, seed, n), and either the
log-likelihood, rate and w with the number of density-kernel calls and the
points they evaluated, or the text of the error the fit raised.  The data of
a key come from ``numpy.random.default_rng([seed, N])``, so two checkouts fit
the same data:

    python tools/fit_sweep.py --src base/src --out base.jsonl
    python tools/fit_sweep.py --src src --out change.jsonl

``--compare`` lists the fits of the second sweep whose log-likelihood is lower
than the first's by more than 1e-9 |ll|, and those that raise on one side
only, then the totals of each side; it exits 1 when it lists any fit:

    python tools/fit_sweep.py --compare base.jsonl change.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-9
SIZES = (10_000, 50_000)
SEEDS = (1, 2)
MAX_N = 5


def _families(hx):
    """Name -> draw(N, rng) of the sweep's data families."""
    return {
        "EME(2,1,4)": hx.EME(2, 1.0, 4.0).sample,
        "EME(3,2,0.25)": hx.EME(3, 2.0, 0.25).sample,
        "EME(1,0.5,2)": hx.EME(1, 0.5, 2.0).sample,
        "Erlang(3)": hx.Erlang(3, 1.0).sample,
        "exponential": lambda size, rng: rng.exponential(1.0, size),
        "Weibull(0.5)": lambda size, rng: rng.weibull(0.5, size),
        "Weibull(2)": lambda size, rng: rng.weibull(2.0, size),
        "lognormal(0,1)": lambda size, rng: rng.lognormal(0.0, 1.0, size),
        "gamma(0.5)": lambda size, rng: rng.gamma(0.5, 1.0, size),
        "uniform(0.01,1)": lambda size, rng: rng.uniform(0.01, 1.0, size),
    }


def sweep(src):
    """One record (a dict) per fit, with hypoexp imported from ``src``."""
    sys.path.insert(0, str(src))
    import numpy as np

    import hypoexp as hx
    from hypoexp import fitting

    counts = {"calls": 0, "points": 0}
    kernel = fitting._eme_logpdf

    def counted(*args, **kwargs):
        counts["calls"] += 1
        counts["points"] += len(args[3])
        return kernel(*args, **kwargs)

    fitting._eme_logpdf = counted
    records = []
    try:
        for family, draw in _families(hx).items():
            for size in SIZES:
                for seed in SEEDS:
                    x = draw(size, np.random.default_rng([seed, size]))
                    for n in range(1, MAX_N + 1):
                        counts.update(calls=0, points=0)
                        record = {"family": family, "N": size, "seed": seed, "n": n}
                        try:
                            dist, ll = hx.fit_eme(x, n=n)
                        except Exception as exc:  # any raise is a result of the sweep
                            record["error"] = f"{type(exc).__name__}: {exc}"
                        else:
                            record.update(ll=ll, rate=dist.rate, w=dist.w)
                        records.append({**record, **counts})
    finally:
        fitting._eme_logpdf = kernel
    return records


def _key(record):
    return record["family"], record["N"], record["seed"], record["n"]


def compare(base, change):
    """(lines listing the fits that differ, totals per side) of two sweeps,
    each a list of records; only keys present in both count."""
    base_by_key = {_key(r): r for r in base}
    pairs = [(base_by_key[_key(c)], c) for c in change if _key(c) in base_by_key]
    listed = []
    for b, c in pairs:
        if ("error" in b) != ("error" in c):
            listed.append(f"raises on one side: {_key(c)}: "
                          f"base {b.get('error', 'fits')}; change {c.get('error', 'fits')}")
        elif "error" not in b and c["ll"] < b["ll"] - REL_TOL * abs(b["ll"]):
            listed.append(f"lower: {_key(c)}: {c['ll']!r} < {b['ll']!r} "
                          f"({(b['ll'] - c['ll']) / abs(b['ll']):.3g} of |ll|)")
    totals = {
        side: {"fits": len(pairs),
               "raised": sum("error" in pair[i] for pair in pairs),
               "calls": sum(pair[i]["calls"] for pair in pairs),
               "points": sum(pair[i]["points"] for pair in pairs)}
        for i, side in enumerate(("base", "change"))
    }
    return listed, totals


def _read(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory to import hypoexp from")
    parser.add_argument("--out", type=Path, help="JSON-lines file to write")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two sweeps instead of running one")
    args = parser.parse_args(argv)
    if args.compare:
        listed, totals = compare(*map(_read, args.compare))
        for line in listed:
            print(line)
        print(json.dumps(totals))
        return 1 if listed else 0
    if args.out is None:
        parser.error("--out is required to run a sweep")
    records = sweep(args.src)
    args.out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
