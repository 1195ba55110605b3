"""Spans and counters for the traced benchmark run.

The wrappers are installed from the benchmark's own files: each replaces, for
the duration of one traced operation, the name through which one module calls
an entry point of another (for example ``hypoexp.cli.fit_eme``, the name the
CLI looks up when it fits).  Nothing in ``src/`` is edited.

Spans are aggregated in memory by name as they close: call count, total time
and self time, where self time is the span's duration minus the time covered
by the spans it opened directly.  The same three figures are kept per
(parent, child) pair, so the call tree can be printed when the run ends.

An entry point that no longer exists (renamed or removed by a later change)
is recorded in ``absent`` with the reason; every metric that depends on it is
then reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
from time import perf_counter_ns

DD_SPAN = "ddouble.op"

# The nine public residual and gap functions that run_identity_checks calls.
IDENTITY_FUNCTIONS = (
    "binomial_sum_residual",
    "shifted_binomial_sum_residual",
    "geometric_weight_gap",
    "geometric_weight_gap_closed_form",
    "gap_vanishes",
    "series_coefficient_brackets",
    "exp_lt_identity_residual",
    "partial_fraction_residual",
    "functional_equation_residual",
)

DD_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


class Tracer:
    """Aggregating span recorder; one per benchmark run."""

    def __init__(self):
        self._stack = []  # open spans: [name, child_ns]
        self.spans = {}  # name -> [calls, total_ns, self_ns]
        self.edges = {}  # (parent name or None, name) -> [calls, total_ns, self_ns]
        self.counts = {}  # counter name -> amount
        self.absent = {}  # entry-point name -> reason it could not be wrapped
        self.dd_nested = 0  # DD operators called from inside another DD operator

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            own = elapsed - frame[1]
            for table, key in ((self.spans, name), (self.edges, (parent, name))):
                stat = table.get(key)
                if stat is None:
                    stat = table[key] = [0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own

    def span_calls(self, name):
        return self.spans.get(name, (0, 0, 0))[0]

    def span_total_s(self, name):
        return self.spans.get(name, (0, 0, 0))[1] * 1e-9

    def span_self_s(self, name):
        return self.spans.get(name, (0, 0, 0))[2] * 1e-9

    def total_self_s(self):
        return sum(stat[2] for stat in self.spans.values()) * 1e-9

    def render_tree(self):
        """Call tree as text lines: calls, total and self seconds of each
        span under each parent."""
        children = {}
        for parent, child in self.edges:
            children.setdefault(parent, []).append(child)
        lines = []

        def walk(parent, depth):
            for child in sorted(children.get(parent, ())):
                calls, total, own = self.edges[(parent, child)]
                lines.append(
                    f"{'  ' * depth}{child}: calls={calls} total={total * 1e-9:.4f}s "
                    f"self={own * 1e-9:.4f}s"
                )
                if child != parent:
                    walk(child, depth + 1)

        walk(None, 0)
        return lines


def _resolve(path):
    """Object named by a dotted path such as ``hypoexp.distributions.EME``."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(f"cannot import {path}")


def _span_wrapper(tracer, name, fn, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _cdf_wrapper(tracer, vector_name, fn):
    """``cdf`` of one distribution class; scalar calls (root finding) and
    vector calls (``validate_against``) are separate spans."""

    def wrapper(self, x, *args, **kwargs):
        name = "distributions.cdf_scalar" if _is_scalar(x) else vector_name
        return tracer.call(name, fn, (self, x) + args, kwargs)

    return wrapper


def _is_scalar(x):
    return isinstance(x, (int, float)) or getattr(x, "ndim", None) == 0


def _dd_wrapper(tracer, fn):
    stack = tracer._stack

    def wrapper(*args):
        if stack and stack[-1][0] == DD_SPAN:
            tracer.dd_nested += 1
            return fn(*args)
        return tracer.call(DD_SPAN, fn, args, {})

    return wrapper


class _OptimizeProxy:
    """Stands in for the ``scipy.optimize`` module inside ``hypoexp.fitting``
    and sums the iteration counts of the ``minimize`` results it returns."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer
        self._minimize = module.minimize

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        result = self._minimize(*args, **kwargs)
        self._tracer.count("fitting.nit", int(result.nit))
        return result


def _count_replicates(tracer, args, result):
    tracer.count("gof.replicates", len(result.replicates))


def _count_points(tracer, args, result):
    tracer.count("distributions.eme_logpdf_points", len(args[3]))


def _count_values(tracer, args, result):
    tracer.count("io.read_samples_values", len(result))


def _entry_points():
    """(owner, attribute, entry name, wrapper factory) for every wrapped name;
    the entry name is the key of ``Tracer.absent`` and, except for the cdf
    and DD operator entries, also the span name.

    The owner is the namespace the *caller* looks the name up in, so the
    span covers exactly the calls one module makes into another."""

    def span(name, after=None):
        return lambda tracer, fn: _span_wrapper(tracer, name, fn, after)

    points = [
        ("hypoexp", "gof_test", "gof.test", span("gof.test", _count_replicates)),
        ("hypoexp.gof", "gof_statistic", "gof.statistic", span("gof.statistic")),
        ("hypoexp.cli", "main", "cli.main", span("cli.main")),
        ("hypoexp.cli", "read_samples", "io.read_samples",
         span("io.read_samples", _count_values)),
        ("hypoexp.cli", "fit_eme", "fitting.fit_eme", span("fitting.fit_eme")),
        ("hypoexp.cli", "run_identity_checks", "identities.run_identity_checks",
         span("identities.run_identity_checks")),
        ("hypoexp.fitting", "_eme_logpdf", "distributions.eme_logpdf",
         span("distributions.eme_logpdf", _count_points)),
        ("hypoexp.fitting", "optimize", "fitting.optimize",
         lambda tracer, module: _OptimizeProxy(module, tracer)),
        ("hypoexp", "simulate_absorption", "chains.simulate", span("chains.simulate")),
        ("hypoexp", "validate_against", "chains.validate", span("chains.validate")),
        ("hypoexp.distributions.EME", "cdf", "distributions.eme_cdf",
         lambda tracer, fn: _cdf_wrapper(tracer, "distributions.eme_cdf_vector", fn)),
        ("hypoexp.distributions.Hypoexponential", "cdf", "distributions.hypo_cdf",
         lambda tracer, fn: _cdf_wrapper(tracer, "distributions.hypo_cdf_vector", fn)),
    ]
    for fn_name in IDENTITY_FUNCTIONS:
        name = f"identities.{fn_name}"
        points.append(("hypoexp.identities", fn_name, name, span(name)))
    for op in DD_OPERATORS:
        points.append(("hypoexp._ddouble.DD", op, f"ddouble.{op}",
                       lambda tracer, fn: _dd_wrapper(tracer, fn)))
    return points


@contextlib.contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block, then restore the
    original objects.  Missing entry points are recorded in tracer.absent."""
    restore = []
    try:
        for owner_path, attr, name, factory in _entry_points():
            try:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = factory(tracer, original)
            except (ImportError, AttributeError, KeyError) as exc:
                tracer.absent[name] = f"cannot wrap {owner_path}.{attr}: {exc!r}"
                continue
            setattr(owner, attr, wrapped)
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
