"""Span and count tracing of chargeflow's layers, installed from outside.

The tracer replaces functions of the ``chargeflow`` modules with
wrappers for the length of a traced run and restores them afterwards.
Nothing under ``src/`` knows about it.  A function is replaced in every
module namespace that binds it (``rhs_flat`` lives in ``dynamics`` and
``conserved``, ``integrate`` in ``dynamics`` and ``cli``, ...), so calls
through any of those names are seen.

Spans are kept in memory as ``[name, start, end, parent, op]`` records and
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.  The two hottest callables,
``Polynomial.__call__`` and ``GaussianRational.__init__``, are only
counted: a span on each would multiply the cost of a trap run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs that get a span.  Names missing from the
# program are skipped, so the benchmark still runs after a refactor; their
# metrics then read 0.
SPANNED = [
    ("cli", "run"),
    ("cli", "main"),
    ("cli", "trajectory_csv"),
    ("cli", "plot_svg"),
    ("cli", "conserved_report"),
    ("dynamics", "integrate"),
    ("dynamics", "rhs_flat"),
    ("dynamics", "_min_separation"),
    ("dynamics", "_sample_monitors"),
    ("dynamics", "state_residual"),
    ("conserved", "integrals"),
    ("conserved", "detect_period"),
    ("conserved", "multiset_distance"),
    ("operators", "polylinear_H"),
    ("operators", "bilinear_H"),
    ("operators", "equilibrium_gradient"),
    ("polynomials", "wronskian"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "find_roots"),
    ("polynomials", "reduce_pair"),
    ("equilibria", "hermite_pair"),
    ("equilibria", "laguerre_pair"),
    ("equilibria", "monomial_pair"),
    ("equilibria", "adler_moser"),
    ("equilibria", "cylinder_pair"),
    ("equilibria", "certify"),
    ("_trig", "trig_wronskian"),
    ("_trig", "laplace_residual"),
]

# (module, class, method, counter name): counted, not spanned.
COUNTED = [
    ("polynomials", "Polynomial", "__call__", "polynomials.Polynomial.__call__.calls"),
    ("scalars", "GaussianRational", "__init__", "scalars.GaussianRational.created"),
]


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.failures = Counter()
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, failures = self.spans, self._stack, self.failures
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failures[name] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one benchmark op; program spans nest under it."""
        rec = ["op", time.perf_counter(), None, None, op_id]
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    # -- installation --------------------------------------------------

    def __enter__(self):
        modules = _chargeflow_modules()
        for mod_name, attr in SPANNED:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                continue
            wrapper = self._spanned(f"{mod_name.lstrip('_')}.{attr}", original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, counter in COUNTED:
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            original = vars(cls)[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._counted(counter, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)
        return False

    # -- reduction -----------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child_time[rec[3]] += rec[2] - rec[1]
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec, inner in zip(self.spans, child_time):
            row = out[rec[0]]
            row["calls"] += 1
            row["s"] += rec[2] - rec[1]
            row["self_s"] += rec[2] - rec[1] - inner
        return out

    def direct_children(self, parent_name, child_name):
        """Number of ``child_name`` spans whose parent is a ``parent_name``."""
        spans = self.spans
        return sum(
            1
            for rec in spans
            if rec[0] == child_name
            and rec[3] is not None
            and spans[rec[3]][0] == parent_name
        )

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "failures": dict(self.failures),
                },
                fh,
            )


def _chargeflow_modules():
    """The package (key "chargeflow") and its submodules by short name."""
    import chargeflow
    from chargeflow import cli  # noqa: F401  (not loaded by the package)

    mods = {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("chargeflow.") and mod is not None
    }
    mods["chargeflow"] = chargeflow
    return mods


def per_layer(tracer, names, n_ops, pool_utilization, overhead):
    """Per-layer metric values (per traced op) with the sample count behind
    each, as {name: (value, samples)}.

    ``<span>.s`` is a span's inclusive time, ``<span>.self_s`` its self
    time; the other names are derived below.
    """
    s = tracer.summary()

    def row(name):
        return s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    integrate = row("dynamics.integrate")
    rhs = row("dynamics.rhs_flat")
    # integrate calls rhs_flat once up front and six times per attempted
    # step; monitor calls of rhs_flat sit under a monitor span instead
    direct = tracer.direct_children("dynamics.integrate", "dynamics.rhs_flat")
    monitors = row("dynamics._sample_monitors")
    artifacts = [row(f"cli.{n}") for n in ("trajectory_csv", "plot_svg", "conserved_report")]
    derived = {
        "cli.artifacts_s": (sum(r["s"] for r in artifacts) / n_ops, sum(r["calls"] for r in artifacts)),
        "cli.pool_utilization": pool_utilization,
        "dynamics.rhs_flat.us_per_call": (1e6 * rhs["s"] / rhs["calls"] if rhs["calls"] else 0.0, rhs["calls"]),
        "dynamics.steps_attempted": ((direct - integrate["calls"]) / 6 / n_ops, direct),
        "dynamics.monitor_share": (monitors["s"] / integrate["s"] if integrate["s"] else 0.0, monitors["calls"]),
        "equilibria.certify.failures": (
            tracer.failures["equilibria.certify"] / n_ops, row("equilibria.certify")["calls"]
        ),
        "trace.overhead": overhead,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
        elif name in {c[3] for c in COUNTED}:
            values[name] = (tracer.counts[name] / n_ops, tracer.counts[name])
        else:
            span, _, kind = name.rpartition(".")
            r = row(span)
            values[name] = (r[kind] / n_ops, r["calls"])
    return values
