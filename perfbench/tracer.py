"""Spans around lapspec's public functions, recorded from outside the package.

``Tracer.installed()`` replaces every binding of each traced function in
every loaded ``lapspec`` module (``cli``, ``bounds`` and ``neighborhood``
import names directly, so patching the defining module alone would miss
those calls) with a wrapper that records a span, and puts the originals
back on exit.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

#: Module -> functions wrapped in the traced pass.
TRACED = {
    "cli": ("main",),
    "graphs": ("read_graph",),
    "spectral": ("spectrum",),
    "partitions": ("cheeger_exact", "dual_cheeger_exact", "balance_ratio_exact",
                   "default_odd_walk_family"),
    "neighborhood": ("neighborhood_graph",),
    "bounds": ("all_bound_reports", "bound_curves", "clustering_constants", "hop_diameter"),
    "random_walk": ("walk_trajectory",),
    "cml": ("simulate_sync", "step_cml", "lyapunov_exponent"),
}

#: Functions whose argument sets are keyed to count distinct calls.
KEYED = ("spectral.spectrum", "partitions.cheeger_exact", "partitions.dual_cheeger_exact",
         "neighborhood.neighborhood_graph")

SIZE_CAP_KIND = "SizeCapExceeded"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    invocation: int  # spans of one CLI invocation share this id
    n: int | None  # vertex count of the first argument, when it is a graph
    key: tuple | None = None  # canonical argument set, for KEYED functions
    error: str | None = None  # GraphError kind or exception type, if it raised


def _arg_key(value):
    if hasattr(value, "weights") and hasattr(value, "n"):  # a WeightedGraph
        return ("graph", value.n, np.asarray(value.weights).tobytes())
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.tobytes())
    return repr(value)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.invocation = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple((k, _arg_key(v)) for k, v in bound.arguments.items())
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                        self.invocation, getattr(args[0], "n", None) if args else None, key)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                kind = getattr(getattr(err, "kind", None), "value", None)
                span.error = kind or type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        modules = [m for _, m in _lapspec_modules()]
        patched = []
        try:
            for mod_name, names in TRACED.items():
                home = sys.modules[f"lapspec.{mod_name}"]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{mod_name}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                patched.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _lapspec_modules():
    return [(k, m) for k, m in list(sys.modules.items())
            if m is not None and (k == "lapspec" or k.startswith("lapspec."))]


def bindings() -> dict[tuple[str, str], object]:
    """Every binding of a traced name in the loaded lapspec modules."""
    names = {f for fs in TRACED.values() for f in fs}
    return {(key, attr): value for key, mod in _lapspec_modules()
            for attr, value in vars(mod).items() if attr in names}


# ---------------------------------------------------------------------------
# per-layer figures


def _tripartitions(n: int) -> int:
    """Unordered (V1, V2, V3) with V1, V2 nonempty: (3^n - 2^(n+1) + 1) / 2."""
    return (3**n - 2 ** (n + 1) + 1) // 2


def _bipartitions(n: int) -> int:
    return 2 ** (n - 1) - 1


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass (counts exact, times in seconds)."""
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum((dur[i] for i in by_name.get(name, [])), 0.0)

    def self_s(name):
        return sum((dur[i] - child[i] for i in by_name.get(name, [])), 0.0)

    def calls(name):
        return len(by_name.get(name, []))

    def capped(name):
        return sum(spans[i].error == SIZE_CAP_KIND for i in by_name.get(name, []))

    def distinct(name):
        keys = {(spans[i].invocation, spans[i].key) for i in by_name.get(name, [])}
        return len(keys)

    def completed(name):
        return [i for i in by_name.get(name, []) if spans[i].error is None]

    traced_s = total("cli.main")
    m = {
        "cli.main.self_s": self_s("cli.main"),
        "graphs.read_graph.s": total("graphs.read_graph"),
    }
    for name in KEYED:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.distinct"] = distinct(name)
        m[f"{name}.s"] = total(name)
    for name, count, unit in (("partitions.dual_cheeger_exact", _tripartitions, "tripartition"),
                              ("partitions.cheeger_exact", _bipartitions, "bipartition")):
        m[f"{name}.capped"] = capped(name)
        m[f"{name}.useful_ratio"] = m[f"{name}.distinct"] / m[f"{name}.calls"] if calls(name) else 0.0
        m[f"{name}.share"] = total(name) / traced_s if traced_s else 0.0
        done = completed(name)
        codes = sum(count(spans[i].n) for i in done)
        m[f"partitions.{unit}s"] = codes
        m[f"partitions.{unit}_ns"] = sum(dur[i] for i in done) / codes * 1e9 if codes else 0.0
    m.update({
        "partitions.balance_ratio_exact.s": total("partitions.balance_ratio_exact"),
        "partitions.default_odd_walk_family.s": total("partitions.default_odd_walk_family"),
        "bounds.all_bound_reports.self_s": self_s("bounds.all_bound_reports"),
        "bounds.bound_curves.self_s": self_s("bounds.bound_curves"),
        "bounds.clustering_constants.s": total("bounds.clustering_constants"),
        "bounds.hop_diameter.s": total("bounds.hop_diameter"),
        "random_walk.walk_trajectory.self_s": self_s("random_walk.walk_trajectory"),
        "cml.simulate_sync.self_s": self_s("cml.simulate_sync"),
        "cml.step_cml.calls": calls("cml.step_cml"),
        "cml.step_cml.s": total("cml.step_cml"),
        "cml.lyapunov_exponent.s": total("cml.lyapunov_exponent"),
    })
    return m


def invocation_counts(spans: list[Span]) -> dict[int, dict[str, list[int]]]:
    """``{invocation: {function: [calls, distinct]}}`` for the keyed functions."""
    out: dict[int, dict[str, list[int]]] = {}
    seen: dict[tuple[int, str], set] = {}
    for s in spans:
        if s.name not in KEYED:
            continue
        entry = out.setdefault(s.invocation, {}).setdefault(s.name, [0, 0])
        keys = seen.setdefault((s.invocation, s.name), set())
        entry[0] += 1
        if s.key not in keys:
            keys.add(s.key)
            entry[1] += 1
    return out
