"""Batch command-line front end.

Seven subcommands cover the library surface::

    lapspec spectrum      exact spectrum of a graph file        -> JSON
    lapspec constants     h, hbar, balance, walks, clustering   -> JSON
    lapspec bounds        every applicable eigenvalue bound     -> JSON
    lapspec neighborhood  the graph of l-step walks             -> JSON graph
    lapspec curves        bound tables over a parameter family  -> CSV/JSON
    lapspec walk          random-walk deviation trajectory      -> CSV/JSON
    lapspec cml           synchronization test and simulation   -> JSON (+CSV)

All flags are long-form; outputs go to ``--output`` (atomically) or stdout.
Exit codes: 0 success, 1 domain error (graph violates a precondition),
2 usage error (bad flags, unreadable or malformed input).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import sys
from dataclasses import asdict
from types import ModuleType

import numpy as np

from . import __version__
from .graphs import (
    GraphError,
    clustering_coefficient,
    graph_to_dict,
    is_bipartite,
    read_graph,
)
from .spectral import spectral_radius_rho, spectrum


def _defer(*names: str) -> list[ModuleType]:
    """The lapspec modules ``names``; those not yet loaded run on first attribute access.

    Each subcommand calls through these modules, so a process runs only its
    own subcommand's modules.  Each unloaded one is put in ``sys.modules``
    unexecuted, which keeps every module findable where tools look for it
    (``perfbench``'s tracer wraps functions through ``sys.modules``) for a
    file lookup each.
    """
    for name in names:
        full = f"{__package__}.{name}"
        if full in sys.modules:
            continue
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return [sys.modules[f"{__package__}.{name}"] for name in names]


partitions, neighborhood, bounds, random_walk, cml = _defer(
    "partitions", "neighborhood", "bounds", "random_walk", "cml"
)


def _jsonable(obj):
    """Recursively convert to JSON-encodable data; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    import tempfile

    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lapspec-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as err:  # name the requested path, not the temporary file
        raise OSError(err.errno, err.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from err
    if not values:
        raise ValueError("empty list")
    if min(values) < 1:
        raise ValueError(f"walk lengths must be >= 1, got {text!r}")
    return values


#: Most points a ``curves`` grid may have; each costs milliseconds.
MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    """Either comma-separated values or an inclusive ``start:stop:step`` range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"range ends and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        span = (stop - start) / step
        if span + 1 > MAX_GRID_POINTS:
            raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points, got {text!r}")
        count = int(math.floor(span + 1e-9)) + 1
        if count < 1:
            raise ValueError("empty grid range")
        return [start + k * step for k in range(count)]
    values = [float(p) for p in text.split(",") if p.strip() != ""]
    if not values:
        raise ValueError("empty grid")
    if len(values) > MAX_GRID_POINTS:
        raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    return values


def _parse_map(text: str):
    kind, sep, param = text.partition(":")
    if not sep:
        raise ValueError("map must be kind:param, e.g. logistic:4")
    value = float(param)
    if kind == "logistic":
        return cml.logistic_map(value)
    if kind == "tent":
        return cml.tent_map(value)
    raise ValueError(f"unknown map kind {kind!r}; choose logistic or tent")


def _naming_flags(err: ValueError, **flags: str) -> ValueError:
    """``err`` with the library parameter names in its message replaced by CLI flags."""
    text = str(err)
    for param, flag in flags.items():
        text = re.sub(rf"\b{param}\b", flag, text)
    return ValueError(text)


def _sorted(vertices) -> list[int]:
    return sorted(int(v) for v in vertices)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_spectrum(args) -> str:
    g = read_graph(args.input)
    s = spectrum(g)
    payload = {
        "n": g.n,
        "eigenvalues": s.eigenvalues,
        "eigenfunctions": s.eigenfunctions,
        "residual": s.residual,
        "lambda1": s.lambda_1 if g.n >= 2 else None,
        "lambdaMax": s.lambda_max if g.n >= 2 else None,
        "rho": spectral_radius_rho(s) if g.n >= 2 else None,
    }
    return _dump_json(payload)


def _cmd_constants(args) -> str:
    g = read_graph(args.input)
    partitions.require_exact_constants(g)  # every refusal before any enumeration
    h_res = partitions.cheeger_exact(g)
    hbar_res = partitions.dual_cheeger_exact(g)
    bal = partitions.balance_ratio_exact(g)
    greedy = partitions.greedy_balance_partition(g)

    greedy_dual = None
    if not g.has_loops():
        greedy_dual = partitions.dual_cheeger_greedy_lower(g).value

    xi_payload = None
    if not is_bipartite(g):
        if args.walks is not None:
            with open(args.walks) as fh:
                fam = partitions.walk_family_from_dict(json.load(fh))
        else:
            fam = partitions.default_odd_walk_family(g)
        pb = partitions.xi_product_bound(g, fam)
        xi_payload = {"value": pb.xi, "product": pb.product, "hbar_upper": 1.0 - 1.0 / pb.xi}

    try:
        coefficient = clustering_coefficient(g)
    except GraphError:
        coefficient = None

    cc = bounds.clustering_constants(g)
    payload = {
        "h": {
            "value": h_res.value,
            "method": "exact",
            "witness": _sorted(h_res.witness.side),
        },
        "hbar": {
            "value": hbar_res.value,
            "method": "exact",
            "witness": [_sorted(hbar_res.witness.v1), _sorted(hbar_res.witness.v2)],
        },
        "balance": {"ratio": bal.value, "witness": _sorted(bal.witness.side)},
        "greedy_balance": {
            "m": greedy.m,
            "guarantee": greedy.weighted_guarantee,
            "side": _sorted(greedy.partition.side),
        },
        "greedy_dual_lower": greedy_dual,
        "xi": xi_payload,
        "clustering": {"c0": cc.c0, "w_tri": cc.w_tri, "d_bar": cc.d_bar, "h_big": cc.h_big},
        "clustering_coefficient": coefficient,
    }
    return _dump_json(payload)


def _cmd_bounds(args) -> str:
    g = read_graph(args.input)
    l_list = _parse_int_list(args.l_list)
    s = spectrum(g)
    reports = bounds.all_bound_reports(g, s, l_list)
    payload = {
        "lambda1": s.lambda_1,
        "lambdaMax": s.lambda_max,
        "reports": [r.to_dict() for r in reports],
    }
    return _dump_json(payload)


def _cmd_neighborhood(args) -> str:
    g = read_graph(args.input)
    if args.l < 1:
        raise ValueError("--l must be >= 1")
    return _dump_json(graph_to_dict(neighborhood.neighborhood_graph(g, args.l)))


def _cmd_curves(args) -> str:
    params = _parse_grid(args.grid)
    l_list = _parse_int_list(args.l_list)
    rows = bounds.bound_curves(args.family, params, l_list)
    if args.format == "json":
        payload = {"family": args.family, "rows": [asdict(r) for r in rows]}
        for row in payload["rows"]:
            row["lambdaMax"] = row.pop("lambda_max")
        return _dump_json(payload)
    return bounds.curves_to_csv(rows)


def _cmd_walk(args) -> str:
    g = read_graph(args.input)
    if args.f is not None:
        f = np.array([float(p) for p in args.f.split(",")])
        if f.size != g.n:
            raise ValueError(f"--f needs {g.n} comma-separated values")
        if not np.isfinite(f).all():
            raise ValueError("--f values must be finite")
    else:
        f = np.zeros(g.n)
        f[0] = 1.0
    try:
        rho, reports = random_walk.walk_trajectory(g, f, args.steps, args.l)
    except ValueError as err:
        raise _naming_flags(err, t_max="--steps") from None
    if args.format == "json":
        return _dump_json({"rho": rho, "reports": [asdict(r) for r in reports]})
    return random_walk.walk_reports_to_csv(reports)


def _cmd_cml(args) -> str:
    g = read_graph(args.input)
    map_spec = _parse_map(args.map)
    try:
        report = cml.simulate_sync(
            g,
            map_spec,
            eps=args.eps,
            t_steps=args.steps,
            transient=args.transient,
            tol=args.tol,
            trials=args.trials,
            base_seed=args.seed,
        )
    except ValueError as err:
        raise _naming_flags(
            err,
            t_steps="--steps",
            transient="--transient",
            trials="--trials",
            tol="--tol",
            base_seed="--seed",
        ) from None
    if args.spread_output is not None:
        _write_atomic(args.spread_output, cml.spread_to_csv(report))
    return _dump_json(report.to_dict())


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapspec",
        description="Exact Laplacian spectra, isoperimetric constants, and bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, needs_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, help="graph file (JSON or edge list)")
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        return p

    add("spectrum", "eigenvalues and degree-orthonormal eigenfunctions")

    p = add("constants", "Cheeger, dual Cheeger, balance, walk, clustering constants")
    p.add_argument("--walks", default=None, help="JSON file with one odd closed walk per vertex")

    p = add("bounds", "all applicable eigenvalue bound reports")
    p.add_argument("--l-list", default="2,3", help="comma-separated walk lengths (default 2,3)")

    p = add("neighborhood", "graph whose edges are l-step walks")
    p.add_argument("--l", type=int, required=True, help="walk length")

    p = add("curves", "bound-vs-exact tables over a graph family", needs_input=False)
    p.add_argument("--family", required=True, help="looped_pair | bridged_triangles | complete")
    p.add_argument("--grid", required=True, help="parameter values: v1,v2,... or start:stop:step")
    p.add_argument("--l-list", default="1,2,3")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("walk", "deviation of P^t f from equilibrium with decay bounds")
    p.add_argument("--steps", type=int, default=50, help="largest t (default 50)")
    p.add_argument("--l", type=int, default=None, help="even l for the isoperimetric rate")
    p.add_argument("--f", default=None, help="comma-separated start function (default: delta at 0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("cml", "coupled-map synchronization criterion and simulation")
    p.add_argument("--map", default="logistic:4", help="map kind:param (default logistic:4)")
    p.add_argument("--eps", type=float, required=True, help="coupling strength")
    p.add_argument("--steps", type=int, default=5000, help="simulation length")
    p.add_argument("--transient", type=int, default=100, help="steps to settle onto the orbit")
    p.add_argument("--tol", type=float, default=1e-6, help="synchrony tolerance for the spread")
    p.add_argument("--trials", type=int, default=5, help="number of perturbed trials")
    p.add_argument("--seed", type=int, default=42, help="base seed; trial k uses seed+k")
    p.add_argument("--spread-output", default=None, help="also write the worst spread trajectory CSV")

    return parser


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "constants": _cmd_constants,
    "bounds": _cmd_bounds,
    "neighborhood": _cmd_neighborhood,
    "curves": _cmd_curves,
    "walk": _cmd_walk,
    "cml": _cmd_cml,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _write_atomic(args.output, _COMMANDS[args.command](args))
    except GraphError as err:
        print(f"error[{err.kind.value}]: {err.message}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
