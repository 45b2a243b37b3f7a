"""Correctness gate: every CLI output is checked before it counts as done.

Two kinds of check, both returning a list of problems (empty = correct):

* ``compare`` matches a parsed output against the stored reference from
  the seed commit: keys, ints, booleans, strings, witnesses and ``None``
  exactly, floats within ``FLOAT_TOL`` (absolute below 1, relative above).
  Eigenfunctions are compared through the projector onto each eigenspace,
  so an equally valid basis of a repeated eigenvalue still matches.
* ``check_invariants`` recomputes what can be recomputed cheaply and
  independently of the program (spectra with ``numpy.linalg.eigvalsh``,
  witness values, walk deviations) and, for ``bounds``, rebuilds every
  report and requires ``holds_for`` on the graph's spectrum.  It runs for
  every seed; the reference applies to ``DEFAULT_SEED`` and to outputs that
  do not depend on the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

FLOAT_TOL = 1e-9
#: Tolerance of checks against recomputed (not stored) values.
RECOMPUTE_TOL = 1e-8


_NON_FINITE = {"Infinity": math.inf, "-Infinity": -math.inf, "NaN": math.nan}


def _num(x):
    """JSON value, with the CLI's spellings of non-finite floats turned back into floats."""
    return _NON_FINITE.get(x, x) if isinstance(x, str) else x


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def compare(ref, out, path: str = "$") -> list[str]:
    """Problems found matching ``out`` against the reference ``ref``."""
    if isinstance(ref, dict) and "eigenfunctions" in ref and isinstance(out, dict):
        rest = {k: v for k, v in ref.items() if k != "eigenfunctions"}
        out_rest = {k: v for k, v in out.items() if k != "eigenfunctions"}
        problems = compare(rest, out_rest, path)
        if not problems:
            problems += _compare_eigenspaces(ref, out, path)
        return problems
    if type(ref) is not type(out):
        return [f"{path}: type {type(out).__name__} != reference {type(ref).__name__}"]
    if isinstance(ref, dict):
        if ref.keys() != out.keys():
            return [f"{path}: keys {sorted(out)} != reference {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], out[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if len(ref) != len(out):
            return [f"{path}: length {len(out)} != reference {len(ref)}"]
        return [p for i, (r, o) in enumerate(zip(ref, out)) for p in compare(r, o, f"{path}[{i}]")]
    if isinstance(ref, float):
        return [] if _close(out, ref, FLOAT_TOL) else [f"{path}: {out!r} != reference {ref!r}"]
    return [] if out == ref else [f"{path}: {out!r} != reference {ref!r}"]


def _eigenspace_projectors(vals, funcs) -> list[np.ndarray]:
    vals = np.asarray(vals, dtype=float)
    funcs = np.asarray(funcs, dtype=float)
    groups, start = [], 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > 1e-8:
            block = funcs[start:k]
            groups.append(block.T @ block)
            start = k
    return groups


def _compare_eigenspaces(ref, out, path) -> list[str]:
    try:
        mine = _eigenspace_projectors(out["eigenvalues"], out["eigenfunctions"])
    except (TypeError, ValueError):
        return [f"{path}.eigenfunctions: not a matrix"]
    theirs = _eigenspace_projectors(ref["eigenvalues"], ref["eigenfunctions"])
    if len(mine) != len(theirs) or any(a.shape != b.shape for a, b in zip(mine, theirs)):
        return [f"{path}.eigenfunctions: eigenspace structure differs from reference"]
    worst = max(float(np.abs(a - b).max()) for a, b in zip(mine, theirs))
    return [] if worst <= FLOAT_TOL else [f"{path}.eigenfunctions: projectors differ by {worst:.3g}"]


# ---------------------------------------------------------------------------
# invariants recomputed from the input graph


def laplacian_spectrum(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``I - D^-1 W``, via its symmetric form."""
    s = 1.0 / np.sqrt(w.sum(axis=1))
    return np.linalg.eigvalsh(np.eye(len(w)) - s[:, None] * w * s[None, :])


def _is_bipartite(w: np.ndarray) -> bool:
    # a connected graph is bipartite iff -1 is an eigenvalue of D^-1 W
    return bool(abs(laplacian_spectrum(w)[-1] - 2.0) < 1e-9)


def _close_list(label: str, got, want, tol: float = RECOMPUTE_TOL) -> list[str]:
    got = np.asarray([_num(x) for x in got], dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~np.isclose(got, want, rtol=tol, atol=tol)
    return [f"{label}: {got[bad][:3]} != recomputed {want[bad][:3]}"] if bad.any() else []


def _check_spectrum(inv, out, w) -> list[str]:
    vals = laplacian_spectrum(w)
    d = w.sum(axis=1)
    funcs = np.asarray(out["eigenfunctions"], dtype=float)
    lam = np.asarray(out["eigenvalues"], dtype=float)
    problems = _close_list("eigenvalues", lam, vals)
    problems += _close_list("gram", (funcs * d) @ funcs.T, np.eye(len(w)))
    defect = funcs - funcs @ (w / d[:, None]).T - lam[:, None] * funcs
    problems += _close_list("eigen-equation", defect.ravel(), np.zeros(defect.size))
    rho = max(abs(1.0 - vals[1]), abs(1.0 - vals[-1]))
    problems += _close_list("lambda1/lambdaMax/rho",
                            [out["lambda1"], out["lambdaMax"], out["rho"]],
                            [vals[1], vals[-1], rho])
    return problems


def _check_constants(inv, out, w) -> list[str]:
    d = w.sum(axis=1)
    vol = d.sum()
    vals = laplacian_spectrum(w)
    lam1, lam_max = vals[1], vals[-1]
    problems = []

    side = np.zeros(len(w), dtype=bool)
    side[out["h"]["witness"]] = True
    cut = w[side][:, ~side].sum()
    h = out["h"]["value"]
    problems += _close_list("h vs witness", [h], [min(cut / min(d[side].sum(), d[~side].sum()), 1.0)])
    if not (1.0 - math.sqrt(1.0 - h * h) <= lam1 + FLOAT_TOL and lam1 <= 2.0 * h + FLOAT_TOL):
        problems.append(f"Cheeger inequality fails: h={h}, lambda1={lam1}")

    v1, v2 = out["hbar"]["witness"]
    if not v1 or not v2 or set(v1) & set(v2):
        problems.append(f"hbar witness is not a tripartition: {v1}, {v2}")
    else:
        hbar = out["hbar"]["value"]
        value = 2.0 * w[np.ix_(v1, v2)].sum() / (d[v1].sum() + d[v2].sum())
        problems += _close_list("hbar vs witness", [hbar], [min(value, 1.0)])
        if not (2.0 * hbar <= lam_max + FLOAT_TOL
                and lam_max <= 1.0 + math.sqrt(1.0 - (1.0 - hbar) ** 2) + FLOAT_TOL):
            problems.append(f"dual Cheeger inequality fails: hbar={hbar}, lambdaMax={lam_max}")
        bipartite = _is_bipartite(w)
        if bipartite != (out["xi"] is None) or (bipartite and hbar != 1.0):
            problems.append("bipartiteness disagrees with hbar / xi")

    bal = np.zeros(len(w), dtype=bool)
    bal[out["balance"]["witness"]] = True
    a, b = d[bal].sum(), vol - d[bal].sum()
    problems += _close_list("balance vs witness", [out["balance"]["ratio"]], [min(a, b) / max(a, b)])
    return problems


def _check_bounds(inv, out, w) -> list[str]:
    from lapspec.bounds import BoundReport
    from lapspec.spectral import Spectrum

    vals = laplacian_spectrum(w)
    s = Spectrum(eigenvalues=vals, eigenfunctions=None, residual=0.0)
    problems = _close_list("lambda1/lambdaMax", [out["lambda1"], out["lambdaMax"]], [vals[1], vals[-1]])
    for rep in out["reports"]:
        report = BoundReport(
            name=rep["name"],
            target=rep["target"],
            lower=None if rep["lower"] is None else _num(rep["lower"]),
            upper=None if rep["upper"] is None else _num(rep["upper"]),
            conditions=tuple((label, ok) for label, ok in rep["conditions"]),
            inputs=rep["inputs"],
        )
        if report.applicable != rep["applicable"]:
            problems.append(f"report {rep['name']}: 'applicable' disagrees with its conditions")
        elif not report.holds_for(s):
            problems.append(f"report {rep['name']} does not hold: {rep['lower']}..{rep['upper']}")
    return problems


def _flag(inv, name: str, default=None):
    args = list(inv.args)
    return args[args.index(name) + 1] if name in args else default


def _check_neighborhood(inv, out, w) -> list[str]:
    l = int(_flag(inv, "--l"))
    wl = np.zeros_like(w)
    for i, j, x in out["edges"]:
        wl[i, j] = wl[j, i] = x
    problems = _close_list("degrees", wl.sum(axis=1), w.sum(axis=1))
    if not problems:
        mapped = np.sort(1.0 - (1.0 - laplacian_spectrum(w)) ** l)
        problems += _close_list("mapped spectrum", laplacian_spectrum(wl), mapped)
    return problems


def _check_walk(inv, out, w) -> list[str]:
    steps = int(_flag(inv, "--steps", 50))
    d = w.sum(axis=1)
    vals = laplacian_spectrum(w)
    rho = max(abs(1.0 - vals[1]), abs(1.0 - vals[-1]))
    f = np.zeros(len(w))
    f[0] = 1.0
    mean = (d @ f) / d.sum()
    norm_f = math.sqrt(d @ f**2)
    reports = out["reports"]  # the workloads leave --f at its default, a delta at vertex 0
    problems = _close_list("rho", [out["rho"]], [rho])
    if [r["t"] for r in reports] != list(range(steps + 1)):
        return problems + ["walk: t does not run over 0..steps"]
    cur, devs = f, []
    for _ in reports:
        devs.append(math.sqrt(d @ (cur - mean) ** 2))
        cur = (w @ cur) / d
    problems += _close_list("deviation", [r["deviation"] for r in reports], devs)
    problems += _close_list("bound_rho", [r["bound_rho"] for r in reports],
                            [rho**t * norm_f for t in range(steps + 1)])
    expect_hl = _flag(inv, "--l") is not None and not _is_bipartite(w)
    for r in reports:
        if r["deviation"] > r["bound_rho"] + FLOAT_TOL:
            problems.append(f"walk t={r['t']}: deviation above the rho bound")
        if (r["bound_hl"] is not None) != expect_hl:
            problems.append(f"walk t={r['t']}: bound_hl presence is wrong")
        elif expect_hl and r["deviation"] > r["bound_hl"] + FLOAT_TOL:
            problems.append(f"walk t={r['t']}: deviation above the isoperimetric bound")
    return problems


def _check_cml(inv, out, w) -> list[str]:
    eps = float(_flag(inv, "--eps"))
    tol = float(_flag(inv, "--tol", 1e-6))
    vals = laplacian_spectrum(w)
    mu = out["mu"]  # the workloads use the default map, logistic:4, whose exponent is ln 2
    problems = [] if abs(mu - math.log(2.0)) < 1e-2 else [f"mu {mu} far from ln 2"]
    iv = out["interval"]
    problems += _close_list(
        "interval",
        [iv["lo"], iv["hi"], iv["ratio"], iv["ratio_threshold"], out["stability_factor"]],
        [-math.expm1(-mu) / vals[1], (1.0 + math.exp(-mu)) / vals[-1], vals[-1] / vals[1],
         (math.exp(mu) + 1.0) / math.expm1(mu),
         float(np.abs(1.0 - eps * vals[1:]).max() * math.exp(mu))],
    )
    spreads = [_num(x) for x in out["final_spreads"]]
    diverged = any(math.isinf(x) for x in spreads)
    checks = {
        "nonempty": iv["nonempty"] == (iv["lo"] < iv["hi"]),
        "guaranteed": out["guaranteed"] == (iv["lo"] < eps < iv["hi"] and out["stability_factor"] < 1.0),
        "diverged": out["diverged"] == diverged,
        "synchronized": out["synchronized"] == (not diverged and max(spreads) < tol),
        "eps": out["eps"] == eps,
    }
    return problems + [f"cml: field {k!r} is inconsistent" for k, ok in checks.items() if not ok]


def _check_curves(inv, out, w) -> list[str]:
    problems = []
    for r in out["rows"]:
        lam1, lam_max = r["lambda1"], r["lambdaMax"]
        if lam1 is None or r["lower"] is None:
            continue
        if r["lower"] > lam1 + FLOAT_TOL:
            problems.append(f"curves {r['param']}/l={r['l']}: lower bound above lambda1")
        if r["upper_from_h_applicable"] and lam1 > r["upper_from_h"] + FLOAT_TOL:
            problems.append(f"curves {r['param']}/l={r['l']}: upper_from_h below lambda1")
        if r["upper_from_hbar"] is not None and lam_max > r["upper_from_hbar"] + FLOAT_TOL:
            problems.append(f"curves {r['param']}/l={r['l']}: upper_from_hbar below lambdaMax")
    return problems


_CHECKS = {
    "spectrum": _check_spectrum,
    "constants": _check_constants,
    "bounds": _check_bounds,
    "neighborhood": _check_neighborhood,
    "walk": _check_walk,
    "cml": _check_cml,
    "curves": _check_curves,
}


def check_invariants(inv, out, w: np.ndarray | None) -> list[str]:
    try:
        return _CHECKS[inv.command](inv, out, w)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return [f"malformed {inv.command} output: {type(err).__name__}: {err}"]


def check_output(inv, text: str, w: np.ndarray | None, reference: dict | None) -> list[str]:
    """All problems with one invocation's stdout; ``reference`` may be None."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as err:
        return [f"stdout is not JSON: {err}"]
    problems = check_invariants(inv, out, w)
    if reference is not None:
        problems += compare(reference, out)
    return problems
