"""End-to-end acceptance checks.

Each test covers one contract-level guarantee, prints a single PASS/FAIL
line (visible under ``pytest -s`` / in captured output), and enforces the
runtime budget where one applies.  Tolerances are part of the contract and
are asserted exactly as stated, not loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import named_fixtures, random_connected_graph
from lapspec.bounds import all_bound_reports, bound_curves
from lapspec.cml import (
    logistic_map,
    lyapunov_exponent,
    simulate_sync,
    sync_interval,
    transverse_stability_factor,
)
from lapspec.graphs import (
    bridged_triangles,
    complete_graph,
    cycle_graph,
    is_bipartite,
    looped_pair,
)
from lapspec.neighborhood import neighborhood_graph
from lapspec.partitions import (
    balance_ratio_exact,
    cheeger_exact,
    default_odd_walk_family,
    dual_cheeger_exact,
    greedy_balance_partition,
    xi_product_bound,
)
from lapspec.random_walk import walk_trajectory
from lapspec.spectral import spectral_radius_rho, spectrum

from oracles import (
    balance,
    identity_residual,
    oracle_cheeger,
    oracle_dual_cheeger,
    spectral_map_mismatch,
)


def _report(label: str, problems: list, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed > budget:
        problems.append(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    status = "PASS" if not problems else "FAIL"
    print(f"{status}: {label} [{elapsed:.2f}s]")
    assert not problems, problems[:10]


def test_complete_graph_closed_forms():
    started = time.perf_counter()
    problems = []
    for n in range(3, 9):
        g = complete_graph(n)
        s = spectrum(g)
        want = n / (n - 1)
        if abs(s.lambda_1 - want) > 1e-9 or abs(s.lambda_max - want) > 1e-9:
            problems.append(f"K_{n}: eigenvalues off the n/(n-1) plateau")
        h_want = Fraction(n, 2 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 2 * (n - 1))
        hbar_want = Fraction(n, 2 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 2 * n)
        if abs(cheeger_exact(g).value - float(h_want)) > 1e-12:
            problems.append(f"K_{n}: h mismatch")
        if abs(dual_cheeger_exact(g).value - float(hbar_want)) > 1e-12:
            problems.append(f"K_{n}: hbar mismatch")
    _report("complete-graph closed forms (eigenvalue plateau, h, hbar)", problems, started, 1.0)


def test_looped_pair_walk_matrices():
    started = time.perf_counter()
    problems = []
    for c in (0.5, 1.0, 2.0):
        g = looped_pair(c)
        forms = {
            2: ((c**2 + 1) / (1 + c), 2 * c / (1 + c)),
            3: ((c**3 + 3 * c) / (1 + c) ** 2, (3 * c**2 + 1) / (1 + c) ** 2),
            4: (
                ((c**2 + 1) ** 2 + 4 * c**2) / (1 + c) ** 3,
                (4 * c**3 + 4 * c) / (1 + c) ** 3,
            ),
            5: (
                c * (5 + 10 * c**2 + c**4) / (1 + c) ** 4,
                (1 + 10 * c**2 + 5 * c**4) / (1 + c) ** 4,
            ),
        }
        for l, (diag, off) in forms.items():
            want = np.array([[diag, off], [off, diag]])
            got = neighborhood_graph(g, l).weights
            if np.abs(got - want).max() > 1e-12:
                problems.append(f"c={c}, l={l}: walk matrix mismatch")
        if abs(cheeger_exact(g).value - 1 / (1 + c)) > 1e-12:
            problems.append(f"c={c}: h[1] mismatch")
        h_2 = cheeger_exact(neighborhood_graph(g, 2)).value
        if abs(h_2 - 2 * c / (1 + c) ** 2) > 1e-12:
            problems.append(f"c={c}: h[2] mismatch")
    _report("looped-pair walk matrices W[2..5] and h[1], h[2]", problems, started, 1.0)


def test_bridged_triangles_walk_matrix():
    started = time.perf_counter()
    problems = []
    for c in (0.5, 1.0):
        a = 1 + 2 * c
        want = np.array(
            [
                [c / 2 + c**2 / a, c**2 / a, c / 2, c / a, 0, 0],
                [c**2 / a, c / 2 + c**2 / a, c / 2, c / a, 0, 0],
                [c / 2, c / 2, 1 / a + c, 0, c / a, c / a],
                [c / a, c / a, 0, 1 / a + c, c / 2, c / 2],
                [0, 0, c / a, c / 2, c / 2 + c**2 / a, c**2 / a],
                [0, 0, c / a, c / 2, c**2 / a, c / 2 + c**2 / a],
            ]
        )
        got = neighborhood_graph(bridged_triangles(c), 2).weights
        if np.abs(got - want).max() > 1e-12:
            problems.append(f"c={c}: W[2] mismatch, max err {np.abs(got - want).max():.2e}")
    _report("bridged-triangles two-step walk matrix W[2]", problems, started, 1.0)


def test_trace_identity_random():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(11_000)
    for k in range(200):
        g = random_connected_graph(rng, n_max=10, weighted=True, allow_loops=(k % 2 == 0))
        s = spectrum(g)
        want = g.n - float((np.diag(g.weights) / g.degrees).sum())
        got = float(s.eigenvalues.sum())
        if abs(got - want) > 1e-8:
            problems.append(f"graph {k}: trace residual {abs(got - want):.2e}")
    _report("trace identity on 200 random graphs (n <= 10)", problems, started, 10.0)


def test_spectral_transform_fixtures():
    started = time.perf_counter()
    problems = []
    for name, g in named_fixtures().items():
        for l in (2, 3, 4, 5):
            mismatch = spectral_map_mismatch(g, l)
            if mismatch > 1e-8:
                problems.append(f"{name}, l={l}: mismatch {mismatch:.2e}")
    _report("spectral transform lambda -> 1-(1-lambda)^l on all fixtures", problems, started, 5.0)


def test_bound_reports_consistency():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(12_000)
    graphs = [(f"random{k}", random_connected_graph(rng, n_max=8, weighted=True, allow_loops=(k % 3 == 0))) for k in range(100)]
    graphs += list(named_fixtures().items())
    for name, g in graphs:
        s = spectrum(g)
        for rep in all_bound_reports(g, s, l_list=(2, 3, 4, 5)):
            if not rep.holds_for(s, tol=1e-9):
                problems.append(f"{name}: {rep.name} violated")
        if not is_bipartite(g) and g.n <= 8:
            xi = xi_product_bound(g, default_odd_walk_family(g)).xi
            if dual_cheeger_exact(g).value > 1.0 - 1.0 / xi + 1e-9:
                problems.append(f"{name}: congestion bound on hbar violated")
    _report("all bound reports bracket their spectral targets", problems, started, 60.0)


def test_identity_residuals_fixtures():
    started = time.perf_counter()
    problems = []
    for name, g in named_fixtures().items():
        res = identity_residual(g)
        if res > 1e-8:
            problems.append(f"{name}: residual {res:.2e}")
    _report("eigenvalue identity residuals below 1e-8 on all fixtures", problems, started)


def test_transferred_bound_orderings():
    started = time.perf_counter()
    problems = []

    def lower_of(rows, param, l):
        return next(r.lower for r in rows if r.param == param and r.l == l)

    rows = bound_curves("looped_pair", [1.0, 3.0], [1, 2, 3, 4, 5])
    base = lower_of(rows, 1.0, 1)
    if not all(base > lower_of(rows, 1.0, l) for l in (2, 3, 4, 5)):
        problems.append("looped pair: one-step lower bound should dominate at c=1")
    base3 = lower_of(rows, 3.0, 1)
    if not any(lower_of(rows, 3.0, l) > base3 for l in (2, 3, 4, 5)):
        problems.append("looped pair: no multi-step improvement at c=3")

    rows_b = bound_curves("bridged_triangles", [0.5, 1.0], [1, 3])
    if not lower_of(rows_b, 1.0, 3) > lower_of(rows_b, 1.0, 1):
        problems.append("bridged triangles: three-step lower bound should win at c=1")
    row_up = next(r for r in rows_b if r.param == 0.5 and r.l == 3)
    two_h = 2.0 * cheeger_exact(bridged_triangles(0.5)).value
    if not (row_up.upper_from_h_applicable and row_up.upper_from_h < two_h):
        problems.append("bridged triangles: three-step upper bound should beat 2h at c=0.5")
    _report("transferred bounds beat direct ones at the sample points", problems, started)


def test_walk_convergence_and_limits():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(13_000)
    for gname, g in (("K_5", complete_graph(5)), ("bridged(1)", bridged_triangles(1.0))):
        for k in range(20):
            f = rng.normal(size=g.n)
            for rep in walk_trajectory(g, f, 50)[1]:
                if rep.deviation > rep.bound_rho + 1e-9 * max(1.0, rep.bound_rho):
                    problems.append(f"{gname}, f#{k}, t={rep.t}: decay bound violated")

    # Γ[l] tends to d_i d_j / vol, within rho^l vol entrywise
    l = 200
    for c in (0.5, 1.0, 2.0):
        vol = 12 * c + 2
        a1, a2, a3 = 4 * c**2 / vol, (4 * c**2 + 2 * c) / vol, (4 * c**2 + 4 * c + 1) / vol
        pattern = np.array(
            [
                [a1, a1, a2, a2, a1, a1],
                [a1, a1, a2, a2, a1, a1],
                [a2, a2, a3, a3, a2, a2],
                [a2, a2, a3, a3, a2, a2],
                [a1, a1, a2, a2, a1, a1],
                [a1, a1, a2, a2, a1, a1],
            ]
        )
        for gname, g, want in (
            ("looped pair", looped_pair(c), np.full((2, 2), (1 + c) / 2)),
            ("bridged", bridged_triangles(c), pattern),
        ):
            bound = spectral_radius_rho(spectrum(g)) ** l * g.volume + 1e-12
            if np.abs(neighborhood_graph(g, l).weights - want).max() > bound:
                problems.append(f"{gname} c={c}: Γ[{l}] is not within rho^l vol of its limit")

    # the even limit of a bipartite graph is 2 d_i d_j / vol within each class;
    # C_4's eigenvalues inside (0, 2) are both 1, so Γ[l] reaches it exactly
    g4 = cycle_graph(4)
    want = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            if (i - j) % 2 == 0:
                want[i, j] = 2.0 * g4.degrees[i] * g4.degrees[j] / g4.volume
    if np.abs(neighborhood_graph(g4, l).weights - want).max() > 1e-12:
        problems.append("C_4: even-step limit mismatch")
    _report("walk decay bound, neighborhood graphs near their limits", problems, started)


def test_synchronization_criterion():
    started = time.perf_counter()
    problems = []
    mu = lyapunov_exponent(logistic_map(4.0), 0.2357111317, 100_000, 1_000)
    if abs(mu - math.log(2.0)) > 0.02:
        problems.append(f"Lyapunov exponent {mu:.4f} not within 0.02 of ln 2")

    g = complete_graph(5)
    s = spectrum(g)
    iv = sync_interval(mu, s.lambda_1, s.lambda_max)
    if not (abs(iv.lo - (1 - math.exp(-mu)) / 1.25) < 1e-12 and iv.contains(0.8)):
        problems.append("stability interval should contain eps=0.8")

    rep = simulate_sync(
        g, logistic_map(4.0), eps=0.8, t_steps=2_000, transient=200, tol=1e-6, trials=5, mu=mu
    )
    if not rep.synchronized:
        problems.append("eps=0.8 failed to synchronize")
    if not transverse_stability_factor(s, 0.8, mu) < 1.0:
        problems.append("eps=0.8 linear predicate should hold")

    rep_low = simulate_sync(
        g, logistic_map(4.0), eps=0.05, t_steps=2_000, transient=200, tol=1e-6, trials=5, mu=mu
    )
    if transverse_stability_factor(s, 0.05, mu) < 1.0:
        problems.append("eps=0.05 linear predicate should fail")
    if rep_low.synchronized:
        problems.append("eps=0.05 should not synchronize")
    _report("synchronization interval, predicate, and simulation", problems, started, 30.0)


def test_enumerator_oracle_equivalence():
    started = time.perf_counter()
    problems = []
    cases = [(name, g) for name, g in named_fixtures().items() if g.n <= 7]
    rng = np.random.default_rng(14_000)
    cases += [
        (f"random{k}", random_connected_graph(rng, n_max=7, weighted=True, allow_loops=(k % 2 == 0)))
        for k in range(40)
    ]
    for name, g in cases:
        if cheeger_exact(g).value != float(oracle_cheeger(g)):
            problems.append(f"{name}: h differs from the independent enumerator")
        if dual_cheeger_exact(g).value != float(oracle_dual_cheeger(g)):
            problems.append(f"{name}: hbar differs from the independent enumerator")
    _report("exact equality with the independent rational enumerators (n <= 7)", problems, started)


def test_constant_relation_chain():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(15_000)
    for k in range(100):
        g = random_connected_graph(rng, n_max=10, weighted=False)
        h = cheeger_exact(g).value
        hbar = dual_cheeger_exact(g).value
        r = balance_ratio_exact(g).value
        lhs = (g.n - 1) / g.n * h
        mid = 2.0 * r / (1.0 + r) * h
        if not (lhs <= mid + 1e-12 and mid <= hbar + 1e-12):
            problems.append(f"unweighted graph {k}: relation chain broken")
        bp = greedy_balance_partition(g)
        if balance(g, bp.partition) < (g.n - 1) / (g.n + 1) - 1e-12:
            problems.append(f"unweighted graph {k}: greedy balance below (n-1)/(n+1)")
    for k in range(100):
        g = random_connected_graph(rng, n_max=10, weighted=True, allow_loops=(k % 2 == 0))
        bp = greedy_balance_partition(g)
        if balance(g, bp.partition) < bp.weighted_guarantee - 1e-12:
            problems.append(f"weighted graph {k}: greedy balance below (m-1)/(m+1)")
    _report("relation chain and greedy balance guarantees", problems, started)
