import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.bounds import (
    BoundReport,
    TARGET_BRANCH_OR,
    TARGET_CONTAINS_SOME,
    TARGET_GAP_AROUND_ONE,
    TARGET_LAMBDA1,
    TARGET_LAMBDA_MAX,
    TARGET_SANDWICH,
    all_bound_reports,
    bound_curves,
    cheeger_bounds,
    clustering_constants,
    clustering_upper,
    combined_lower,
    curves_to_csv,
    diameter_variation_upper,
    dual_cheeger_bounds,
    gap_around_one_from,
    hop_diameter,
    improvement_predicates,
    localized_upper,
    neighborhood_dual_upper_from,
    neighborhood_interval_from,
    neighborhood_sandwich_from,
    neighborhood_upper_or_from,
    odd_walk_upper,
    poincare_upper,
)
from lapspec.graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    looped_pair,
    path_graph,
)
from lapspec.neighborhood import neighborhood_graph
from lapspec.partitions import (
    CHEEGER_EXACT_CAP,
    DUAL_CHEEGER_EXACT_CAP,
    cheeger_exact,
    default_odd_walk_family,
    dual_cheeger_exact,
    xi_product_bound,
)
from lapspec.spectral import Spectrum, spectrum
from oracles import identity_residual, mean_offset_quotient, pair_spread_quotient

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_graph(seed, **kw):
    return random_connected_graph(np.random.default_rng(seed), **kw)


def _twin_spike_graph():
    """K_6 blob plus a heavy adjacent twin pair hanging off vertex 0.

    The twin-difference eigenfunction 1 + 10/10.25 is the top of the
    spectrum and vanishes identically outside the twins.
    """
    edges = [(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)]
    edges += [(6, 7, 10.0), (0, 6, 0.25), (0, 7, 0.25)]
    return build_graph(8, edges)


def _cycle_blob_graph():
    """Light 4-cycle tied by a thin edge to a K_6 blob.

    The optimal near-bipartite pair is the cycle's two classes, and the
    blob outweighs them.
    """
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
    edges += [(4 + i, 4 + j, 1.0) for i in range(6) for j in range(i + 1, 6)]
    edges += [(0, 4, 0.25)]
    return build_graph(10, edges)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_to_dict():
    rep = cheeger_bounds(0.5)
    d = rep.to_dict()
    assert d["name"] == "cheeger"
    assert d["target"] == TARGET_LAMBDA1
    assert d["applicable"] is True
    assert d["inputs"] == {"h": 0.5}
    assert d["conditions"] == []


def test_inapplicable_report_holds_vacuously():
    rep = BoundReport(
        name="x", target=TARGET_LAMBDA1, lower=99.0, conditions=(("no", False),)
    )
    assert not rep.applicable
    assert rep.holds_for(spectrum(complete_graph(3)))


# lambda_1 = 0.5, lambda_max = 2; each target once holding and once failing
_TABLE_SPECTRUM = Spectrum(
    eigenvalues=np.array([0.0, 0.5, 1.5, 2.0]), eigenfunctions=None, residual=0.0
)


@pytest.mark.parametrize(
    "target, lower, upper, holds",
    [
        (TARGET_LAMBDA1, 0.4, 0.6, True),
        (TARGET_LAMBDA1, 0.6, None, False),
        (TARGET_LAMBDA1, None, 0.4, False),
        (TARGET_LAMBDA_MAX, 1.9, 2.1, True),
        (TARGET_LAMBDA_MAX, None, 1.9, False),
        (TARGET_LAMBDA_MAX, 2.1, None, False),
        (TARGET_SANDWICH, 0.5, 2.0, True),
        (TARGET_SANDWICH, 0.5, 1.9, False),
        (TARGET_SANDWICH, 0.6, 2.0, False),
        (TARGET_CONTAINS_SOME, 1.4, 1.6, True),
        (TARGET_CONTAINS_SOME, 0.6, 1.4, False),
        (TARGET_GAP_AROUND_ONE, 0.6, 1.4, True),
        (TARGET_GAP_AROUND_ONE, 0.4, 1.4, False),
        (TARGET_BRANCH_OR, 2.5, 0.6, True),  # the lambda_1 branch holds
        (TARGET_BRANCH_OR, 1.9, 0.4, True),  # the lambda_max branch holds
        (TARGET_BRANCH_OR, 2.1, 0.4, False),
    ],
)
def test_holds_for_each_target(target, lower, upper, holds):
    rep = BoundReport(name="x", target=target, lower=lower, upper=upper)
    assert rep.holds_for(_TABLE_SPECTRUM) is holds


def test_holds_for_unknown_target():
    with pytest.raises(ValueError, match="unknown target"):
        BoundReport(name="x", target="nowhere", lower=0.0).holds_for(_TABLE_SPECTRUM)


def test_constant_range_validation():
    with pytest.raises(ValueError):
        cheeger_bounds(1.5)
    with pytest.raises(ValueError):
        dual_cheeger_bounds(-0.1)
    with pytest.raises(ValueError):
        neighborhood_dual_upper_from(2, 0.5)  # even order has no such bound


# ---------------------------------------------------------------------------
# direct bounds


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_cheeger_upper_sharp_on_even_complete(n):
    # lambda_1 = n/(n-1) = 2h exactly
    g = complete_graph(n)
    rep = cheeger_bounds(cheeger_exact(g).value)
    s = spectrum(g)
    assert abs(rep.upper - s.lambda_1) < 1e-12
    assert rep.holds_for(s)


def test_dual_bound_sharp_on_bipartite():
    g = cycle_graph(4)
    rep = dual_cheeger_bounds(dual_cheeger_exact(g).value)
    assert rep.lower == 2.0
    assert rep.upper == 2.0
    assert rep.holds_for(spectrum(g))


def test_combined_lower_applicable_case():
    g = _cycle_blob_graph()
    res = dual_cheeger_exact(g)
    assert sorted(res.witness.v1 | res.witness.v2) == [0, 1, 2, 3]
    rep = combined_lower(g, res.witness, cheeger_exact(g).value)
    assert rep.applicable
    assert rep.holds_for(spectrum(g))


def test_combined_lower_inapplicable_without_remainder():
    g = complete_graph(5)
    res = dual_cheeger_exact(g)
    rep = combined_lower(g, res.witness, cheeger_exact(g).value)
    assert not rep.applicable  # V3 is empty on K_5's optimal tripartition


def test_localized_upper_applicable_case():
    g = _twin_spike_graph()
    s = spectrum(g)
    assert abs(s.lambda_max - (1 + 10 / 10.25)) < 1e-12
    rep = localized_upper(g, s, cheeger_exact(g).value)
    assert rep.applicable
    assert rep.holds_for(s)


def test_localized_upper_inapplicable_full_support():
    g = cycle_graph(4)
    s = spectrum(g)
    rep = localized_upper(g, s, cheeger_exact(g).value)
    assert not rep.applicable


def test_hop_diameter():
    assert hop_diameter(complete_graph(5)) == 1
    assert hop_diameter(path_graph(4)) == 3
    assert hop_diameter(cycle_graph(6)) == 3
    assert hop_diameter(looped_pair(1.0)) == 1


def test_diameter_bound_sharp_on_bipartite():
    # bipartite top eigenfunctions have constant modulus, so the variation
    # term vanishes and the bound degenerates to the trivial 2
    g = cycle_graph(4)
    rep = diameter_variation_upper(g, spectrum(g))
    assert rep.upper == 2.0


# ---------------------------------------------------------------------------
# clustering constants


def test_clustering_constants_triangle():
    cc = clustering_constants(complete_graph(3))
    assert cc.c0 == 1.0
    assert cc.w_tri == 1.0
    assert cc.d_bar == 2.0
    assert abs(cc.h_big - 1 / 16) < 1e-15


def test_clustering_constants_k5():
    cc = clustering_constants(complete_graph(5))
    assert abs(cc.w_tri - math.sqrt(3)) < 1e-12
    assert cc.d_bar == 4.0
    want = (math.sqrt(3) / (1 + math.sqrt(3))) ** 2 / 8.0
    assert abs(cc.h_big - want) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_clustering_c0_matches_edge_loop(seed):
    # reference: the minimum over edges i < j of the endpoints' mean triangle
    # fraction, and for w_tri the minimum over triangle edges (i, k) of a sum
    # over common neighbours l in ascending order
    g = _random_graph(seed, n_max=9, weighted=True, allow_loops=True)
    w, d = g.weights, g.degrees
    adj = w > 0
    np.fill_diagonal(adj, False)
    tri_edge = adj & ((adj.astype(int) @ adj.astype(int)) > 0)
    if not tri_edge.any():
        return
    alpha = (w * tri_edge).sum(axis=1) / d
    want = math.inf
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if adj[i, j]:
                want = min(want, 0.5 * (alpha[i] + alpha[j]))
    w_sq = math.inf
    for i, k in zip(*np.nonzero(tri_edge)):
        acc = 0.0
        for l in range(g.n):
            if adj[l, i] and adj[l, k]:
                acc += (d[i] / d[l]) * w[l, i] * w[l, k] / w[i, k]
        w_sq = min(w_sq, acc)
    cc = clustering_constants(g)
    assert cc.c0 == want
    assert cc.w_tri == math.sqrt(w_sq)


@pytest.mark.parametrize("k", [-900, -300, 300, 900])
def test_clustering_constants_follow_power_of_two_scaling(k):
    # Weights times 2**k: c0 is a ratio of weights, w_tri the square root of
    # one and d_bar a degree, so each moves by an exact power of two.  The
    # loop behind w_tri multiplies two weights: run unscaled, it overflowed
    # at 2**900 and flushed to 0.0 at 2**-900.
    for seed in (0, 2, 6):  # graphs with triangles; c0 = 0 on the last
        g = _random_graph(seed, n_min=14, n_max=14, weighted=True, allow_loops=True)
        w = np.triu(g.weights * np.random.default_rng(seed).uniform(0.1, 10.0, size=(14, 14)))
        g = WeightedGraph(n=14, weights=w + np.triu(w, 1).T)
        cc = clustering_constants(g)
        assert cc.w_tri > 0, seed
        scaled = clustering_constants(WeightedGraph(n=14, weights=np.ldexp(g.weights, k)))
        assert (scaled.c0, scaled.w_tri, scaled.d_bar) == (
            cc.c0, math.ldexp(cc.w_tri, k // 2), math.ldexp(cc.d_bar, k)), seed


def test_clustering_constants_of_a_triangle_with_weights_far_apart():
    # Weights 2**600, 2**600 and 2**-600: scaled by the largest alone, the
    # smallest would flush to 0 and w_tri with it.  Its square is the
    # smallest (d_i / d_l) w_li w_lk / w_ik, (2**600 / 2**600) 2**-600,
    # read on an edge of weight 2**600.  The edge of weight 2**-600 scores
    # past 2**1024 at any one scale, and overflows with numpy's warning.
    big, small = 2.0**600, 2.0**-600
    w = np.array([[0.0, big, big], [big, 0.0, small], [big, small, 0.0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        cc = clustering_constants(WeightedGraph(n=3, weights=w))
    assert cc.w_tri == 2.0**-300
    assert cc.d_bar == 2.0**601


def test_clustering_trivial_without_triangles():
    cc = clustering_constants(path_graph(4))
    assert (cc.c0, cc.w_tri, cc.d_bar) == (0.0, 0.0, 0.0)
    assert cc.h_big == 0.0
    assert clustering_upper(cc).upper == 2.0


def test_clustering_upper_holds_on_fixtures(fixtures):
    for name, g in fixtures.items():
        rep = clustering_upper(clustering_constants(g))
        assert rep.holds_for(spectrum(g)), name


# ---------------------------------------------------------------------------
# odd-walk bounds


def test_walk_bounds_on_triangle():
    g = complete_graph(3)
    pb = xi_product_bound(g, default_odd_walk_family(g))
    # every triangle walk uses all three edges: product = 2 * 1 * 3
    rep = odd_walk_upper(pb)
    assert abs(rep.upper - (1 + math.sqrt(1 - 1 / 36))) < 1e-15
    rep2 = poincare_upper(pb)
    assert abs(rep2.upper - (2 - 2 / 18)) < 1e-15
    s = spectrum(g)
    assert rep.holds_for(s) and rep2.holds_for(s)


def test_walk_comparison_consistent(fixtures):
    for name, g in fixtures.items():
        if is_bipartite(g):
            continue
        pb = xi_product_bound(g, default_odd_walk_family(g))
        if pb.product * pb.sigma_max <= 2.0:
            continue  # degenerate regime where the closed-form tie-break fails
        congestion, poincare = odd_walk_upper(pb).upper, poincare_upper(pb).upper
        # the congestion bound is the sharper one exactly when d w b < 1/sigma + sigma/4
        if pb.product < 1.0 / pb.sigma_max + pb.sigma_max / 4.0:
            assert congestion <= poincare + 1e-12, name
        else:
            assert poincare <= congestion + 1e-12, name


# ---------------------------------------------------------------------------
# transferred neighborhood bounds


def test_branch_or_inapplicable_when_cut_too_large():
    # h[2](K_5) > 1/2, so the even-order disjunction has nothing to say
    h_2 = cheeger_exact(neighborhood_graph(complete_graph(5), 2)).value
    rep = neighborhood_upper_or_from(2, h_2)
    assert rep.target == TARGET_BRANCH_OR
    assert not rep.applicable


def test_even_sandwich_targets():
    g = complete_graph(5)
    h_2, h_3 = (
        cheeger_exact(neighborhood_graph(g, l)).value for l in (2, 3)
    )
    rep = neighborhood_sandwich_from(2, h_2)
    assert rep.target == TARGET_SANDWICH
    assert rep.holds_for(spectrum(g))
    rep3 = neighborhood_sandwich_from(3, h_3)
    assert rep3.target == TARGET_LAMBDA1


def test_gap_report_is_usually_inapplicable():
    cc = clustering_constants(neighborhood_graph(complete_graph(5), 2))
    rep = gap_around_one_from(2, cc.h_big)
    assert rep.target == TARGET_GAP_AROUND_ONE
    assert not rep.applicable  # h_big barely exceeds 0 on small cliques


def test_interval_contains_an_eigenvalue():
    g = looped_pair(2.0)
    hbar_2 = dual_cheeger_exact(neighborhood_graph(g, 2)).value
    rep = neighborhood_interval_from(2, hbar_2)
    if rep.applicable:
        assert rep.target == TARGET_CONTAINS_SOME
        assert rep.holds_for(spectrum(g))


def _hex(x):
    return None if x is None else float.hex(x)


def _bits(name, target, lower, upper, conditions, inputs):
    hex_inputs = {key: _hex(value) for key, value in inputs.items()}
    return name, target, _hex(lower), _hex(upper), conditions, hex_inputs


def _fields(rep: BoundReport):
    return _bits(rep.name, rep.target, rep.lower, rep.upper, rep.conditions, rep.inputs)


def _transferred_closed_forms(l: int, c: float) -> dict:
    """``(name, target, lower, upper, conditions, inputs)`` of each Γ[l] constructor at ``c``.

    Each formula written out: the real l-th root of ``1 - 2c`` or ``c - 1``,
    and the ``2l``-th root of ``1 - c^2`` or ``1 - (1 - c)^2`` in one power,
    not a square root followed by an l-th root, which rounds differently.
    """
    odd = l % 2 == 1
    x, y = 1.0 - 2.0 * c, c - 1.0
    if odd:
        r_x = math.copysign(abs(x) ** (1.0 / l), x)
        r_y = math.copysign(abs(y) ** (1.0 / l), y)
    else:
        r_x = x ** (1.0 / l) if x >= 0 else None
        r_y = y ** (1.0 / l) if y >= 0 else None
    s = (1.0 - c * c) ** (1.0 / (2 * l))
    d = (1.0 - (1.0 - c) ** 2) ** (1.0 / (2 * l))
    h = {"l": float(l), "h_l": c}
    hbar = {"l": float(l), "hbar_l": c}
    h_big = {"l": float(l), "h_big_l": c}
    if odd:
        return {
            neighborhood_sandwich_from: (
                "neighborhood_sandwich", TARGET_LAMBDA1, 1.0 - s, None, (), h),
            neighborhood_upper_or_from: (
                "neighborhood_upper_or", TARGET_LAMBDA1, None, 1.0 - r_x, (), h),
            neighborhood_interval_from: (
                "neighborhood_interval", TARGET_LAMBDA_MAX, 1.0 - r_x, None, (), hbar),
            gap_around_one_from: ("gap_around_one", TARGET_LAMBDA_MAX, None, 1.0 - r_y, (), h_big),
            neighborhood_dual_upper_from: (
                "neighborhood_dual_upper", TARGET_LAMBDA_MAX, None, 1.0 + d, (), hbar),
        }

    def minus(r):
        return None if r is None else 1.0 - r

    def plus(r):
        return None if r is None else 1.0 + r

    return {
        neighborhood_sandwich_from: (
            "neighborhood_sandwich", TARGET_SANDWICH, 1.0 - s, 1.0 + s, (), h),
        neighborhood_upper_or_from: (
            "neighborhood_upper_or", TARGET_BRANCH_OR, plus(r_x), minus(r_x),
            (("2 h[l] <= 1", r_x is not None),), h),
        neighborhood_interval_from: (
            "neighborhood_interval", TARGET_CONTAINS_SOME, minus(r_x), plus(r_x),
            (("2 hbar[l] <= 1", r_x is not None),), hbar),
        gap_around_one_from: (
            "gap_around_one", TARGET_GAP_AROUND_ONE, minus(r_y), plus(r_y),
            (("h_big[l] >= 1", r_y is not None),), h_big),
    }


#: Dyadic constants and non-dyadic ones; ``gap_around_one_from`` also gets
#: each plus one, where its even-order root is real.
_TRANSFER_CONSTANTS = (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 1 / 3, 0.45, 2 / 3, 0.9)


@pytest.mark.parametrize("l", range(1, 13))
def test_transferred_reports_match_closed_forms_bit_for_bit(l):
    for c in _TRANSFER_CONSTANTS:
        for constructor, want in _transferred_closed_forms(l, c).items():
            assert _fields(constructor(l, c)) == _bits(*want), (constructor.__name__, l, c)
        want = _transferred_closed_forms(l, c + 1.0)[gap_around_one_from]
        assert _fields(gap_around_one_from(l, c + 1.0)) == _bits(*want), (l, c + 1.0)
    if l % 2 == 0:
        with pytest.raises(ValueError, match="only for odd l"):
            neighborhood_dual_upper_from(l, 0.5)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_all_reports_hold_random(seed):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    s = spectrum(g)
    for rep in all_bound_reports(g, s, l_list=(2, 3, 4, 5)):
        assert rep.holds_for(s), rep.name


def test_all_reports_hold_fixtures(fixtures):
    for name, g in fixtures.items():
        s = spectrum(g)
        for rep in all_bound_reports(g, s, l_list=(2, 3)):
            assert rep.holds_for(s), (name, rep.name)


def test_all_reports_skips_capped_enumerations():
    g = complete_graph(25)
    reps = all_bound_reports(g, spectrum(g), l_list=(2,))
    names = {r.name for r in reps}
    assert "cheeger" not in names
    assert "dual_cheeger" not in names
    assert "clustering_upper" in names


def test_all_reports_compute_each_constant_once(monkeypatch):
    import lapspec.bounds
    import lapspec.neighborhood
    import lapspec.partitions
    from lapspec.neighborhood import neighborhood_graph
    from lapspec.partitions import _cheeger_scans, _dual_cheeger_scans

    # the scans take several graphs at once: each graph counts as a call
    originals = {
        "neighborhood_graph": neighborhood_graph,
        "cheeger_exact": _cheeger_scans,
        "dual_cheeger_exact": _dual_cheeger_scans,
        "clustering_constants": clustering_constants,
    }
    calls = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += len(args[0]) if isinstance(args[0], list) else 1
            return originals[name](*args, **kwargs)

        return wrapper

    for mod in (lapspec.bounds, lapspec.neighborhood, lapspec.partitions):
        for attr, value in list(vars(mod).items()):
            for name, fn in originals.items():
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting(name))
    g = _twin_spike_graph()
    assert not is_bipartite(g)
    all_bound_reports(g, spectrum(g), (2, 3))
    # Gamma[2] and Gamma[3] once each; h, hbar and clustering of g, Gamma[2], Gamma[3]
    assert calls == {
        "neighborhood_graph": 2,
        "cheeger_exact": 3,
        "dual_cheeger_exact": 3,
        "clustering_constants": 3,
    }
    calls.update(dict.fromkeys(calls, 0))
    all_bound_reports(g, spectrum(g), (1, 2))
    # Gamma[1] is g, so its constants are those of g: those of g and Gamma[2]
    assert calls == {
        "neighborhood_graph": 1,
        "cheeger_exact": 2,
        "dual_cheeger_exact": 2,
        "clustering_constants": 2,
    }


# ---------------------------------------------------------------------------
# exact eigenvalue identities


def test_identity_quotients_on_known_eigenpair():
    g = complete_graph(4)
    u = np.array([1.0, -1.0, 0.0, 0.0])  # eigenfunction for 4/3
    assert abs(pair_spread_quotient(g, u) - (2 - 4 / 3)) < 1e-12
    assert abs(mean_offset_quotient(g, u) - (2 - 4 / 3)) < 1e-12


def test_identity_residuals_fixtures(fixtures):
    for name, g in fixtures.items():
        assert identity_residual(g) < 1e-8, name


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_identity_residuals_random(seed):
    g = _random_graph(seed, n_max=9, weighted=True, allow_loops=True)
    assert identity_residual(g) < 1e-8


# ---------------------------------------------------------------------------
# improvement predicates


@settings(max_examples=25, deadline=None)
@given(seeds, st.sampled_from([3, 5]))
def test_escape_implies_improvement_odd(seed, l):
    g = _random_graph(seed, n_max=7, weighted=True, allow_loops=True)
    rep = improvement_predicates(g, l)
    if rep.some_improvement:
        assert rep.lower_improves or rep.upper_improves


@settings(max_examples=25, deadline=None)
@given(seeds, st.sampled_from([2, 3, 4, 5]))
def test_sufficient_criteria_are_sound(seed, l):
    g = _random_graph(seed, n_max=7, weighted=True, allow_loops=True)
    rep = improvement_predicates(g, l)
    c = rep.constants
    if rep.sharpness_sufficient_lower:
        assert c["h_l"] >= c["lower_threshold"] - 1e-9
    if rep.sharpness_sufficient_upper:
        assert c["h_l"] <= c["upper_threshold"] + 1e-9


def test_improvement_trivial_at_order_one():
    rep = improvement_predicates(complete_graph(4), 1)
    # at l = 1 both thresholds collapse to h itself
    assert rep.lower_improves and rep.upper_improves
    assert not rep.some_improvement


def test_improvement_at_order_one_computes_h_once(monkeypatch):
    import lapspec.bounds
    from lapspec.partitions import _cheeger_scans

    calls = []

    def counting(graphs):
        calls.extend(g.n for g in graphs)
        return _cheeger_scans(graphs)

    monkeypatch.setattr(lapspec.bounds, "_cheeger_scans", counting)
    rep = improvement_predicates(complete_graph(4), 1)
    # Gamma[1] is g, so h[1] is h
    assert calls == [4]
    assert rep.constants["h_l"] == rep.constants["h"]


def test_improvement_refuses_a_graph_past_the_cheeger_cap():
    with pytest.raises(GraphError) as exc:
        improvement_predicates(cycle_graph(CHEEGER_EXACT_CAP + 1), 2)
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED


# ---------------------------------------------------------------------------
# curve tables


def test_bound_curves_sharp_start():
    rows = bound_curves("looped_pair", [0.5], [1])
    (row,) = rows
    # at c = 1/2 the direct upper bound 2h = 4/3 equals lambda_1
    assert abs(row.upper_from_h - 4 / 3) < 1e-12
    assert abs(row.lambda1 - 4 / 3) < 1e-12
    assert row.upper_from_h_applicable


def test_bound_curves_shape_and_csv():
    rows = bound_curves("looped_pair", [0.5, 1.0], [1, 2, 3])
    assert len(rows) == 6
    text = curves_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "param,l,lower,upper_from_h,upper_from_h_applicable,upper_from_hbar,"
        "lambda1,lambdaMax"
    )
    assert len(lines) == 7
    assert ",true," in lines[1] or ",false," in lines[1]


def test_bound_curves_complete_family():
    rows = bound_curves("complete", [5.0], [1])
    assert abs(rows[0].lambda1 - 1.25) < 1e-12


def test_bound_curves_rejects_unknown_family():
    with pytest.raises(ValueError):
        bound_curves("nosuch", [1.0], [1])


def test_bound_curves_bad_point_leaves_empty_cells():
    rows = bound_curves("looped_pair", [-1.0, 1.0], [1])
    assert rows[0].lower is None and rows[0].lambda1 is None
    assert rows[1].lower is not None


def test_bound_curves_complete_needs_integral_size():
    rows = bound_curves("complete", [2.5, 1.0, 3.0], [1])
    assert [r.lambda1 is None and r.lower is None for r in rows] == [True, True, False]


def test_bound_curves_skips_h_where_hbar_is_refused(monkeypatch):
    # Past the dual Cheeger cap an odd order's row is blank, so h[l] is not
    # computed for it: one graph scanned for h per graph, for l = 2.
    import lapspec.bounds
    from lapspec.partitions import _cheeger_scans

    calls = []

    def counting(graphs):
        calls.extend(g.n for g in graphs)
        return _cheeger_scans(graphs)

    monkeypatch.setattr(lapspec.bounds, "_cheeger_scans", counting)
    sizes = range(DUAL_CHEEGER_EXACT_CAP + 1, CHEEGER_EXACT_CAP + 1)
    rows = bound_curves("complete", sizes, [1, 2, 3])
    assert calls == list(sizes)
    for row in rows:
        blank = (row.lower, row.upper_from_h, row.upper_from_h_applicable, row.upper_from_hbar)
        assert (blank == (None, None, False, None)) == (row.l % 2 == 1), (row.param, row.l)
        assert row.lambda1 is not None, (row.param, row.l)
