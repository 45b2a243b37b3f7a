import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.graphs import (
    GraphError,
    GraphErrorKind,
    bridged_triangles,
    complete_graph,
    cycle_graph,
    is_bipartite,
    looped_pair,
)
from lapspec.neighborhood import neighborhood_graph
from lapspec.random_walk import (
    bipartite_limits,
    equilibrium_graph,
    equilibrium_projection,
    mixing_time,
    neighborhood_limit_check,
    transition_apply,
    walk_reports_to_csv,
    walk_trajectory,
)
from lapspec.spectral import spectrum

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_graph(seed, **kw):
    return random_connected_graph(np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# the operator and its fixed point


def test_transition_preserves_constants():
    g = bridged_triangles(1.0)
    out = transition_apply(g, np.ones(6))
    np.testing.assert_allclose(out, np.ones(6), atol=1e-14)


def test_equilibrium_is_fixed():
    g = bridged_triangles(0.5)
    f = np.arange(6, dtype=float)
    mean = equilibrium_projection(g, f)
    np.testing.assert_allclose(transition_apply(g, mean), mean, atol=1e-14)
    # projecting twice changes nothing
    np.testing.assert_allclose(equilibrium_projection(g, mean), mean, atol=1e-14)


def test_projection_is_degree_weighted_mean():
    g = looped_pair(1.0)
    f = np.array([1.0, 3.0])
    assert equilibrium_projection(g, f)[0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# decay bounds


def test_deviation_at_zero_is_offset_norm():
    g = complete_graph(5)
    f = np.eye(5)[0]
    rep = walk_trajectory(g, f, 0)[-1]
    assert rep.deviation <= rep.bound_rho + 1e-12


@pytest.mark.parametrize("t", [0, 1, 2, 5, 10, 25])
def test_decay_bound_k5(t):
    g = complete_graph(5)
    f = np.eye(5)[0]
    rep = walk_trajectory(g, f, t, l_even=2)[-1]
    assert rep.deviation <= rep.bound_rho + 1e-12
    assert rep.bound_hl is not None
    assert rep.deviation <= rep.bound_hl + 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_decay_bound_random(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=8, weighted=True, allow_loops=True)
    f = rng.normal(size=g.n)
    for rep in walk_trajectory(g, f, 20, l_even=2):
        assert rep.deviation <= rep.bound_rho + 1e-9
        if rep.bound_hl is not None:
            assert rep.deviation <= rep.bound_hl + 1e-9


def test_deviation_is_nonincreasing():
    g = bridged_triangles(1.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=6)
    traj = walk_trajectory(g, f, 30)
    devs = [r.deviation for r in traj]
    assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))


def test_trajectory_matches_single_calls():
    g = bridged_triangles(0.5)
    f = np.eye(6)[2]
    traj = walk_trajectory(g, f, 6, l_even=4)
    for t, rep in enumerate(traj):
        single = walk_trajectory(g, f, t, l_even=4)[-1]
        assert rep.deviation == pytest.approx(single.deviation, abs=1e-12)
        assert rep.bound_rho == pytest.approx(single.bound_rho, abs=1e-12)
        assert rep.bound_hl == pytest.approx(single.bound_hl, abs=1e-12)


def test_bipartite_has_no_hl_bound():
    g = cycle_graph(4)
    rep = walk_trajectory(g, np.eye(4)[0], 3, l_even=2)[-1]
    assert rep.bound_hl is None
    assert rep.deviation > 0.1  # the walk does not converge here


def test_hl_rate_requires_even_order():
    for g in (complete_graph(5), cycle_graph(4)):  # checked on bipartite graphs too
        with pytest.raises(ValueError):
            walk_trajectory(g, np.eye(g.n)[0], 1, l_even=3)


def test_csv_header():
    g = complete_graph(3)
    text = walk_reports_to_csv(walk_trajectory(g, np.eye(3)[0], 2))
    lines = text.strip().split("\n")
    assert lines[0] == "t,deviation,bound_rho,bound_hl"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # no h[l] column requested


# ---------------------------------------------------------------------------
# mixing time


def test_mixing_time_values():
    assert mixing_time(0.5, 0.1) == 4
    assert mixing_time(0.25, 1e-6) == math.ceil(6 * math.log(10) / math.log(4))
    assert mixing_time(1.0, 0.5) == math.inf
    assert mixing_time(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        mixing_time(0.5, 1.5)


# ---------------------------------------------------------------------------
# equilibrium graphs


def test_equilibrium_looped_pair():
    # all four entries equal (1+c)/2
    for c in (0.5, 1.0, 2.0):
        w = equilibrium_graph(looped_pair(c)).weights
        np.testing.assert_allclose(w, np.full((2, 2), (1 + c) / 2), atol=1e-14)


def test_equilibrium_bridged_triangles():
    c = 1.0
    w = equilibrium_graph(bridged_triangles(c)).weights
    vol = 12 * c + 2
    a1 = 4 * c**2 / vol
    a2 = (4 * c**2 + 2 * c) / vol
    a3 = (4 * c**2 + 4 * c + 1) / vol
    assert w[0, 1] == pytest.approx(a1, abs=1e-14)
    assert w[0, 2] == pytest.approx(a2, abs=1e-14)
    assert w[2, 3] == pytest.approx(a3, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_equilibrium_structure_random(seed):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    if is_bipartite(g):
        return
    bar = equilibrium_graph(g)
    # degrees survive the limit, and the limit Laplacian is a projection:
    # spectrum {0, 1, ..., 1}
    np.testing.assert_allclose(bar.degrees, g.degrees, atol=1e-10)
    eigs = spectrum(bar).eigenvalues
    np.testing.assert_allclose(eigs, [0.0] + [1.0] * (g.n - 1), atol=1e-9)


def test_equilibrium_rejects_bipartite():
    with pytest.raises(GraphError) as exc:
        equilibrium_graph(cycle_graph(6))
    assert exc.value.kind is GraphErrorKind.NOT_BIPARTITE


def test_bipartite_limits_rejects_nonbipartite():
    with pytest.raises(GraphError) as exc:
        bipartite_limits(complete_graph(3))
    assert exc.value.kind is GraphErrorKind.NOT_BIPARTITE


def test_bipartite_limits_c4():
    even, odd = bipartite_limits(cycle_graph(4))
    want_even = np.zeros((4, 4))
    for i in (0, 2):
        for j in (0, 2):
            want_even[i, j] = 1.0
    for i in (1, 3):
        for j in (1, 3):
            want_even[i, j] = 1.0
    np.testing.assert_allclose(even.weights, want_even, atol=1e-14)
    np.testing.assert_allclose(odd.weights, np.ones((4, 4)) - want_even, atol=1e-14)


def test_bipartite_limits_k2():
    even, odd = bipartite_limits(complete_graph(2))
    np.testing.assert_allclose(even.weights, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(odd.weights, 1 - np.eye(2), atol=1e-14)


def test_even_orders_converge_to_even_limit():
    # C_4 reaches its even-step limit at order 2 exactly; C_6 converges
    # geometrically at rate 1/2 per step
    even4, _ = bipartite_limits(cycle_graph(4))
    w2 = neighborhood_graph(cycle_graph(4), 2).weights
    np.testing.assert_allclose(w2, even4.weights, atol=1e-12)

    even6, _ = bipartite_limits(cycle_graph(6))
    w40 = neighborhood_graph(cycle_graph(6), 40).weights
    assert np.abs(w40 - even6.weights).max() < 1e-8


# ---------------------------------------------------------------------------
# neighborhood limit domination


def test_limit_check_k5():
    rep = neighborhood_limit_check(complete_graph(5), 6)
    assert rep.rho == pytest.approx(0.25, abs=1e-12)
    assert rep.dominated()
    assert rep.distances[-1] < rep.distances[0]


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_limit_check_random(seed):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    if is_bipartite(g):
        return
    assert neighborhood_limit_check(g, 8).dominated()


def test_limit_check_validates_order():
    with pytest.raises(ValueError):
        neighborhood_limit_check(complete_graph(3), 0)
