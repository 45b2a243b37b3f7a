
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.graphs import (
    bridged_triangles,
    complete_graph,
    cycle_graph,
    is_bipartite,
    looped_pair,
)
from lapspec.neighborhood import neighborhood_graph
from lapspec.random_walk import (
    equilibrium_projection,
    transition_apply,
    walk_reports_to_csv,
    walk_trajectory,
)
from lapspec.spectral import spectral_radius_rho, spectrum
from oracles import dense_eigenvalues

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
    rho, reports = walk_trajectory(g, f, 0)
    assert rho == spectral_radius_rho(spectrum(g))
    rep = reports[-1]
    assert rep.deviation <= rep.bound_rho + 1e-12


@pytest.mark.parametrize("t", [0, 1, 2, 5, 10, 25])
def test_decay_bound_k5(t):
    g = complete_graph(5)
    f = np.eye(5)[0]
    rep = walk_trajectory(g, f, t, l_even=2)[1][-1]
    assert rep.deviation <= rep.bound_rho + 1e-12
    assert rep.bound_hl is not None
    assert rep.deviation <= rep.bound_hl + 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_decay_bound_random(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=8, weighted=True, allow_loops=True)
    f = rng.normal(size=g.n)
    for rep in walk_trajectory(g, f, 20, l_even=2)[1]:
        assert rep.deviation <= rep.bound_rho + 1e-9
        if rep.bound_hl is not None:
            assert rep.deviation <= rep.bound_hl + 1e-9


def test_deviation_is_nonincreasing():
    g = bridged_triangles(1.0)
    rng = np.random.default_rng(7)
    f = rng.normal(size=6)
    _, traj = walk_trajectory(g, f, 30)
    devs = [r.deviation for r in traj]
    assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))


def test_trajectory_matches_single_calls():
    g = bridged_triangles(0.5)
    f = np.eye(6)[2]
    _, traj = walk_trajectory(g, f, 6, l_even=4)
    for t, rep in enumerate(traj):
        single = walk_trajectory(g, f, t, l_even=4)[1][-1]
        assert rep.deviation == pytest.approx(single.deviation, abs=1e-12)
        assert rep.bound_rho == pytest.approx(single.bound_rho, abs=1e-12)
        assert rep.bound_hl == pytest.approx(single.bound_hl, abs=1e-12)


def test_bipartite_has_no_hl_bound():
    g = cycle_graph(4)
    rep = walk_trajectory(g, np.eye(4)[0], 3, l_even=2)[1][-1]
    assert rep.bound_hl is None
    assert rep.deviation > 0.1  # the walk does not converge here


def test_hl_rate_requires_even_order():
    for g in (complete_graph(5), cycle_graph(4)):  # checked on bipartite graphs too
        with pytest.raises(ValueError):
            walk_trajectory(g, np.eye(g.n)[0], 1, l_even=3)


def test_csv_header():
    g = complete_graph(3)
    text = walk_reports_to_csv(walk_trajectory(g, np.eye(3)[0], 2)[1])
    lines = text.strip().split("\n")
    assert lines[0] == "t,deviation,bound_rho,bound_hl"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # no h[l] column requested


# ---------------------------------------------------------------------------
# limits of the neighborhood graphs: W[l] -> d_i d_j / vol within rho^l vol


def _distance_within_rate(g, want, orders, rate, tol):
    """``max |W[l] - want| <= rate^l vol + tol`` for every l in ``orders``."""
    for l in orders:
        distance = np.abs(neighborhood_graph(g, l).weights - want).max()
        assert distance <= rate**l * g.volume + tol, l


def test_equilibrium_looped_pair():
    # all four entries tend to (1+c)/2
    for c in (0.5, 1.0, 2.0):
        g = looped_pair(c)
        rho = spectral_radius_rho(spectrum(g))
        _distance_within_rate(g, np.full((2, 2), (1 + c) / 2), (1, 2, 3, 200), rho, 1e-12)


def test_equilibrium_bridged_triangles():
    c = 1.0
    g = bridged_triangles(c)
    vol = 12 * c + 2
    a1 = 4 * c**2 / vol
    a2 = (4 * c**2 + 2 * c) / vol
    a3 = (4 * c**2 + 4 * c + 1) / vol
    bridge = np.array([0, 0, 1, 1, 0, 0])  # vertices 2 and 3 carry the bridge
    want = np.array([[a1, a2], [a2, a3]])[np.ix_(bridge, bridge)]
    rho = spectral_radius_rho(spectrum(g))
    _distance_within_rate(g, want, (1, 5, 20, 200), rho, 1e-12)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_equilibrium_structure_random(seed):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    if is_bipartite(g):
        return
    # degrees survive every order, and the spectrum of Gamma[l] tends to
    # {0, 1, ..., 1}: each nonzero eigenvalue is within rho^l of 1
    rho = spectral_radius_rho(spectrum(g))
    gl = neighborhood_graph(g, 30)
    np.testing.assert_allclose(gl.degrees, g.degrees, atol=1e-10)
    eigs = dense_eigenvalues(gl)
    assert abs(eigs[0]) < 1e-9
    assert (np.abs(eigs[1:] - 1.0) <= rho**30 + 1e-9).all()


def _bipartite_limits(g, side_a):
    """Even and odd limits: ``2 d_i d_j / vol`` within, respectively across, the classes."""
    in_a = np.isin(np.arange(g.n), side_a)
    full = 2.0 * np.outer(g.degrees, g.degrees) / g.volume
    same = in_a[:, None] == in_a[None, :]
    return np.where(same, full, 0.0), np.where(same, 0.0, full)


def _assert_orders_reach_limits(g, side_a):
    # every eigenvalue inside (0, 2) is 1, so each even order is the even
    # limit and each odd order the odd one, up to rounding
    even, odd = _bipartite_limits(g, side_a)
    for l in (2, 3, 4, 5, 200, 201):
        want = even if l % 2 == 0 else odd
        np.testing.assert_allclose(neighborhood_graph(g, l).weights, want, atol=1e-14)


def test_bipartite_limits_c4():
    even, _ = _bipartite_limits(cycle_graph(4), [0, 2])
    want_even = np.zeros((4, 4))
    for i in (0, 2):
        for j in (0, 2):
            want_even[i, j] = 1.0
    for i in (1, 3):
        for j in (1, 3):
            want_even[i, j] = 1.0
    np.testing.assert_array_equal(even, want_even)
    _assert_orders_reach_limits(cycle_graph(4), [0, 2])


def test_bipartite_limits_k2():
    even, odd = _bipartite_limits(complete_graph(2), [0])
    np.testing.assert_array_equal(even, np.eye(2))
    np.testing.assert_array_equal(odd, 1 - np.eye(2))
    _assert_orders_reach_limits(complete_graph(2), [0])


def test_even_orders_converge_to_even_limit():
    # C_6 converges geometrically at rate 1/2 per step, its largest
    # |1 - lambda| over the eigenvalues inside (0, 2)
    g = cycle_graph(6)
    even, _ = _bipartite_limits(g, [0, 2, 4])
    _distance_within_rate(g, even, (2, 4, 40), 0.5, 1e-12)
    assert np.abs(neighborhood_graph(g, 40).weights - even).max() < 1e-8


def test_limit_check_k5():
    g = complete_graph(5)
    rho = spectral_radius_rho(spectrum(g))
    assert rho == pytest.approx(0.25, abs=1e-12)
    want = np.outer(g.degrees, g.degrees) / g.volume
    _distance_within_rate(g, want, range(1, 7), rho, 1e-9)
    assert np.abs(neighborhood_graph(g, 6).weights - want).max() < np.abs(g.weights - want).max()


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_limit_check_random(seed):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    if is_bipartite(g):
        return
    rho = spectral_radius_rho(spectrum(g))
    _distance_within_rate(g, np.outer(g.degrees, g.degrees) / g.volume, range(1, 9), rho, 1e-9)
