import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.graphs import (
    WeightedGraph,
    bridged_triangles,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    looped_pair,
)
from lapspec.neighborhood import (
    REPEATED_SQUARING_THRESHOLD,
    TRUNCATION_REL_TOL,
    map_eigenvalues,
    neighborhood_graph,
)
from lapspec.partitions import cheeger_exact, dual_cheeger_exact
from lapspec.spectral import spectrum
from oracles import (
    dense_eigenvalues,
    oracle_neighborhood_cheeger,
    oracle_neighborhood_dual_cheeger,
    oracle_neighborhood_weights,
    spectral_map_mismatch,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_graph(seed, **kw):
    return random_connected_graph(np.random.default_rng(seed), **kw)


def _looped_pair_expected(c: float, l: int) -> np.ndarray:
    """Closed-form weight matrices of the looped pair's walk graphs."""
    diag, off = {
        2: ((c**2 + 1) / (1 + c), 2 * c / (1 + c)),
        3: ((c**3 + 3 * c) / (1 + c) ** 2, (3 * c**2 + 1) / (1 + c) ** 2),
        4: (((c**2 + 1) ** 2 + 4 * c**2) / (1 + c) ** 3, (4 * c**3 + 4 * c) / (1 + c) ** 3),
        5: (c * (5 + 10 * c**2 + c**4) / (1 + c) ** 4, (1 + 10 * c**2 + 5 * c**4) / (1 + c) ** 4),
    }[l]
    return np.array([[diag, off], [off, diag]])


def _bridged_expected_w2(c: float) -> np.ndarray:
    a = 1 + 2 * c
    return np.array(
        [
            [c / 2 + c**2 / a, c**2 / a, c / 2, c / a, 0, 0],
            [c**2 / a, c / 2 + c**2 / a, c / 2, c / a, 0, 0],
            [c / 2, c / 2, 1 / a + c, 0, c / a, c / a],
            [c / a, c / a, 0, 1 / a + c, c / 2, c / 2],
            [0, 0, c / a, c / 2, c / 2 + c**2 / a, c**2 / a],
            [0, 0, c / a, c / 2, c**2 / a, c / 2 + c**2 / a],
        ]
    )


# ---------------------------------------------------------------------------
# closed-form weight matrices


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_looped_pair_weights(c, l):
    got = neighborhood_graph(looped_pair(c), l).weights
    assert np.abs(got - _looped_pair_expected(c, l)).max() < 1e-12


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_looped_pair_cheeger_closed_forms(c):
    # h[l] = (off-diagonal entry of W[l]) / (1 + c); the degree-5 numerator
    # has leading coefficient 5, matching the weight matrix it comes from.
    expected = [
        1 / (1 + c),
        2 * c / (1 + c) ** 2,
        (3 * c**2 + 1) / (1 + c) ** 3,
        (4 * c**3 + 4 * c) / (1 + c) ** 4,
        (1 + 10 * c**2 + 5 * c**4) / (1 + c) ** 5,
    ]
    for l, want in enumerate(expected, start=1):
        gl = neighborhood_graph(looped_pair(c), l)
        assert abs(cheeger_exact(gl, check_connected=False).value - want) < 1e-12, l


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_bridged_triangles_w2(c):
    got = neighborhood_graph(bridged_triangles(c), 2).weights
    assert np.abs(got - _bridged_expected_w2(c)).max() < 1e-12


def test_bridged_triangles_h2_is_min_of_two_cuts():
    # the best order-2 cut is either a triangle or a triangle plus the far
    # bridge endpoint, whichever is cheaper
    for c in (0.5, 1.0, 2.0):
        g = bridged_triangles(c)
        cand1 = 4 * c / ((6 * c + 1) * (2 * c + 1))
        cand2 = (3 * c + 2 * c**2) / (2 * c + 1) ** 2
        h_2 = cheeger_exact(neighborhood_graph(g, 2), check_connected=False).value
        assert abs(h_2 - min(cand1, cand2)) < 1e-12


# ---------------------------------------------------------------------------
# structural properties


def test_order_one_is_the_same_graph():
    g = complete_graph(4)
    assert neighborhood_graph(g, 1) is g


def test_invalid_order():
    with pytest.raises(ValueError):
        neighborhood_graph(complete_graph(3), 0)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=5))
def test_degrees_preserved(seed, l):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    gl = neighborhood_graph(g, l)
    assert np.abs(gl.degrees - g.degrees).max() < 1e-10


def _gnp(seed: int, n: int, p: float = 0.4):
    """Seeded unit-weight G(n, p), redrawn until it is connected."""
    rng = np.random.default_rng(seed)
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1).astype(float)
        w = upper + upper.T
        g = WeightedGraph(n=n, weights=w) if w.sum(axis=1).all() else None
        if g is not None and is_connected(g):
            return g


_SQUARING_GRAPHS = {
    "gnp10": _gnp(5, 10),
    "K5": complete_graph(5),
    "C10": cycle_graph(10),
    "looped_pair(0.3)": looped_pair(0.3),
}


@pytest.mark.parametrize("name", list(_SQUARING_GRAPHS))
@pytest.mark.parametrize("l", [66, 100, 1001])
def test_repeated_squaring_orders(name, l):
    assert l - 1 > REPEATED_SQUARING_THRESHOLD  # the matrix_power branch
    g = _SQUARING_GRAPHS[name]
    gl = neighborhood_graph(g, l)
    # one product per step, symmetrised and truncated the same way
    walk = g.weights / g.degrees[:, None]
    seq = np.array(g.weights)
    for _ in range(l - 1):
        seq = seq @ walk
    seq = 0.5 * (seq + seq.T)
    seq[seq < TRUNCATION_REL_TOL * seq.max()] = 0.0
    assert np.array_equal(gl.weights, gl.weights.T)
    assert np.abs(gl.weights - seq).max() <= 1e-12 * seq.max()
    assert np.abs(gl.degrees - g.degrees).max() <= 1e-12 * g.degrees.max()
    direct = dense_eigenvalues(gl)
    mapped = map_eigenvalues(spectrum(g).eigenvalues, l)
    assert np.abs(direct - mapped).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=3))
def test_even_order_spectrum_in_unit_interval(seed, half_l):
    g = _random_graph(seed, n_max=8, weighted=True)
    eigs = dense_eigenvalues(neighborhood_graph(g, 2 * half_l))
    assert eigs.min() > -1e-10
    assert eigs.max() < 1.0 + 1e-10


def test_bipartite_even_order_splits():
    g = cycle_graph(6)
    g2 = neighborhood_graph(g, 2)
    assert not is_connected(g2)
    # the two classes carry all the weight
    evens = [0, 2, 4]
    assert g2.weights[np.ix_(evens, [1, 3, 5])].max() == 0.0
    assert cheeger_exact(g2, check_connected=False).value == 0.0


def test_bipartite_odd_order_stays_bipartite():
    g = cycle_graph(6)
    g3 = neighborhood_graph(g, 3)
    assert is_bipartite(g3)
    assert is_connected(g3)


def test_nonbipartite_stays_connected():
    g = cycle_graph(5)
    for l in (2, 3, 4, 5):
        assert is_connected(neighborhood_graph(g, l)), l


# ---------------------------------------------------------------------------
# spectral transform


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_spectral_map_on_fixtures(fixtures, l):
    for name, g in fixtures.items():
        assert spectral_map_mismatch(g, l) < 1e-8, (name, l)


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=6))
def test_spectral_map_random(seed, l):
    g = _random_graph(seed, n_max=8, weighted=True, allow_loops=True)
    assert spectral_map_mismatch(g, l) < 1e-8


def test_map_eigenvalues_formula():
    lam = np.array([0.0, 0.5, 1.5, 2.0])
    np.testing.assert_allclose(
        map_eigenvalues(lam, 2), np.sort(1 - (1 - lam) ** 2), atol=0
    )
    # odd order preserves the sign of 1 - lambda, even order folds it
    assert map_eigenvalues(np.array([2.0]), 3)[0] == 2.0
    assert map_eigenvalues(np.array([2.0]), 2)[0] == 0.0


# ---------------------------------------------------------------------------
# independent recomputation with exact arithmetic


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=4))
def test_weights_match_oracle(seed, l):
    g = _random_graph(seed, n_max=6, weighted=True, allow_loops=True)
    want = oracle_neighborhood_weights(g, l)
    got = neighborhood_graph(g, l).weights
    err = max(
        abs(float(want[i][j]) - got[i, j]) for i in range(g.n) for j in range(g.n)
    )
    assert err < 1e-12


@settings(max_examples=10, deadline=None)
@given(seeds, st.integers(min_value=2, max_value=3))
def test_cheeger_matches_oracle(seed, l):
    g = _random_graph(seed, n_max=6, weighted=True, allow_loops=True)
    want = float(oracle_neighborhood_cheeger(g, l))
    gl = neighborhood_graph(g, l)
    assert abs(cheeger_exact(gl, check_connected=False).value - want) < 1e-12


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_dual_cheeger_matches_oracle(seed):
    g = _random_graph(seed, n_max=5, weighted=True, allow_loops=True)
    want = float(oracle_neighborhood_dual_cheeger(g, 2))
    gl = neighborhood_graph(g, 2)
    assert abs(dual_cheeger_exact(gl, check_connected=False).value - want) < 1e-12
