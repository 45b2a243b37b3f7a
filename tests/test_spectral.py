import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.graphs import complete_graph, cycle_graph, is_bipartite, path_graph
from lapspec.spectral import (
    apply_laplacian,
    degree_inner_product,
    degree_norm,
    spectral_radius_rho,
    spectrum,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_graph(seed, **kw):
    return random_connected_graph(np.random.default_rng(seed), **kw)


def test_complete_graph_closed_form():
    # all nonzero eigenvalues of K_N equal N/(N-1)
    for n in range(3, 9):
        s = spectrum(complete_graph(n))
        expected = n / (n - 1)
        assert abs(s.eigenvalues[0]) < 1e-12
        assert np.allclose(s.eigenvalues[1:], expected, atol=1e-9)


def test_spectrum_sorted_and_in_range():
    s = spectrum(cycle_graph(5))
    assert np.all(np.diff(s.eigenvalues) >= -1e-12)
    assert s.eigenvalues[0] >= -1e-12
    assert s.eigenvalues[-1] <= 2 + 1e-12


def test_constant_eigenfunction_at_zero():
    g = path_graph(4)
    s = spectrum(g)
    u0 = s.eigenfunctions[0]
    assert np.allclose(u0, u0[0])
    assert abs(degree_norm(g, u0) - 1.0) < 1e-12


def test_eigenfunctions_degree_orthonormal():
    g = cycle_graph(6)
    s = spectrum(g)
    gram = np.array(
        [
            [degree_inner_product(g, u, v) for v in s.eigenfunctions]
            for u in s.eigenfunctions
        ]
    )
    assert np.allclose(gram, np.eye(g.n), atol=1e-10)


def test_residual_small_on_fixtures(fixtures):
    for name, g in fixtures.items():
        s = spectrum(g)
        assert s.residual < 1e-10, name


def test_apply_laplacian_matches_eigenvalues():
    g = complete_graph(4)
    s = spectrum(g)
    for lam, u in zip(s.eigenvalues, s.eigenfunctions):
        assert np.allclose(apply_laplacian(g, u), lam * u, atol=1e-10)


def test_rayleigh_quotient_recovers_eigenvalue():
    g = cycle_graph(5)
    s = spectrum(g)
    for lam, u in zip(s.eigenvalues[1:], s.eigenfunctions[1:]):
        # sum_{i<j} w_ij (u(i)-u(j))^2 over sum_i d_i u(i)^2
        energy = 0.5 * float((g.weights * (u[:, None] - u[None, :]) ** 2).sum())
        assert abs(energy / degree_norm(g, u) ** 2 - lam) < 1e-10


def test_laplacian_matrix_rows():
    # each row of I - D^{-1}W sums to zero: Delta of a constant is zero
    g = path_graph(3)
    assert np.allclose(apply_laplacian(g, np.ones(3)), 0.0)


def test_bipartite_iff_two():
    assert abs(spectrum(cycle_graph(4)).lambda_max - 2.0) < 1e-12
    assert abs(spectrum(cycle_graph(6)).lambda_max - 2.0) < 1e-12
    assert spectrum(cycle_graph(5)).lambda_max < 2.0 - 1e-6
    assert spectrum(complete_graph(3)).lambda_max < 2.0 - 1e-6


def test_rho_for_complete_graph():
    s = spectrum(complete_graph(5))
    assert abs(spectral_radius_rho(s) - 0.25) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_trace_identity(seed):
    g = _random_graph(seed, n_max=10, weighted=True, allow_loops=True)
    s = spectrum(g)
    loops = float(np.sum(np.diag(g.weights) / g.degrees))
    assert abs(float(np.sum(s.eigenvalues)) - (g.n - loops)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_mean_eigenvalue_sandwich(seed):
    # lambda_1 <= (N - sum w_ii/d_i)/(N-1) <= lambda_max
    g = _random_graph(seed, n_max=9, weighted=True, allow_loops=True)
    s = spectrum(g)
    loops = float(np.sum(np.diag(g.weights) / g.degrees))
    mean_nonzero = (g.n - loops) / (g.n - 1)
    assert s.lambda_1 <= mean_nonzero + 1e-10
    assert mean_nonzero <= s.lambda_max + 1e-10


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_loopless_lambda_max_floor(seed):
    g = _random_graph(seed, n_max=9, weighted=True, allow_loops=False)
    s = spectrum(g)
    assert s.lambda_max >= g.n / (g.n - 1) - 1e-10


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_unweighted_noncomplete_lambda1_at_most_one(seed):
    g = _random_graph(seed, n_max=9, n_min=3, weighted=False, allow_loops=False)
    off = g.weights[~np.eye(g.n, dtype=bool)]
    if np.all(off == 1.0):  # complete graph: the bound does not apply
        return
    assert spectrum(g).lambda_1 <= 1.0 + 1e-10


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_spectrum_in_range_random(seed):
    g = _random_graph(seed, n_max=10, weighted=True, allow_loops=True)
    s = spectrum(g)
    assert s.eigenvalues[0] >= -1e-10
    assert s.eigenvalues[-1] <= 2.0 + 1e-10
    assert s.residual < 1e-9


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_bipartite_matches_lambda_max_two(seed):
    g = _random_graph(seed, n_max=9, weighted=True, allow_loops=True)
    s = spectrum(g)
    if is_bipartite(g):
        assert abs(s.lambda_max - 2.0) < 1e-9
    else:
        assert s.lambda_max < 2.0 - 1e-12
