"""Breadth-first searches checked against integer adjacency powers.

Random graphs with up to 10 vertices, loops, disconnected components and
forced-bipartite edge sets.  Reachability is taken from 0/1 matrix powers
(clipped after each product, so nothing overflows): ``(A^k)_ij > 0`` iff a
walk of exactly k steps joins i and j.  The exact enumerators are checked
against the ``Fraction`` oracles on disconnected draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec.bounds import hop_diameter
from lapspec.graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    bipartition_of,
    is_connected,
)
from lapspec.partitions import (
    balance_ratio_exact,
    cheeger_exact,
    default_odd_walk_family,
    dual_cheeger_exact,
)
from lapspec.spectral import spectrum
from oracles import (
    oracle_balance_ratio,
    oracle_cheeger,
    oracle_cheeger_witness,
    oracle_dual_cheeger,
    oracle_dual_cheeger_witness,
)


@st.composite
def graphs(draw, n_max: int = 10) -> WeightedGraph:
    n = draw(st.integers(1, n_max))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.integers(1, 12), min_size=len(pairs), max_size=len(pairs)))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    w = np.zeros((n, n))
    for (i, j), keep, wt in zip(pairs, picked, weights):
        if keep and not (bipartite and side[i] == side[j]):
            w[i, j] = w[j, i] = wt / 4.0
    for v in range(n):  # an isolated vertex gets an edge to its partner, or a loop
        if not w[v].any():
            u = v ^ 1 if (v ^ 1) < n else v
            w[u, v] = w[v, u] = 1.0
    return WeightedGraph(n=n, weights=w)


def _adjacency(g: WeightedGraph) -> np.ndarray:
    return (g.weights > 0).astype(np.int64)


def _walk_powers(a: np.ndarray, k_max: int) -> list[np.ndarray]:
    """``[A^0 > 0, A^1 > 0, ..., A^k_max > 0]`` as 0/1 integer matrices."""
    powers = [np.eye(len(a), dtype=np.int64)]
    for _ in range(k_max):
        powers.append(np.minimum(powers[-1] @ a, 1))
    return powers


def _shortest_odd_closed_walks(g: WeightedGraph) -> list[int | None]:
    """Smallest odd k with ``(A^k)_ii > 0`` at every vertex i, ``None`` if there is none."""
    powers = _walk_powers(_adjacency(g), 2 * g.n)
    return [
        next((k for k in range(1, 2 * g.n, 2) if powers[k][i, i] > 0), None)
        for i in range(g.n)
    ]


def _lazy_walk_powers(g: WeightedGraph) -> list[np.ndarray]:
    """``(I + A)^k > 0`` for k = 0 .. n: pairs within k hops."""
    return _walk_powers(_adjacency(g) + np.eye(g.n, dtype=np.int64), g.n)


def _oracle_connected(g: WeightedGraph) -> bool:
    return bool(_lazy_walk_powers(g)[-1].all())


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_is_connected_matches_adjacency_powers(g):
    assert is_connected(g) == _oracle_connected(g)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_bipartition_is_proper_two_coloring(g):
    odd = _shortest_odd_closed_walks(g)
    sides = bipartition_of(g)
    # a 2-colouring exists iff no vertex lies on an odd closed walk
    assert (sides is None) == any(k is not None for k in odd)
    if sides is not None:
        v1, v2 = sides
        assert 0 in v1
        assert v1 | v2 == frozenset(range(g.n)) and not v1 & v2
        a = _adjacency(g)
        for cls in (v1, v2):
            idx = sorted(cls)
            assert not a[np.ix_(idx, idx)].any()
    if _oracle_connected(g) and g.n >= 2:
        lam_max = spectrum(g).lambda_max
        assert (sides is None) == (abs(lam_max - 2.0) > 1e-9)


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_hop_diameter_matches_adjacency_powers(g):
    if not _oracle_connected(g):
        with pytest.raises(GraphError) as exc:
            hop_diameter(g)
        assert exc.value.kind is GraphErrorKind.DISCONNECTED
        return
    powers = _lazy_walk_powers(g)
    assert hop_diameter(g) == next(k for k, p in enumerate(powers) if p.all())


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_odd_walks_are_shortest(g):
    odd = _shortest_odd_closed_walks(g)
    if None in odd:
        with pytest.raises(GraphError) as exc:
            default_odd_walk_family(g)
        assert exc.value.kind is GraphErrorKind.NO_ODD_WALK
        return
    fam = default_odd_walk_family(g)
    fam.validate(g)
    assert [len(walk) - 1 for walk in fam.walks] == odd


@st.composite
def disconnected_graphs(draw) -> WeightedGraph:
    """Two draws of ``graphs`` side by side, with no edge between them."""
    a, b = draw(graphs(n_max=4)), draw(graphs(n_max=4))
    w = np.zeros((a.n + b.n, a.n + b.n))
    w[: a.n, : a.n], w[a.n :, a.n :] = a.weights, b.weights
    return WeightedGraph(n=a.n + b.n, weights=w)


@settings(max_examples=30, deadline=None)
@given(disconnected_graphs())
def test_enumerators_match_oracles_on_disconnected_graphs(g):
    assert not is_connected(g)
    h = cheeger_exact(g)
    assert h.value == float(oracle_cheeger(g)) == 0.0
    assert h.witness.side == oracle_cheeger_witness(g)
    hbar = dual_cheeger_exact(g)
    assert hbar.value == float(oracle_dual_cheeger(g))
    assert (hbar.witness.v1, hbar.witness.v2) == oracle_dual_cheeger_witness(g)
    assert balance_ratio_exact(g).value == float(oracle_balance_ratio(g))
