import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from lapspec.graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    build_graph,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    path_graph,
)
from lapspec.partitions import (
    CHEEGER_EXACT_CAP,
    DUAL_CHEEGER_EXACT_CAP,
    OddWalkFamily,
    balance_ratio_exact,
    cheeger_exact,
    default_odd_walk_family,
    dual_cheeger_exact,
    dual_cheeger_greedy_lower,
    greedy_balance_partition,
    walk_family_from_dict,
    xi_product_bound,
)
from lapspec import partitions
from lapspec.neighborhood import neighborhood_graph
from oracles import (
    balance,
    oracle_balance_chunk_score,
    oracle_balance_ratio,
    oracle_cheeger,
    oracle_cheeger_chunk_score,
    oracle_cheeger_witness,
    oracle_dual_cheeger,
    oracle_dual_cheeger_chunk_score,
    oracle_dual_cheeger_witness,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_graph(seed, **kw):
    return random_connected_graph(np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# exact enumeration vs the independent oracle


def test_cheeger_matches_oracle_on_fixtures(fixtures):
    for name, g in fixtures.items():
        if g.n > 7:
            continue
        assert cheeger_exact(g).value == float(oracle_cheeger(g)), name


def test_dual_cheeger_matches_oracle_on_fixtures(fixtures):
    for name, g in fixtures.items():
        if g.n > 7:
            continue
        assert dual_cheeger_exact(g).value == float(oracle_dual_cheeger(g)), name


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_cheeger_matches_oracle_random(seed):
    g = _random_graph(seed, n_max=7, weighted=True, allow_loops=True)
    assert cheeger_exact(g).value == float(oracle_cheeger(g))


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_dual_cheeger_matches_oracle_random(seed):
    g = _random_graph(seed, n_max=7, weighted=True, allow_loops=True)
    assert dual_cheeger_exact(g).value == float(oracle_dual_cheeger(g))


def test_balance_ratio_matches_oracle(fixtures):
    for name, g in fixtures.items():
        if g.n > 7:
            continue
        assert balance_ratio_exact(g).value == float(oracle_balance_ratio(g)), name


def _assert_oracle_witnesses(g, name=None):
    assert cheeger_exact(g).witness.side == oracle_cheeger_witness(g), name
    tri = dual_cheeger_exact(g).witness
    assert (tri.v1, tri.v2) == oracle_dual_cheeger_witness(g), name


def test_witnesses_match_oracle_on_fixtures(fixtures):
    for name, g in fixtures.items():
        if g.n <= 7:
            _assert_oracle_witnesses(g, name)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_witnesses_match_oracle_random(seed):
    _assert_oracle_witnesses(_random_graph(seed, n_max=7, weighted=True, allow_loops=True))


# ---------------------------------------------------------------------------
# the split pass against the scan over every chunk


def _scan_every_chunk(start, base, m, score, block, tol):
    stop = base**m
    return partitions._first_max(range(start, stop, partitions._CHUNK), stop, score)


def _gnp(rng, n):
    """A connected draw of G(n, 0.4)."""
    while True:
        a = np.triu(rng.random((n, n)) < 0.4, 1).astype(float)
        a += a.T
        if a.sum(axis=1).all():
            g = WeightedGraph(n=n, weights=a)
            if is_connected(g):
                return g


def _split_pass_graphs():
    """Seeded graphs on which the split pass crosses several chunks and tiles.

    h at n = 17, 20 and 22 (2, 16 and 64 chunks; 1, 8 and 32 tiles), hbar
    at n = 10, 12 and 14 (2, 17 and 146 chunks; 1, 5 and 38 tiles).  Continuous weights and
    Gamma[l] need the rounding tolerance; dyadic weights, K_n and C_n are
    scored exactly and tie across many chunks; the ties of K_n and C_n
    with weight 0.1 round apart.
    """
    rng = np.random.default_rng(20261018)
    graphs = {}
    for n in (12, 20):
        looped = random_connected_graph(rng, n_min=n, n_max=n, allow_loops=True)
        w = np.triu(looped.weights * rng.uniform(0.1, 10.0, size=(n, n)))
        graphs[f"weighted-looped{n}"] = WeightedGraph(n=n, weights=w + np.triu(w, 1).T)
        graphs[f"dyadic-looped{n}"] = random_connected_graph(
            rng, n_min=n, n_max=n, weighted=True, allow_loops=True
        )
        graphs[f"K{n}"] = complete_graph(n)
        graphs[f"0.1 K{n}"] = WeightedGraph(n=n, weights=0.1 * complete_graph(n).weights)
        graphs[f"0.1 C{n}"] = WeightedGraph(n=n, weights=0.1 * cycle_graph(n).weights)
        graphs[f"C{n}"] = cycle_graph(n)
        graphs[f"C{n}[3]"] = neighborhood_graph(cycle_graph(n), 3)
        g = _gnp(rng, n)
        for l in (2, 3):
            graphs[f"G({n}, 0.4)[{l}]"] = neighborhood_graph(g, l)
    graphs["K10[2]"] = neighborhood_graph(complete_graph(10), 2)
    graphs["K17"] = complete_graph(17)
    graphs["G(14, 0.4)[3]"] = neighborhood_graph(_gnp(rng, 14), 3)
    g = _gnp(rng, 22)
    for l in (2, 3):
        graphs[f"G(22, 0.4)[{l}]"] = neighborhood_graph(g, l)
    return graphs


SPLIT_PASS_GRAPHS = _split_pass_graphs()


def _enumerators(g):
    """The enumerators whose split pass crosses several chunks on g, with their keywords."""
    if g.n <= 14:
        return [(dual_cheeger_exact, {"check_connected": False})]
    return [(cheeger_exact, {"check_connected": False}), (balance_ratio_exact, {})]


_CHUNK_ORACLES = {
    cheeger_exact: oracle_cheeger_chunk_score,
    balance_ratio_exact: oracle_balance_chunk_score,
    dual_cheeger_exact: oracle_dual_cheeger_chunk_score,
}


@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_split_pass_bit_identical_to_every_chunk_scan(monkeypatch, name):
    # The scan over every chunk shares the enumerators' score functions, so
    # it also checks each chunk's scores against an oracle that computes
    # them on fresh arrays: every full chunk and the shorter last one, in
    # the order the scores' buffers meet them.
    g = SPLIT_PASS_GRAPHS[name]
    for fn, kw in _enumerators(g):
        fast = fn(g, **kw)
        oracle = _CHUNK_ORACLES[fn](g)
        lengths = set()

        def checked_scan(start, base, m, score, block, tol):
            def checked(codes):
                vals = score(codes)
                # bit for bit: float.hex equality, and NaN payloads too
                assert np.array_equal(vals.view(np.int64), oracle(codes).view(np.int64)), (
                    fn.__name__, int(codes[0]))
                lengths.add(len(codes))
                return vals

            return _scan_every_chunk(start, base, m, checked, block, tol)

        with monkeypatch.context() as m:
            m.setattr(partitions, "_split_first_max", checked_scan)
            full = fn(g, **kw)
        assert fast.value.hex() == full.value.hex(), fn.__name__
        assert fast.witness == full.witness, fn.__name__
        assert len(lengths) == 2 and partitions._CHUNK in lengths, (fn.__name__, lengths)


_FAULT_PROBE = """
import resource, sys
import numpy as np
from lapspec.graphs import WeightedGraph
from lapspec import partitions

w = np.load(sys.argv[1])
g = WeightedGraph(n=len(w), weights=w)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
getattr(partitions, sys.argv[2])(g)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


_FAULT_PROBE_GRAPHS = {
    # 128 split-pass tiles and one rescored chunk
    "G(24, 0.4)": ("cheeger_exact", lambda: _gnp(np.random.default_rng(24), 24)),
    # rounding ties: 16 of the 49 chunks are rescored
    "K13[3]": ("dual_cheeger_exact", lambda: neighborhood_graph(complete_graph(13), 3)),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as on Linux")
@pytest.mark.parametrize("name", list(_FAULT_PROBE_GRAPHS))
def test_split_pass_reuses_its_buffers(tmp_path, name):
    # The first enumeration in a fresh process, as in every CLI run.  With a
    # fresh (rows, lows) array per tile the 128 tiles of n = 24 fault in
    # about 31,000 pages; with buffers allocated once per pass, about 2,500.
    # With fresh arrays per rescored chunk, the 16 chunks that hbar rescores
    # on K13[3] fault in about 24,000; with arrays allocated once per call,
    # about 5,300.
    pytest.importorskip("resource")
    fn, graph = _FAULT_PROBE_GRAPHS[name]
    np.save(tmp_path / "w.npy", graph().weights)
    # one BLAS thread, as in the benchmark's children: each thread faults in its own buffers
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(partitions.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(tmp_path / "w.npy"), fn],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 10_000


# ---------------------------------------------------------------------------
# closed forms and witnesses


@pytest.mark.parametrize("n", range(3, 9))
def test_complete_graph_constants(n):
    g = complete_graph(n)
    h = Fraction(n, 2 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 2 * (n - 1))
    hbar = Fraction(n, 2 * (n - 1)) if n % 2 == 0 else Fraction(n + 1, 2 * n)
    assert cheeger_exact(g).value == float(h)
    assert dual_cheeger_exact(g).value == float(hbar)


def test_k2_extremal():
    g = complete_graph(2)
    assert cheeger_exact(g).value == 1.0
    assert dual_cheeger_exact(g).value == 1.0


def test_cheeger_witness_is_consistent():
    g = complete_graph(6)
    res = cheeger_exact(g)
    bp = res.witness
    assert bp.boundary / min(bp.vol_side, bp.vol_complement) == res.value
    assert len(bp.side) == 3  # half split is optimal on K_6


def test_dual_witness_bipartite():
    g = cycle_graph(4)
    res = dual_cheeger_exact(g)
    assert res.value == 1.0
    v1, v2 = set(res.witness.v1), set(res.witness.v2)
    assert v1 | v2 == set(range(4))
    assert {0, 2} in (v1, v2)


def test_path_cheeger():
    # P_3: cutting the middle edge gives 1/ min(1, 3) = 1... the best cut
    # is the end vertex: boundary 1, volume 1.
    g = path_graph(3)
    assert cheeger_exact(g).value == 1.0 / 1.0


def test_first_achiever_is_deterministic():
    g = complete_graph(6)
    w1 = cheeger_exact(g).witness.side
    w2 = cheeger_exact(g).witness.side
    assert w1 == w2


def test_cheeger_cap_raises():
    g = complete_graph(6)
    with pytest.raises(GraphError) as exc:
        cheeger_exact(g, cap=5)
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED
    assert CHEEGER_EXACT_CAP == 24
    assert DUAL_CHEEGER_EXACT_CAP == 14


def test_dual_cap_raises():
    g = complete_graph(6)
    with pytest.raises(GraphError):
        dual_cheeger_exact(g, cap=5)


# ---------------------------------------------------------------------------
# greedy certificates


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_greedy_dual_lower_half(seed):
    g = _random_graph(seed, n_max=10, weighted=True, allow_loops=False)
    res = dual_cheeger_greedy_lower(g)
    assert res.value >= 0.5 - 1e-12
    assert res.value <= dual_cheeger_exact(g).value + 1e-12 if g.n <= 9 else True


def test_greedy_dual_requires_loopless():
    g = build_graph(2, [(0, 0, 1.0), (0, 1, 1.0)])
    with pytest.raises(GraphError) as exc:
        dual_cheeger_greedy_lower(g)
    assert exc.value.kind is GraphErrorKind.REQUIRES_LOOPLESS


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_greedy_balance_guarantees(seed):
    g = _random_graph(seed, n_max=10, weighted=True)
    bp = greedy_balance_partition(g)
    assert balance(bp.partition) >= bp.weighted_guarantee - 1e-12
    assert 1 <= bp.m <= g.n


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_greedy_balance_unweighted_floor(seed):
    g = _random_graph(seed, n_max=10, weighted=False)
    bp = greedy_balance_partition(g)
    n = g.n
    assert balance(bp.partition) >= (n - 1) / (n + 1) - 1e-12


def test_greedy_balance_regular_odd_equality():
    # odd cycle: regular with odd N, the guarantee is met with equality
    g = cycle_graph(5)
    bp = greedy_balance_partition(g)
    assert abs(balance(bp.partition) - 4 / 6) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_relation_chain(seed):
    # ((N-1)/N) h <= (2R/(1+R)) h <= hbar on unweighted graphs
    g = _random_graph(seed, n_max=10, weighted=False)
    h = cheeger_exact(g).value
    hbar = dual_cheeger_exact(g).value if g.n <= 14 else None
    r = balance_ratio_exact(g).value
    lhs = (g.n - 1) / g.n * h
    mid = 2 * r / (1 + r) * h
    assert lhs <= mid + 1e-12
    if hbar is not None:
        assert mid <= hbar + 1e-12
        assert hbar <= 1.0 + 1e-15


# ---------------------------------------------------------------------------
# odd closed walks


def test_default_walk_family_triangle():
    g = complete_graph(3)
    fam = default_odd_walk_family(g)
    fam.validate(g)
    assert len(fam.walks) == 3
    for i, walk in enumerate(fam.walks):
        assert walk[0] == walk[-1] == i
        assert (len(walk) - 1) % 2 == 1


def test_walk_family_on_loop():
    g = build_graph(2, [(0, 0, 1.0), (0, 1, 1.0)])
    fam = default_odd_walk_family(g)
    fam.validate(g)
    # vertex 0 can use its loop directly; vertex 1 must route through it
    assert fam.walks[0] == (0, 0)


def test_bipartite_has_no_odd_walk():
    with pytest.raises(GraphError) as exc:
        default_odd_walk_family(cycle_graph(4))
    assert exc.value.kind is GraphErrorKind.NO_ODD_WALK


def test_family_validation_rejects_even_walk():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        OddWalkFamily(walks=((0, 1, 0), (1, 2, 1), (2, 0, 2))).validate(g)


@pytest.mark.parametrize("walk", [(0, -1, 1, 0), (0, 7, 1, 0)])
def test_family_validation_rejects_out_of_range_vertex(walk):
    g = complete_graph(3)
    with pytest.raises(ValueError, match="outside"):
        OddWalkFamily(walks=(walk, (1, 2, 0, 1), (2, 0, 1, 2))).validate(g)


@pytest.mark.parametrize(
    "data", [[1], {}, {"walks": 3}, {"walks": [1]}, {"walks": [[0, "a", 0]]}]
)
def test_walk_family_from_dict_rejects_malformed(data):
    with pytest.raises(ValueError):
        walk_family_from_dict(data)


def test_family_roundtrip():
    g = complete_graph(3)
    fam = default_odd_walk_family(g)
    again = walk_family_from_dict({"walks": [list(w) for w in fam.walks]})
    assert again.walks == fam.walks


def test_xi_bounds_dual_cheeger(fixtures):
    # 1 - 1/xi is an upper bound for hbar; the product bound dominates xi
    for name, g in fixtures.items():
        if is_bipartite(g) or g.n > 9:
            continue
        pb = xi_product_bound(g, default_odd_walk_family(g))
        assert pb.xi <= pb.product + 1e-12, name
        if g.n <= 7:
            hbar = dual_cheeger_exact(g).value
            assert hbar <= 1.0 - 1.0 / pb.xi + 1e-12, name


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_xi_random(seed):
    g = _random_graph(seed, n_max=7, weighted=True, allow_loops=True)
    if is_bipartite(g):
        return
    xi = xi_product_bound(g, default_odd_walk_family(g)).xi
    assert xi >= 1.0
    assert dual_cheeger_exact(g).value <= 1.0 - 1.0 / xi + 1e-9
