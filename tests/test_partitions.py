import math
import os
import subprocess
import sys
import threading
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
    oracle_scan_of_candidates,
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
    with weight 0.1 round apart.  A pendant edge of weight 3e-14 puts the
    tolerance at infinity, so that every chunk is a candidate, with no pass.
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
    for n in (12, 20):
        w = np.zeros((n, n))
        w[:-1, :-1] = 0.1 * _gnp(rng, n - 1).weights
        w[0, -1] = w[-1, 0] = 3e-14
        graphs[f"pendant G({n - 1}, 0.4)"] = WeightedGraph(n=n, weights=w)
    return graphs


SPLIT_PASS_GRAPHS = _split_pass_graphs()


def _enumerators(g):
    """The enumerators whose split pass crosses several chunks on g."""
    if g.n <= 14:
        return [dual_cheeger_exact]
    return [cheeger_exact, balance_ratio_exact]


_CHUNK_ORACLES = {
    cheeger_exact: oracle_cheeger_chunk_score,
    balance_ratio_exact: oracle_balance_chunk_score,
    dual_cheeger_exact: oracle_dual_cheeger_chunk_score,
}


@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_split_pass_bit_identical_to_every_chunk_scan(monkeypatch, name):
    # With every chunk a candidate, the scan scores every chunk with the
    # enumerators' score functions, so it also checks each chunk's scores
    # against an oracle that computes them on fresh arrays: every full chunk
    # and the shorter last one, in the order the scores' buffers meet them.
    g = SPLIT_PASS_GRAPHS[name]
    first_max = partitions._first_max
    for fn in _enumerators(g):
        fast = fn(g)
        oracle = _CHUNK_ORACLES[fn](g)
        lengths = set()

        def checked_first_max(starts, stop, score):
            def checked(codes):
                vals = score(codes)
                # bit for bit: float.hex equality, and NaN payloads too
                assert np.array_equal(vals.view(np.int64), oracle(codes).view(np.int64)), (
                    fn.__name__, int(codes[0]))
                lengths.add(len(codes))
                return vals

            return first_max(starts, stop, checked)

        with monkeypatch.context() as m:
            m.setattr(partitions, "_candidates", lambda starts, *args: starts)
            m.setattr(partitions, "_first_max", checked_first_max)
            full = fn(g)
        assert fast.value.hex() == full.value.hex(), fn.__name__
        assert fast.witness == full.witness, fn.__name__
        assert len(lengths) == 2 and partitions._CHUNK in lengths, (fn.__name__, lengths)


def _oracle_graphs():
    """Seeded graphs for the rescoring of the candidate chunks.

    h and balance at n = 17, 20 and 24, hbar at n = 10, 12 and 14: a unit
    G(n, 0.4) (exact sums), its Gamma[2] and Gamma[3], and the same graph
    with weights in [0.1, 10).  Gamma[2](K17) is dyadic and ties across
    chunks; Gamma[2](K18), and Gamma[2](K12) for hbar, tie in exact
    arithmetic and round apart.
    """
    rng = np.random.default_rng(20261019)
    graphs = {}
    for n in (10, 12, 14, 17, 20, 24):
        g = _gnp(rng, n)
        graphs[f"G({n}, 0.4)"] = g
        for l in (2, 3):
            graphs[f"G({n}, 0.4)[{l}]"] = neighborhood_graph(g, l)
        w = np.triu(g.weights * rng.uniform(0.1, 10.0, size=(n, n)), 1)
        graphs[f"weighted G({n}, 0.4)"] = WeightedGraph(n=n, weights=w + w.T)
    for n in (12, 17, 18):
        graphs[f"K{n}[2]"] = neighborhood_graph(complete_graph(n), 2)
    return graphs


ORACLE_GRAPHS = _oracle_graphs()


def _scores(monkeypatch, fn, g):
    """The chunk score that ``fn(g)`` scans with, and the lengths of its calls."""
    calls, scores, scan = [], [], partitions._exact_scan

    def recording_scan(g, what, cap, base, score, block):
        def counted(codes, rows=slice(None)):
            calls.append(len(codes))
            return score(codes, rows)

        scores.append(score)
        return scan(g, what, cap, base, counted, block)

    with monkeypatch.context() as m:
        m.setattr(partitions, "_exact_scan", recording_scan)
        fn(g)
    return scores[0], calls


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_rescoring_bit_identical_to_scoring_every_candidate_chunk(monkeypatch, name):
    # The pass's tiles pick the codes of each candidate chunk that are
    # scored again, and none on exact sums.  The value bits and witness are
    # those of scoring every candidate chunk in full, on one worker or two.
    g = ORACLE_GRAPHS[name]
    for fn in _enumerators(g):
        for count in (1, 2):
            monkeypatch.setattr(partitions, "_workers", lambda: count)
            picked, value, witness = _picked_run(monkeypatch, fn, g)
            want_value, want_witness = oracle_scan_of_candidates(fn.__name__, g, picked[0])
            assert value == want_value.hex(), (fn.__name__, count)
            assert witness == want_witness, (fn.__name__, count)
            _, calls = _scores(monkeypatch, fn, g)
            assert (not calls) == (partitions._tolerance(g) == 0), (fn.__name__, count)


@pytest.mark.parametrize("name", [name for name in ORACLE_GRAPHS
                                  if "weighted" in name or "K18" in name])
def test_chunk_scores_of_some_rows_are_those_of_the_whole_chunk(monkeypatch, name):
    # A score forms its products on the whole chunk, then works row by row
    # on the rows asked for: one row or many, they get the bits of the same
    # rows of the whole chunk's scores.  The first, a middle and the last,
    # shorter chunk.
    g = ORACLE_GRAPHS[name]
    rng = np.random.default_rng(g.n)
    for fn in _enumerators(g):
        score, _ = _scores(monkeypatch, fn, g)
        base, m, start = (3, g.n, 0) if fn is dual_cheeger_exact else (2, g.n - 1, 1)
        starts = np.arange(start, base**m, partitions._CHUNK)
        for lo in starts[[0, len(starts) // 2, -1]]:
            codes = np.arange(lo, min(lo + partitions._CHUNK, base**m), dtype=np.int64)
            full = score(codes).copy()  # a view of the score's arrays
            c = len(codes)
            for rows in ([0], [c - 1], rng.integers(c, size=1),
                         np.sort(rng.choice(c, 100, replace=False)), np.arange(1, c, 3)):
                some = score(codes, np.asarray(rows))
                assert np.array_equal(some.view(np.int64), full[rows].view(np.int64)), (
                    fn.__name__, int(lo), len(rows))


def test_cheeger_zero_is_positive_zero():
    # Two disjoint K10: dyadic, so h = 0 is read from a tile, as (-0) / den
    # = +0.0, where a chunk's -(0 / den) is -0.0.  The value is +0.0 either
    # way.  (The CLI refuses a disconnected graph before any enumeration.)
    w = np.zeros((20, 20))
    w[:10, :10] = w[10:, 10:] = complete_graph(10).weights
    res = cheeger_exact(WeightedGraph(n=20, weights=w))
    assert res.witness.side == frozenset(range(10))
    assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0


def _scaled(g, k):
    """g with every weight times 2**k."""
    return WeightedGraph(n=g.n, weights=np.ldexp(g.weights, k))


def _picked_run(monkeypatch, fn, g):
    """``fn(g)``'s candidate starts of each split pass, value bits and witness."""
    picked, candidates = [], partitions._candidates
    with monkeypatch.context() as m:
        m.setattr(partitions, "_candidates",
                  lambda *args: picked.append(candidates(*args).tolist()) or picked[-1])
        res = fn(g)
    return picked, res.value.hex(), res.witness


@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_split_pass_does_not_depend_on_the_worker_count(monkeypatch, name):
    # Every pass of two tiles or more is split into as many shares as there
    # are workers.  A share's first tile starts at code base**k * h0 with
    # 0 < h0 < 3**7, never at a chunk boundary, so every boundary between
    # two workers falls inside a chunk.  The candidates, value bits and
    # witness are those of the float64 stage alone (err32 infinite), on the
    # graph and on its copies with weights times 2**-900 and 2**900, which
    # skip the float32 stage.  Every pass with a finite err32 runs the
    # float32 stage, however few its tiles.
    g = SPLIT_PASS_GRAPHS[name]
    split = partitions._split
    monkeypatch.setattr(partitions, "_MIN_TILES", 1)
    monkeypatch.setattr(partitions, "_SCREEN_TILES", 0)
    for fn in _enumerators(g):
        with monkeypatch.context() as m:
            m.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)
            want = _picked_run(m, fn, g)
        for k in (0, -900, 900):
            for count in (1, 2, 3):
                passes = []

                def recording_split(new_scan, tiles):
                    shares = []
                    passes.append((tiles, shares))

                    def new_recording_scan():
                        scan = new_scan()
                        return lambda share: shares.append(share) or scan(share)

                    return split(new_recording_scan, tiles)

                monkeypatch.setattr(partitions, "_workers", lambda: count)
                monkeypatch.setattr(partitions, "_split", recording_split)
                # threads switched every microsecond, up to three on however many CPUs
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    seen = _picked_run(monkeypatch, fn, _scaled(g, k))
                finally:
                    sys.setswitchinterval(interval)
                for tiles, shares in passes:
                    assert len(shares) == min(count, len(tiles)), (fn.__name__, k, count)
                    # workers finish in any order; a tile is (h0, ...)
                    shares.sort(key=lambda share: share[0][0])
                    assert [t[0] for share in shares for t in share] == [t[0] for t in tiles]
                assert seen == want, (fn.__name__, k, count)
        if name.startswith("pendant"):  # tol = inf: every chunk is a candidate, with no pass
            start, stop = (0, 3**g.n) if fn is dual_cheeger_exact else (1, 2 ** (g.n - 1))
            assert want[0] == [list(range(start, stop, partitions._CHUNK))], fn.__name__
            assert not passes, fn.__name__


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_enumerators_invariant_under_power_of_two_scaling(monkeypatch, name, k):
    # A power of two changes no ratio and no rounding, so the value bits,
    # witness and candidates of 2**k g are those of g.  At 2**k the float32
    # stage is skipped (err32 infinite): a plain cast would overflow (a
    # warning, an error under this suite's filter) or flush the weights to
    # zero.
    g = SPLIT_PASS_GRAPHS[name]
    for fn in _enumerators(g):
        assert _picked_run(monkeypatch, fn, _scaled(g, k)) == _picked_run(monkeypatch, fn, g), (
            fn.__name__)


def _volume_at(g, e):
    """g times the power of two that puts its total volume in [2**(e - 1), 2**e)."""
    return _scaled(g, e - math.frexp(g.volume)[1])


@pytest.mark.parametrize("name", [name for name in SPLIT_PASS_GRAPHS if "pendant" not in name])
def test_float32_stage_runs_on_total_volumes_in_its_range(monkeypatch, name):
    # At either end of its range the float32 stage runs, neither overflowing
    # nor flushing a weight to zero, with the candidates, value bits and
    # witness of g; a step beyond either end, err32 is infinite.
    monkeypatch.setattr(partitions, "_SCREEN_TILES", 0)
    g = SPLIT_PASS_GRAPHS[name]
    for e in (-65, 65):
        scaled = _volume_at(g, e)
        assert partitions._tolerance32(scaled, partitions._tolerance(scaled)) == np.inf, e
    for e in (-64, 64):
        scaled = _volume_at(g, e)
        assert partitions._tolerance32(scaled, partitions._tolerance(scaled)) < np.inf, e
        for fn in _enumerators(g):
            assert _picked_run(monkeypatch, fn, scaled) == _picked_run(monkeypatch, fn, g), (
                fn.__name__, e)


@pytest.mark.parametrize("e", [None, -64, 64])
@pytest.mark.parametrize("name", [name for name in SPLIT_PASS_GRAPHS if "pendant" not in name])
def test_float32_tiles_within_err32_of_float64(monkeypatch, name, e):
    # Every code's float32 tile value is within err32 of its float64 one:
    # the bound that makes the float32 stage drop no chunk the float64 one
    # keeps.  err32 just below 1 makes the float32 stage keep every chunk,
    # so that the float64 stage scores every tile too, and every pass runs
    # the float32 stage, however few its tiles.  Also with the total volume
    # at either end of the float32 stage's range.
    monkeypatch.setattr(partitions, "_SCREEN_TILES", 0)
    g = SPLIT_PASS_GRAPHS[name] if e is None else _volume_at(SPLIT_PASS_GRAPHS[name], e)
    err32 = partitions._tolerance32(g, partitions._tolerance(g))
    assert err32 < 0.02
    for fn in _enumerators(g):
        values = {np.float32: {}, np.float64: {}}

        def recording_tile(tile, terms, rows, arrays, hi):
            tile(terms, rows, *arrays)
            values[arrays[0].dtype.type][rows.start] = arrays[0].copy()

        with monkeypatch.context() as m:
            _patched_tiles(m, recording_tile)
            _every_tile_in_float64(m)
            fn(g)
        single, double = (np.concatenate([v for _, v in sorted(values[t].items())])
                          for t in (np.float32, np.float64))
        assert single.shape == double.shape, fn.__name__
        # -inf: the tripartitions without a V2, or starting with V2; NaN: the
        # empty side of code 0 in h, before the first code of the scan
        finite = np.isfinite(double)
        assert np.array_equal(np.isfinite(single), finite), fn.__name__
        assert np.array_equal(single[~finite], double[~finite], equal_nan=True), fn.__name__
        assert np.isnan(double).sum() == (fn is cheeger_exact), fn.__name__
        gap = np.abs(single[finite].astype(float) - double[finite])
        assert gap.max() <= err32, (fn.__name__, gap.max(), err32)


def _patched_tiles(monkeypatch, patch):
    """Run every tile of a split pass as ``patch(tile, terms, rows, arrays, hi)``."""
    candidates = partitions._candidates

    def patched_candidates(starts, base, m, block, *bounds):
        def patched_block(lo, hi):
            kept, tile, scratch, terms = block(lo, hi)

            def patched_tile(terms, rows, *arrays):
                return patch(tile, terms, rows, arrays, hi)

            return kept, patched_tile, scratch, terms

        return candidates(starts, base, m, patched_block, *bounds)

    monkeypatch.setattr(partitions, "_candidates", patched_candidates)


def _in_second_half(rows, hi) -> bool:
    """Whether a tile lies in the second of two workers' shares of the highs ``hi``."""
    return rows.start >= len(hi) // 2


def _every_tile_in_float64(monkeypatch):
    """Make the float32 stage keep every chunk, so that the float64 stage scores every tile."""
    monkeypatch.setattr(partitions, "_tolerance32", lambda g, tol: 0.999)


#: The two stages of a split pass, by the dtype of their tiles.
_STAGES = (np.float32, np.float64)


@pytest.mark.parametrize("fn", [cheeger_exact, dual_cheeger_exact])
def test_worker_failure_is_raised_in_the_caller(monkeypatch, capfd, fn):
    # A worker's exception reaches the caller as a one-thread pass raises it,
    # and never the thread's own hook, which would print a traceback; in
    # either stage.
    g = SPLIT_PASS_GRAPHS["G(20, 0.4)[2]" if fn is cheeger_exact else "G(14, 0.4)[3]"]
    for stage in _STAGES:
        failed, hooked = [], []

        def failing(tile, terms, rows, arrays, hi):
            if arrays[0].dtype == stage and _in_second_half(rows, hi):
                failed.append(threading.current_thread() is threading.main_thread())
                raise ArithmeticError("tile failed")
            tile(terms, rows, *arrays)

        with monkeypatch.context() as m:
            _patched_tiles(m, failing)
            if stage is np.float64:
                _every_tile_in_float64(m)
            m.setattr(partitions, "_workers", lambda: 2)
            m.setattr(partitions, "_MIN_TILES", 1)
            m.setattr(threading, "excepthook", hooked.append)
            with pytest.raises(ArithmeticError, match="^tile failed$"):
                fn(g)
        assert failed == [False] and hooked == [], stage
        assert capfd.readouterr() == ("", ""), stage


@pytest.mark.parametrize("fn", [cheeger_exact, dual_cheeger_exact])
def test_worker_nan_is_silent_and_kept(monkeypatch, capfd, fn):
    # numpy's error state is per thread: a worker that did not silence it
    # would warn (an error under this suite's warning filter) on 0 / 0.  The
    # NaN makes its chunk's maximum NaN, which the merge keeps.  In the
    # float32 stage that keeps every chunk for the float64 stage, which
    # then picks today's candidates; in the float64 stage it makes the
    # chunks from it on all candidates, as in the one-thread pass.
    g = SPLIT_PASS_GRAPHS["G(20, 0.4)[2]" if fn is cheeger_exact else "G(14, 0.4)[3]"]
    monkeypatch.setattr(partitions, "_MIN_TILES", 1)
    split = partitions._split

    def run(count):
        picked, passes, candidates = [], [], partitions._candidates
        with monkeypatch.context() as m:
            m.setattr(partitions, "_candidates",
                      lambda *a: picked.append(candidates(*a).tolist()) or picked[-1])
            m.setattr(partitions, "_split", lambda new, tiles: passes.append(len(tiles))
                      or split(new, tiles))
            m.setattr(partitions, "_workers", lambda: count)
            res = fn(g)
        return (picked, res.value.hex(), res.witness), passes

    want, want_passes = run(2)
    with monkeypatch.context() as m:
        m.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)
        every_tile = run(2)[1]  # the float64 stage alone: one pass over every tile
    for stage in _STAGES:
        def nan_tile(tile, terms, rows, arrays, hi):
            tile(terms, rows, *arrays)
            if arrays[0].dtype == stage and _in_second_half(rows, hi):
                out = arrays[0]
                out[:, 0] = np.zeros(len(out), dtype=out.dtype) / 0.0

        with monkeypatch.context() as m:
            _patched_tiles(m, nan_tile)
            if stage is np.float64:
                _every_tile_in_float64(m)
            (one, _), (two, passes) = run(1), run(2)
        assert one == two, stage
        assert two[1:] == want[1:], stage
        if stage is np.float32:
            assert two == want
            # the float64 stage scored every tile
            assert passes[1:] == every_tile and want_passes[1] < every_tile[0]
        else:
            assert len(two[0][0]) > len(want[0][0])
        assert capfd.readouterr() == ("", ""), stage


_FAULT_PROBE = """
import os, resource, sys
import numpy as np
from lapspec.graphs import WeightedGraph
from lapspec import partitions

# as on a 64-CPU host, with numpy's BLAS on one thread
os.sched_getaffinity = lambda pid: range(64)
partitions._blas_threads = lambda: 1
split, shares = partitions._split, []

def counting_split(new_fn, items):
    results = split(new_fn, items)
    shares.append(len(results))
    return results

partitions._split = counting_split
w = np.load(sys.argv[1])
g = WeightedGraph(n=len(w), weights=w)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
getattr(partitions, sys.argv[2])(g)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, *shares)
"""


_FAULT_PROBE_GRAPHS = {
    # 64 float32 tiles on two workers, then two float64 tiles, and one rescored chunk
    "G(24, 0.4)": ("cheeger_exact", 2, lambda: _gnp(np.random.default_rng(24), 24)),
    # 7 float32 tiles on one worker; rounding ties: 16 of the 49 chunks are rescored
    "K13[3]": ("dual_cheeger_exact", 1, lambda: neighborhood_graph(complete_graph(13), 3)),
    # 19 float32 tiles on two workers
    "K14[3]": ("dual_cheeger_exact", 2, lambda: neighborhood_graph(complete_graph(14), 3)),
}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as on Linux")
@pytest.mark.parametrize("name", list(_FAULT_PROBE_GRAPHS))
def test_split_pass_reuses_its_buffers(tmp_path, name):
    # The first enumeration in a fresh process, as in every CLI run.  With a
    # fresh (rows, lows) array per tile the 128 tiles of n = 24 fault in
    # about 31,000 pages; with buffers allocated once per pass, about 2,500.
    # With fresh arrays per rescored chunk, the 16 chunks that hbar rescores
    # on K13[3] fault in about 24,000; with arrays allocated once per call,
    # about 5,300.  Each pass runs on as many workers as it may have on any
    # host; a second worker adds about 900 pages at n = 24, 300 on K14[3].
    # The float32 stage works in the float64 stage's buffers, which it
    # views as float32, so it adds no pages of its own.
    pytest.importorskip("resource")
    fn, workers, graph = _FAULT_PROBE_GRAPHS[name]
    np.save(tmp_path / "w.npy", graph().weights)
    # one BLAS thread, as in the benchmark's children: each thread faults in its own buffers
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(partitions.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, str(tmp_path / "w.npy"), fn],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults, *shares = proc.stdout.split()  # the workers of each stage's _split
    assert int(faults) < 10_000
    assert int(shares[0]) == workers


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="sched_getaffinity")
def test_workers_follow_the_blas_threads():
    # OpenBLAS reads its thread count from the environment when numpy loads,
    # at most one per CPU.  Two workers only beside a BLAS on one thread.
    def probe(threads):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(partitions.__file__)),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from lapspec import partitions as p; print(p._blas_threads(), p._workers())"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return tuple(int(x) for x in proc.stdout.split())

    one = probe("1")
    if one[0] == 0:
        pytest.skip("numpy's BLAS is not an OpenBLAS this can ask")
    cpus = len(os.sched_getaffinity(0))
    assert one == (1, min(2, cpus))
    assert probe("2") == (min(2, cpus), 1)


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
    side = sorted(res.witness.side)
    rest = sorted(set(range(g.n)) - set(side))
    vol = g.subset_volume(side)
    assert g.weights[np.ix_(side, rest)].sum() / min(vol, g.volume - vol) == res.value
    assert len(side) == 3  # half split is optimal on K_6


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
    assert CHEEGER_EXACT_CAP == 24
    with pytest.raises(GraphError) as exc:
        cheeger_exact(complete_graph(25))
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED
    assert exc.value.message == "Cheeger enumeration capped at 24 vertices, graph has 25"


def test_dual_cap_raises():
    assert DUAL_CHEEGER_EXACT_CAP == 14
    with pytest.raises(GraphError) as exc:
        dual_cheeger_exact(complete_graph(15))
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED
    assert exc.value.message == "dual Cheeger enumeration capped at 14 vertices, graph has 15"


def test_one_vertex_and_balance_cap_refusals():
    looped_vertex = WeightedGraph(n=1, weights=np.ones((1, 1)))
    for fn, what in [
        (cheeger_exact, "Cheeger constant"),
        (dual_cheeger_exact, "dual Cheeger constant"),
        (balance_ratio_exact, "balance ratio"),
    ]:
        with pytest.raises(ValueError, match=f"^{what} needs at least two vertices$"):
            fn(looped_vertex)
    with pytest.raises(GraphError) as exc:
        balance_ratio_exact(complete_graph(25))
    assert exc.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED
    assert exc.value.message == "balance ratio enumeration capped at 24 vertices, graph has 25"


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
    assert balance(g, bp.partition) >= bp.weighted_guarantee - 1e-12
    assert 1 <= bp.m <= g.n


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_greedy_balance_unweighted_floor(seed):
    g = _random_graph(seed, n_max=10, weighted=False)
    bp = greedy_balance_partition(g)
    n = g.n
    assert balance(g, bp.partition) >= (n - 1) / (n + 1) - 1e-12


def test_greedy_balance_regular_odd_equality():
    # odd cycle: regular with odd N, the guarantee is met with equality
    g = cycle_graph(5)
    bp = greedy_balance_partition(g)
    assert abs(balance(g, bp.partition) - 4 / 6) < 1e-12


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
