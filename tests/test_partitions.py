import math
import os
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

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
    # With an infinite tolerance no pass runs, and the scan scores every
    # chunk with the enumerators' score functions, so it also checks each
    # chunk's scores against an oracle that computes them on fresh arrays:
    # every full chunk and the shorter last one, in the order the scores'
    # buffers meet them.
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
            m.setattr(partitions, "_tolerance", lambda g: np.inf)
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
    calls, scores, exact_scan = [], [], partitions._exact_scan

    def recording_scan(graphs, what, cap, base, chunk, scan, *split):
        def recorded(g, arrays):
            score, block = scan(g, arrays)

            def counted(codes, rows=slice(None)):
                calls.append(len(codes))
                return score(codes, rows)

            scores.append(score)
            return counted, block

        return exact_scan(graphs, what, cap, base, chunk, recorded, *split)

    with monkeypatch.context() as m:
        m.setattr(partitions, "_exact_scan", recording_scan)
        fn(g)
    return scores[0], calls


@pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
def test_rescoring_bit_identical_to_scoring_every_candidate_chunk(monkeypatch, name):
    # The pass's tiles pick the codes of each chunk past _first_kept's tests
    # that are scored again, and none on exact sums.  The value bits and
    # witness are those of scoring each of these chunks in full.
    g = ORACLE_GRAPHS[name]
    for fn in _enumerators(g):
        run = _split_pass_run(monkeypatch, fn, g)
        want_value, want_witness = oracle_scan_of_candidates(fn.__name__, g, run.passes[0].rescored)
        assert run.value == want_value.hex(), fn.__name__
        assert run.witness == want_witness, fn.__name__
        _, calls = _scores(monkeypatch, fn, g)
        assert (not calls) == (partitions._tolerance(g) == 0), fn.__name__


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


class SplitPass(NamedTuple):
    screened: list  # the chunk starts that ``_candidates`` returns
    rescored: list  # the chunk starts that pass the tests of ``_first_kept``
    dtypes: set  # the dtypes of the screen's tiles


class SplitPassRun(NamedTuple):
    value: str  # the value's bits, as float.hex
    witness: object
    passes: list  # a SplitPass per split pass


def _split_pass_run(monkeypatch, fn, g, patch=None):
    """``fn(g)``, with what each of its split passes screened and scored again.

    ``patch(tile, terms, rows, arrays, rescoring)``, if given, runs each
    tile of a pass in place of ``tile(terms, rows, *arrays)``, where
    ``arrays[0]`` is the tile's output: in the screen ``tile`` is the
    scan's ``value``, after its ``den``, and in ``_first_kept``, where
    ``rescoring`` is true, both.  A chunk is scored again if
    ``_first_kept`` builds its tile a second time, after the tile of every
    chunk it was given.
    """
    candidates, first_kept, screens, passes = partitions._candidates, partitions._first_kept, [], []
    run = patch or (lambda tile, terms, rows, arrays, rescoring: tile(terms, rows, *arrays))

    def screen(starts, stop, kept, den, value, scratch, *screened):
        dtypes = set()

        def screen_value(terms, rows, *arrays):
            dtypes.add(arrays[0].dtype.type)
            run(value, terms, rows, arrays, False)

        picked = candidates(starts, stop, kept, den, screen_value, scratch, *screened)
        screens.extend((p.tolist(), dtypes) for p in picked)
        return picked

    def rescore(starts, stop, score, tol, kept, tile, terms, arrays):
        highs = []

        def rescore_tile(terms, rows, *arrays):
            highs.append(rows.start)
            run(tile, terms, rows, arrays, True)

        res = first_kept(starts, stop, score, tol, kept, rescore_tile, terms, arrays)
        again = set(highs[len(starts):])
        screened, dtypes = screens.pop(0)
        passes.append(SplitPass(screened, [lo for lo in screened if lo // len(kept) in again],
                                dtypes))
        return res

    with monkeypatch.context() as m:
        m.setattr(partitions, "_candidates", screen)
        m.setattr(partitions, "_first_kept", rescore)
        res = fn(g)
    return SplitPassRun(res.value.hex(), res.witness, passes)


@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_two_stage_pass_picks_the_float64_stage_candidates(monkeypatch, name):
    # The float32 screen and the float64 tests of _first_kept score again
    # the chunks, and give the value bits and witness, of a float64 screen
    # (err32 infinite), on the graph and on its copies with weights times
    # 2**-900 and 2**900, whose screen is in float64.  The screen is in
    # float32 exactly when err32 is finite, however few its tiles.  A
    # pendant graph's tolerance is infinite: every chunk is scored, with no
    # pass.
    g = SPLIT_PASS_GRAPHS[name]
    for fn in _enumerators(g):
        with monkeypatch.context() as m:
            m.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)
            want = _split_pass_run(m, fn, g)
        for k in (0, -900, 900):
            scaled = _scaled(g, k)
            seen = _split_pass_run(monkeypatch, fn, scaled)
            assert seen.value == want.value and seen.witness == want.witness, (fn.__name__, k)
            assert [p.rescored for p in seen.passes] == [p.rescored for p in want.passes], (
                fn.__name__, k)
            tol = partitions._tolerance(scaled)
            dtype = np.float32 if partitions._tolerance32(scaled, tol) < np.inf else np.float64
            assert [p.dtypes for p in seen.passes] == ([{dtype}] if tol < np.inf else []), (
                fn.__name__, k)
        if name.startswith("pendant"):  # tol = inf: every chunk is scored, with no pass
            assert not want.passes, fn.__name__


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("name", list(SPLIT_PASS_GRAPHS))
def test_enumerators_invariant_under_power_of_two_scaling(monkeypatch, name, k):
    # A power of two changes no ratio and no rounding, so the value bits and
    # witness of 2**k g are those of g.  At 2**k the screen is in float64
    # (err32 infinite): a plain cast would overflow (a warning, an error
    # under this suite's filter) or flush the weights to zero.
    g = SPLIT_PASS_GRAPHS[name]
    for fn in _enumerators(g):
        scaled, plain = fn(_scaled(g, k)), fn(g)
        assert scaled.value.hex() == plain.value.hex(), fn.__name__
        assert scaled.witness == plain.witness, fn.__name__


def _wide_clusters():
    """Two K4 joined by a bridge of 0.68, with a loop of 1e16 at vertex 0 and an edge of 1.5.

    vol {0} = 1e16 + 1.5 rounds to 1e16 + 2, so the scan scores the cut
    {0} as about 2 / 99 where it is 1.5 / 99, h; the cluster {1, 2, 3, 4}
    is scored accurately, at 0.68 / 39.68, between the two.
    """
    w = np.zeros((9, 9))
    for side, weight in ((range(1, 5), 3.25), (range(5, 9), 4.75)):
        for i in side:
            w[i, side] = weight
            w[i, i] = 0.0
    w[4, 5] = w[5, 4] = 0.68
    w[0, 5] = w[5, 0] = 1.5
    w[0, 0] = 1e16
    return WeightedGraph(n=9, weights=w)


def test_infinite_tolerance_refuses_a_witness_the_sound_sums_disown():
    # Where the tolerance is infinite every cut is scored again from sums of
    # nonnegative terms.  The pendant graph's witness is the least of them
    # and has the scan's value, h up to the rounding of weights 0.1.  A
    # unit triangle with a loop of 1e16 at vertex 0 scores the cut {0} as
    # 0 / 4, where its cut is 2 / 4.  On wide_clusters the witness's own
    # ratio is the scan's value, but the cut {0} is lower.
    g = SPLIT_PASS_GRAPHS["pendant G(11, 0.4)"]
    assert partitions._tolerance(g) == np.inf
    assert abs(cheeger_exact(g).value - float(oracle_cheeger(g))) < 1e-15
    w = 1.0 - np.eye(3)
    w[0, 0] = 1e16
    triangle = WeightedGraph(n=3, weights=w)
    assert partitions._tolerance(triangle) == np.inf and oracle_cheeger(triangle) == Fraction(1, 2)
    g = _wide_clusters()
    cluster = partitions._cut_ratios(g, np.isin(np.arange(9), [1, 2, 3, 4])[None])[0]
    assert partitions._tolerance(g) == np.inf and oracle_cheeger_witness(g) == frozenset({0})
    assert float(oracle_cheeger(g)) < 0.016 < cluster < 0.018
    for g in (triangle, g):
        with pytest.raises(GraphError) as info:
            cheeger_exact(g)
        assert info.value.kind is GraphErrorKind.WEIGHT_RANGE


def test_wide_weights_keep_the_dual_cheeger_constant():
    # The unit triangle with a loop of 1e16 at vertex 0, whose h is refused
    # (above): hbar's sums have only nonnegative terms, and its value and
    # witness are the oracle's.
    w = 1.0 - np.eye(3)
    w[0, 0] = 1e16
    g = WeightedGraph(n=3, weights=w)
    res = dual_cheeger_exact(g)
    assert res.value == oracle_dual_cheeger(g) == 0.5
    assert (res.witness.v1, res.witness.v2) == oracle_dual_cheeger_witness(g)


def _volume_at(g, e):
    """g times the power of two that puts its total volume in [2**(e - 1), 2**e)."""
    return _scaled(g, e - math.frexp(g.volume)[1])


@pytest.mark.parametrize("name", [name for name in SPLIT_PASS_GRAPHS if "pendant" not in name])
def test_float32_stage_runs_on_total_volumes_in_its_range(monkeypatch, name):
    # At either end of its range the float32 screen runs, neither
    # overflowing nor flushing a weight to zero, with the screened and
    # rescored chunks, value bits and witness of g; a step beyond either
    # end, err32 is infinite.
    g = SPLIT_PASS_GRAPHS[name]
    for e in (-65, 65):
        scaled = _volume_at(g, e)
        assert partitions._tolerance32(scaled, partitions._tolerance(scaled)) == np.inf, e
    for e in (-64, 64):
        scaled = _volume_at(g, e)
        assert partitions._tolerance32(scaled, partitions._tolerance(scaled)) < np.inf, e
        for fn in _enumerators(g):
            seen = _split_pass_run(monkeypatch, fn, scaled)
            assert seen == _split_pass_run(monkeypatch, fn, g), (fn.__name__, e)
            assert [p.dtypes for p in seen.passes] == [{np.float32}], (fn.__name__, e)


_SCALINGS = {
    "g": lambda g: g,
    "2^-900 g": lambda g: _scaled(g, -900),
    "2^900 g": lambda g: _scaled(g, 900),
    "T in [2^-65, 2^-64)": lambda g: _volume_at(g, -64),
    "T in [2^63, 2^64)": lambda g: _volume_at(g, 64),
}


@pytest.mark.parametrize("scaling", list(_SCALINGS))
@pytest.mark.parametrize(
    "name", [name for name in SPLIT_PASS_GRAPHS if "pendant" not in name] + ["K17[2]"])
def test_first_kept_needs_only_the_chunk_of_the_witness(monkeypatch, name, scaling):
    # The screen keeps the chunk that holds the witness's code, and
    # _first_kept gives the same value bits and code over every chunk as
    # over the screen's chunks: its result depends only on being given that
    # chunk.  Also where the optima tie across chunks (K17[2], in the exact
    # sums; 0.1 K_n and 0.1 C_n, in rounding), with the screen in float64
    # (2^+-900), and at either end of the float32 screen's range.
    g = _SCALINGS[scaling](SPLIT_PASS_GRAPHS[name] if name in SPLIT_PASS_GRAPHS
                           else ORACLE_GRAPHS[name])
    first_kept = partitions._first_kept
    for fn in _enumerators(g):
        runs = []
        start = 0 if fn is dual_cheeger_exact else 1

        def both(starts, stop, score, tol, *made):
            every = np.arange(start, stop, partitions._CHUNK)
            runs.append((starts, first_kept(starts, stop, score, tol, *made),
                         first_kept(every, stop, score, tol, *made)))
            return runs[-1][1]

        with monkeypatch.context() as m:
            m.setattr(partitions, "_first_kept", both)
            fn(g)
        assert len(runs) == 1, fn.__name__
        starts, (value, code), (every_value, every_code) = runs[0]
        assert start + (code - start) // partitions._CHUNK * partitions._CHUNK in starts, (
            fn.__name__)
        assert (value.hex(), code) == (every_value.hex(), every_code), fn.__name__


@pytest.mark.parametrize("err32", [np.inf, 0.0])
@pytest.mark.parametrize("at", [1, 12345, 32767, 32768, 32769, 2**19 - 1])
def test_screen_keeps_the_chunk_of_a_lone_maximum(err32, at):
    # Tiles of 0 with a single 1 at the code ``at`` and a NaN at code 0,
    # before the first code of the scan: the screen, in float64 or float32,
    # keeps the chunk holding ``at``, also where ``at`` lies in a high the
    # chunk shares with the next one (32768) or the one before (32769), and
    # at most the chunk that shares its high besides.
    span, stop = 2**10, 2**19
    starts = np.arange(1, stop, partitions._CHUNK)

    def tile(terms, rows, out):
        codes = np.arange(rows.start * span, rows.stop * span).reshape(len(out), span)
        out[...] = np.where(codes == 0, np.nan, codes == at)

    dtype = np.float64 if err32 == np.inf else np.float32
    (picked,) = partitions._candidates(starts, stop, np.ones(span, dtype=bool),
                                       lambda shared, rows, out: None, tile, 0, dtype, (), [()], [0.0])
    sharing = {lo for lo in starts if lo // span <= at // span <= (lo + partitions._CHUNK - 1) // span}
    assert starts[(at - 1) // partitions._CHUNK] in picked and set(picked) <= sharing


@pytest.mark.parametrize("e", [None, -64, 64])
@pytest.mark.parametrize("name", [name for name in SPLIT_PASS_GRAPHS if "pendant" not in name])
def test_float32_tiles_within_err32_of_float64(monkeypatch, name, e):
    # Every code's float32 tile value is within err32 of its float64 one:
    # the bound that makes the float32 screen keep every chunk that a
    # float64 one keeps.  The tiles of both screens, recorded by running
    # the pass with err32 finite and infinite, cover every code.  Also with
    # the total volume at either end of the float32 screen's range.
    g = SPLIT_PASS_GRAPHS[name] if e is None else _volume_at(SPLIT_PASS_GRAPHS[name], e)
    err32 = partitions._tolerance32(g, partitions._tolerance(g))
    assert err32 < 0.02
    for fn in _enumerators(g):
        values = {np.float32: {}, np.float64: {}}

        def recording_tile(tile, terms, rows, arrays, rescoring):
            tile(terms, rows, *arrays)
            if not rescoring:
                values[arrays[0].dtype.type][rows.start] = arrays[0].copy()

        _split_pass_run(monkeypatch, fn, g, recording_tile)
        with monkeypatch.context() as m:
            m.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)
            _split_pass_run(m, fn, g, recording_tile)
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


@pytest.mark.parametrize("fn", [cheeger_exact, dual_cheeger_exact])
def test_nan_tile_is_silent_and_kept(monkeypatch, capfd, fn):
    # A 0 / 0 in a tile does not warn (an error under this suite's warning
    # filter).  In the screen, float32 or float64, it makes its chunk's
    # estimate NaN, which keeps every chunk; _first_kept's tests then pass
    # the usual chunks.  In _first_kept's float64 tiles it makes the chunks
    # from it on all pass.  The value bits and witness do not change.
    g = SPLIT_PASS_GRAPHS["G(20, 0.4)[2]" if fn is cheeger_exact else "G(14, 0.4)[3]"]
    base, m, start = (3, g.n, 0) if fn is dual_cheeger_exact else (2, g.n - 1, 1)
    span = base ** ((m + 1) // 2)
    half = base**m // span // 2  # the middle high
    every = list(range(start, base**m, partitions._CHUNK))

    def nan_tile(tile, terms, rows, arrays, rescoring):
        tile(terms, rows, *arrays)
        out = arrays[0]
        if rows.start >= half and (in_first_kept or not rescoring):
            out[:, 0] = np.zeros(len(out), dtype=out.dtype) / 0.0

    want = _split_pass_run(monkeypatch, fn, g)
    assert want.passes[0].screened != every
    for in_first_kept, dtype in ((False, np.float32), (False, np.float64), (True, np.float32)):
        with monkeypatch.context() as m:
            if dtype is np.float64:
                m.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)
            seen = _split_pass_run(m, fn, g, nan_tile)
        assert seen.value == want.value and seen.witness == want.witness, (in_first_kept, dtype)
        assert seen.passes[0].dtypes == {dtype}
        assert seen.passes[0].screened == every
        if in_first_kept:
            later = {lo for lo in every if lo // span >= half}
            assert later <= set(seen.passes[0].rescored) > set(want.passes[0].rescored)
        else:
            assert seen.passes[0].rescored == want.passes[0].rescored
        assert capfd.readouterr() == ("", ""), (in_first_kept, dtype)


def _orders_of(g, orders=range(1, 6)):
    """Gamma[l] of g at each of ``orders``."""
    return [neighborhood_graph(g, l) for l in orders]


def _weighted(rng, g, kind):
    """g with unit weights, dyadic weights in {1/4, 1/2, 1, 2} or weights in [0.1, 10)."""
    if kind == "unit":
        return g
    draw = (rng.choice([0.25, 0.5, 1.0, 2.0], size=(g.n, g.n)) if kind == "dyadic"
            else rng.uniform(0.1, 10.0, size=(g.n, g.n)))
    w = np.triu(g.weights * draw, 1)
    return WeightedGraph(n=g.n, weights=w + w.T)


def _several_orders_cases():
    """Lists of graphs on the same vertices that ``_cheeger_scans`` or ``_dual_cheeger_scans`` take at once.

    Gamma[1..5] of seeded G(n, 0.4) at n = 17-20 for h and n = 10-12 for
    hbar, with unit, dyadic and continuous weights; Gamma[1..3] of K20 and
    K14, whose Gamma[2] and Gamma[3] tie across chunks; and Gamma[1..3] of
    a G(n, 0.4) with every weight times 2**-300 or 2**300, whose screen is
    in float64.
    """
    rng = np.random.default_rng(20261020)
    cases = {}
    for scans, sizes in ((partitions._cheeger_scans, range(17, 21)),
                         (partitions._dual_cheeger_scans, range(10, 13))):
        for n in sizes:
            g = _gnp(rng, n)
            for kind in ("unit", "dyadic", "continuous"):
                cases[f"{kind} G({n}, 0.4)[1..5]"] = (scans, _orders_of(_weighted(rng, g, kind)))
        g = _gnp(rng, sizes[-1])
        for k in (-300, 300):
            cases[f"2^{k} G({g.n}, 0.4)[1..3]"] = (
                scans, [_scaled(x, k) for x in _orders_of(g, range(1, 4))])
    cases["K20[1..3]"] = (partitions._cheeger_scans, _orders_of(complete_graph(20), range(1, 4)))
    cases["K14[1..3]"] = (partitions._dual_cheeger_scans, _orders_of(complete_graph(14), range(1, 4)))
    return cases


SEVERAL_ORDERS = _several_orders_cases()
_LONE = {partitions._cheeger_scans: cheeger_exact, partitions._dual_cheeger_scans: dual_cheeger_exact}


@pytest.mark.parametrize("name", list(SEVERAL_ORDERS))
def test_scan_of_several_orders_is_each_order_scanned_alone(name):
    # The orders share the sweeps' denominators, tile buffers and score
    # arrays; each order's value bits and witness are those of a scan of
    # its graph alone.
    scans, graphs = SEVERAL_ORDERS[name]
    together = scans(graphs)
    for l, (g, res) in enumerate(zip(graphs, together), 1):
        alone = _LONE[scans](g)
        assert (res.value.hex(), res.witness) == (alone.value.hex(), alone.witness), l


def test_sweeps_share_their_denominators_within_their_drift(monkeypatch):
    # Gamma[1..5] of a G(20, 0.4) with continuous weights: two sweeps, of
    # three orders and of two, each screening with its first graph's
    # denominators.  The degrees of Gamma[l] drift from those of g by a few
    # ulps, and each order's margin grows by twice its drift.
    _, graphs = SEVERAL_ORDERS["continuous G(20, 0.4)[1..5]"]
    assert [len(run) for run in partitions._sweeps(graphs)] == [3, 2]
    drifts = [partitions._drift(g, graphs[0]) for g in graphs]
    assert drifts[0] == 0.0 and 0.0 < max(drifts) < 1e-11
    screens, candidates = [], partitions._candidates

    def recording(starts, stop, kept, den, value, scratch, dtype, shared, terms, margins):
        screens.append((len(terms), margins))
        return candidates(starts, stop, kept, den, value, scratch, dtype, shared, terms, margins)

    monkeypatch.setattr(partitions, "_candidates", recording)
    partitions._cheeger_scans(graphs)
    assert [count for count, _ in screens] == [3, 2]
    alone = [partitions._tolerance(g) + 2 * partitions._tolerance32(g, partitions._tolerance(g))
             for g in graphs]
    grown = [m - a for m, a in zip(screens[0][1] + screens[1][1], alone)]
    want = drifts[:3] + [partitions._drift(g, graphs[3]) for g in graphs[3:]]
    assert np.allclose(grown, [2 * d for d in want], rtol=1e-6, atol=1e-18)


def test_shared_denominators_move_values_within_the_drift(monkeypatch):
    # In float64 screens, every screened value of Gamma[2] and Gamma[3]
    # divided by g's denominators is within _drift of the value divided by
    # their own, as in a scan of each alone; the two differ somewhere.
    _, graphs = SEVERAL_ORDERS["continuous G(20, 0.4)[1..5]"]
    graphs = graphs[:3]
    monkeypatch.setattr(partitions, "_tolerance32", lambda g, tol: np.inf)

    def screened(run):
        """Each graph's screened values, tile after tile, in a call of ``run``."""
        values, candidates = {}, partitions._candidates

        def recording(starts, stop, kept, den, value, *rest):
            def recorded(terms, rows, out, *arrays):
                value(terms, rows, out, *arrays)
                values.setdefault(rows.start, []).append(out.copy())

            return candidates(starts, stop, kept, den, recorded, *rest)

        with monkeypatch.context() as m:
            m.setattr(partitions, "_candidates", recording)
            run()
        tiles = [t for _, t in sorted(values.items())]
        return [np.concatenate([t[i] for t in tiles]) for i in range(len(tiles[0]))]

    together = screened(lambda: partitions._cheeger_scans(graphs))
    for l, x in ((2, graphs[1]), (3, graphs[2])):
        (alone,) = screened(lambda: cheeger_exact(x))
        finite = np.isfinite(alone)
        assert np.array_equal(np.isfinite(together[l - 1]), finite), l
        gap = np.abs(together[l - 1][finite] - alone[finite])
        assert 0 < gap.max() <= partitions._drift(x, graphs[0]), (l, gap.max())


def test_an_order_with_an_infinite_tolerance_is_scored_in_full(monkeypatch):
    # Where Gamma[2]'s tolerance is infinite, its every chunk is scored,
    # beside the screen of g and Gamma[3] in the same sweep, with the same
    # bits as the pass would give it.
    _, graphs = SEVERAL_ORDERS["continuous G(20, 0.4)[1..5]"]
    graphs = graphs[:3]
    alone = [cheeger_exact(g) for g in graphs]
    tolerance = partitions._tolerance
    monkeypatch.setattr(partitions, "_tolerance",
                        lambda g: np.inf if g is graphs[1] else tolerance(g))
    screened = []
    candidates = partitions._candidates

    def recording(*args):
        screened.append(len(args[-2]))
        return candidates(*args)

    monkeypatch.setattr(partitions, "_candidates", recording)
    together = partitions._cheeger_scans(graphs)
    assert screened == [2]
    for res, want in zip(together, alone):
        assert (res.value.hex(), res.witness) == (want.value.hex(), want.witness)


def test_refusals_of_several_orders_are_kept_per_order():
    # A graph on which no cut scores a number is refused on its own; the
    # other graphs of the call keep their results.
    w = np.zeros((2, 2))
    w[0, 0], w[0, 1], w[1, 0] = 1e17, 1.0, 1.0
    wide = WeightedGraph(n=2, weights=w)
    plain = complete_graph(2)
    res = partitions._cheeger_scans([plain, wide, plain])
    assert res[0] == res[2] == cheeger_exact(plain)
    assert isinstance(res[1], GraphError) and res[1].kind is GraphErrorKind.WEIGHT_RANGE
    with pytest.raises(GraphError) as info:
        partitions._cheeger_scans([cycle_graph(CHEEGER_EXACT_CAP + 1)] * 2)
    assert info.value.kind is GraphErrorKind.SIZE_CAP_EXCEEDED


_FAULT_PROBE = """
import resource, sys
import numpy as np
from lapspec.graphs import WeightedGraph
from lapspec import partitions

graphs = [WeightedGraph(n=len(w), weights=w) for w in np.load(sys.argv[1])]
fn = getattr(partitions, sys.argv[2])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fn(graphs) if sys.argv[2].endswith("_scans") else fn(graphs[0])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


_FAULT_PROBE_GRAPHS = {
    # 64 float32 tiles; two chunks screened, one scored again
    "G(24, 0.4)": ("cheeger_exact", lambda: _gnp(np.random.default_rng(24), 24)),
    # 7 float32 tiles; rounding ties: 16 of the 49 chunks are scored again
    "K13[3]": ("dual_cheeger_exact", lambda: neighborhood_graph(complete_graph(13), 3)),
    # 19 float32 tiles; 28 of the 146 chunks are scored again
    "K14[3]": ("dual_cheeger_exact", lambda: neighborhood_graph(complete_graph(14), 3)),
}


def _probe(tmp_path, probe, weights, *args):
    """The last line of ``probe`` in a fresh process, given a file of ``weights`` and ``args``.

    One BLAS thread, as in the benchmark's children: each thread faults in
    its own buffers.
    """
    np.save(tmp_path / "w.npy", np.array(weights))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(partitions.__file__)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "w.npy"), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


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
    assert int(_probe(tmp_path, _FAULT_PROBE, [graph().weights], fn)) < 10_000


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt as on Linux")
def test_split_pass_of_three_orders_shares_its_buffers(tmp_path):
    # g, Gamma[2] and Gamma[3] of a G(24, 0.4) in one sweep share the tile
    # buffers and the score arrays: about 1,800 pages, against about 1,500
    # for the scan of Gamma[2] alone and 2,900 for the three scans apart.
    pytest.importorskip("resource")
    g = _FAULT_PROBE_GRAPHS["G(24, 0.4)"][1]()
    weights = [x.weights for x in _orders_of(g, range(1, 4))]
    alone = int(_probe(tmp_path, _FAULT_PROBE, weights[1:2], "cheeger_exact"))
    together = int(_probe(tmp_path, _FAULT_PROBE, weights, "_cheeger_scans"))
    assert together < 2 * alone, (together, alone)


# The peak resident memory of this process alone, in kB: ``ru_maxrss`` would
# count the test process's own memory, copied at the fork.
_PEAK_PROBE = """
import sys
import numpy as np
from lapspec.cli import main
from lapspec.graphs import WeightedGraph, write_graph

(w,) = np.load(sys.argv[1])
write_graph(WeightedGraph(n=len(w), weights=w), sys.argv[1] + ".json")
main(["bounds", "--input", sys.argv[1] + ".json", "--l-list", sys.argv[2]])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM as on Linux")
def test_long_order_lists_take_the_memory_of_three(tmp_path):
    # ``bounds`` screens at most three orders of Gamma[l] in one sweep, so
    # 32 orders of a G(24, 0.4) peak within 1 MB of two (l = 1, 2, 3): the
    # terms of every order held at once would take about 30 MB more.
    w = _FAULT_PROBE_GRAPHS["G(24, 0.4)"][1]().weights
    few = int(_probe(tmp_path, _PEAK_PROBE, [w], "2,3"))
    many = int(_probe(tmp_path, _PEAK_PROBE, [w], ",".join(map(str, range(1, 33)))))
    assert many - few < 1024, (many, few)


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
