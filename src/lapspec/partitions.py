"""Isoperimetric constants from vertex partitions.

Two quantities drive the spectral bounds in this package:

* the Cheeger constant ``h``: the cheapest cut relative to the volume of
  the smaller side, minimized over all proper vertex subsets; and
* its dual ``hbar``: the largest fraction ``2 E(V1, V2) / (vol V1 + vol V2)``
  over tripartitions ``(V1, V2, V3)``, which measures how close the graph is
  to bipartite (``hbar = 1`` exactly for bipartite graphs).

Both are computed exactly by enumeration, so hard size caps apply.  Greedy
procedures provide certified one-sided estimates beyond the caps, and
families of odd closed walks give computable upper bounds for ``hbar``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .graphs import (
    Bipartition,
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    _bfs,
    _is_int,
    _neighbor_lists,
    require_connected,
)

#: Hard enumeration caps (number of vertices).
CHEEGER_EXACT_CAP = 24
DUAL_CHEEGER_EXACT_CAP = 14

#: Codes per exact scoring call.  Part of every result whose sums round: a
#: BLAS product rounds a row differently in arrays of different shapes, so
#: each score forms its products (``memb @ d`` and ``memb @ w``; ``ind @ d``
#: and ``ind1 @ w`` for ``hbar``) on the whole chunk, and a code's value bits
#: depend on its chunk.  The rest of a score is row by row, and runs only on
#: the rows asked for.  Exact sums do not round, and take their values from
#: the split pass's tiles.
_CHUNK = 1 << 15
#: Pairs per float64 tile of the split pass; a float32 tile has twice as
#: many, in the same bytes.
_TILE = 1 << 16
#: Allowance for the rounding of a ratio in [0, 1], on each side of a comparison.
_TOL = 1e-9


class TriPartition(NamedTuple):
    """Disjoint vertex classes ``(V1, V2, V3)`` covering the graph; V3 may be empty."""

    v1: frozenset[int]
    v2: frozenset[int]
    v3: frozenset[int]

    @classmethod
    def of(cls, g: WeightedGraph, v1, v2) -> "TriPartition":
        v1 = frozenset(int(v) for v in v1)
        v2 = frozenset(int(v) for v in v2)
        if not v1 or not v2:
            raise ValueError("V1 and V2 must be nonempty")
        if v1 & v2:
            raise ValueError("V1 and V2 must be disjoint")
        v3 = frozenset(range(g.n)) - v1 - v2
        return cls(v1=v1, v2=v2, v3=v3)

    def value(self, g: WeightedGraph) -> float:
        """``2 E(V1, V2) / (vol V1 + vol V2)`` for this tripartition."""
        m1 = np.zeros(g.n, dtype=bool)
        m1[list(self.v1)] = True
        m2 = np.zeros(g.n, dtype=bool)
        m2[list(self.v2)] = True
        cross = float(g.weights[m1][:, m2].sum())
        vols = g.subset_volume(self.v1) + g.subset_volume(self.v2)
        return 2.0 * cross / vols


class CheegerResult(NamedTuple):
    value: float
    witness: Bipartition | TriPartition


def _first_max(starts, stop: int, score) -> tuple[float, int]:
    """Largest ``score`` over the chunks at ``starts``, first in code order, scoring every code.

    The chunk at ``lo`` holds the codes ``lo .. min(lo + _CHUNK, stop) - 1``;
    ``score`` maps that int64 array to its values.  Returns ``(value, code)``.
    This is the scan of a single chunk, and of every chunk when
    ``_tolerance`` is infinite and no split pass can tell them apart.
    """
    best_val, best_code = -np.inf, -1
    for lo in starts:
        codes = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64)
        vals = score(codes)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_code = float(vals[k]), int(codes[k])
    return best_val, best_code


def _first_kept(starts, stop: int, score, tol: float, kept, tile, terms, buffers):
    """``_first_max`` over the chunks at ``starts`` that can hold the first optimum, from float64 tiles.

    ``kept`` is what the scan's ``block`` returned (``_candidates``), and
    ``tile(terms, rows, out, v)`` the split pass's tile of one graph, from
    its own terms and denominator terms ``terms``: its ``den`` into ``v``
    and then its ``value`` into ``out``.  ``buffers`` holds ``out`` and
    ``v``, flat, each of at least the pairs of the highs of one chunk; the
    graphs of a sweep share it (``_exact_scan``).
    Code = low + ``len(kept)`` * high, and a low that ``block`` drops only
    has codes that score -inf.  Each chunk's float64 tile values ``t``, on
    the highs it spans, give its maximum ``c``.  A chunk is scored only if
    its ``c`` is within ``tol`` of the best one's and more than ``tol``
    above every earlier one's; a NaN maximum fails every comparison it
    enters, so it keeps its chunk and every later one.  In a chunk, only
    the codes with ``~(t + tol < c)`` are scored again: ``score(codes,
    rows)`` scores the ``rows`` of the chunk's ``codes`` from products
    formed on the whole chunk, so its values are the bits of the full
    scan's.  With ``tol`` 0 the tile values are the chunk values, the sign
    of a zero aside, and are the result: nothing is scored again.  Returns
    ``(value, code)``.

    The bits are those of the scan over every chunk.  Every code's ``t``
    is within ``tol / 2`` of its chunk value (``_tolerance``).  Let ``x``
    be the first optimum's value, in the chunk ``C``: every chunk has ``c
    <= x + tol / 2``, with ``c < x + tol / 2`` before ``C``, and ``C`` has
    ``c >= x - tol / 2``, so ``C`` passes both tests and its optimum is
    scored again.  Every other code scored has a value of at most ``x``,
    below it if earlier.  So the result depends only on ``starts`` holding
    ``C``: every superset of the chunks holding it gives the same value
    bits and witness.
    """
    span, lows = len(kept), np.flatnonzero(kept)

    def values(lo):
        """The chunk at ``lo``'s tile values, with the pair and the high they start at."""
        hi = min(lo + _CHUNK, stop)
        h0, h1 = lo // span, -(-hi // span)
        size = (h1 - h0) * len(lows)
        out, v = buffers[:, :size].reshape(2, h1 - h0, -1)
        with np.errstate(all="ignore"):
            tile(terms, slice(h0, h1), out, v)
        # the chunk's pairs, in code order, from its first code's to its last one's
        p0 = np.searchsorted(lows, lo - h0 * span)
        return out.reshape(-1)[p0 : size - len(lows) + np.searchsorted(lows, hi - (h1 - 1) * span)], p0, h0

    def code(h0, pairs):
        """The codes of the pairs of a tile from the high ``h0``."""
        return (h0 + pairs // len(lows)) * span + lows[pairs % len(lows)]

    cmax = np.array([values(lo)[0].max() for lo in starts])
    earlier = np.maximum.accumulate(np.concatenate(([-np.inf], cmax[:-1])))
    best_val, best_code = -np.inf, -1
    for lo in starts[~((cmax + tol < cmax.max()) | (cmax + tol <= earlier))]:
        vals, p0, h0 = values(lo)
        if tol > 0:
            pairs = p0 + np.flatnonzero(~(vals + tol < vals.max()))
            vals = score(np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64), code(h0, pairs) - lo)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_code = float(vals[k]), int(code(h0, p0 + k if tol == 0 else pairs[k]))
    return best_val, best_code


def _check_size(g: WeightedGraph, what: str, cap: int) -> None:
    """Refuse graphs of fewer than two vertices or more than ``cap``.

    ``what`` names the quantity in the refusals (the cap's drops a trailing
    " constant").
    """
    n = g.n
    if n < 2:
        raise ValueError(f"{what} needs at least two vertices")
    if n > cap:
        what = what.removesuffix(" constant")
        raise GraphError(
            GraphErrorKind.SIZE_CAP_EXCEEDED,
            f"{what} enumeration capped at {cap} vertices, graph has {n}",
        )


def require_exact_constants(g: WeightedGraph) -> None:
    """Refuse ``g`` as ``h``, then ``hbar`` of a connected graph would, before any enumeration.

    In that order: ``cheeger_exact``'s refusals, a disconnected graph (whose
    ``h`` is 0), then ``dual_cheeger_exact``'s cap.
    """
    _check_size(g, "Cheeger constant", CHEEGER_EXACT_CAP)
    require_connected(g)
    _check_size(g, "dual Cheeger constant", DUAL_CHEEGER_EXACT_CAP)


def _one(found):
    """The result of a scan of one graph, or the error that refuses it, raised."""
    (res,) = found
    if isinstance(res, Exception):
        raise res
    return res


#: Graphs screened in one sweep of the tiles: their terms, held together,
#: are about 2 MB for h at n = 24.  Longer lists of graphs take several
#: sweeps, each with the memory of one.
_SWEEP = 3


def _sweeps(graphs):
    """``graphs`` in runs of at most ``_SWEEP``, each within a ``_drift`` of ``_TOL`` of its first."""
    run = []
    for g in graphs:
        if run and (len(run) == _SWEEP or not _drift(g, run[0]) < _TOL):
            yield run
            run = []
        run.append(g)
    yield run


def _exact_scan(graphs, what: str, cap: int, base: int, scan, den, value):
    """The first largest score over every labeling of each of ``graphs``, and its digits.

    The graphs have the same number n of vertices, and are refused as
    ``_check_size(graphs[0], what, cap)``.  Digit i of a code is the label
    of vertex i: base 2 labels the first n - 1 vertices (the last one is
    always 0) from code 1, base 3 labels all n from code 0.  ``scan(g,
    arrays)`` gives g's ``score`` and ``block``: ``score(codes, rows)``
    the values of ``rows`` (every row by default) of the chunk ``codes``,
    written into ``arrays`` (``_chunk_arrays``), and ``block`` as in
    ``_candidates``, with ``den`` and ``value``.

    The graphs are taken in sweeps (``_sweeps``), which share one set of
    score arrays and of tile buffers.  A range of one chunk is scored in
    full, and so is every chunk of a longer one when ``_tolerance`` is
    infinite.  The other graphs of a sweep are screened together by
    ``_candidates``, with the denominators of the first of them.  Then
    ``_first_kept`` scores again, graph by graph, only the codes of the
    screened chunks that the float64 tiles cannot rule out, and none at
    all when the sums are exact.  The screen only picks the chunks, and
    every superset of the chunk that holds the first optimum gives the
    same result (``_first_kept``), so each graph's value bits and witness
    are those of a scan of it alone.

    Returns, per graph, the value and the optimum's digits, or the
    ``GraphError`` that refuses a graph on which no labeling scores a
    number (every ratio 0 / 0, once the sums lose every digit).
    """
    _check_size(graphs[0], what, cap)
    n = graphs[0].n
    # base 2: the last vertex stays outside, and code 0, the empty side, is skipped
    m, start = (n - 1, 1) if base == 2 else (n, 0)
    stop = base**m
    starts = np.arange(start, stop, _CHUNK)
    k = (m + 1) // 2

    def tile(terms, rows, out, v):
        den(terms[1], rows, out, v)
        value(terms[0], rows, out, v)

    def sweep(graphs):
        """``(value, code)`` of each of ``graphs``, on one set of arrays, freed on return."""
        arrays, scans, tols, split, done = _chunk_arrays(base, m), [], [], [], {}
        for i, g in enumerate(graphs):
            scans.append(scan(g, arrays))
            tols.append(_tolerance(g) if len(starts) > 1 else np.inf)
            if tols[i] < np.inf:
                split.append(i)
        if split:
            lo, hi = _digits(0, base**k, base, k), _digits(0, base ** (m - k), base, m - k)
            # The screen's terms, in float32 where every err32 is finite.  A
            # lone graph keeps its float64 terms for its scoring again, as the
            # scan of one graph always did; several graphs build theirs again,
            # one graph at a time, so that neither the screen nor the scoring
            # again holds more memory than a scan of one graph.
            err32 = [_tolerance32(graphs[i], tols[i]) for i in split]
            single = max(err32) < np.inf
            terms, margins = [], []
            for i, err in zip(split, err32):
                made = scans[i][1](lo, hi)
                terms.append(_single(made[1]) if single else made[1])
                margins.append(tols[i] + 2 * (_drift(graphs[i], graphs[split[0]]) + (err if single else 0)))
                if i == split[0]:
                    kept, shared = made[0], _single(made[2]) if single else made[2]
            if len(split) > 1:
                made = None
            picked = _candidates(starts, stop, kept, den, value, np.float32 if single else np.float64,
                                 shared, terms, margins)
            del terms, shared
            # one chunk's pairs: at most the highs it spans
            buffers = np.empty((2, (-(-_CHUNK // len(kept)) + 1) * int(kept.sum())))
            for i, chunks in zip(split, picked):
                made = made or scans[i][1](lo, hi)
                done[i] = _first_kept(chunks, stop, scans[i][0], tols[i], kept, tile, made[1:], buffers)
                made = None
        # the graphs the pass cannot screen score every chunk, after the screen
        for i, (score, _) in enumerate(scans):
            if i not in done:
                done[i] = _first_max(starts, stop, score)
        return [done[i] for i in range(len(graphs))]

    found = []
    for run in _sweeps(graphs):
        for best, code in sweep(run):
            found.append(GraphError(
                GraphErrorKind.WEIGHT_RANGE,
                f"no labeling gives the {what} a finite value: the weights span too wide a range",
            ) if code < 0 else (best, _digits(code, 1, base, m)[0].copy()))
    return found


def _candidates(starts, stop: int, kept, den, value, dtype, shared, terms, margins):
    """For each graph, the chunk starts whose maximum may be within ``tol`` of the best chunk's.

    The split pass scores every code approximately by splitting the digits
    into a low block and a high block: the scan's ``block(lo, hi)`` gets
    every low and every high labeling as digit matrices and returns the
    lows to keep, the graph's terms and its denominator terms, in float64.
    The lows kept depend only on the labels, the same for every graph.
    ``den(shared, rows, out, v)`` writes into ``v`` the denominators of
    the pairs of the highs at ``rows`` with the kept lows, using ``out``,
    and ``value(terms, rows, out, v)`` then writes their values into
    ``out``, reading ``v``.  The terms are only read by the tiles.  An
    ``h`` or ``hbar`` value is one product: each high's and each low's own
    term ride in it as two more columns ``[term_hi, 1]`` of the highs and
    rows ``[1; term_lo]`` of the lows, then one division by the
    denominators (``_quotient``).  Code = low + ``len(kept)`` * high, so a
    tile read row by row is in code order.

    ``terms`` holds each graph's terms and ``shared`` the denominator terms
    of one of them, all in the tiles' ``dtype``: float64, or float32 in
    tiles of twice the highs, in the same bytes.  The pass builds each
    tile's denominators once, and then each graph's values, product and
    division, in one buffer, and takes each high's largest value.  That
    counts for every chunk the high reaches into, so a chunk's estimate is
    at least its maximum.  For each graph it returns the chunks whose
    estimate plus its margin is not below the best one; a NaN estimate
    keeps every chunk.

    The margins are ``tol + 2 drift`` in float64 and ``tol + 2 (err32 +
    drift)`` in float32 (``_exact_scan``).  With them the chunks returned
    hold every chunk whose float64 maximum ``c`` is within ``tol`` of the
    best one's, ``c_best``, so ``_first_kept`` scores the chunks it would
    score given every chunk.  With the graph's own denominators, a float64
    screen's values would be its tiles' values, and they are within
    ``drift`` of those with the shared ones (``_drift``).  Every code of
    the tiles is a code of the scan, so the best estimate is the largest
    value of any code: ``c_best`` in float64, and in float32 within
    ``err32`` of it, as every code's float32 value is of its float64 one
    (``_tolerance32``), each give or take ``drift``.  Such a chunk's
    estimate is at least ``c - err32 - drift``, and ``err32`` is twice its
    float32 part, room for the rounding of the sums compared.
    """
    span, lows = len(kept), np.flatnonzero(kept)
    rows, highs = _TILE // len(lows), stop // span  # highs per float64 tile: about _TILE pairs
    rows = min(rows if dtype == np.float64 else 2 * rows, highs)
    buffers = np.empty((2, rows, len(lows)), dtype)
    hmax = np.empty((len(terms), highs), dtype)  # each high's largest value, per graph
    with np.errstate(all="ignore"):
        for h0 in range(0, highs, rows):
            (out, v), at = buffers[:, : highs - h0], slice(h0, min(h0 + rows, highs))
            den(shared, at, out, v)
            for t, hm in zip(terms, hmax):
                value(t, at, out, v)
                if h0 == 0:  # the pairs before the first code of the scan
                    out[0, : np.searchsorted(lows, starts[0])] = -np.inf
                out.max(axis=1, out=hm[at])
    # a chunk's highs, from its first code's to its last one's, the last one
    # apart when the next chunk starts in it
    first, last = starts // span, (np.minimum(starts + _CHUNK, stop) - 1) // span
    cmax = np.maximum(np.maximum.reduceat(hmax, first, axis=1), hmax[:, last]).astype(float)
    return [starts[~(c + margin < c.max())] for c, margin in zip(cmax, margins)]


def _single(terms) -> tuple:
    """The float64 terms of a split pass in float32; boolean masks as they are."""
    return tuple((t.astype(np.float32) if t.dtype == np.float64 else t)
                 if isinstance(t, np.ndarray) else np.float32(t) for t in terms)


def _tolerance(g: WeightedGraph) -> float:
    """Twice the largest gap between a code's split-pass and chunk values.

    When every weight is a multiple of ``q = 2**-52`` times the power of two
    at or above the total volume, every sum either side forms is a multiple
    of q below ``2**53 q`` in magnitude, hence exact, and the two values are
    equal.  That holds for the partial sums of a tile's product in any
    order too: its positive terms add up to at most ``total``, its negative
    ones (the Cheeger ``(I - V)`` terms) to at least ``-total``.

    Otherwise both sides round ratios of sums.  For ``hbar`` and the balance
    ratio the terms are nonnegative, which costs a few ulps; the balance
    ratio's tile divides by ``T - min`` where its chunk divides by ``max(vol,
    T - vol)``, one more rounding, of at most an ulp of ``T``, on a value
    of at least ``T / 2``.  The Cheeger ratio ``(vol - internal) /
    min(vol, total - vol)`` cancels.  Its numerator is, in a chunk, a few
    sums of at most n terms, and in a tile one product of at most ``n/2 +
    2`` terms (the high digits' cross terms, the high term and the low
    term), each at most ``total`` and itself a sum of at most n/2 terms.
    So each side's numerator is off by a small
    multiple of ``n * eps * total``, and its ratio by that over ``d_min <=
    min(vol, total - vol)``: inside ``16 * n * eps * total / d_min``.
    Beyond 1 the pass cannot tell chunks apart, and every chunk is scored.
    """
    total = g.volume
    if not np.fmod(g.weights, 2.0 ** max(np.ceil(np.log2(total)) - 52, -1074)).any():
        return 0.0
    tol = 2 * (_TOL + 16 * g.n * np.finfo(float).eps * total / float(g.degrees.min()))
    return tol if tol < 1 else np.inf


def _drift(g: WeightedGraph, ref: WeightedGraph) -> float:
    """The largest gap between a code's split-pass values with ``ref``'s denominators and with g's own.

    Gamma[l] keeps the degrees of g in exact arithmetic, so the
    denominators of the h and hbar ratios, ``min(vol, T - vol)`` and ``vol
    V1 + vol V2``, are the same at every order; in floats the degrees
    drift apart by rounding.  Each denominator is a sum of at most n
    degrees, or T less one, so with ``gap`` the largest difference of two
    degrees, ``T`` the larger total volume and ``d_min`` the smaller least
    degree, the two differ by at most ``n gap`` plus the rounding of both,
    at most ``n eps T`` each, and are at least ``d_min (1 - 1/32)`` where
    ``_tolerance`` is finite.  A value, at most about 1 in size, moves by
    at most ``(n gap + 2 n eps T) / (d_min (1 - 1/32))``, and each of the
    two divisions rounds by an ulp of it: ``4 n (gap + 4 eps T) / d_min``
    holds all of that twice over.  Equal degrees give equal denominators,
    bit for bit, and a drift of 0.
    """
    gap = float(np.abs(g.degrees - ref.degrees).max())
    if gap == 0:
        return 0.0
    total = max(g.volume, ref.volume)
    d_min = min(float(g.degrees.min()), float(ref.degrees.min()))
    return 4 * g.n * (gap + 4 * np.finfo(float).eps * total) / d_min


def _tolerance32(g: WeightedGraph, tol: float) -> float:
    """The largest gap ``err32`` between a code's float32 and float64 split-pass values.

    The float32 screen scores the float64 terms rounded to float32.  It
    runs only on a total volume ``T`` in ``[2**-65, 2**64)``; any other
    gets an infinite ``err32``, and its screen is in float64.  That keeps every float32 value of a tile far from overflow, at
    ``2**128``: each term, each partial sum and each denominator lies
    within ``+-T``.  Let ``u = 2**-24``, the unit roundoff of float32, and
    ``d_min`` the smallest degree; the denominators of every proper
    labeling are at least ``d_min``, and every value is at most 1.
    Rounding a number to float32 moves it by at most ``u`` times itself
    plus ``2**-150`` (below the normal range); when ``d_min`` is in the
    normal range, ``2**-150 <= u * d_min``.

    * The numerator is one product of at most ``n/2 + 2`` nonzero terms,
      each times an exact 0 or 1 (``_tolerance``).  Rounding the terms
      moves it by at most ``u`` times the sum of their sizes, at most
      ``2 T``, plus ``(n/2 + 2) u d_min``.  Every partial sum, in any
      order, lies within ``+-T``, so each of the at most ``n/2 + 1``
      additions rounds by at most ``u T``.  In all, at most ``(n + 5) u T``.
    * The denominator rounds the two volumes, their sum, ``T`` and ``T -
      vol``, each at most T: at most ``6 u T``, with ``2 u d_min`` for
      the volumes below the normal range.  The balance ratio's numerator
      is that denominator, ``min(vol, T - vol)``, and its own, ``T -
      min``, rounds once more, by at most ``u T`` on a value of at least
      ``T / 2``: far inside the count for a product.
    * So with ``X = (n + 11) u T / d_min`` the ratio ``N / D``, at most 1,
      moves by at most ``(|dN| + |dD|) / (D - |dD|) <= X / (1 - X) <= 2 X``
      for ``X <= 1/2``, and the division adds ``u`` of a value below ``1 +
      2 X``, plus ``2**-150``: at most ``2 u``, and ``2 u <= u T / d_min``.
      The float32 value is within ``(n + 11.5) eps32 T / d_min`` of the
      quotient of the float64 terms, ``eps32 = 2 u``.
    * The float64 tile value is off that quotient only by its own sums and
      division: by the same count in float64, far less than ``tol / 2``
      (``_tolerance``).  When ``tol`` is 0 only its division rounds, by
      less than ``eps32 T / d_min``.

    ``err32 = tol / 2 + 2 (n + 12) eps32 T / d_min`` is twice the float32
    part of the sum, room to spare for the rounding of the margins that
    ``_candidates`` compares.  Where it would reach 1, ``X`` would pass 1/4
    and the screen cannot tell chunks apart: ``err32`` is then infinite.
    Below 1, ``T / d_min < 2**17``, so ``d_min > 2**-83`` is in float32's
    normal range, as the bound assumes.

    A screen of several graphs divides every graph's products by the
    denominators of its first graph (``_exact_scan``), whose ``T`` and
    ``d_min`` differ from this graph's by less than ``_TOL`` relative
    (``_sweeps``), well inside the room above; the same count bounds the
    float32 value's gap from the float64 quotient with those denominators,
    and that quotient lies within ``_drift`` of the graph's own float64
    tile value, which ``_candidates`` adds to the margin.  The screen only
    picks chunks, so a graph's value bits and witness stay those of a scan
    of it alone (``_first_kept``).
    """
    if not tol < np.inf or abs(math.frexp(g.volume)[1]) > 64:
        return np.inf
    eps32 = float(np.finfo(np.float32).eps)
    err = tol / 2 + 2 * (g.n + 12) * eps32 * g.volume / float(g.degrees.min())
    return err if err < 1 else np.inf


def _digits(lo: int, count: int, base: int, k: int, out=None) -> np.ndarray:
    """Digit i of each of the codes ``lo .. lo + count - 1``, the label of vertex i, for i < k.

    With code = q * base**j + r, each block of base**j codes from a
    multiple of base**j has every r in order and one q, so both halves'
    digits are copied from the table of every j-digit code, with no
    arithmetic per code.  The blocks that hold the codes are written into
    the uint8 array ``out``, of at least ``count + 2 * base**j`` rows of k,
    or a fresh one; the result is a view of them.
    """
    j = (k + 1) // 2
    table = _digit_table(base, j)
    q0, r0 = divmod(lo, base**j)
    q1 = -(-(lo + count) // base**j)
    if out is None:
        out = np.empty(((q1 - q0) * base**j, k), dtype=np.uint8)
    blocks = out[: (q1 - q0) * base**j].reshape(q1 - q0, base**j, k)
    blocks[:, :, :j] = table
    blocks[:, :, j:] = table[q0:q1, None, : k - j]
    return blocks.reshape(-1, k)[r0 : r0 + count]


@functools.cache
def _digit_table(base: int, j: int) -> np.ndarray:
    """Row c holds the j base-``base`` digits of c, least significant first."""
    table = (np.arange(base**j)[:, None] // base ** np.arange(j) % base).astype(np.uint8)
    table.flags.writeable = False
    return table


def _first_label(digits: np.ndarray) -> np.ndarray:
    """Each row's first nonzero digit; 0 for an all-zero row."""
    return digits[np.arange(len(digits)), np.argmax(digits != 0, axis=1)]


@functools.cache
def _label_flags(j: int) -> tuple[np.ndarray, np.ndarray]:
    """``_first_label`` and "has a digit 2" of every j-digit ternary code."""
    table = _digit_table(3, j)
    flags = _first_label(table), (table == 2).any(axis=1)
    for f in flags:
        f.flags.writeable = False
    return flags


def _chunk_arrays(base: int, k: int):
    """``arrays(codes)``: the digits of the consecutive ``codes`` (``_digits``),
    then two float matrices of shape ``(c, k)`` and a vector of ``(c,)``.

    All are views of arrays allocated for the longest chunk so far: fresh
    arrays of several MB per chunk go back to the OS when freed and are
    page-faulted in again by the next chunk.  Each float array is
    contiguous, with the strides of a fresh array of its shape, so a
    product into it rounds the same.  The matrices lie in one array, for
    which numpy asks the OS for huge pages from 4 MB on.  The digits lie in
    the bytes of the second matrix: every score reads them before it
    writes that one, and the balance ratio never writes it.
    """
    mat, vec, digit_rows = np.empty((2, 0, k)), np.empty(0), None

    def arrays(codes):
        nonlocal mat, vec, digit_rows
        c = len(codes)
        if mat.shape[1] < c:
            mat, vec = np.empty((2, c, k)), np.empty(c)
            rows = c + 2 * base ** ((k + 1) // 2)
            digit_rows = mat[1].view(np.uint8).reshape(-1)[: rows * k].reshape(rows, k)
        return _digits(int(codes[0]), c, base, k, digit_rows), mat[0, :c], mat[1, :c], vec[:c]

    return arrays


def _smaller_volume(terms, rows, out, v):
    """``v``: the denominators ``min(vol, T - vol)`` of ``h`` and the balance ratio, using ``out``.

    ``vol = vol_hi + vol_lo`` for the pairs of the highs at ``rows``, from
    ``terms = (vol_hi, vol_lo, T)``.
    """
    vol_hi, vol_lo, total = terms
    np.add(vol_hi[rows, None], vol_lo, out=v)
    np.minimum(v, np.subtract(total, v, out=out), out=v)


def _quotient(terms, rows, out, v):
    """``out``: the product of the high terms at ``rows`` and the low terms, ``terms[:2]``, over ``v``."""
    np.matmul(terms[0][rows], terms[1], out=out)
    out /= v


def cheeger_exact(g: WeightedGraph) -> CheegerResult:
    """Exact Cheeger constant of any graph of 2 to 24 vertices, by enumerating bipartitions.

    Enumerates the 2^(n-1) - 1 proper subsets not containing the last
    vertex (one representative per complementary pair), code ``sum 2^i``
    over the members.  The witness is the first minimizer in code order
    and the value is its ratio as its chunk of ``_CHUNK`` codes scores it:
    ``memb @ d`` and ``memb @ w`` on the whole chunk, whose shape fixes
    their rounding, then row by row.  Beyond one chunk (n > 16), a split
    pass scores every pair of low and high labelings with ``internal = I_lo
    + I_hi + 2 L W_lh H^T``, and only the codes within a rounding tolerance
    of their chunk's best, in the chunks within it of the pass's best, are
    scored again; on exact sums the pass's values are the result, with no
    scoring again.  A disconnected graph has ``h = 0``, with a union of
    components as witness.  Where ``_tolerance`` is infinite no bound
    vouches for the scan, and every code is scored again from sums of
    nonnegative terms alone (``_cut_ratios``): the graph is refused unless
    the witness's ratio is within ``_TOL`` of the scan's value and of the
    least ratio.
    """
    return _one(_cheeger_scans([g]))


def _cheeger_scans(graphs) -> list:
    """``cheeger_exact`` of each of ``graphs``, on the same vertices, in one ``_exact_scan``.

    Each entry is the result or the ``GraphError`` that refuses that graph;
    the size refusals, the same for every graph, are raised.
    """
    n = graphs[0].n

    def scan(g, arrays):
        d = g.degrees[: n - 1]
        w = g.weights[: n - 1, : n - 1]
        total = g.volume

        def neg_ratio(codes, rows=slice(None)):
            digits, memb, prod, vol = arrays(codes)
            memb[...] = digits  # read from prod's bytes, before the product writes them
            np.matmul(memb, d, out=vol)
            np.matmul(memb, w, out=prod)
            # row by row from here, on the rows asked for
            memb, prod, vol = memb[rows], prod[rows], vol[rows]
            prod *= memb
            boundary = vol - prod.sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                return -(boundary / np.minimum(vol, total - vol))

        def block(lo, hi):
            k = lo.shape[1]
            a, b = lo.astype(float), hi.astype(float)
            vol_lo, vol_hi = a @ d[:k], b @ d[k:]
            # -boundary = internal - vol = (I - V)_lo + (I - V)_hi + 2 L W_lh H^T
            #           = [H, (I - V)_hi, 1] [2 (L W_lh)^T; 1; (I - V)_lo]
            neg_lo = ((a @ w[:k, :k]) * a).sum(axis=1) - vol_lo
            neg_hi = ((b @ w[k:, k:]) * b).sum(axis=1) - vol_hi
            hi_terms = np.column_stack([b, neg_hi, np.ones(len(b))])
            lo_terms = np.vstack([2.0 * (a @ w[:k, k:]).T, np.ones(len(a)), neg_lo])
            return np.ones(len(lo), dtype=bool), (hi_terms, lo_terms), (vol_hi, vol_lo, total)

        return neg_ratio, block

    found = _exact_scan(graphs, "Cheeger constant", CHEEGER_EXACT_CAP, 2, scan, _smaller_volume, _quotient)
    return [res if isinstance(res, GraphError) else _cheeger_result(g, *res)
            for g, res in zip(graphs, found)]


def _cheeger_result(g: WeightedGraph, neg_best: float, digits: np.ndarray):
    """The ``CheegerResult`` of the scan's best ``-ratio`` and its digits, or the refusal of g."""
    # Negation is exact, so the first maximizer of -ratio is the first minimizer.
    # On float-valued weight matrices (e.g. walk graphs) the rounded sums can
    # push the quotient an ulp past the mathematical ceiling h <= 1.  A zero
    # is -0.0 from a chunk, -(0 / den), and +0.0 from a tile, (-0) / den:
    # 0.0 - x is +0.0 for both, and -x for every other x.
    value = min(0.0 - neg_best, 1.0)
    if _tolerance(g) == np.inf:
        # vol - internal may have lost every digit, and with it the choice
        # of the witness: it must be the least ratio, and have the value
        # printed, when both are summed soundly.
        ratio = _cut_ratios(g, np.append(digits, 0)[None])[0]
        stop = 2 ** (g.n - 1)
        lowest = np.fmin.reduce([
            np.fmin.reduce(_cut_ratios(g, _digits(lo, min(_CHUNK, stop - lo), 2, g.n)))
            for lo in range(1, stop, _CHUNK)
        ])
        if not (abs(ratio - value) <= _TOL and ratio <= lowest + _TOL):
            return GraphError(
                GraphErrorKind.WEIGHT_RANGE,
                "cannot compute the Cheeger constant exactly: the weights span too wide a range",
            )
    return CheegerResult(value=value, witness=Bipartition.of(g, np.flatnonzero(digits)))


def _cut_ratios(g: WeightedGraph, memb: np.ndarray) -> np.ndarray:
    """The Cheeger ratio of each 0/1 row of ``memb``, of length n, from sums of nonnegative terms.

    The cut ``sum memb_i w_ij (1 - memb_j)`` and the volumes of both sides
    are each a sum of nonnegative terms, so each is within ``n eps`` of
    itself, and the ratio within a few times that, in any order of
    summation; 0 / 0 is NaN.
    """
    inside = memb.astype(float)
    outside = 1.0 - inside
    cut = ((outside @ g.weights) * inside).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return cut / np.minimum(inside @ g.degrees, outside @ g.degrees)


def dual_cheeger_exact(g: WeightedGraph) -> CheegerResult:
    """Exact dual Cheeger constant of any graph of 2 to 14 vertices, by enumerating tripartitions.

    Ternary enumeration over vertex labels (V3, V1, V2), code ``sum t_i 3^i``,
    halved by the V1 <-> V2 swap symmetry: only labelings whose first non-V3
    vertex is in V1 count.  The witness is the first maximizer in code order
    and the value is its ratio as its chunk of ``_CHUNK`` codes scores it:
    ``ind @ d`` and ``ind1 @ w`` on the whole chunk, whose shape fixes their
    rounding, then row by row.  Beyond one chunk (n > 9), a split pass
    builds only the low labelings that are all V3 or start with V1, scores
    every pair with ``cross = C_lo + C_hi + [A1 W_lh, A2 W_lh] [B2, B1]^T``,
    and scores again only the codes as ``cheeger_exact`` does, none on exact
    sums.  On a disconnected graph the optimum may spread over several
    components.
    """
    return _one(_dual_cheeger_scans([g]))


def _dual_cheeger_scans(graphs) -> list:
    """``dual_cheeger_exact`` of each of ``graphs``, as ``_cheeger_scans`` does for ``h``."""
    n = graphs[0].n

    def scan(g, arrays):
        d = g.degrees
        w = g.weights

        def ratio(codes, rows=slice(None)):
            digits, ind, prod, vols = arrays(codes)
            # ind holds the indicator of V1 or V2, then of V1, then the cross
            # weights; the rows asked for take their indicator of V2 first, as
            # the product overwrites the digits
            two = digits[rows] == 2
            np.not_equal(digits, 0, out=ind, casting="unsafe")
            np.matmul(ind, d, out=vols)
            np.equal(digits, 1, out=ind, casting="unsafe")
            np.matmul(ind, w, out=prod)
            # row by row from here, on the rows asked for
            codes, prod, vols, cross = codes[rows], prod[rows], vols[rows], ind.reshape(-1)[: len(two)]
            prod *= two
            prod.sum(axis=1, out=cross)
            with np.errstate(invalid="ignore", divide="ignore"):
                cross *= 2.0
                cross /= vols
            # the first non-V3 label is 1 (so V1 is nonempty) and V2 is nonempty,
            # read from the flags of each code's two table rows (looked up here,
            # so a graph past the cap is refused before its tables are built)
            j = (n + 1) // 2
            first, has2 = _label_flags(j)
            q, r = np.divmod(codes, 3**j)
            low_first = first[r]
            valid = np.where(low_first != 0, low_first, first[q]) == 1
            valid &= has2[r] | has2[q]
            cross[~valid] = -np.inf
            return cross

        def block(lo, hi):
            k = lo.shape[1]
            kept = _first_label(lo) != 2  # all V3, or the first non-V3 label is 1
            lo = lo[kept]
            a1, a2 = (lo == 1).astype(float), (lo == 2).astype(float)
            b1, b2 = (hi == 1).astype(float), (hi == 2).astype(float)
            # 2 cross = 2 C_lo + 2 C_hi + [2 A1 W_lh, 2 A2 W_lh] [B2, B1]^T
            #         = [B2, B1, 2 C_hi, 1] [[2 A1 W_lh, 2 A2 W_lh]^T; 1; 2 C_lo]
            cross_lo = 2.0 * ((a1 @ w[:k, :k]) * a2).sum(axis=1)
            cross_hi = 2.0 * ((b1 @ w[k:, k:]) * b2).sum(axis=1)
            hi_terms = np.column_stack([b2, b1, cross_hi, np.ones(len(hi))])
            lo_terms = np.vstack(
                [2.0 * np.hstack([a1 @ w[:k, k:], a2 @ w[:k, k:]]).T, np.ones(len(lo)), cross_lo]
            )
            vol_lo, vol_hi = (a1 + a2) @ d[:k], (b1 + b2) @ d[k:][:, None]
            # invalid: V2 empty, or all V3 below and the first high label 2
            no2_lo, no2_hi = ~a2.any(axis=1), ~b2.any(axis=1)
            not1_hi = _first_label(hi) != 1
            return kept, (hi_terms, lo_terms, no2_hi, no2_lo, not1_hi), (vol_hi, vol_lo)

        return ratio, block

    def den(terms, rows, out, v):
        vol_hi, vol_lo = terms
        np.add(vol_hi[rows], vol_lo, out=v)

    def value(terms, rows, out, v):
        no2_hi, no2_lo, not1_hi = terms[2:]
        _quotient(terms, rows, out, v)
        out[np.ix_(no2_hi[rows], no2_lo)] = -np.inf
        out[not1_hi[rows], 0] = -np.inf

    found = _exact_scan(graphs, "dual Cheeger constant", DUAL_CHEEGER_EXACT_CAP, 3, scan, den, value)
    # same ulp guard as in cheeger_exact: hbar <= 1 holds mathematically
    return [res if isinstance(res, GraphError) else CheegerResult(
        value=min(res[0], 1.0),
        witness=TriPartition.of(g, np.flatnonzero(res[1] == 1), np.flatnonzero(res[1] == 2)),
    ) for g, res in zip(graphs, found)]


def dual_cheeger_greedy_lower(g: WeightedGraph) -> CheegerResult:
    """Greedy two-sided partition certifying ``hbar >= 1/2`` for loopless graphs.

    Starting from everything in V1, repeatedly moves a vertex whose
    within-side weight exceeds its cross weight, until the cross weight
    dominates both internal weights.  The final value ``2 E12 / vol(V)``
    is a lower bound for ``hbar`` and is always at least 1/2.
    """
    if g.has_loops():
        raise GraphError(
            GraphErrorKind.REQUIRES_LOOPLESS, "greedy dual-Cheeger bound needs a loopless graph"
        )
    n = g.n
    w = g.weights
    side = np.zeros(n, dtype=int)  # 0 -> V1, 1 -> V2
    while True:
        in1 = side == 0
        in2 = ~in1
        e12 = float(w[in1][:, in2].sum())
        e11 = float(w[in1][:, in1].sum())
        e22 = float(w[in2][:, in2].sum())
        if e12 >= max(e11, e22):
            break
        src = 0 if e11 >= e22 else 1
        members = np.nonzero(side == src)[0]
        same = w[members][:, side == src].sum(axis=1)
        other = w[members][:, side != src].sum(axis=1)
        movable = members[same > other]
        if movable.size == 0:  # cannot happen in exact arithmetic
            break
        side[int(movable[0])] = 1 - src
    v1 = {i for i in range(n) if side[i] == 0}
    v2 = {i for i in range(n) if side[i] == 1}
    tri = TriPartition.of(g, v1, v2)
    return CheegerResult(value=tri.value(g), witness=tri)


# ---------------------------------------------------------------------------
# balance ratios


def balance_ratio_exact(g: WeightedGraph) -> CheegerResult:
    """Most balanced bipartition of any graph of 2 to 24 vertices, by full enumeration.

    Same codes, cap, witness rule, split pass and scoring again as
    ``cheeger_exact``, with ``vol = V_lo + V_hi`` across the block boundary
    and one product, ``memb @ d``, on the whole chunk.  A chunk scores
    ``min(vol, T - vol) / max(vol, T - vol)`` and a tile ``min / (T -
    min)``, on ``cheeger_exact``'s denominators.

    The value is within about ``8 n eps`` of the ratio of the exact
    degrees, whatever the weights: the error is absolute, like ``h``'s.
    Every sum has nonnegative terms, so each volume, ``T`` and ``T - vol``
    is off by at most about ``2 n eps T``, and the larger side's volume is
    at least ``T / 2``.  Where a vertex's degree swallows another's, the
    witness may be a split that only ties with the optimum in floats.
    """

    def scan(g, arrays):
        d = g.degrees[: g.n - 1]
        total = g.volume

        def balance(codes, rows=slice(None)):
            digits, memb, _, vol = arrays(codes)
            memb[...] = digits
            vol = np.matmul(memb, d, out=vol)[rows]
            return np.minimum(vol, total - vol) / np.maximum(vol, total - vol)

        def block(lo, hi):
            k = lo.shape[1]
            vol_lo, vol_hi = lo.astype(float) @ d[:k], hi.astype(float) @ d[k:]
            return np.ones(len(lo), dtype=bool), (total,), (vol_hi, vol_lo, total)

        return balance, block

    def value(terms, rows, out, v):
        np.divide(v, np.subtract(terms[0], v, out=out), out=out)

    best, digits = _one(_exact_scan([g], "balance ratio", CHEEGER_EXACT_CAP, 2, scan, _smaller_volume,
                                    value))
    return CheegerResult(value=best, witness=Bipartition.of(g, np.flatnonzero(digits)))


class BalancedPartition(NamedTuple):
    """Greedy balanced bipartition plus the step index entering its guarantee.

    ``m`` is the last time the eventually-lighter side was still at least as
    heavy as the other one (plus one); the achieved balance satisfies
    ``balance >= (m - 1) / (m + 1)``, and ``>= (n - 1) / (n + 1)`` for
    unweighted graphs.
    """

    partition: Bipartition
    m: int

    @property
    def weighted_guarantee(self) -> float:
        return (self.m - 1) / (self.m + 1)


def greedy_balance_partition(g: WeightedGraph) -> BalancedPartition:
    """Assign vertices in descending degree order to the lighter side."""
    if g.n < 2:
        raise ValueError("balance partition needs at least two vertices")
    order = np.argsort(-g.degrees, kind="stable")
    in_a = np.zeros(g.n, dtype=bool)
    vol_a = 0.0
    vol_b = 0.0
    hist_a = [0.0]
    hist_b = [0.0]
    for v in order:
        if vol_a <= vol_b:
            in_a[v] = True
            vol_a += g.degrees[v]
        else:
            vol_b += g.degrees[v]
        hist_a.append(vol_a)
        hist_b.append(vol_b)

    # Relabel so "light" is the side that ends lighter, then find the last
    # step at which light was still >= heavy; every later vertex joined light.
    light, heavy = (hist_a, hist_b) if vol_a <= vol_b else (hist_b, hist_a)
    m = 1 + max(k for k in range(g.n) if light[k] >= heavy[k])
    side = {int(v) for v in np.nonzero(in_a)[0]}
    return BalancedPartition(partition=Bipartition.of(g, side), m=m)


# ---------------------------------------------------------------------------
# odd closed walks


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


class OddWalkFamily(NamedTuple):
    """One closed walk of odd length through every vertex.

    ``walks[i]`` is the vertex sequence of the walk anchored at vertex i,
    starting and ending at i, with an odd number of edges, each step along
    a positive-weight edge (a loop step ``i -> i`` is allowed).
    """

    walks: tuple[tuple[int, ...], ...]

    def validate(self, g: WeightedGraph) -> None:
        if len(self.walks) != g.n:
            raise ValueError(f"need one walk per vertex, got {len(self.walks)} for n={g.n}")
        for i, walk in enumerate(self.walks):
            if len(walk) < 2 or walk[0] != i or walk[-1] != i:
                raise ValueError(f"walk {i} must start and end at vertex {i}")
            if (len(walk) - 1) % 2 == 0:
                raise ValueError(f"walk {i} has even length {len(walk) - 1}")
            if not all(0 <= v < g.n for v in walk):
                raise ValueError(f"walk {i} visits a vertex outside 0..{g.n - 1}")
            for a, b in zip(walk, walk[1:]):
                if g.weights[a, b] <= 0:
                    raise ValueError(f"walk {i} uses missing edge ({a}, {b})")

    def edge_sets(self) -> list[set[tuple[int, int]]]:
        return [
            {_edge_key(a, b) for a, b in zip(walk, walk[1:])} for walk in self.walks
        ]

    def sigma_max(self) -> int:
        """Largest number of edges in any walk of the family."""
        return max(len(walk) - 1 for walk in self.walks)


def walk_family_from_dict(data) -> OddWalkFamily:
    """The family of ``{"walks": [[i, ...], ...]}``; a malformed document raises ``ValueError``."""
    walks = data.get("walks") if isinstance(data, dict) else None
    if not isinstance(walks, list) or not all(
        isinstance(w, list) and all(_is_int(v) for v in w) for w in walks
    ):
        raise ValueError("walk JSON must be an object whose 'walks' is a list of vertex lists")
    return OddWalkFamily(walks=tuple(tuple(w) for w in walks))


def default_odd_walk_family(g: WeightedGraph) -> OddWalkFamily:
    """Shortest odd closed walk at every vertex.

    Found by breadth-first search on the parity double cover: states are
    ``(vertex, parity)`` and a walk from ``(i, 0)`` to ``(i, 1)`` projects to
    a closed odd walk at i.  Bipartite graphs have none.
    """
    n = g.n
    nbrs = _neighbor_lists(g)
    # state v + p * n: vertex v reached by a walk of parity p; each edge flips p
    cover = [[u + n for u in vs] for vs in nbrs] + nbrs
    walks = []
    for i in range(n):
        parent = _bfs(cover, i)[1]
        if parent[i + n] < 0:
            raise GraphError(
                GraphErrorKind.NO_ODD_WALK,
                "graph is bipartite: it has no odd closed walks",
            )
        seq, state = [i], i + n
        while state != i:
            state = parent[state]
            seq.append(state % n)
        walks.append(tuple(reversed(seq)))
    return OddWalkFamily(walks=tuple(walks))


class XiProductBound(NamedTuple):
    """Congestion ``xi`` of a walk family and its bound ``xi <= d_max * w_inv * b_load``.

    ``xi`` is ``max_e (1/w_e) sum of d_i over the walks through e``; the
    dual Cheeger constant obeys ``hbar <= 1 - 1/xi``.  ``d_max`` is the
    maximum degree, ``w_inv`` the reciprocal of the smallest positive edge
    weight, ``b_load`` the largest number of walks through a single edge,
    and ``sigma_max`` the longest walk length in the family.
    """

    xi: float
    d_max: float
    w_inv: float
    b_load: int
    sigma_max: int

    @property
    def product(self) -> float:
        return self.d_max * self.w_inv * self.b_load


def xi_product_bound(g: WeightedGraph, fam: OddWalkFamily) -> XiProductBound:
    """Validate ``fam`` against ``g`` and measure its congestion."""
    fam.validate(g)
    loads: dict[tuple[int, int], int] = {}
    load_degree: dict[tuple[int, int], float] = {}
    for i, es in enumerate(fam.edge_sets()):
        for e in es:
            loads[e] = loads.get(e, 0) + 1
            load_degree[e] = load_degree.get(e, 0.0) + float(g.degrees[i])
    positive = g.weights[g.weights > 0]
    return XiProductBound(
        xi=max(total / g.weights[e] for e, total in load_degree.items()),
        d_max=float(g.degrees.max()),
        w_inv=1.0 / float(positive.min()),
        b_load=max(loads.values()),
        sigma_max=fam.sigma_max(),
    )
