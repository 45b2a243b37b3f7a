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
from dataclasses import dataclass

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

#: Codes per exact scoring call.  Part of every result: a product rounds
#: differently at different shapes, so a code's value bits depend on its chunk.
_CHUNK = 1 << 15
#: Pairs per tile of the split pass.
_TILE = 1 << 16
#: Allowance for the rounding of a ratio in [0, 1], on each side of a comparison.
_TOL = 1e-9


@dataclass(frozen=True)
class TriPartition:
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


@dataclass(frozen=True)
class CheegerResult:
    value: float
    witness: Bipartition | TriPartition
    method: str  # "exact" | "greedy"


def _effective_cap(n: int, cap: int | None, hard: int, what: str) -> None:
    if cap is not None and cap < 0:
        raise ValueError(f"{what} enumeration cap must be >= 0, got {cap}")
    limit = hard if cap is None else min(int(cap), hard)
    if n > limit:
        raise GraphError(
            GraphErrorKind.SIZE_CAP_EXCEEDED,
            f"{what} enumeration capped at {limit} vertices, graph has {n}",
        )


def _first_max(starts, stop: int, score) -> tuple[float, int]:
    """Largest ``score`` over the chunks at ``starts``, first in code order.

    The chunk at ``lo`` holds the codes ``lo .. min(lo + _CHUNK, stop) - 1``;
    ``score`` maps that int64 array to its values.  Returns ``(value, code)``.
    """
    best_val, best_code = -np.inf, -1
    for lo in starts:
        codes = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64)
        vals = score(codes)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_code = float(vals[k]), int(codes[k])
    return best_val, best_code


def _split_first_max(start: int, base: int, m: int, score, block, tol: float):
    """``_first_max`` over all codes ``start .. base**m - 1``, scoring few chunks.

    Digit i of a code (``base`` 2 or 3) is the label of vertex i.  A range
    of one chunk is scored directly; a longer one first goes through the
    split pass of ``_candidates``.
    """
    stop = base**m
    starts = np.arange(start, stop, _CHUNK)
    if len(starts) > 1:  # a function of its own, so the pass's arrays are freed first
        starts = _candidates(starts, base, m, block, tol)
    return _first_max(starts, stop, score)


def _candidates(starts: np.ndarray, base: int, m: int, block, tol: float) -> np.ndarray:
    """The chunk starts that can hold the first exact optimum.

    The split pass scores every code approximately by splitting the digits
    into a low block of ``k`` and a high block of ``m - k``: ``block(lo, hi)``
    gets every low and every high labeling as digit matrices and returns
    the lows to keep and ``tile(rows, out)``, which writes the values of the
    pairs of the highs at ``rows`` with the kept lows into ``out``.  A tile
    is one product: each high's and each low's own term ride in it as two
    more columns ``[term_hi, 1]`` of the highs and rows ``[1; term_lo]`` of
    the lows, then one division.  Code = low + base**k * high, so a tile
    read row by row is in code order.  The pass keeps each chunk's largest
    value.  ``_tolerance`` bounds the gap between a code's tile and chunk
    values, the product's extra terms included.  With ``|approximate -
    exact| <= tol / 2`` for every code, the first chunk holding the exact
    optimum is within ``tol`` of the best chunk and more than ``tol`` above
    no earlier chunk.  The chunks that pass both tests (or whose maximum is
    NaN) are returned, so their exact scores give the value bits and
    witness of the scan over every chunk.
    """
    start = int(starts[0])
    k = (m + 1) // 2
    highs = _digits(np.arange(base ** (m - k)), base, m - k)
    kept, tile = block(_digits(np.arange(base**k), base, k), highs)
    lows = np.flatnonzero(kept)
    rows = _tile_rows(len(lows), len(highs))
    # Every tile is written into this buffer, and the blocks keep their
    # scratch arrays too: a fresh half-megabyte array per tile goes back to
    # the OS when freed and is page-faulted in again by the next tile.
    buf = np.empty((rows, len(lows)))
    # code - base**k * h0 of each pair of a tile starting at high h0
    offsets = (lows + base**k * np.arange(rows)[:, None]).ravel()
    cmax = np.full(len(starts), -np.inf)
    with np.errstate(all="ignore"):
        for h0 in range(0, len(highs), rows):
            out = buf[: min(rows, len(highs) - h0)]
            tile(slice(h0, h0 + len(out)), out)
            vals = out.ravel()
            first = base**k * h0 - start  # tile codes are first + start + rel
            rel = offsets[: len(vals)]
            vals[: np.searchsorted(rel, -first)] = -np.inf
            c0, c1 = max(first + rel[0], 0) // _CHUNK, (first + rel[-1]) // _CHUNK
            ends = np.searchsorted(rel, _CHUNK * np.arange(c0 + 1, c1 + 1) - first)
            at = np.concatenate(([0], ends))
            cmax[c0 : c1 + 1] = np.maximum(cmax[c0 : c1 + 1], np.maximum.reduceat(vals, at))
    earlier = np.maximum.accumulate(np.concatenate(([-np.inf], cmax[:-1])))
    return starts[~((cmax + tol < cmax.max()) | (cmax + tol <= earlier))]


def _tile_rows(lows: int, highs: int) -> int:
    """Highs per tile of the split pass: about ``_TILE`` pairs, at most every high."""
    return min(_TILE // lows, highs)


def _tolerance(g: WeightedGraph) -> float:
    """Twice the largest gap between a code's split-pass and chunk values.

    When every weight is a multiple of ``q = 2**-52`` times the power of two
    at or above the total volume, every sum either side forms is a multiple
    of q below ``2**53 q`` in magnitude, hence exact, and the two values are
    equal.  That holds for the partial sums of a tile's product in any
    order too: its positive terms add up to at most ``total``, its negative
    ones (the Cheeger ``(I - V)`` terms) to at least ``-total``.

    Otherwise both sides round ratios of sums.  For ``hbar`` and the balance
    ratio the terms are nonnegative, which costs a few ulps.  The Cheeger
    ratio ``(vol - internal) / min(vol, total - vol)`` cancels.  Its
    numerator is, in a chunk, a few sums of at most n terms, and in a tile
    one product of at most ``n/2 + 2`` terms (the high digits' cross terms,
    the high term and the low term), each at most ``total`` and itself a sum
    of at most n/2 terms.  So each side's numerator is off by a small
    multiple of ``n * eps * total``, and its ratio by that over ``d_min <=
    min(vol, total - vol)``: inside ``16 * n * eps * total / d_min``.
    Beyond 1 the pass cannot tell chunks apart, and every chunk is scored.
    """
    total = g.volume
    if not np.fmod(g.weights, 2.0 ** max(np.ceil(np.log2(total)) - 52, -1074)).any():
        return 0.0
    tol = 2 * (_TOL + 16 * g.n * np.finfo(float).eps * total / float(g.degrees.min()))
    return tol if tol < 1 else np.inf


def _digits(codes: np.ndarray, base: int, k: int) -> np.ndarray:
    """Digit i of each code, the label of vertex i, for i < k."""
    # code = q * base**j + r: one division per code, then both halves' digits
    # from the table of every j-digit code, instead of k divisions
    j = (k + 1) // 2
    table = _digit_table(base, j)
    q, r = np.divmod(codes, base**j)
    return np.hstack([table.take(r, axis=0), table[:, : k - j].take(q, axis=0)])


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


def cheeger_exact(
    g: WeightedGraph, *, cap: int | None = None, check_connected: bool = True
) -> CheegerResult:
    """Exact Cheeger constant by enumerating all bipartitions.

    Enumerates the 2^(n-1) - 1 proper subsets not containing the last
    vertex (one representative per complementary pair), code ``sum 2^i``
    over the members.  The witness is the first minimizer in code order
    and the value is its ratio as scored in its chunk of ``_CHUNK`` codes.
    Beyond one chunk (n > 16), a split pass scores every pair of low and
    high labelings with ``internal = I_lo + I_hi + 2 L W_lh H^T`` and only
    the chunks within a rounding tolerance of its best are scored.
    """
    if g.n < 2:
        raise ValueError("Cheeger constant needs at least two vertices")
    _effective_cap(g.n, cap, CHEEGER_EXACT_CAP, "Cheeger")
    if check_connected:
        require_connected(g)
    n = g.n
    d = g.degrees[: n - 1]
    w = g.weights[: n - 1, : n - 1]
    total = g.volume

    def neg_ratio(codes):
        memb = _digits(codes, 2, n - 1).astype(float)
        vol = memb @ d
        internal = ((memb @ w) * memb).sum(axis=1)
        boundary = vol - internal
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
        vol, other = np.empty((2, _tile_rows(len(lo), len(hi)), len(lo)))

        def tile(rows, out):
            v, o = vol[: len(out)], other[: len(out)]
            np.matmul(hi_terms[rows], lo_terms, out=out)
            np.add(vol_hi[rows, None], vol_lo, out=v)
            out /= np.minimum(v, np.subtract(total, v, out=o), out=v)

        return np.ones(len(lo), dtype=bool), tile

    # Negation is exact, so the first maximizer of -ratio is the first minimizer.
    neg_best, mask = _split_first_max(1, 2, n - 1, neg_ratio, block, _tolerance(g))
    # On float-valued weight matrices (e.g. walk graphs) the rounded sums can
    # push the quotient an ulp past the mathematical ceiling h <= 1.
    side = np.flatnonzero(_digits(np.array([mask]), 2, n - 1)[0])
    return CheegerResult(
        value=min(-neg_best, 1.0), witness=Bipartition.of(g, side), method="exact"
    )


def dual_cheeger_exact(
    g: WeightedGraph, *, cap: int | None = None, check_connected: bool = True
) -> CheegerResult:
    """Exact dual Cheeger constant by enumerating tripartitions.

    Ternary enumeration over vertex labels (V3, V1, V2), code ``sum t_i 3^i``,
    halved by the V1 <-> V2 swap symmetry: only labelings whose first non-V3
    vertex is in V1 count.  The witness is the first maximizer in code order
    and the value is its ratio as scored in its chunk of ``_CHUNK`` codes.
    Beyond one chunk (n > 9), a split pass builds only the low labelings that
    are all V3 or start with V1, scores every pair with ``cross = C_lo + C_hi
    + [A1 W_lh, A2 W_lh] [B2, B1]^T``, and only the chunks within a rounding
    tolerance of its best are scored.
    """
    if g.n < 2:
        raise ValueError("dual Cheeger constant needs at least two vertices")
    _effective_cap(g.n, cap, DUAL_CHEEGER_EXACT_CAP, "dual Cheeger")
    if check_connected:
        require_connected(g)
    n = g.n
    d = g.degrees
    w = g.weights

    j = (n + 1) // 2
    first, has2 = _label_flags(j)
    # The float arrays of the longest chunk so far, as prefix views for a
    # shorter one: fresh arrays of several MB per chunk go back to the OS
    # when freed and are page-faulted in again by the next chunk.
    mats, vecs = np.empty((2, 0, n)), np.empty((2, 0))

    def ratio(codes):
        nonlocal mats, vecs
        c = len(codes)
        if mats.shape[1] < c:
            mats, vecs = np.empty((2, c, n)), np.empty((2, c))
        ind, prod = mats[:, :c]
        cross, vols = vecs[:, :c]
        digits = _digits(codes, 3, n)
        # ind holds the indicator of V1 or V2, then of V1, then of V2: each
        # is read before the next overwrites it
        np.not_equal(digits, 0, out=ind, casting="unsafe")
        np.matmul(ind, d, out=vols)
        np.equal(digits, 1, out=ind, casting="unsafe")
        np.matmul(ind, w, out=prod)
        np.equal(digits, 2, out=ind, casting="unsafe")
        prod *= ind
        prod.sum(axis=1, out=cross)
        with np.errstate(invalid="ignore", divide="ignore"):
            cross *= 2.0
            cross /= vols
        # the first non-V3 label is 1 (so V1 is nonempty) and V2 is nonempty,
        # read from the flags of each code's two table rows
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
        den = np.empty((_tile_rows(len(lo), len(hi)), len(lo)))

        def tile(rows, out):
            np.matmul(hi_terms[rows], lo_terms, out=out)
            out /= np.add(vol_hi[rows], vol_lo, out=den[: len(out)])
            out[np.ix_(no2_hi[rows], no2_lo)] = -np.inf
            out[not1_hi[rows], 0] = -np.inf

        return kept, tile

    best_val, best_code = _split_first_max(0, 3, n, ratio, block, _tolerance(g))
    digits = _digits(np.array([best_code]), 3, n)[0]
    # same ulp guard as in cheeger_exact: hbar <= 1 holds mathematically
    return CheegerResult(
        value=min(best_val, 1.0),
        witness=TriPartition.of(g, np.flatnonzero(digits == 1), np.flatnonzero(digits == 2)),
        method="exact",
    )


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
    return CheegerResult(value=tri.value(g), witness=tri, method="greedy")


# ---------------------------------------------------------------------------
# balance ratios


def balance_ratio_exact(
    g: WeightedGraph, *, cap: int | None = None
) -> CheegerResult:
    """Most balanced bipartition by full enumeration (same cap as ``cheeger_exact``).

    Same codes, witness rule and split pass as ``cheeger_exact``, with
    ``vol = V_lo + V_hi`` across the block boundary.
    """
    if g.n < 2:
        raise ValueError("balance ratio needs at least two vertices")
    _effective_cap(g.n, cap, CHEEGER_EXACT_CAP, "balance ratio")
    n = g.n
    d = g.degrees[: n - 1]
    total = g.volume

    def balance(codes):
        vol = _digits(codes, 2, n - 1).astype(float) @ d
        return np.minimum(vol, total - vol) / np.maximum(vol, total - vol)

    def block(lo, hi):
        k = lo.shape[1]
        vol_lo, vol_hi = lo.astype(float) @ d[:k], hi.astype(float) @ d[k:]
        vol, other = np.empty((2, _tile_rows(len(lo), len(hi)), len(lo)))

        def tile(rows, out):
            v, o = vol[: len(out)], other[: len(out)]
            np.add(vol_hi[rows, None], vol_lo, out=v)
            np.subtract(total, v, out=o)
            np.minimum(v, o, out=out)
            out /= np.maximum(v, o, out=v)

        return np.ones(len(lo), dtype=bool), tile

    best_val, mask = _split_first_max(1, 2, n - 1, balance, block, _tolerance(g))
    side = np.flatnonzero(_digits(np.array([mask]), 2, n - 1)[0])
    return CheegerResult(
        value=best_val, witness=Bipartition.of(g, side), method="exact"
    )


@dataclass(frozen=True)
class BalancedPartition:
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


@dataclass(frozen=True)
class OddWalkFamily:
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


@dataclass(frozen=True)
class XiProductBound:
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
