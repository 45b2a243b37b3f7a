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

_CHUNK = 1 << 15


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
    limit = hard if cap is None else min(int(cap), hard)
    if n > limit:
        raise GraphError(
            GraphErrorKind.SIZE_CAP_EXCEEDED,
            f"{what} enumeration capped at {limit} vertices, graph has {n}",
        )


def _first_max(start: int, stop: int, score) -> tuple[float, int]:
    """Largest ``score`` over the codes ``start .. stop - 1``, first in code order.

    ``score`` maps an int64 array of consecutive codes to their values; it
    is called on chunks of ``_CHUNK`` codes.  Returns ``(value, code)``.
    """
    best_val, best_code = -np.inf, -1
    for lo in range(start, stop, _CHUNK):
        codes = np.arange(lo, min(lo + _CHUNK, stop), dtype=np.int64)
        vals = score(codes)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_code = float(vals[k]), int(codes[k])
    return best_val, best_code


def _bits(codes: np.ndarray, k: int) -> np.ndarray:
    """Membership rows: bit i of each code as a float, for i < k."""
    return ((codes[:, None] >> np.arange(k, dtype=np.int64)) & 1).astype(float)


def _side(mask: int, k: int) -> set[int]:
    return {i for i in range(k) if (mask >> i) & 1}


def cheeger_exact(
    g: WeightedGraph, *, cap: int | None = None, check_connected: bool = True
) -> CheegerResult:
    """Exact Cheeger constant by enumerating all bipartitions.

    Enumerates the 2^(n-1) - 1 proper subsets not containing the last
    vertex (one representative per complementary pair) and keeps the first
    minimizer in enumeration order as witness.
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
        memb = _bits(codes, n - 1)
        vol = memb @ d
        internal = ((memb @ w) * memb).sum(axis=1)
        boundary = vol - internal
        return -(boundary / np.minimum(vol, total - vol))

    # Negation is exact, so the first maximizer of -ratio is the first minimizer.
    neg_best, mask = _first_max(1, 1 << (n - 1), neg_ratio)
    # On float-valued weight matrices (e.g. walk graphs) the rounded sums can
    # push the quotient an ulp past the mathematical ceiling h <= 1.
    return CheegerResult(
        value=min(-neg_best, 1.0), witness=Bipartition.of(g, _side(mask, n - 1)), method="exact"
    )


def dual_cheeger_exact(
    g: WeightedGraph, *, cap: int | None = None, check_connected: bool = True
) -> CheegerResult:
    """Exact dual Cheeger constant by enumerating tripartitions.

    Ternary enumeration over vertex labels (V3, V1, V2), halved by the
    V1 <-> V2 swap symmetry: only labelings whose first non-V3 vertex is in
    V1 are scored.  First maximizer in enumeration order wins.
    """
    if g.n < 2:
        raise ValueError("dual Cheeger constant needs at least two vertices")
    _effective_cap(g.n, cap, DUAL_CHEEGER_EXACT_CAP, "dual Cheeger")
    if check_connected:
        require_connected(g)
    n = g.n
    d = g.degrees
    w = g.weights
    pow3 = 3 ** np.arange(n, dtype=np.int64)

    def ratio(codes):
        digits = (codes[:, None] // pow3) % 3
        ind1 = (digits == 1).astype(float)
        ind2 = (digits == 2).astype(float)
        # the first non-V3 label is 1 (so V1 is nonempty) and V2 is nonempty
        first_label = digits[np.arange(len(codes)), np.argmax(digits != 0, axis=1)]
        valid = (first_label == 1) & ind2.any(axis=1)
        cross = ((ind1 @ w) * ind2).sum(axis=1)
        vols = (ind1 + ind2) @ d
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(valid, 2.0 * cross / vols, -np.inf)

    best_val, best_code = _first_max(0, 3**n, ratio)
    digits = [(best_code // int(p)) % 3 for p in pow3]
    v1 = {i for i, t in enumerate(digits) if t == 1}
    v2 = {i for i, t in enumerate(digits) if t == 2}
    # same ulp guard as in cheeger_exact: hbar <= 1 holds mathematically
    return CheegerResult(
        value=min(best_val, 1.0), witness=TriPartition.of(g, v1, v2), method="exact"
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
    """Most balanced bipartition by full enumeration (same cap as ``cheeger_exact``)."""
    if g.n < 2:
        raise ValueError("balance ratio needs at least two vertices")
    _effective_cap(g.n, cap, CHEEGER_EXACT_CAP, "balance ratio")
    n = g.n
    d = g.degrees[: n - 1]
    total = g.volume

    def balance(codes):
        vol = _bits(codes, n - 1) @ d
        return np.minimum(vol, total - vol) / np.maximum(vol, total - vol)

    best_val, mask = _first_max(1, 1 << (n - 1), balance)
    return CheegerResult(
        value=best_val, witness=Bipartition.of(g, _side(mask, n - 1)), method="exact"
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

    def edge_loads(self) -> dict[tuple[int, int], int]:
        """For each edge, the number of walks whose edge set contains it."""
        loads: dict[tuple[int, int], int] = {}
        for es in self.edge_sets():
            for e in es:
                loads[e] = loads.get(e, 0) + 1
        return loads


def walk_family_to_dict(fam: OddWalkFamily) -> dict:
    return {"walks": [list(w) for w in fam.walks]}


def walk_family_from_dict(data) -> OddWalkFamily:
    """Inverse of :func:`walk_family_to_dict`; a malformed document raises ``ValueError``."""
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


def xi_constant(g: WeightedGraph, fam: OddWalkFamily) -> float:
    """Congestion of the family: ``max_e (1/w_e) sum of d_i over walks through e``.

    The dual Cheeger constant obeys ``hbar <= 1 - 1/xi``.
    """
    fam.validate(g)
    load_degree: dict[tuple[int, int], float] = {}
    for i, es in enumerate(fam.edge_sets()):
        for e in es:
            load_degree[e] = load_degree.get(e, 0.0) + float(g.degrees[i])
    return max(total / g.weights[e] for e, total in load_degree.items())


@dataclass(frozen=True)
class XiProductBound:
    """Coarse structural bound ``xi <= d_max * w_inv * b_load``.

    ``d_max`` is the maximum degree, ``w_inv`` the reciprocal of the smallest
    positive edge weight, ``b_load`` the largest number of walks through a
    single edge, and ``sigma_max`` the longest walk length in the family.
    """

    d_max: float
    w_inv: float
    b_load: int
    sigma_max: int

    @property
    def product(self) -> float:
        return self.d_max * self.w_inv * self.b_load


def xi_product_bound(g: WeightedGraph, fam: OddWalkFamily) -> XiProductBound:
    fam.validate(g)
    positive = g.weights[g.weights > 0]
    loads = fam.edge_loads()
    return XiProductBound(
        d_max=float(g.degrees.max()),
        w_inv=1.0 / float(positive.min()),
        b_load=max(loads.values()),
        sigma_max=fam.sigma_max(),
    )
