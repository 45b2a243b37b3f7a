"""Eigenvalue bounds for the normalized Laplacian.

Every bound is packaged as a :class:`BoundReport` carrying the claimed
interval, the side conditions that make it valid, and the constants it was
computed from.  Six kinds of claims (targets) appear:

``lambda1`` / ``lambda_max``
    the bounds bracket that single eigenvalue;
``sandwich``
    ``lower`` bounds the smallest nonzero eigenvalue from below and
    ``upper`` bounds the largest from above (so all nonzero eigenvalues
    lie in ``[lower, upper]``);
``contains_some``
    the closed interval ``[lower, upper]`` contains at least one eigenvalue;
``gap_around_one``
    the open interval ``(lower, upper)`` contains no eigenvalue;
``branch_or``
    a disjunction: the smallest nonzero eigenvalue is ``<= upper`` *or* the
    largest is ``>= lower`` (both thresholds recorded, only one must hold).

Each bound formula is written once, in one constructor.  The
neighborhood-graph constructors (``*_from``) take the constants of
``Gamma[l]`` and the odd-walk ones an :class:`XiProductBound`.  Every
reader of the constants of ``Gamma[l]`` takes them from one per-graph
table, which computes each once and keeps a size cap's refusal as ``None``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    _bfs,
    _neighbor_lists,
    bridged_triangles,
    complete_graph,
    is_bipartite,
    looped_pair,
    require_connected,
)
from .neighborhood import map_eigenvalues, neighborhood_graph
from .partitions import (
    TriPartition,
    XiProductBound,
    _cheeger_scans,
    _dual_cheeger_scans,
    cheeger_exact,
    default_odd_walk_family,
    xi_product_bound,
)
from .spectral import Spectrum, spectrum

TARGET_LAMBDA1 = "lambda1"
TARGET_LAMBDA_MAX = "lambda_max"
TARGET_SANDWICH = "sandwich"
TARGET_CONTAINS_SOME = "contains_some"
TARGET_GAP_AROUND_ONE = "gap_around_one"
TARGET_BRANCH_OR = "branch_or"

#: Eigenfunction entries at or below this size count as exact zeros when
#: deciding how localized a top eigenfunction is.
SUPPORT_TOL = 1e-10


class BoundReport(NamedTuple):
    name: str
    target: str
    lower: float | None = None
    upper: float | None = None
    conditions: tuple[tuple[str, bool], ...] = ()
    inputs: Mapping[str, float] = MappingProxyType({})  # read-only: every report shares it

    @property
    def applicable(self) -> bool:
        return all(ok for _, ok in self.conditions)

    def holds_for(self, s: Spectrum, tol: float = 1e-9) -> bool:
        """Check the claim against an exactly computed spectrum.

        Inapplicable reports hold vacuously.
        """
        if not self.applicable:
            return True
        lam1, lam_max = s.lambda_1, s.lambda_max
        vals = s.eigenvalues
        if self.target == TARGET_LAMBDA1:
            return (self.lower is None or self.lower <= lam1 + tol) and (
                self.upper is None or lam1 <= self.upper + tol
            )
        if self.target == TARGET_LAMBDA_MAX:
            return (self.lower is None or self.lower <= lam_max + tol) and (
                self.upper is None or lam_max <= self.upper + tol
            )
        if self.target == TARGET_SANDWICH:
            return self.lower <= lam1 + tol and lam_max <= self.upper + tol
        if self.target == TARGET_CONTAINS_SOME:
            return bool(
                ((vals >= self.lower - tol) & (vals <= self.upper + tol)).any()
            )
        if self.target == TARGET_GAP_AROUND_ONE:
            return bool(
                ((vals <= self.lower + tol) | (vals >= self.upper - tol)).all()
            )
        if self.target == TARGET_BRANCH_OR:
            return lam1 <= self.upper + tol or lam_max >= self.lower - tol
        raise ValueError(f"unknown target {self.target!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "lower": self.lower,
            "upper": self.upper,
            "conditions": [[label, ok] for label, ok in self.conditions],
            "applicable": self.applicable,
            "inputs": dict(self.inputs),
        }


def _pull_back(x: float, l: int) -> tuple[float, float] | tuple[None, None]:
    """The ends ``1 -+ r`` around the real l-th root ``r`` of ``x``.

    Transfers a bound on ``1 - lambda[l] = (1 - lambda)^l`` back to ``g``:
    signed for odd l; for even l only ``x >= 0`` has a real root, and
    ``(None, None)`` stands for none.
    """
    if l % 2 == 0 and x < 0:
        return None, None
    r = math.copysign(abs(x) ** (1.0 / l), x)
    return 1.0 - r, 1.0 + r


# ---------------------------------------------------------------------------
# direct (l = 1) bounds


def cheeger_bounds(h: float) -> BoundReport:
    """``1 - sqrt(1-h^2) <= lambda_1 <= 2h``."""
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"Cheeger constant must lie in [0, 1], got {h}")
    return BoundReport(
        name="cheeger",
        target=TARGET_LAMBDA1,
        lower=1.0 - math.sqrt(1.0 - h * h),
        upper=2.0 * h,
        inputs={"h": h},
    )


def dual_cheeger_bounds(hbar: float) -> BoundReport:
    """``2 hbar <= lambda_max <= 1 + sqrt(1-(1-hbar)^2)``."""
    if not 0.0 <= hbar <= 1.0:
        raise ValueError(f"dual Cheeger constant must lie in [0, 1], got {hbar}")
    return BoundReport(
        name="dual_cheeger",
        target=TARGET_LAMBDA_MAX,
        lower=2.0 * hbar,
        upper=1.0 + math.sqrt(1.0 - (1.0 - hbar) ** 2),
        inputs={"hbar": hbar},
    )


def combined_lower(g: WeightedGraph, witness: TriPartition, h: float) -> BoundReport:
    """``lambda_max >= 2 hbar + balance(V1,V2) * h``.

    Valid when ``witness`` achieves the dual Cheeger constant and the rest
    of the graph is at least as heavy as the near-bipartite part:
    ``vol(V1 u V2) <= vol(V3)``.
    """
    hbar_val = witness.value(g)
    vol1 = g.subset_volume(witness.v1)
    vol2 = g.subset_volume(witness.v2)
    vol3 = g.subset_volume(witness.v3)
    balance = min(vol1, vol2) / max(vol1, vol2)
    return BoundReport(
        name="combined_lower",
        target=TARGET_LAMBDA_MAX,
        lower=2.0 * hbar_val + balance * h,
        conditions=(("vol(V1 u V2) <= vol(V3)", vol1 + vol2 <= vol3),),
        inputs={"hbar": hbar_val, "h": h, "balance": balance, "vol_v3": vol3},
    )


def localized_upper(g: WeightedGraph, s: Spectrum, h: float) -> BoundReport:
    """``lambda_max <= 1 + sqrt(1-h^2)`` when the top eigenfunction is localized.

    The condition is that the support of the top eigenfunction carries at
    most half the volume; entries of size <= ``SUPPORT_TOL`` count as zero.
    """
    u = s.eigenfunctions[-1]
    support = np.abs(u) > SUPPORT_TOL
    vol_support = float(g.degrees[support].sum())
    cond = vol_support <= g.volume - vol_support
    return BoundReport(
        name="localized_upper",
        target=TARGET_LAMBDA_MAX,
        upper=1.0 + math.sqrt(1.0 - h * h),
        conditions=(("vol(support) <= vol(zero set)", cond),),
        inputs={"h": h, "vol_support": vol_support, "vol_total": g.volume},
    )


def hop_diameter(g: WeightedGraph) -> int:
    """Largest number of edges on a shortest path between any two vertices."""
    require_connected(g)
    nbrs = _neighbor_lists(g)
    return max(max(_bfs(nbrs, start)[0]) for start in range(g.n))


def diameter_variation_upper(g: WeightedGraph, s: Spectrum) -> BoundReport:
    """``lambda_max <= 2 - w_min (1 - min|u|)^2 / (D vol)``.

    ``u`` is the top eigenfunction rescaled to ``max|u| = 1`` and ``D`` the
    hop diameter; the bound is sharp exactly when ``|u|`` is constant
    (bipartite graphs).
    """
    u = np.abs(s.eigenfunctions[-1])
    u = u / u.max()
    w_min = float(g.weights[g.weights > 0].min())
    diam = hop_diameter(g)
    upper = 2.0 - w_min * (1.0 - float(u.min())) ** 2 / (diam * g.volume)
    return BoundReport(
        name="diameter_variation_upper",
        target=TARGET_LAMBDA_MAX,
        upper=upper,
        inputs={
            "w_min": w_min,
            "diameter": float(diam),
            "min_abs_u": float(u.min()),
        },
    )


# ---------------------------------------------------------------------------
# local clustering


class ClusteringConstants(NamedTuple):
    """Triangle-based constants controlling the distance from bipartiteness.

    ``c0`` is the minimum over non-loop edges of the mean triangle fraction
    of the two endpoints; ``w_tri`` aggregates relative triangle weights;
    ``d_bar`` is the largest degree among triangle vertices; together they
    give ``h_big`` with ``lambda_max <= 2 - h_big``.
    """

    c0: float
    w_tri: float
    d_bar: float

    @property
    def h_big(self) -> float:
        if self.c0 == 0.0 or self.d_bar == 0.0:
            return 0.0
        ratio = self.w_tri / (1.0 + self.w_tri)
        return self.c0 * ratio * ratio / (2.0 * self.d_bar)


def clustering_constants(g: WeightedGraph) -> ClusteringConstants:
    w = g.weights
    adj = w > 0
    np.fill_diagonal(adj, False)
    common = adj.astype(int) @ adj.astype(int)
    tri_edge = adj & (common > 0)  # edge lies in at least one triangle
    in_tri = tri_edge.any(axis=1)

    if not in_tri.any():
        return ClusteringConstants(c0=0.0, w_tri=0.0, d_bar=0.0)

    alpha = (w * tri_edge).sum(axis=1) / g.degrees

    c0 = (0.5 * (alpha[:, None] + alpha[None, :]))[adj].min()

    # acc[i, k] = sum over common neighbours l (ascending) of
    # (d_i / d_l) w_li w_lk / w_ik; each other l adds an exact 0.0.  acc is
    # a weight in scale, so the loop runs on the weights times 2**-e, with e
    # even: the largest weight then lies in [1/2, 2), unless that would take
    # the smallest positive one below 2**-1021, near the end of float64's
    # normal range, and then e is the largest that keeps it above.  A power of two rounds nothing, so at a
    # common scale of the weights, such as 2**900 or 2**-900, the loop
    # rounds as on the unscaled ones, and w_tri is its value times 2**(e/2)
    # after the square root.  Weights too far apart for any one scale
    # overflow a product, with numpy's warning, as they would unscaled.
    d = g.degrees
    positive = w[w > 0]
    e = min(math.frexp(float(positive.max()))[1], math.frexp(float(positive.min()))[1] + 1020)
    e -= e % 2
    w = np.ldexp(w, -e)
    acc = np.zeros((g.n, g.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for l in range(g.n):
            term = ((d / d[l]) * w[l])[:, None] * w[l][None, :] / w
            acc += np.where(adj[l][:, None] & adj[l][None, :], term, 0.0)

    return ClusteringConstants(
        c0=float(c0),
        w_tri=math.ldexp(math.sqrt(acc[tri_edge].min()), e // 2),
        d_bar=float(g.degrees[in_tri].max()),
    )


def clustering_upper(cc: ClusteringConstants) -> BoundReport:
    """``lambda_max <= 2 - h_big`` from the local clustering constants."""
    return BoundReport(
        name="clustering_upper",
        target=TARGET_LAMBDA_MAX,
        upper=2.0 - cc.h_big,
        inputs={"c0": cc.c0, "w_tri": cc.w_tri, "d_bar": cc.d_bar, "h_big": cc.h_big},
    )


# ---------------------------------------------------------------------------
# odd-walk congestion bounds


def odd_walk_upper(pb: XiProductBound) -> BoundReport:
    """``lambda_max <= 1 + sqrt(1 - 1/(d w b)^2)`` via walk congestion."""
    prod = pb.product
    return BoundReport(
        name="odd_walk_upper",
        target=TARGET_LAMBDA_MAX,
        upper=1.0 + math.sqrt(1.0 - (1.0 / prod) ** 2),
        inputs={
            "d_max": pb.d_max,
            "w_inv": pb.w_inv,
            "b_load": float(pb.b_load),
            "product": prod,
        },
    )


def poincare_upper(pb: XiProductBound) -> BoundReport:
    """``lambda_max <= 2 - 2/(d w b sigma)`` (discrete Poincare inequality)."""
    denom = pb.product * pb.sigma_max
    return BoundReport(
        name="poincare_upper",
        target=TARGET_LAMBDA_MAX,
        upper=2.0 - 2.0 / denom,
        inputs={"product": pb.product, "sigma_max": float(pb.sigma_max)},
    )


# ---------------------------------------------------------------------------
# neighborhood-graph bounds


def neighborhood_sandwich_from(l: int, h_l: float) -> BoundReport:
    """Apply the Cheeger lower bound on the l-th neighborhood graph.

    Even l: sandwich ``1 -+ (1-h[l]^2)^{1/2l}`` around all nonzero
    eigenvalues; odd l: lower bound for the smallest nonzero eigenvalue.
    Reduces to the plain Cheeger lower bound at ``l = 1``.
    """
    if not 0.0 <= h_l <= 1.0:
        raise ValueError(f"Cheeger constant must lie in [0, 1], got {h_l}")
    lo, hi = _pull_back(1.0 - h_l * h_l, 2 * l)
    even = l % 2 == 0
    return BoundReport(
        name="neighborhood_sandwich",
        target=TARGET_SANDWICH if even else TARGET_LAMBDA1,
        lower=lo,
        upper=hi if even else None,
        inputs={"l": float(l), "h_l": h_l},
    )


def neighborhood_upper_or_from(l: int, h_l: float) -> BoundReport:
    """Apply the Cheeger upper bound ``lambda_1[l] <= 2h[l]`` upstairs.

    Odd l: an unconditional upper bound for the smallest nonzero
    eigenvalue.  Even l (needs ``2h[l] <= 1``): a disjunction - either the
    smallest nonzero eigenvalue is below ``1-(1-2h[l])^{1/l}`` or the
    largest is above ``1+(1-2h[l])^{1/l}``.
    """
    lo, hi = _pull_back(1.0 - 2.0 * h_l, l)
    even = l % 2 == 0
    return BoundReport(
        name="neighborhood_upper_or",
        target=TARGET_BRANCH_OR if even else TARGET_LAMBDA1,
        upper=lo,  # even l, branch: lambda_1 <= upper
        lower=hi if even else None,  # even l, branch: lambda_max >= lower
        conditions=(("2 h[l] <= 1", lo is not None),) if even else (),
        inputs={"l": float(l), "h_l": h_l},
    )


def neighborhood_interval_from(l: int, hbar_l: float) -> BoundReport:
    """Locate an eigenvalue using ``2 hbar[l] <= lambda_max[l]``.

    Even l (needs ``2 hbar[l] <= 1``): the closed interval
    ``1 -+ (1-2 hbar[l])^{1/l}`` contains at least one eigenvalue.
    Odd l: ``lambda_max >= 1 - (1-2 hbar[l])^{1/l}`` with the real odd
    root, which turns into a strong bound precisely when
    ``2 hbar[l] > 1`` (for bipartite graphs it reaches 2 exactly).
    """
    lo, hi = _pull_back(1.0 - 2.0 * hbar_l, l)
    even = l % 2 == 0
    return BoundReport(
        name="neighborhood_interval",
        target=TARGET_CONTAINS_SOME if even else TARGET_LAMBDA_MAX,
        lower=lo,
        upper=hi if even else None,
        conditions=(("2 hbar[l] <= 1", lo is not None),) if even else (),
        inputs={"l": float(l), "hbar_l": hbar_l},
    )


def gap_around_one_from(l: int, h_big_l: float) -> BoundReport:
    """Exclude eigenvalues around 1 using the clustering bound upstairs.

    With ``lambda_max[l] <= 2 - h_big[l]``: for even l (needs
    ``h_big[l] >= 1``) no eigenvalue lies in the open interval
    ``1 -+ (h_big[l]-1)^{1/l}``; for odd l it is an upper bound for the
    largest eigenvalue.
    """
    lo, hi = _pull_back(h_big_l - 1.0, l)
    even = l % 2 == 0
    return BoundReport(
        name="gap_around_one",
        target=TARGET_GAP_AROUND_ONE if even else TARGET_LAMBDA_MAX,
        lower=lo if even else None,
        upper=hi if even else lo,
        conditions=(("h_big[l] >= 1", lo is not None),) if even else (),
        inputs={"l": float(l), "h_big_l": h_big_l},
    )


def neighborhood_dual_upper_from(l: int, hbar_l: float) -> BoundReport:
    """``lambda_max <= 1 + (1-(1-hbar[l])^2)^{1/2l}`` for odd l.

    Comes from the dual Cheeger upper bound on the neighborhood graph;
    reduces to the direct dual bound at ``l = 1``.
    """
    if l % 2 == 0:
        raise ValueError("the dual upper bound transfers only for odd l")
    if not 0.0 <= hbar_l <= 1.0:
        raise ValueError(f"dual Cheeger constant must lie in [0, 1], got {hbar_l}")
    return BoundReport(
        name="neighborhood_dual_upper",
        target=TARGET_LAMBDA_MAX,
        upper=_pull_back(1.0 - (1.0 - hbar_l) ** 2, 2 * l)[1],
        inputs={"l": float(l), "hbar_l": hbar_l},
    )


# ---------------------------------------------------------------------------
# improvement predicates


class ImprovementReport(NamedTuple):
    """When do the neighborhood bounds beat the direct Cheeger bounds?

    ``lower_improves`` is the exact comparison
    ``h[l] >= sqrt(1-(1-h^2)^l)`` (the transferred lower bound beats the
    direct one); ``upper_improves`` the analogue
    ``h[l] <= (1-(1-2h)^l)/2`` for the upper bound, which for even l
    additionally needs ``h[l] <= 1/2`` and ``lambda_1 <= 2 - lambda_max``.
    ``sharpness_sufficient_lower`` / ``..._upper`` are the computable
    sufficient criteria expressed through the sharpness ratios of the
    Cheeger bounds on the base and neighborhood graphs.
    ``some_improvement`` records the interval-escape observation: when
    ``h[l]`` avoids ``[(1-(1-2h)^l)/2, sqrt(1-(1-h^2)^l)]``, at least one
    of the two direct bounds is improved (for even l the upper-bound arm
    of that conclusion additionally presumes the parity side conditions).
    """

    l: int
    constants: dict[str, float]
    lower_improves: bool
    upper_improves: bool
    sharpness_sufficient_lower: bool
    sharpness_sufficient_upper: bool
    some_improvement: bool


def improvement_predicates(g: WeightedGraph, l: int) -> ImprovementReport:
    s = spectrum(g)
    lam1, lam_max = s.lambda_1, s.lambda_max
    const = _constants(g, {_cheeger_scans: (1, l)})
    h = (const(_cheeger_scans, 1) or cheeger_exact(g)).value  # a capped g: raise its refusal
    h_l = const(_cheeger_scans, l).value
    lam1_l = float(map_eigenvalues(s.eigenvalues, l)[1])

    even = l % 2 == 0
    even_side = lam1 <= 2.0 - lam_max

    lower_threshold = math.sqrt(max(0.0, 1.0 - (1.0 - h * h) ** l))
    # The transferred lower bound needs no parity side condition, so this
    # comparison is exact for every l.
    lower_improves = h_l >= lower_threshold

    upper_threshold = (1.0 - (1.0 - 2.0 * h) ** l) / 2.0
    upper_improves = h_l <= upper_threshold
    if even:
        upper_improves = upper_improves and h_l <= 0.5 and even_side

    # Sharpness of the lower Cheeger bound: S = (1 - sqrt(1-h^2)) / lambda_1.
    big_s = (1.0 - math.sqrt(1.0 - h * h)) / lam1
    if lam1_l > 0:
        big_s_l = (1.0 - math.sqrt(1.0 - h_l * h_l)) / lam1_l
        denom = 1.0 - (1.0 - (1.0 / big_s) * (1.0 - math.sqrt(1.0 - h * h))) ** l
        rhs52 = (1.0 - (1.0 - h * h) ** (l / 2.0)) / denom if denom != 0 else math.inf
        suff_lower = big_s_l >= rhs52
    else:
        big_s_l = math.nan
        suff_lower = False
    if even:
        suff_lower = suff_lower and even_side

    # Sharpness of the upper Cheeger bound: s = lambda_1 / (2h).
    small_s = lam1 / (2.0 * h)
    if h_l > 0:
        small_s_l = lam1_l / (2.0 * h_l)
        denom54 = 1.0 - (1.0 - 2.0 * h) ** l
        rhs54 = (1.0 - (1.0 - small_s * 2.0 * h) ** l) / denom54 if denom54 != 0 else math.inf
        suff_upper = small_s_l >= rhs54
    else:
        small_s_l = math.nan
        suff_upper = False
    if even:
        suff_upper = suff_upper and h_l <= 0.5 and even_side

    escaped = not (upper_threshold <= h_l <= lower_threshold)
    return ImprovementReport(
        l=l,
        constants={
            "h": h,
            "h_l": h_l,
            "lambda1": lam1,
            "lambda_max": lam_max,
            "lambda1_l": lam1_l,
            "sharpness_lower": big_s,
            "sharpness_lower_l": big_s_l,
            "sharpness_upper": small_s,
            "sharpness_upper_l": small_s_l,
            "lower_threshold": lower_threshold,
            "upper_threshold": upper_threshold,
        },
        lower_improves=lower_improves,
        upper_improves=upper_improves,
        sharpness_sufficient_lower=suff_lower,
        sharpness_sufficient_upper=suff_upper,
        some_improvement=escaped,
    )


# ---------------------------------------------------------------------------
# curve tables


class CurveRow(NamedTuple):
    """One (family parameter, l) point of the bound-comparison curves.

    ``lower`` is the transferred Cheeger lower bound
    ``1-(1-h[l]^2)^{1/2l}``; ``upper_from_h`` the upper bound
    ``1-(1-2h[l])^{1/l}`` transferred from h[l] (for even l only meaningful
    when its disjunction resolves to the lambda_1 branch -
    ``upper_from_h_applicable`` records that); ``upper_from_hbar`` the upper
    bound transferred from the dual constant hbar[l], odd l only.
    """

    param: float
    l: int
    lower: float | None
    upper_from_h: float | None
    upper_from_h_applicable: bool
    upper_from_hbar: float | None
    lambda1: float | None
    lambda_max: float | None


def _complete_of_size(param: float) -> WeightedGraph:
    if not float(param).is_integer():
        raise ValueError(f"complete graph size must be an integer, got {param!r}")
    return complete_graph(int(param))


_FAMILIES = {
    "looped_pair": looped_pair,
    "bridged_triangles": bridged_triangles,
    "complete": _complete_of_size,
}


def bound_curves(family: str, params, l_list) -> list[CurveRow]:
    """Table of transferred bounds vs exact eigenvalues over a graph family.

    Failures at single points (e.g. enumeration caps) leave empty cells;
    the rest of the table is still produced.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {tuple(_FAMILIES)}")
    rows = []
    for param in params:
        try:
            g = _FAMILIES[family](param)
            s = spectrum(g)
            lam1, lam_max = s.lambda_1, s.lambda_max
        except (GraphError, ValueError):
            for l in l_list:
                rows.append(
                    CurveRow(param, l, None, None, False, None, None, None)
                )
            continue
        # h[l] is computed at an odd l only where hbar[l] is, as its row is blank otherwise
        orders = {_dual_cheeger_scans: [l for l in l_list if l % 2 == 1]}
        const = _constants(g, orders)
        hbar = {}
        for l in orders[_dual_cheeger_scans]:
            try:
                hbar[l] = const(_dual_cheeger_scans, l)
            except (GraphError, ValueError):  # e.g. an order below 1
                hbar[l] = None
        orders[_cheeger_scans] = [l for l in l_list if l % 2 == 0 or hbar[l] is not None]
        for l in l_list:
            odd = l % 2 == 1
            hbar_l = hbar.get(l)
            try:
                h_l = const(_cheeger_scans, l) if not odd or hbar_l is not None else None
            except (GraphError, ValueError):
                h_l = None
            if h_l is None or (odd and hbar_l is None):
                rows.append(CurveRow(param, l, None, None, False, None, lam1, lam_max))
                continue
            upper_or = neighborhood_upper_or_from(l, h_l.value)
            # for even l the claim is a disjunction; it bounds lambda_1
            # only when that branch actually holds
            applicable = upper_or.applicable and (odd or lam1 <= upper_or.upper + 1e-12)
            lower = neighborhood_sandwich_from(l, h_l.value).lower
            up_hbar = neighborhood_dual_upper_from(l, hbar_l.value).upper if odd else None
            rows.append(
                CurveRow(param, l, lower, upper_or.upper, applicable, up_hbar, lam1, lam_max)
            )
    return rows


def curves_to_csv(rows: list[CurveRow]) -> str:
    def cell(x) -> str:
        if x is None:
            return ""
        if isinstance(x, bool):
            return "true" if x else "false"
        return repr(x)

    lines = [
        "param,l,lower,upper_from_h,upper_from_h_applicable,upper_from_hbar,"
        "lambda1,lambdaMax"
    ]
    for r in rows:
        # CurveRow fields are in CSV column order
        lines.append(",".join([cell(r.param), str(r.l), *map(cell, tuple(r)[2:])]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the constants of Gamma[l] per graph, and every report at once


def _constants(g: WeightedGraph, orders: Mapping):
    """``const(fn, l)`` is ``fn(Gamma[l])``, or ``None`` where a size cap refuses it.

    Builds each ``Gamma[l]`` (``Gamma[1]`` is ``g``) and computes each
    constant at most once; other refusals are raised.  ``fn`` is
    ``clustering_constants``, or a scan of the partitions module that takes
    a list of graphs (``_cheeger_scans``, ``_dual_cheeger_scans``) and is a
    key of ``orders``.  Such a scan is computed together at its orders,
    ``orders[fn]``, read at its first request: a request computes it at
    the order asked for and at every order of ``orders[fn]`` not computed
    yet, in one call, which screens them together
    (``partitions._exact_scan``).  Each order keeps its result, or the
    ``GraphError`` or ``ValueError`` that building its graph or scanning it
    raised, and the error is raised only when that order is asked for: the
    refusals surface in the order of the requests, as if each order were
    computed on its own.
    """
    gamma = cache(lambda l: g if l == 1 else neighborhood_graph(g, l))
    table = {}

    def const(fn, l: int):
        if (fn, l) not in table:
            graphs = {}
            for x in dict.fromkeys([l, *orders.get(fn, ())]):
                if (fn, x) not in table:
                    try:
                        graphs[x] = gamma(x)
                    except (GraphError, ValueError) as err:
                        table[fn, x] = err
            if graphs:
                try:
                    found = fn(list(graphs.values())) if fn in orders else [fn(graphs[l])]
                except (GraphError, ValueError) as err:
                    found = [err] * len(graphs)
                table.update(zip(((fn, x) for x in graphs), found))
        res = table[fn, l]
        if isinstance(res, GraphError) and res.kind is GraphErrorKind.SIZE_CAP_EXCEEDED:
            return None
        if isinstance(res, (GraphError, ValueError)):
            raise res
        return res

    return const


def all_bound_reports(g: WeightedGraph, s: Spectrum, l_list=(2, 3)) -> list[BoundReport]:
    """Every bound report computable for ``g``, whose spectrum is ``s``, at the given orders.

    Each ``Gamma[l]`` and each constant is computed once, ``l = 1`` and
    repeated orders included.  Reports whose constants a size cap refuses
    are skipped; other errors propagate.
    """
    scans = (1, *l_list)
    const = _constants(g, {_cheeger_scans: scans, _dual_cheeger_scans: scans})
    h_res = const(_cheeger_scans, 1)
    hbar_res = const(_dual_cheeger_scans, 1)

    reports: list[BoundReport] = []
    if h_res is not None:
        reports.append(cheeger_bounds(h_res.value))
    if hbar_res is not None:
        reports.append(dual_cheeger_bounds(hbar_res.value))
        if h_res is not None:
            reports.append(combined_lower(g, hbar_res.witness, h_res.value))
    if h_res is not None:
        reports.append(localized_upper(g, s, h_res.value))
    reports.append(diameter_variation_upper(g, s))
    reports.append(clustering_upper(const(clustering_constants, 1)))
    if not is_bipartite(g):
        pb = xi_product_bound(g, default_odd_walk_family(g))
        reports.append(odd_walk_upper(pb))
        reports.append(poincare_upper(pb))
    for l in l_list:
        h_l = const(_cheeger_scans, l)
        hbar_l = const(_dual_cheeger_scans, l)
        cc = const(clustering_constants, l)
        if h_l is not None:
            reports.append(neighborhood_sandwich_from(l, h_l.value))
            reports.append(neighborhood_upper_or_from(l, h_l.value))
        if hbar_l is not None:
            reports.append(neighborhood_interval_from(l, hbar_l.value))
        reports.append(gap_around_one_from(l, cc.h_big))
        if hbar_l is not None and l % 2 == 1:
            reports.append(neighborhood_dual_upper_from(l, hbar_l.value))
    return reports
