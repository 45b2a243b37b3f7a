"""Random walks, equilibrium objects, and convergence rates.

The transition operator ``P = D^{-1} W`` drives everything here: powers of
``P`` applied to a vertex function, the equilibrium projection they converge
to on non-bipartite graphs, the two subsequence limits on bipartite graphs,
and quantitative convergence bounds through the spectral radius and the
neighborhood-graph Cheeger constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    bipartition_of,
    from_matrix,
    require_connected,
)
from .neighborhood import neighborhood_cheeger, neighborhood_graph
from .spectral import degree_norm, spectrum, spectral_radius_rho

#: Longest walk accepted: one report per step is kept (about 1 kB each
#: once written as JSON).
MAX_WALK_STEPS = 100_000

#: Largest ``t_max * n**2`` accepted, the entries touched by the ``P``
#: applications; about a minute at 1 ns per entry.
MAX_WALK_WORK = 5 * 10**10


def transition_apply(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """One application of ``P = D^{-1} W``."""
    f = np.asarray(f, dtype=float)
    return (g.weights @ f) / g.degrees


def equilibrium_projection(g: WeightedGraph, f: np.ndarray) -> np.ndarray:
    """The constant function ``(1/vol) sum_j d_j f(j)``; the fixed point P f = f."""
    f = np.asarray(f, dtype=float)
    mean = float(g.degrees @ f) / g.volume
    return np.full(g.n, mean)


@dataclass(frozen=True)
class WalkReport:
    """Deviation of ``P^t f`` from equilibrium against its a-priori bounds.

    ``bound_rho`` is ``rho^t ||f||`` and always applies; ``bound_hl`` is the
    isoperimetric variant ``(1-h[l]^2)^{t/2l} ||f||`` for a chosen even l,
    present only when requested and the graph is not bipartite.  Norms are
    degree norms.
    """

    t: int
    deviation: float
    bound_rho: float
    bound_hl: float | None = None


def _hl_rate(g: WeightedGraph, l: int, *, cap: int | None = None) -> float:
    if l < 2 or l % 2 != 0:
        raise ValueError("the isoperimetric convergence rate needs an even l >= 2")
    h_l = neighborhood_cheeger(g, l, cap=cap).value
    return (1.0 - h_l * h_l) ** (1.0 / (2 * l))


def walk_deviation(
    g: WeightedGraph, f: np.ndarray, t: int, l_even: int | None = None
) -> WalkReport:
    """Apply ``P`` t times and compare the deviation with its decay bounds."""
    return walk_trajectory(g, f, t, l_even)[-1]


def walk_trajectory(
    g: WeightedGraph,
    f: np.ndarray,
    t_max: int,
    l_even: int | None = None,
    *,
    cap: int | None = None,
) -> list[WalkReport]:
    """Reports for every ``t`` in ``0..t_max`` with a single pass of iteration."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > MAX_WALK_STEPS:
        raise ValueError(f"t_max must be <= {MAX_WALK_STEPS}")
    work = t_max * g.n**2
    if work > MAX_WALK_WORK:
        raise ValueError(f"t_max * n^2 must be <= {MAX_WALK_WORK:.0e}, got {work:.1e}")
    require_connected(g)
    f = np.asarray(f, dtype=float)
    s = spectrum(g)
    rho = spectral_radius_rho(s)
    # Every later deviation is at most norm_f, so these are the sums that can overflow.
    try:
        with np.errstate(over="raise"):
            norm_f = degree_norm(g, f)
            mean = equilibrium_projection(g, f)
    except FloatingPointError:
        raise ValueError("f is too large: its degree norm overflows") from None
    rate = None
    if l_even is not None and bipartition_of(g) is None:
        rate = _hl_rate(g, l_even, cap=cap)
    out = []
    cur = f.copy()
    for t in range(t_max + 1):
        out.append(
            WalkReport(
                t=t,
                deviation=degree_norm(g, cur - mean),
                bound_rho=rho**t * norm_f,
                bound_hl=None if rate is None else rate**t * norm_f,
            )
        )
        cur = transition_apply(g, cur)
    return out


def walk_reports_to_csv(reports: list[WalkReport]) -> str:
    lines = ["t,deviation,bound_rho,bound_hl"]
    for r in reports:
        hl = "" if r.bound_hl is None else repr(r.bound_hl)
        lines.append(f"{r.t},{r.deviation!r},{r.bound_rho!r},{hl}")
    return "\n".join(lines) + "\n"


def mixing_time(rho: float, eps: float) -> float:
    """Smallest t with ``rho^t <= eps``, i.e. ``ceil(ln eps / ln rho)``.

    Infinite when ``rho >= 1`` (no decay), zero when ``rho = 0``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if rho >= 1.0:
        return math.inf
    if rho <= 0.0:
        return 0.0
    return float(math.ceil(math.log(eps) / math.log(rho)))


def equilibrium_graph(g: WeightedGraph) -> WeightedGraph:
    """The limit of the neighborhood graphs: ``W_bar_ij = d_i d_j / vol``.

    Exists only for connected non-bipartite graphs (otherwise the walk
    oscillates between the two classes and only subsequence limits exist).
    """
    require_connected(g)
    if bipartition_of(g) is not None:
        raise GraphError(
            GraphErrorKind.NOT_BIPARTITE,
            "bipartite graph: the walk has period 2, so the full limit "
            "does not exist; use bipartite_limits instead",
        )
    w_bar = np.outer(g.degrees, g.degrees) / g.volume
    return from_matrix(w_bar, labels=g.labels)


def bipartite_limits(g: WeightedGraph) -> tuple[WeightedGraph, WeightedGraph]:
    """Even- and odd-step limits of the neighborhood graphs of a bipartite graph.

    Entries are ``2 d_i d_j / vol`` within a class (even limit, two complete
    components with loops) respectively across classes (odd limit, complete
    bipartite).
    """
    require_connected(g)
    sides = bipartition_of(g)
    if sides is None:
        raise GraphError(
            GraphErrorKind.NOT_BIPARTITE,
            "graph is not bipartite; it has the single limit equilibrium_graph",
        )
    side_a, _ = sides
    in_a = np.zeros(g.n, dtype=bool)
    in_a[list(side_a)] = True
    same = in_a[:, None] == in_a[None, :]
    full = 2.0 * np.outer(g.degrees, g.degrees) / g.volume
    even = np.where(same, full, 0.0)
    odd = np.where(same, 0.0, full)
    return from_matrix(even, labels=g.labels), from_matrix(odd, labels=g.labels)


@dataclass(frozen=True)
class LimitReport:
    """Entrywise distance of ``W[l]`` to the equilibrium graph for l = 1..l_max.

    Each distance is dominated by ``rho^l * vol`` and tends to zero.
    """

    rho: float
    distances: tuple[float, ...]
    dominators: tuple[float, ...]

    def dominated(self, tol: float = 1e-9) -> bool:
        return all(d <= b + tol for d, b in zip(self.distances, self.dominators))


def neighborhood_limit_check(g: WeightedGraph, l_max: int) -> LimitReport:
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    w_bar = equilibrium_graph(g).weights
    rho = spectral_radius_rho(spectrum(g))
    distances = []
    dominators = []
    for l in range(1, l_max + 1):
        w_l = neighborhood_graph(g, l).weights
        distances.append(float(np.abs(w_l - w_bar).max()))
        dominators.append(rho**l * g.volume)
    return LimitReport(rho=rho, distances=tuple(distances), dominators=tuple(dominators))
