"""Random walks and their convergence rates.

The transition operator ``P = D^{-1} W`` drives everything here: powers of
``P`` applied to a vertex function, the equilibrium projection they converge
to on connected non-bipartite graphs, and the two a-priori bounds on the
distance from it, through the spectral radius and through the Cheeger
constant of an even-order neighborhood graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph, bipartition_of
from .neighborhood import neighborhood_graph
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


class WalkReport(NamedTuple):
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


def walk_trajectory(
    g: WeightedGraph,
    f: np.ndarray,
    t_max: int,
    l_even: int | None = None,
) -> tuple[float, list[WalkReport]]:
    """``rho`` and the reports for every ``t`` in ``0..t_max``, from a single pass of iteration."""
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    if t_max > MAX_WALK_STEPS:
        raise ValueError(f"t_max must be <= {MAX_WALK_STEPS}")
    work = t_max * g.n**2
    if work > MAX_WALK_WORK:
        raise ValueError(f"t_max * n^2 must be <= {MAX_WALK_WORK:.0e}, got {work:.1e}")
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
    if l_even is not None and (l_even < 2 or l_even % 2 != 0):
        raise ValueError("the isoperimetric convergence rate needs an even l >= 2")
    rate = None
    if l_even is not None and bipartition_of(g) is None:
        # imported here: ``walk`` without ``--l`` enumerates nothing
        from .partitions import cheeger_exact

        h_l = cheeger_exact(neighborhood_graph(g, l_even)).value
        rate = (1.0 - h_l * h_l) ** (1.0 / (2 * l_even))
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
    return rho, out


def walk_reports_to_csv(reports: list[WalkReport]) -> str:
    lines = ["t,deviation,bound_rho,bound_hl"]
    for r in reports:
        hl = "" if r.bound_hl is None else repr(r.bound_hl)
        lines.append(f"{r.t},{r.deviation!r},{r.bound_rho!r},{hl}")
    return "\n".join(lines) + "\n"
