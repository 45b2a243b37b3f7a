"""l-step neighborhood graphs.

The l-th neighborhood graph of ``g`` has weight matrix
``W[l] = W (D^{-1} W)^{l-1}``: the weight between i and j aggregates all
walks of length l between them, so its normalized Laplacian is
``I - (D^{-1} W)^l``.  Consequences:

* degrees are preserved (``d_i[l] = d_i``),
* eigenvalues transform as ``lambda -> 1 - (1 - lambda)^l``,
* for even l the spectrum lands in ``[0, 1]``, and a bipartite ``g`` splits
  into two components (so exact constants of ``g[l]`` are computed without a
  connectivity requirement),
* as l grows, ``W[l]`` tends to ``d_i d_j / vol`` on a connected
  non-bipartite ``g``, within ``rho^l vol`` entrywise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .graphs import WeightedGraph

if TYPE_CHECKING:
    from .partitions import CheegerResult

#: Entries below this fraction of the largest weight are snapped to zero.
TRUNCATION_REL_TOL = 1e-14

#: Above this power, the walk matrix is raised by ``np.linalg.matrix_power``
#: (binary exponentiation); up to it, one product per step, whose rounding
#: the output bytes of small orders depend on.
REPEATED_SQUARING_THRESHOLD = 64


def neighborhood_graph(g: WeightedGraph, l: int) -> WeightedGraph:
    """Graph with weights ``W[l] = W (D^{-1} W)^{l-1}``; ``l = 1`` returns g."""
    if l < 1:
        raise ValueError(f"neighborhood order must be >= 1, got {l}")
    if l == 1:
        return g
    walk = g.weights / g.degrees[:, None]  # D^{-1} W
    power = l - 1
    if power <= REPEATED_SQUARING_THRESHOLD:
        acc = np.array(g.weights)
        for _ in range(power):
            acc = acc @ walk
    else:
        acc = g.weights @ np.linalg.matrix_power(walk, power)
    acc = 0.5 * (acc + acc.T)
    acc[acc < TRUNCATION_REL_TOL * acc.max()] = 0.0
    return WeightedGraph(n=g.n, weights=acc)


def neighborhood_cheeger(
    g: WeightedGraph, l: int, *, cap: int | None = None
) -> CheegerResult:
    """Exact Cheeger constant of the l-th neighborhood graph.

    No connectivity requirement: when ``g[l]`` is disconnected (bipartite g,
    even l) the enumeration finds a zero-cost cut and reports 0.
    """
    # imported here: ``lapspec neighborhood``, and ``walk`` without ``--l``, enumerate nothing
    from .partitions import cheeger_exact

    return cheeger_exact(neighborhood_graph(g, l), cap=cap, check_connected=False)


def map_eigenvalues(eigenvalues: np.ndarray, l: int) -> np.ndarray:
    """Push base eigenvalues through ``lambda -> 1 - (1 - lambda)^l``, sorted."""
    return np.sort(1.0 - (1.0 - np.asarray(eigenvalues, dtype=float)) ** l)
