"""Finite weighted graphs with symmetric nonnegative weights and positive degrees.

Vertices are 0-based contiguous integers.  A graph is stored as a dense
symmetric weight matrix; ``w[i, j] > 0`` means an edge between ``i`` and
``j``, and a positive diagonal entry ``w[i, i]`` is a self-loop (at most
one per vertex).  The vertex degree is the row sum ``d_i = sum_j w[i, j]``,
and every vertex must have ``d_i > 0``.
"""

from __future__ import annotations

import json
from collections import deque
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Hard ceiling on vertex counts: ``build_graph`` (behind the input readers
#: and most generators) and ``complete_graph`` refuse larger graphs before
#: allocating the dense ``n x n`` weight matrix.
GENERATOR_SIZE_CAP = 10_000


class GraphErrorKind(Enum):
    ASYMMETRIC_INPUT = "AsymmetricInput"
    NEGATIVE_WEIGHT = "NegativeWeight"
    ZERO_DEGREE_VERTEX = "ZeroDegreeVertex"
    DISCONNECTED = "Disconnected"
    REQUIRES_UNWEIGHTED = "RequiresUnweighted"
    REQUIRES_LOOPLESS = "RequiresLoopless"
    SIZE_CAP_EXCEEDED = "SizeCapExceeded"
    NO_ODD_WALK = "NoOddWalk"
    NON_FINITE_WEIGHT = "NonFiniteWeight"


class GraphError(Exception):
    """Domain error raised by graph operations, tagged with a single kind."""

    def __init__(self, kind: GraphErrorKind, message: str):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind
        self.message = message


class WeightedGraph:
    """Immutable weighted graph, equal only to itself.

    Attributes
    ----------
    n:
        Number of vertices.
    weights:
        Dense ``(n, n)`` symmetric weight matrix (read-only).
    degrees:
        Row sums of ``weights`` (read-only).
    """

    __slots__ = ("n", "weights", "degrees")

    def __init__(self, n: int, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.shape != (n, n):
            raise ValueError(f"weight matrix shape {w.shape} != ({n}, {n})")
        if not np.isfinite(w).all():
            raise GraphError(GraphErrorKind.NON_FINITE_WEIGHT, "edge weights must be finite")
        if not np.array_equal(w, w.T):
            raise GraphError(GraphErrorKind.ASYMMETRIC_INPUT, "weight matrix is not symmetric")
        if (w < 0).any():
            raise GraphError(GraphErrorKind.NEGATIVE_WEIGHT, "edge weights must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing volume is rejected below
            d = w.sum(axis=1)
            volume = d.sum()
        if (d <= 0).any():
            bad = int(np.argmin(d))
            raise GraphError(
                GraphErrorKind.ZERO_DEGREE_VERTEX, f"vertex {bad} has zero degree"
            )
        if not np.isfinite(volume):
            raise GraphError(GraphErrorKind.NON_FINITE_WEIGHT, "total volume overflows")
        w.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "degrees", d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.weights)

    @property
    def volume(self) -> float:
        """Total volume ``vol(V) = sum_i d_i``."""
        return float(self.degrees.sum())

    def edges(self) -> list[tuple[int, int, float]]:
        """Unordered positive-weight edges ``(i, j, w)`` with ``i <= j``, sorted."""
        rows, cols = np.nonzero(np.triu(self.weights))
        return list(zip(rows.tolist(), cols.tolist(), self.weights[rows, cols].tolist()))

    def has_loops(self) -> bool:
        return bool((np.diag(self.weights) > 0).any())

    def is_unweighted(self) -> bool:
        """True when every existing edge has weight exactly 1."""
        w = self.weights
        return bool(np.all((w == 0) | (w == 1)))

    def subset_volume(self, subset) -> float:
        idx = np.fromiter(subset, dtype=int)
        return float(self.degrees[idx].sum()) if idx.size else 0.0


class Bipartition(NamedTuple):
    """One side of a cut: a proper nonempty vertex subset."""

    side: frozenset[int]

    @classmethod
    def of(cls, g: WeightedGraph, subset) -> "Bipartition":
        side = frozenset(int(v) for v in subset)
        if not side or len(side) == g.n:
            raise ValueError("subset must be a proper nonempty vertex subset")
        return cls(side=side)


def build_graph(n: int, edges) -> WeightedGraph:
    """Build a graph from an edge list ``[(i, j, w), ...]``.

    Each unordered pair may appear once; ``(i, i, w)`` entries are loops.
    Weights must be strictly positive and every vertex must end up with
    positive degree.  ``n`` above ``GENERATOR_SIZE_CAP`` is refused.
    """
    _check_cap(n)
    w = np.zeros((n, n))
    seen = set()
    for i, j, weight in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        if weight <= 0:
            raise GraphError(
                GraphErrorKind.NEGATIVE_WEIGHT,
                f"edge {key} has non-positive weight {weight}",
            )
        w[i, j] = weight
        w[j, i] = weight
    return WeightedGraph(n=n, weights=w)


# ---------------------------------------------------------------------------
# connectivity / bipartiteness / clustering


def _neighbor_lists(g: WeightedGraph) -> list[list[int]]:
    """Ascending neighbour indices of every vertex (a loop lists the vertex itself)."""
    return [np.nonzero(row > 0)[0].tolist() for row in g.weights]


def _bfs(nbrs: list[list[int]], start: int) -> tuple[list[int], list[int]]:
    """Breadth-first search over neighbour lists from ``start``.

    Returns ``(dist, parent)``: the hop distance of every vertex and its
    predecessor in the search tree, ``-1`` for unreached vertices (and for
    the parent of ``start``).  Neighbours are visited in list order.
    """
    dist = [-1] * len(nbrs)
    parent = [-1] * len(nbrs)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                parent[u] = v
                queue.append(u)
    return dist, parent


def is_connected(g: WeightedGraph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0."""
    return min(_bfs(_neighbor_lists(g), 0)[0]) >= 0


def require_connected(g: WeightedGraph) -> None:
    if not is_connected(g):
        raise GraphError(GraphErrorKind.DISCONNECTED, "graph is not connected")


def bipartition_of(g: WeightedGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-coloring of a bipartite graph, or ``None`` if no proper one exists.

    Returns the color classes ``(V1, V2)`` with the class of vertex 0 first
    (for a connected graph).  A self-loop makes the graph non-bipartite.
    Disconnected graphs are colored component by component.
    """
    color = np.full(g.n, -1)
    nbrs = _neighbor_lists(g)
    for start in range(g.n):
        if color[start] < 0:
            dist = np.array(_bfs(nbrs, start)[0])
            color = np.where(dist >= 0, dist % 2, color)
    i, j = np.nonzero(g.weights)  # a loop (i == j) is a conflict too
    if (color[i] == color[j]).any():
        return None
    return frozenset(np.nonzero(color == 0)[0].tolist()), frozenset(
        np.nonzero(color == 1)[0].tolist()
    )


def is_bipartite(g: WeightedGraph) -> bool:
    return bipartition_of(g) is not None


def clustering_coefficient(g: WeightedGraph) -> float:
    """Global clustering coefficient: 3 * triangles / connected triples.

    Defined for simple unweighted graphs only.  Returns 0 when the graph has
    no connected triple.
    """
    if g.has_loops():
        raise GraphError(GraphErrorKind.REQUIRES_LOOPLESS, "clustering coefficient needs a loopless graph")
    if not g.is_unweighted():
        raise GraphError(
            GraphErrorKind.REQUIRES_UNWEIGHTED, "clustering coefficient needs unit weights"
        )
    a = (g.weights > 0).astype(float)
    triangles = float(np.trace(a @ a @ a)) / 6.0
    deg = a.sum(axis=1)
    triples = float((deg * (deg - 1)).sum()) / 2.0
    if triples == 0:
        return 0.0
    return 3.0 * triangles / triples


# ---------------------------------------------------------------------------
# generators


def _check_cap(n: int) -> None:
    if n > GENERATOR_SIZE_CAP:
        raise GraphError(
            GraphErrorKind.SIZE_CAP_EXCEEDED,
            f"graph size {n} exceeds cap {GENERATOR_SIZE_CAP}",
        )


def complete_graph(n: int) -> WeightedGraph:
    """K_n with unit edge weights."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    _check_cap(n)
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(n=n, weights=w)


def cycle_graph(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    return build_graph(n, ((i, (i + 1) % n, 1.0) for i in range(n)))


def path_graph(n: int) -> WeightedGraph:
    if n < 2:
        raise ValueError("path graph needs n >= 2")
    return build_graph(n, ((i, i + 1, 1.0) for i in range(n - 1)))


def looped_pair(c: float) -> WeightedGraph:
    """Two vertices joined by a unit edge, each carrying a loop of weight c.

    The family interpolates between a single edge (c=0 is excluded: loops
    must have positive weight, use c>0) and a pair of near-independent
    loops; its nonzero Laplacian eigenvalue is 2/(1+c).
    """
    if c <= 0:
        raise GraphError(GraphErrorKind.NEGATIVE_WEIGHT, "loop weight must be positive")
    return build_graph(2, [(0, 0, c), (1, 1, c), (0, 1, 1.0)])


def bridged_triangles(c: float) -> WeightedGraph:
    """Two triangles with internal weight c joined by a unit bridge edge.

    Vertices 0-2 and 3-5 form the triangles; the bridge is (2, 3).
    """
    if c <= 0:
        raise GraphError(GraphErrorKind.NEGATIVE_WEIGHT, "triangle weight must be positive")
    edges = [
        (0, 1, c),
        (0, 2, c),
        (1, 2, c),
        (3, 4, c),
        (3, 5, c),
        (4, 5, c),
        (2, 3, 1.0),
    ]
    return build_graph(6, edges)


# ---------------------------------------------------------------------------
# serialization


def graph_to_dict(g: WeightedGraph) -> dict:
    """Canonical JSON-ready form: ``{"n": ..., "edges": [[i, j, w], ...]}``."""
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges()]}


def _is_int(v) -> bool:
    """A JSON integer (``bool`` excluded)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_edge_row(e) -> bool:
    return (
        isinstance(e, list) and len(e) == 3 and _is_int(e[0]) and _is_int(e[1])
        and (_is_int(e[2]) or isinstance(e[2], float))
    )


def graph_from_dict(data) -> WeightedGraph:
    """Inverse of :func:`graph_to_dict`; a malformed document raises ``ValueError``."""
    n, edges = (data.get("n"), data.get("edges")) if isinstance(data, dict) else (None, None)
    if not (_is_int(n) and n >= 1 and isinstance(edges, list) and all(map(_is_edge_row, edges))):
        raise ValueError(
            "graph JSON must be an object with a positive integer 'n' and a list 'edges'"
            " of [i, j, w] rows: integers i, j and a number w"
        )
    extra = next((key for key in data if key not in ("n", "edges")), None)
    if extra is not None:
        raise ValueError(f"graph JSON has an unexpected key {extra!r}")
    try:
        return build_graph(n, edges)
    except OverflowError:
        raise ValueError("graph JSON has an edge weight beyond the float range") from None


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse a whitespace edge list: one ``i j w`` triple per line.

    Vertex labels may be arbitrary tokens; they are re-indexed to 0-based
    integers in order of first appearance.  ``#`` starts a comment.
    """
    index: dict[str, int] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'i j w', got {raw!r}")
        a, b, w_str = parts
        for lab in (a, b):
            if lab not in index:
                index[lab] = len(index)
        edges.append((index[a], index[b], float(w_str)))
    if not edges:
        raise ValueError("empty edge list")
    return build_graph(len(index), edges)


def read_graph(path) -> WeightedGraph:
    """Read a graph from a ``.json`` file or a whitespace edge list."""
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        return graph_from_dict(json.loads(text))
    return parse_edge_list(text)


def write_graph(g: WeightedGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(g)) + "\n")
