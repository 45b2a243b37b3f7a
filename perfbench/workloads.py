"""Seeded input graphs and the CLI invocations of each benchmark workload.

A workload is a list of ``lapspec`` invocations plus the graph files they
read.  Every seeded graph is a unit-weight G(n, 0.4) graph, redrawn until
it is connected and not bipartite, from a generator keyed by the workload
seed and the vertex count, so the same seed always gives the same files.
The program receives nothing but these files and its command line.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EDGE_PROB = 0.4

#: Seed whose outputs are stored under ``reference/``.
DEFAULT_SEED = 1

#: ``neighborhood`` orders either side of the repeated-squaring threshold:
#: the program compares ``l - 1`` with 64, so 65 takes the loop and 66 the
#: squaring path.
NEIGHBORHOOD_ORDERS = (65, 66)


@dataclass(frozen=True)
class Invocation:
    """One run of ``lapspec <command> [--input FILE] <args>``."""

    id: str
    command: str
    args: tuple[str, ...] = ()
    graph: str | None = None
    seeded: bool = True  # False: the output is the same for every seed

    def argv(self, workdir: Path) -> list[str]:
        out = [self.command]
        if self.graph is not None:
            out += ["--input", str(workdir / self.graph)]
        return out + list(self.args)


@dataclass
class Workload:
    name: str
    seed: int
    graphs: dict[str, tuple[int, list[tuple[int, int]]]]
    invocations: list[Invocation]
    warmup: list[Invocation]  # cheapest run of each subcommand, untimed

    def write_inputs(self, workdir: Path) -> None:
        for fname, (n, edges) in {**self.graphs, **WARMUP_GRAPHS}.items():
            payload = {"n": n, "edges": [[i, j, 1.0] for i, j in edges]}
            (workdir / fname).write_text(json.dumps(payload) + "\n")

    def weights(self, fname: str) -> np.ndarray:
        n, edges = self.graphs[fname]
        w = np.zeros((n, n))
        for i, j in edges:
            w[i, j] = w[j, i] = 1.0
        return w


# ---------------------------------------------------------------------------
# graphs


def _connected_with_odd_cycle(n: int, edges) -> bool:
    """BFS 2-colouring from vertex 0: every vertex reached and some edge
    joins two vertices of the same colour."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    colour = [-1] * n
    colour[0] = 0
    queue = deque([0])
    odd = False
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if colour[u] < 0:
                colour[u] = 1 - colour[v]
                queue.append(u)
            elif colour[u] == colour[v]:
                odd = True
    return odd and min(colour) >= 0


def gnp_graph(seed: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Connected, non-bipartite unit-weight G(n, 0.4), fixed by (seed, n)."""
    rng = np.random.default_rng([seed & (2**64 - 1), n])
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(iu.size) < EDGE_PROB
        edges = [(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])]
        if _connected_with_odd_cycle(n, edges):
            return n, edges


def complete_graph(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def cycle_graph(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


WARMUP_GRAPHS = {"warm_k4.json": complete_graph(4)}

#: Cheapest run of each subcommand; run once untimed before measuring.
_WARMUP = {
    "spectrum": Invocation("warm:spectrum", "spectrum", (), "warm_k4.json"),
    "constants": Invocation("warm:constants", "constants", (), "warm_k4.json"),
    "bounds": Invocation("warm:bounds", "bounds", ("--l-list", "2"), "warm_k4.json"),
    "neighborhood": Invocation("warm:neighborhood", "neighborhood", ("--l", "2"), "warm_k4.json"),
    "walk": Invocation("warm:walk", "walk", ("--l", "2", "--format", "json"), "warm_k4.json"),
    "cml": Invocation(
        "warm:cml", "cml", ("--eps", "0.9", "--steps", "10", "--trials", "1"), "warm_k4.json"
    ),
    "curves": Invocation(
        "warm:curves", "curves",
        ("--family", "complete", "--grid", "3", "--l-list", "1", "--format", "json"),
    ),
}


def build_workload(name: str, seed: int, graphs: dict, invocations: list[Invocation]) -> Workload:
    commands = dict.fromkeys(inv.command for inv in invocations)
    return Workload(name, seed, graphs, invocations, [_WARMUP[c] for c in commands])


# ---------------------------------------------------------------------------
# workloads


def tri14(seed: int) -> Workload:
    """Tripartition-bound: ``bounds`` and ``constants`` on one 14-vertex graph."""
    graphs = {"g14.json": gnp_graph(seed, 14)}
    return build_workload("tri14", seed, graphs, [
        Invocation("bounds:g14", "bounds", ("--l-list", "2,3"), "g14.json"),
        Invocation("constants:g14", "constants", (), "g14.json"),
    ])


def bi24(seed: int) -> Workload:
    """Bipartition-bound: ``bounds`` and ``walk --l 2`` on one 24-vertex graph."""
    graphs = {"g24.json": gnp_graph(seed, 24)}
    return build_workload("bi24", seed, graphs, [
        Invocation("bounds:g24", "bounds", ("--l-list", "2,3"), "g24.json"),
        Invocation("walk:g24:l2", "walk", ("--l", "2", "--format", "json"), "g24.json"),
    ])


def many_small(seed: int) -> Workload:
    """Start-up-bound: two dozen short runs covering every subcommand but ``bounds``."""
    graphs = {f"g{n}.json": gnp_graph(seed, n) for n in (6, 8, 10, 12)}
    graphs.update({
        "c10.json": cycle_graph(10),
        "k5.json": complete_graph(5),
        "k12.json": complete_graph(12),
    })
    inv = []
    # synchronised, not synchronised and diverging couplings
    for fname, eps in (("k5", "0.9"), ("k5", "0.3"), ("k5", "1.5"), ("k12", "0.9"), ("g12", "0.3")):
        inv.append(Invocation(f"cml:{fname}:eps{eps}", "cml", ("--eps", eps), f"{fname}.json",
                              seeded=fname.startswith("g")))
    for family, grid, l_list in (
        ("looped_pair", "0.2:3.0:0.1", "1,2,3,4,5"),
        ("bridged_triangles", "0.2:3.0:0.1", "1,2,3,4,5"),
        ("complete", "3:12:1", "1,2,3"),
    ):
        inv.append(Invocation(
            f"curves:{family}", "curves",
            ("--family", family, "--grid", grid, "--l-list", l_list, "--format", "json"),
            seeded=False,
        ))
    for fname in ("g6", "g8", "g10", "c10"):
        inv.append(Invocation(f"spectrum:{fname}", "spectrum", (), f"{fname}.json",
                              seeded=fname.startswith("g")))
    for fname, l in (("g6", None), ("g8", "2"), ("g10", "4"), ("c10", "2")):
        args = ("--format", "json") if l is None else ("--l", l, "--format", "json")
        inv.append(Invocation(f"walk:{fname}:l{l}", "walk", args, f"{fname}.json",
                              seeded=fname.startswith("g")))
    for fname in ("g8", "g10", "c10"):
        inv.append(Invocation(f"constants:{fname}", "constants", (), f"{fname}.json",
                              seeded=fname.startswith("g")))
    for fname in ("g8", "g10"):
        for l in NEIGHBORHOOD_ORDERS:
            inv.append(Invocation(f"neighborhood:{fname}:l{l}", "neighborhood",
                                  ("--l", str(l)), f"{fname}.json"))
    return build_workload("many-small", seed, graphs, inv)


WORKLOADS = {"tri14": tri14, "bi24": bi24, "many-small": many_small}

#: Every CLI subcommand, in the order its per-subcommand metric is listed.
COMMANDS = ("spectrum", "constants", "bounds", "neighborhood", "curves", "walk", "cml")
