#!/usr/bin/env python3
"""Print one digest per CLI invocation of a fixed corpus, to compare two checkouts.

Each invocation runs ``lapspec.cli.main`` in this process, imported from
``ROOT/src``, and prints ``id sha256(exit code, stdout, stderr)``, with the
temporary input directory replaced by a placeholder.  Two checkouts whose
outputs are byte-identical print identical lines:

    python3 scripts/stdout_digests.py --root . > change.txt
    python3 scripts/stdout_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

BLAS runs with its default threads.  The benchmark's children run with one
(``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``), and the digests must not
depend on it: run both ways, they must be the same.

The corpus is every benchmark invocation and warm-up at seeds 1 and 3, read
from ``ROOT/perfbench/workloads.py``, plus the subcommands and orders the
benchmark leaves out on a weighted looped edge list, K7 and C10, the
``curves`` tables of every family in both formats, and the subcommands that
enumerate on C25 and K15, just past the Cheeger (24) and dual Cheeger (14)
vertex caps, so the refusals and skipped reports are pinned too.  The same
subcommands run on two disjoint K8 (between the caps) and two disjoint C13
(past both), which pin the order of the size and connectivity refusals.  It
also runs every graph-reading subcommand on a disconnected graph; the optional
flags ``constants --walks``, ``walk --f``, ``cml --map tent:2``,
``--output`` and ``cml --spread-output`` on K7, hashing each written file
with the invocation, and ``bounds`` there with repeated orders; the
``complete`` table on K13-K16 as CSV, whose rows past the dual Cheeger cap
are blank where ``hbar[l]`` is refused; the usage refusals of ``bounds
--l-list 0``, ``curves --grid 1:0:1``, ``cml --map cubic:1`` and ``walk --steps
100001``; the refused inputs ``{"n": 0}`` and an edge list with a
``nan`` weight; a ``cml`` run on K3 in which only some trials
synchronize exactly; ``bounds`` on the seed-1 G(24, 0.4) and
``constants`` on the seed-1 G(14, 0.4) with every weight 2**-300 or
2**300, on which the split pass screens in float64; and, where every
sum is exact and the value comes from the split pass's tiles, ``bounds`` on
K17 and ``constants`` on K13, whose optima tie across chunks, and the same
subcommands on the seed-1 G(20, 0.4) and G(13, 0.4) with weights 0.25, 0.5
and 1 in turn.  Several orders of Gamma[l] in one command: ``bounds --l-list
1,2,3,4,5`` on the seed-1 G(20, 0.4) with weights 0.1, 0.3 and 0.7 in turn,
the default ``bounds`` on K20, whose Gamma[2] ties across chunks, and the
``complete`` table on K10-K14 at orders 1-5.  Weights too wide for floats,
where several orders fail and the first refusal met is printed: a unit
triangle with a loop of 1e16 at vertex 0 (``constants``, ``bounds`` and
``bounds --l-list 1``) and the seed-1 G(20, 0.4) with a loop of 1e17 at
vertex 0 (``bounds`` and ``walk --l 2``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 3)

#: Weighted edge list with loops, a triangle and a pendant vertex.
LOOPED_EDGES = """\
a b 0.5
b c 1.25
c a 2
a a 0.75
c d 1
d d 0.5
"""

#: Subcommands run on each extra graph file.
EXTRA_ARGS = {
    "bounds": ["bounds", "--l-list", "1,2,3,4,5"],
    "constants": ["constants"],
    "walk-csv": ["walk", "--l", "2"],
    "walk-json": ["walk", "--l", "2", "--format", "json"],
    "neighborhood-l3": ["neighborhood", "--l", "3"],
    "neighborhood-l70": ["neighborhood", "--l", "70"],
    "spectrum": ["spectrum"],
    "cml": ["cml", "--eps", "0.9", "--steps", "300", "--trials", "2"],
}

#: Subcommands run on each graph past an enumeration cap.
CAPPED_ARGS = {
    "constants": ["constants"],
    "bounds": ["bounds", "--l-list", "2,3"],
    "walk": ["walk", "--l", "2"],
}

#: Every subcommand that reads a graph, run on a disconnected one.
DISCONNECTED_ARGS = {
    key: EXTRA_ARGS[key]
    for key in ("spectrum", "constants", "bounds", "neighborhood-l3", "walk-csv", "cml")
}

#: Optional flags, written files and up-front refusals on K7; ``{dir}`` is
#: the input directory.
K7_ARGS = {
    "constants-walks": ["constants", "--walks", "{dir}/k7-walks.json"],
    "walk-f": ["walk", "--f", "1,-1,0.5,0,0,0,0.25", "--steps", "20"],
    "cml-tent": ["cml", "--map", "tent:2", "--eps", "0.9", "--steps", "300", "--trials", "2"],
    "spectrum-output": ["spectrum", "--output", "{dir}/k7-spectrum.json"],
    "cml-spread-output": ["cml", "--eps", "0.9", "--steps", "300", "--trials", "2",
                          "--spread-output", "{dir}/k7-spread.csv"],
    "bounds-l0": ["bounds", "--l-list", "0"],
    "cml-cubic": ["cml", "--map", "cubic:1", "--eps", "0.9"],
    "walk-steps": ["walk", "--steps", "100001"],
    "bounds-repeated-orders": ["bounds", "--l-list", "1,2,2,3"],
}

#: On K3, four of the five trials are exactly synchronized from steps
#: 172-190 on and one never is, so the run keeps its coupled steps to the end.
K3_ARGS = {
    "cml-partial-sync": ["cml", "--eps", "0.95", "--steps", "200", "--transient", "20"],
}

#: Subcommands run on the seed-1 G(n, 0.4) with every weight 2**k, by n.
SCALED_ARGS = {24: {"bounds": ["bounds", "--l-list", "2,3"]}, 14: {"constants": ["constants"]}}
SCALES = (-300, 300)

#: Subcommands run on K_n, by n: h, h[2] and h[3] of K17 and hbar of K13 are
#: exact sums whose optima tie across chunks.
COMPLETE_ARGS = {17: {"bounds": ["bounds", "--l-list", "2,3"]}, 13: {"constants": ["constants"]}}
#: Subcommands run on the seed-1 G(n, 0.4) with the weights CYCLED in edge order, by n.
CYCLED_ARGS = {20: {"bounds": ["bounds", "--l-list", "2,3"]}, 13: {"constants": ["constants"]}}
CYCLED = (0.25, 0.5, 1.0)
#: The same, with weights that are not multiples of a power of two.
UNEVEN_ARGS = {20: {"bounds-orders": ["bounds", "--l-list", "1,2,3,4,5"]}}
UNEVEN = (0.1, 0.3, 0.7)
#: Subcommands run on K20, whose Gamma[2] ties across chunks.
K20_ARGS = {"bounds": ["bounds"]}

#: Subcommands run on a unit triangle and on the seed-1 G(20, 0.4), each with
#: a loop at vertex 0 so heavy that sums with it lose every digit of the
#: other weights.
TRIANGLE_LOOP_ARGS = {"constants": ["constants"], "bounds": ["bounds"],
                      "bounds-l1": ["bounds", "--l-list", "1"]}
G20_LOOP_ARGS = {"bounds": ["bounds"], "walk": ["walk", "--l", "2"]}

#: Inputs refused as malformed or non-finite.
BROKEN_INPUTS = {"n0.json": '{"n": 0}', "nan-weight.txt": "a b 1\nb c nan\n"}

#: Flags whose value is a file the invocation writes; its contents are hashed too.
WRITTEN = ("--output", "--spread-output")

CURVES = {
    "looped_pair": ("0.2:3.0:0.2", "1,2,3,4,5"),
    "bridged_triangles": ("0.2:3.0:0.2", "1,2,3,4,5"),
    "complete": ("3:10:1", "1,2,3"),
}


def corpus(workloads, workdir: Path):
    """``(id, argv)`` pairs; writes the input files they read into ``workdir``."""
    for seed in SEEDS:
        for name, build in workloads.WORKLOADS.items():
            wl = build(seed)
            sub = workdir / f"{name}-{seed}"
            sub.mkdir()
            wl.write_inputs(sub)
            for inv in [*wl.warmup, *wl.invocations]:
                yield f"s{seed}:{name}:{inv.id}", inv.argv(sub)

    def unit_graph(n, edges, weight=1.0) -> str:
        return json.dumps({"n": n, "edges": [[i, j, weight] for i, j in edges]})

    def cycled_graph(n, edges, weights=CYCLED) -> str:
        return json.dumps({"n": n, "edges": [[i, j, weights[e % len(weights)]]
                                             for e, (i, j) in enumerate(edges)]})

    def looped_graph(n, edges, loop) -> str:
        return json.dumps({"n": n, "edges": [*([i, j, 1.0] for i, j in edges), [0, 0, loop]]})

    graphs = {"looped.txt": LOOPED_EDGES, "k7.json": unit_graph(*workloads.complete_graph(7)),
              "c10.json": unit_graph(*workloads.cycle_graph(10))}
    def twice(n, edges) -> str:
        return unit_graph(2 * n, [*edges, *((i + n, j + n) for i, j in edges)])

    capped = {"c25.json": unit_graph(*workloads.cycle_graph(25)),
              "k15.json": unit_graph(*workloads.complete_graph(15)),
              "two-k8.json": twice(*workloads.complete_graph(8)),
              "two-c13.json": twice(*workloads.cycle_graph(13))}
    two_triangles = unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    (workdir / "k7-walks.json").write_text(
        json.dumps({"walks": [[v, (v + 1) % 7, (v + 2) % 7, v] for v in range(7)]}))
    cases = ((graphs, EXTRA_ARGS), (capped, CAPPED_ARGS),
             ({"two-triangles.json": two_triangles}, DISCONNECTED_ARGS),
             ({"k7.json": graphs["k7.json"]}, K7_ARGS),
             ({"k3.json": unit_graph(*workloads.complete_graph(3))}, K3_ARGS),
             (BROKEN_INPUTS, {"spectrum": ["spectrum"]}),
             *(({f"g{n}-2^{k}.json": unit_graph(*workloads.gnp_graph(1, n), 2.0**k)
                 for k in SCALES}, arg_sets) for n, arg_sets in SCALED_ARGS.items()),
             *(({f"k{n}.json": unit_graph(*workloads.complete_graph(n))}, arg_sets)
               for n, arg_sets in COMPLETE_ARGS.items()),
             *(({f"g{n}-cycled.json": cycled_graph(*workloads.gnp_graph(1, n))}, arg_sets)
               for n, arg_sets in CYCLED_ARGS.items()),
             *(({f"g{n}-uneven.json": cycled_graph(*workloads.gnp_graph(1, n), UNEVEN)}, arg_sets)
               for n, arg_sets in UNEVEN_ARGS.items()),
             ({"k20.json": unit_graph(*workloads.complete_graph(20))}, K20_ARGS),
             ({"triangle-1e16.json": looped_graph(*workloads.complete_graph(3), 1e16)},
              TRIANGLE_LOOP_ARGS),
             ({"g20-1e17.json": looped_graph(*workloads.gnp_graph(1, 20), 1e17)}, G20_LOOP_ARGS))
    for files, arg_sets in cases:
        for fname, text in files.items():
            (workdir / fname).write_text(text)
            for key, (command, *args) in arg_sets.items():
                args = [arg.replace("{dir}", str(workdir)) for arg in args]
                yield f"{fname}:{key}", [command, "--input", str(workdir / fname), *args]

    for family, (grid, l_list) in CURVES.items():
        for fmt in ("csv", "json"):
            yield f"curves:{family}:{fmt}", ["curves", "--family", family, "--grid", grid,
                                             "--l-list", l_list, "--format", fmt]
    yield "curves:complete:caps", ["curves", "--family", "complete", "--grid", "13:16:1",
                                   "--l-list", "1,2,3"]
    yield "curves:complete:orders", ["curves", "--family", "complete", "--grid", "10:14:1",
                                     "--l-list", "1,2,3,4,5"]
    yield "curves:empty-grid", ["curves", "--family", "complete", "--grid", "1:0:1"]


def run(main, argv: list[str]) -> list:
    """Exit code, stdout, stderr and the text of each file the invocation wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    written = [Path(path) for flag, path in zip(argv, argv[1:]) if flag in WRITTEN]
    return [code, out.getvalue(), err.getvalue(),
            *(path.read_text() for path in written if path.exists())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ and perfbench/ to use")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from lapspec.cli import main as cli_main

    with tempfile.TemporaryDirectory(prefix="lapspec-digests-") as tmp:
        for inv_id, inv_argv in corpus(workloads, Path(tmp)):
            code, *texts = run(cli_main, inv_argv)
            record = json.dumps([code, *(text.replace(tmp, "<tmp>") for text in texts)])
            print(inv_id, hashlib.sha256(record.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
