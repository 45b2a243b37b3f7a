#!/usr/bin/env python3
"""Print one digest per CLI invocation of a fixed corpus, to compare two checkouts.

Each invocation runs ``lapspec.cli.main`` in this process, imported from
``ROOT/src``, and prints ``id sha256(exit code, stdout, stderr)``, with the
temporary input directory replaced by a placeholder.  Two checkouts whose
outputs are byte-identical print identical lines:

    python3 scripts/stdout_digests.py --root . > change.txt
    python3 scripts/stdout_digests.py --root ../parent > parent.txt
    diff parent.txt change.txt

The corpus is every benchmark invocation and warm-up at seeds 1 and 3, read
from ``ROOT/perfbench/workloads.py``, plus the subcommands and orders the
benchmark leaves out on a weighted looped edge list, K7 and C10, and the
``curves`` tables of every family in both formats.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, as in the benchmark, so the eigensolver's rounding does
# not depend on the host's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

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

    graphs = {"looped.txt": LOOPED_EDGES}
    for fname, (n, edges) in (("k7.json", workloads.complete_graph(7)),
                              ("c10.json", workloads.cycle_graph(10))):
        graphs[fname] = json.dumps({"n": n, "edges": [[i, j, 1.0] for i, j in edges]})
    for fname, text in graphs.items():
        (workdir / fname).write_text(text)
        for key, (command, *args) in EXTRA_ARGS.items():
            yield f"{fname}:{key}", [command, "--input", str(workdir / fname), *args]

    for family, (grid, l_list) in CURVES.items():
        for fmt in ("csv", "json"):
            yield f"curves:{family}:{fmt}", ["curves", "--family", family, "--grid", grid,
                                             "--l-list", l_list, "--format", fmt]


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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
            code, out, err = run(cli_main, inv_argv)
            record = json.dumps([code, out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>")])
            print(inv_id, hashlib.sha256(record.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
