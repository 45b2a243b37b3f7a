#!/usr/bin/env python3
"""Regenerate the bound-comparison tables for the two worked graph families.

Writes one CSV per family into --outdir and prints where the transferred
bounds overtake the direct ones along the parameter axis.

Usage:
    python scripts/reproduce_curves.py --outdir out/
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lapspec.bounds import bound_curves, curves_to_csv  # noqa: E402


def crossover_scan(rows, l_ref, l_cmp):
    """Parameters of ``rows`` where the l_cmp lower bound strictly beats the l_ref one."""
    by_param = {}
    for r in rows:
        if r.lower is not None:
            by_param.setdefault(r.param, {})[r.l] = r.lower
    return [
        p
        for p, vals in sorted(by_param.items())
        if l_ref in vals and l_cmp in vals and vals[l_cmp] > vals[l_ref]
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="curves_out", help="directory for CSV tables")
    ap.add_argument("--step", type=float, default=0.1, help="parameter grid step")
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)

    count = int(round(2.8 / args.step)) + 1
    grids = {
        "looped_pair": [round(0.2 + k * args.step, 10) for k in range(count)],
        "bridged_triangles": [round(0.2 + k * args.step, 10) for k in range(count)],
    }
    l_list = [1, 2, 3, 4, 5]

    for family, params in grids.items():
        rows = bound_curves(family, params, l_list)
        path = os.path.join(args.outdir, f"{family}.csv")
        with open(path, "w") as fh:
            fh.write(curves_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")

        for l_cmp in (2, 3):
            better = crossover_scan(rows, 1, l_cmp)
            if better:
                print(
                    f"  {family}: l={l_cmp} lower bound beats l=1 for "
                    f"c in [{better[0]:g}, {better[-1]:g}] ({len(better)} grid points)"
                )
            else:
                print(f"  {family}: l={l_cmp} lower bound never beats l=1 on this grid")


if __name__ == "__main__":
    main()
