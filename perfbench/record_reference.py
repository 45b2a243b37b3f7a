#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every invocation of each workload at ``DEFAULT_SEED`` through the
checkout's CLI and stores the parsed outputs in ``reference/<name>.json``.
The stored files come from the commit that introduced the benchmark;
re-record only for a deliberate change of output, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def record(name: str) -> Path:
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    (run.HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.HERE / ".work"))
    try:
        wl.write_inputs(workdir)
        env = run.child_env()
        outputs = {}
        for inv in wl.invocations:
            c = run.run_child(run.cli_cmd(inv.argv(workdir)), workdir, env)
            if c.code != 0:
                raise SystemExit(f"{name}/{inv.id}: exit {c.code}: {c.stderr.strip()}")
            outputs[inv.id] = json.loads(c.stdout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{name}.json"
    payload = {"seed": workloads.DEFAULT_SEED, "outputs": outputs}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: list[str]) -> int:
    run.import_program()
    for name in argv or sorted(workloads.WORKLOADS):
        print(record(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
