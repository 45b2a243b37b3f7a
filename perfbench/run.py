#!/usr/bin/env python3
"""Wall-time benchmark of the lapspec command-line tool.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tri14 --seed 1 --seconds 38 --trace 0

The harness writes seeded graph files, then runs the checkout's own CLI
(``python -m lapspec.cli`` with ``PYTHONPATH=src``) as child processes,
one at a time, and checks every output with ``gate``.  ``--trace 0``
cycles through the workload's invocations for ``--seconds``, with
``ruler.py`` runs between them to gauge the host's speed, and reports the
end-to-end figures scaled by it.  ``--trace 1`` reports the per-layer
figures instead: one child pass for the per-subcommand times, then an
untraced and a traced in-process pass (``tracer``) of the same
invocations.  Traced numbers never feed the end-to-end metrics.

The last line of stdout is the result object; the line before it holds
machine facts and the raw samples.  Exit status is 0 whenever a result
is printed (``correct`` says whether every output passed the gate), and
2 when the program or the stored references are missing.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads here and passed to every
# child: on a few shared cores, BLAS worker threads make the timings of
# the small matrix products in the program swing more than they speed
# them up.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

CHILD_TIMEOUT_S = 120
#: No new invocation starts after this many seconds of a run, whatever --seconds says.
BUDGET_S = 120
#: A ``--version`` run follows each this many seconds of timed invocations;
#: a run takes at least ``SETUP_SAMPLES`` of them.
SETUP_EVERY_S = 2.0
SETUP_SAMPLES = 12
#: ``ruler.py`` runs after the timed invocations until its total time is
#: this share of theirs.  ``RULER_REF_S`` holds the typical times of its
#: start-up and of its work on the host the bounds were set on (2 vCPUs,
#: Intel Xeon, shared), so the scaled ``wall_ref_s`` and ``setup_s`` read
#: in seconds at that host's usual speed.
RULER = HERE / "ruler.py"
RULER_SHARE = 0.3
RULER_REF_S = {"start": 0.20, "work": 0.30}
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lapspec.cli; "
    "print(repr(time.perf_counter() - t))"
)
MAX_PROBLEMS_SHOWN = 10


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], workdir: Path, env: dict[str, str]) -> Child:
    """Run ``cmd``; wall time from spawn to reap, max RSS from ``wait4``."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "lapspec.cli", *argv]


# ---------------------------------------------------------------------------
# correctness bookkeeping


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, inv_id: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{inv_id}: {p}" for p in problems][:MAX_PROBLEMS_SHOWN]


class Checker:
    """Checks one workload's outputs against the gate and the stored references."""

    def __init__(self, wl: workloads.Workload, reference: dict):
        self.wl = wl
        self.ref_seed = reference["seed"]
        self.outputs = reference["outputs"]
        self.tally = Tally()

    def check(self, inv: workloads.Invocation, code, stdout: str, stderr: str) -> None:
        use_ref = self.wl.seed == self.ref_seed or not inv.seeded
        if code != 0:
            lines = stderr.strip().splitlines()
            problems = [f"exit {code}: {lines[-1] if lines else ''}"]
        elif use_ref and inv.id not in self.outputs:
            problems = ["no stored reference output"]
        else:
            w = self.wl.weights(inv.graph) if inv.graph else None
            problems = gate.check_output(inv, stdout, w, self.outputs[inv.id] if use_ref else None)
        self.tally.record(inv.id, problems)


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# passes


def child_pass(wl, workdir, env, checker) -> dict[str, float]:
    """Every invocation once as a child process; the wall time of each
    subcommand's invocations, checking excluded."""
    per_cmd = dict.fromkeys(workloads.COMMANDS, 0.0)
    for inv in wl.invocations:
        c = run_child(cli_cmd(inv.argv(workdir)), workdir, env)
        checker.check(inv, c.code, c.stdout, c.stderr)
        per_cmd[inv.command] += c.wall_s
    return per_cmd


def setup_time(workdir, env) -> float:
    c = run_child(cli_cmd(["--version"]), workdir, env)
    if c.code != 0 or not c.stdout.startswith("lapspec "):
        raise RuntimeError(f"lapspec --version failed: {c.stderr.strip()}")
    return c.wall_s


def ruler_time(workdir, env) -> tuple[float, float]:
    """Start-up time of one ruler child (its wall time less its work), and
    the time of its work."""
    c = run_child([sys.executable, str(RULER)], workdir, env)
    if c.code != 0 or len(c.stdout.split()) != 3:
        raise RuntimeError(f"ruler failed: {c.stderr.strip()}")
    work = float(c.stdout.split()[2])
    return c.wall_s - work, work


def inprocess_pass(wl, workdir, checker, trace: tracer.Tracer | None = None) -> float:
    """Every invocation once through ``lapspec.cli.main`` in this process."""
    cli = sys.modules["lapspec.cli"]
    total = 0.0
    for k, inv in enumerate(wl.invocations):
        if trace is not None:
            trace.invocation = k
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(inv.argv(workdir))
            except (Exception, SystemExit) as exc:  # a crash is a failed invocation
                code = f"{type(exc).__name__}: {exc}"
        total += time.perf_counter() - start
        checker.check(inv, code, out.getvalue(), err.getvalue())
    return total


# ---------------------------------------------------------------------------
# the two kinds of run


def _median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(wl, workdir, env, seconds, checker, t0) -> tuple[dict, dict]:
    """Cycle through the invocations, one child at a time, for ``seconds``.

    Every invocation runs at least once.  After that the next one in turn
    runs if its last time, with the ruler runs it brings, fits in what is
    left of ``seconds`` once the ``--version`` runs still owed are set
    aside, and else the first later one that fits.  So a run ends within
    about ``seconds``, and short invocations fill the time that a long one
    would overrun.  After each invocation the ruler runs until its total
    time is ``RULER_SHARE`` of the invocations', so its samples follow the
    host's speed through the run.
    """
    n = len(wl.invocations)
    times = {inv.id: [] for inv in wl.invocations}
    rss = {inv.id: [] for inv in wl.invocations}
    start = time.perf_counter()
    setup = [setup_time(workdir, env)]
    ruler = {"start": [], "work": []}

    def next_turn(k: int) -> int | None:
        now = time.perf_counter()
        if k < n:
            return k
        if now - t0 > BUDGET_S:
            return None
        left = seconds - (now - start) - max(0, SETUP_SAMPLES - len(setup)) * _median(setup)
        return next((j for j in range(k, k + n)
                     if times[wl.invocations[j % n].id][-1] * (1 + RULER_SHARE) <= left), None)

    k, timed_s, since_setup = 0, 0.0, 0.0
    while (k := next_turn(k)) is not None:
        inv = wl.invocations[k % n]
        k += 1
        c = run_child(cli_cmd(inv.argv(workdir)), workdir, env)
        checker.check(inv, c.code, c.stdout, c.stderr)
        times[inv.id].append(c.wall_s)
        rss[inv.id].append(c.rss_mb)
        timed_s += c.wall_s
        while sum(ruler["start"]) + sum(ruler["work"]) < RULER_SHARE * timed_s:
            for part, t in zip(ruler, ruler_time(workdir, env)):
                ruler[part].append(t)
        since_setup += c.wall_s
        if since_setup >= SETUP_EVERY_S:
            setup.append(setup_time(workdir, env))
            since_setup = 0.0
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(workdir, env))
    # One pass's wall time is estimated by the sum of each invocation's
    # mean over the run.  With one to four runs of each, the mean varies
    # less from run to run than the median does.
    per_inv = {i: statistics.fmean(v) for i, v in times.items()}
    wall = sum(per_inv.values())
    # The host's speed drifts, and jumps, by up to a third over minutes,
    # and start-up moves more than computation does.  So a pass is split
    # into start-up, taken as one ``--version`` run per invocation, and the
    # rest, and each part is scaled by the ruler's mean time for the same
    # part in this run.
    speed = {part: RULER_REF_S[part] / statistics.fmean(ts) for part, ts in ruler.items()}
    startup = n * _median(setup)
    metrics = {
        "wall_ref_s": (startup * speed["start"] + (wall - startup) * speed["work"], "s"),
        "setup_s": (_median(setup) * speed["start"], "s"),
        "peak_rss_mb": (max(_median(v) for v in rss.values()), "MB"),
    }
    samples = {
        "wall_s": wall,
        "ruler_s": ruler,
        "runs_per_invocation": {i: len(v) for i, v in times.items()},
        "invocation_s": times,
        "setup_s": setup,
        "mean_s": per_inv,
    }
    return metrics, samples


def _unit(name: str) -> str:
    if name.endswith(("calls", "distinct", "capped", "tripartitions", "bipartitions")):
        return "count"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith(("ratio", "share", "frac")):
        return "ratio"
    return "s"


def per_layer(wl, workdir, env, checker) -> tuple[dict, dict]:
    imports = []
    for _ in range(IMPORT_SAMPLES):
        c = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, env)
        if c.code != 0:
            raise RuntimeError(f"importing lapspec.cli failed: {c.stderr.strip()}")
        imports.append(float(c.stdout))
    per_cmd = child_pass(wl, workdir, env, checker)
    plain_s = inprocess_pass(wl, workdir, checker)
    trace = tracer.Tracer()
    with trace.installed():
        traced_s = inprocess_pass(wl, workdir, checker, trace)

    values = {"wall_s": sum(per_cmd.values()), "cli.import_s": _median(imports)}
    values.update({f"cli.{cmd}_s": per_cmd[cmd] for cmd in workloads.COMMANDS})
    values.update(tracer.layer_metrics(trace.spans))
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["fail_frac"] = checker.tally.failed / checker.tally.attempted
    counts = tracer.invocation_counts(trace.spans)
    samples = {
        "cli.import_s": imports,
        "inprocess_s": {"untraced": plain_s, "traced": traced_s},
        "per_invocation_calls_distinct": {
            inv.id: counts.get(k, {}) for k, inv in enumerate(wl.invocations)
        },
    }
    return {k: (v, _unit(k)) for k, v in values.items()}, samples


# ---------------------------------------------------------------------------
# machine facts


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------


def import_program():
    """Import lapspec from this checkout's ``src`` (and nowhere else)."""
    if not (SRC / "lapspec" / "cli.py").is_file():
        raise RuntimeError(f"no lapspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lapspec.cli

    if SRC not in Path(lapspec.__file__).resolve().parents:
        raise RuntimeError(f"lapspec imported from {lapspec.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()

    try:
        import_program()
        reference = load_reference(args.workload)
    except (RuntimeError, OSError, ValueError) as err:
        print(f"perfbench: cannot run: {err}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        wl.write_inputs(workdir)
        env = child_env()
        for inv in wl.warmup:  # untimed: compiles .pyc files, warms the file cache
            run_child(cli_cmd(inv.argv(workdir)), workdir, env)
        checker = Checker(wl, reference)
        if args.trace:
            metrics, samples = per_layer(wl, workdir, env, checker)
        else:
            metrics, samples = end_to_end(wl, workdir, env, args.seconds, checker, t0)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = checker.tally
    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine_facts(), "samples": samples,
               "elapsed_s": time.perf_counter() - t0}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
