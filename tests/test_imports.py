"""Which lapspec module code runs: per subcommand, and behind ``import lapspec``.

Also which public names the program itself uses.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lapspec
from lapspec.graphs import complete_graph, write_graph

PACKAGE = Path(lapspec.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Runs lapspec.cli as ``python -m`` does (runpy), with the remaining arguments,
# under an audit hook on ``exec``, which fires once per module whose code
# runs, and prints the names of the lapspec modules that ran as the last
# line of stderr.
_PROBE = """
import json, os, runpy, sys
package = sys.argv.pop(1)
ran = set()

def hook(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.dirname(os.path.realpath(path)) == package:
            ran.add(os.path.splitext(os.path.basename(path))[0])

sys.addaudithook(hook)
try:
    runpy.run_module("lapspec.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(ran)), file=sys.stderr)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _modules_run(tmp_path, *argv: str) -> set[str]:
    k5 = tmp_path / "k5.json"
    write_graph(complete_graph(5), k5)
    argv = [a.format(k5=k5) for a in argv]
    proc = _python("-c", _PROBE, str(PACKAGE), *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1])) - {"__init__", "cli"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--version"], {"graphs", "spectral"}),
        (["spectrum", "--input", "{k5}"], {"graphs", "spectral"}),
        (["neighborhood", "--input", "{k5}", "--l", "2"], {"graphs", "spectral", "neighborhood"}),
        (["walk", "--input", "{k5}", "--steps", "3"],
         {"graphs", "spectral", "neighborhood", "random_walk"}),
        # the rate of ``walk --l`` needs h[l] from partitions, but not bounds
        (["walk", "--input", "{k5}", "--steps", "3", "--l", "2"],
         {"graphs", "spectral", "neighborhood", "random_walk", "partitions"}),
        (["cml", "--input", "{k5}", "--eps", "0.9", "--steps", "10", "--trials", "1"],
         {"graphs", "spectral", "cml"}),
    ],
    ids=["version", "spectrum", "neighborhood", "walk", "walk-l2", "cml"],
)
def test_subcommand_runs_only_its_modules(tmp_path, argv, expected):
    assert _modules_run(tmp_path, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--input", "{k5}"],
        ["constants", "--input", "{k5}"],
        ["curves", "--family", "complete", "--grid", "3:4:1"],
    ],
    ids=["bounds", "constants", "curves"],
)
def test_bound_subcommands_skip_walk_and_cml(tmp_path, argv):
    ran = _modules_run(tmp_path, *argv)
    assert {"partitions", "bounds"} <= ran
    assert not ran & {"cml", "random_walk"}


def test_public_names_are_their_defining_modules_objects():
    for name in lapspec.__all__:
        value = getattr(lapspec, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from lapspec import *", namespace)
    assert set(lapspec.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(lapspec, name) for name in lapspec.__all__)


def test_import_lapspec_runs_no_module_until_asked():
    probe = (
        "import sys, lapspec\n"
        "before = sorted(m for m in sys.modules if m.startswith('lapspec.'))\n"
        "print(before, lapspec.partitions.__name__, lapspec.cheeger_exact.__module__)\n"
        "try:\n"
        "    lapspec.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] lapspec.partitions lapspec.partitions",
        "module 'lapspec' has no attribute 'no_such_name'",
    ]


#: Public names that only the tests call.  The first two are results the
#: paper states, which a CLI option should expose; moving the next three into
#: the tests would not make the repository smaller.  ``step_cml`` is the one
#: checked step of the lattice, which ``simulate_sync`` takes unchecked, in
#: batches, through the same kernel.
_USED_BY_TESTS_ONLY = {
    "improvement_predicates", "ratio_bounds", "path_graph", "cycle_graph", "write_graph",
    "step_cml",
}


def _names_used(paths) -> tuple[set[str], set[str]]:
    """Every name read, attribute accessed or imported by name in ``paths``,
    and every function or class name that ``paths`` define."""
    used, defined = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    return used, defined


def test_every_public_name_is_used_by_the_program():
    # the package's modules (not ``__init__``, which lists every name), then
    # the scripts and the benchmark harness, whose calls of a function they
    # define themselves (``workloads.cycle_graph``) are not uses of lapspec's
    package_used, _ = _names_used(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    harness = []
    for folder in ("scripts", "perfbench"):
        assert (ROOT / folder).is_dir(), folder
        harness += (ROOT / folder).glob("*.py")
    harness_used, harness_defined = _names_used(harness)
    assert _USED_BY_TESTS_ONLY <= set(lapspec.__all__)
    used = package_used | (harness_used - harness_defined)
    unused = set(lapspec.__all__) - _USED_BY_TESTS_ONLY - used
    assert not unused, sorted(unused)


#: Modules that no lapspec module may import.  A dataclass generates and
#: execs its methods when its module loads, about 0.4 ms per class in every
#: CLI process, ``--version`` included.  The enumerations run on the calling
#: thread, and numpy's BLAS is not probed through ``ctypes``.
_FORBIDDEN_IMPORTS = {"dataclasses", "threading", "ctypes"}


def test_package_does_not_import_dataclasses_threading_or_ctypes():
    # The source is checked rather than ``sys.modules``, since numpy may
    # load these modules itself.
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert not _FORBIDDEN_IMPORTS & set(modules), f"{path.name}:{node.lineno}"
