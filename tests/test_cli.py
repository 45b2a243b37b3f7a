import contextlib
import io
import json
import re
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from oracles import oracle_cheeger
from lapspec.cli import main
from lapspec.graphs import (
    GraphError,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    graph_from_dict,
    read_graph,
    write_graph,
)
from lapspec.partitions import OddWalkFamily, default_odd_walk_family


def _schema(name: str) -> dict:
    ref = resources.files("lapspec.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text())


@pytest.fixture()
def k5_file(tmp_path):
    path = tmp_path / "k5.json"
    write_graph(complete_graph(5), path)
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    write_graph(cycle_graph(4), path)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# happy paths, validated against the shipped schemas


def test_spectrum_command(capsys, k5_file):
    code, out, err = _run(capsys, "spectrum", "--input", k5_file)
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("spectrum"))
    assert payload["n"] == 5
    assert payload["lambda1"] == pytest.approx(1.25)
    assert payload["rho"] == pytest.approx(0.25)


def test_constants_command(capsys, k5_file):
    code, out, _ = _run(capsys, "constants", "--input", k5_file)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("constants"))
    assert payload["h"]["value"] == pytest.approx(0.75)
    assert payload["hbar"]["value"] == pytest.approx(0.6)
    assert payload["greedy_dual_lower"] >= 0.5
    assert payload["xi"] is not None


def test_constants_on_bipartite_has_no_xi(capsys, c4_file):
    code, out, _ = _run(capsys, "constants", "--input", c4_file)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("constants"))
    assert payload["xi"] is None
    assert payload["hbar"]["value"] == pytest.approx(1.0)


def test_constants_with_walk_file(capsys, monkeypatch, tmp_path, k5_file):
    fam = default_odd_walk_family(complete_graph(5))
    walks_path = tmp_path / "walks.json"
    walks_path.write_text(json.dumps({"walks": [list(w) for w in fam.walks]}))
    validated = []
    check = OddWalkFamily.validate
    monkeypatch.setattr(OddWalkFamily, "validate", lambda f, g: validated.append(f) or check(f, g))
    code, out, _ = _run(capsys, "constants", "--input", k5_file, "--walks", str(walks_path))
    assert code == 0
    assert [f.walks for f in validated] == [fam.walks]  # the file's family, once
    payload = json.loads(out)
    assert payload["xi"]["value"] >= 1.0


def test_bounds_command(capsys, k5_file):
    code, out, _ = _run(capsys, "bounds", "--input", k5_file, "--l-list", "2,3")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("bounds"))
    names = {r["name"] for r in payload["reports"]}
    assert "cheeger" in names and "dual_cheeger" in names
    assert payload["lambdaMax"] == pytest.approx(1.25)


def test_bounds_command_computes_the_spectrum_once(capsys, monkeypatch, k5_file):
    from lapspec import bounds, cli, spectral

    calls = []

    def counting(g):
        calls.append(g.n)
        return spectral.spectrum(g)

    for module in (cli, bounds):
        monkeypatch.setattr(module, "spectrum", counting)
    code, _, _ = _run(capsys, "bounds", "--input", k5_file, "--l-list", "1,2,3")
    assert code == 0
    assert calls == [5]


def test_walk_json_computes_the_spectrum_once(capsys, monkeypatch, k5_file):
    from lapspec import cli, random_walk, spectral

    calls = []

    def counting(g):
        calls.append(g.n)
        return spectral.spectrum(g)

    for module in (cli, random_walk):
        monkeypatch.setattr(module, "spectrum", counting)
    code, _, _ = _run(capsys, "walk", "--input", k5_file, "--l", "2", "--format", "json")
    assert code == 0
    assert calls == [5]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--input", "{k7}", "--l-list", "1,2,2,3"],
        ["curves", "--family", "complete", "--grid", "5:6:1", "--l-list", "1,1,2,3"],
        ["constants", "--input", "{k7}"],
        ["walk", "--input", "{k7}", "--l", "2"],
    ],
    ids=["bounds", "curves", "constants", "walk"],
)
def test_command_computes_each_constant_once(capsys, monkeypatch, tmp_path, argv):
    # Every binding of each constant in the lapspec modules is counted, by
    # (constant, graph bytes): repeated orders and l = 1 compute nothing again.
    import sys
    from collections import Counter

    from lapspec import bounds, cml, partitions, random_walk  # noqa: F401 (loads each module)

    constants = (partitions.cheeger_exact, partitions.dual_cheeger_exact,
                 partitions.balance_ratio_exact, bounds.clustering_constants)
    calls = Counter()

    def counting(fn):
        def wrapper(g):
            calls[fn.__name__, g.n, g.weights.tobytes()] += 1
            return fn(g)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("lapspec."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in constants):
                    monkeypatch.setattr(module, attr, counting(value))
    k7 = tmp_path / "k7.json"
    write_graph(complete_graph(7), k7)
    code, _, _ = _run(capsys, *(arg.format(k7=k7) for arg in argv))
    assert code == 0
    assert calls and max(calls.values()) == 1, [key[:2] for key, c in calls.items() if c > 1]


def test_neighborhood_command(capsys, k5_file):
    code, out, _ = _run(capsys, "neighborhood", "--input", k5_file, "--l", "2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("graph"))
    assert payload["n"] == 5
    # K_5 at order 2 gains loops
    assert any(i == j for i, j, _ in payload["edges"])


def test_curves_csv_default(capsys):
    code, out, _ = _run(
        capsys, "curves", "--family", "looped_pair", "--grid", "0.5,1.0", "--l-list", "1,2"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == (
        "param,l,lower,upper_from_h,upper_from_h_applicable,upper_from_hbar,"
        "lambda1,lambdaMax"
    )
    assert len(lines) == 5


def test_curves_json(capsys):
    code, out, _ = _run(
        capsys,
        "curves",
        "--family",
        "complete",
        "--grid",
        "3:5:1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("curves"))
    assert [r["param"] for r in payload["rows"][::3]] == [3.0, 4.0, 5.0]


def test_walk_csv(capsys, k5_file):
    code, out, _ = _run(capsys, "walk", "--input", k5_file, "--steps", "5", "--l", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,deviation,bound_rho,bound_hl"
    assert len(lines) == 7


def test_walk_json_custom_start(capsys, k5_file):
    code, out, _ = _run(
        capsys,
        "walk",
        "--input",
        k5_file,
        "--steps",
        "3",
        "--f",
        "1,0,0,0,-1",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("walk"))
    assert len(payload["reports"]) == 4


def test_cml_command(capsys, k5_file, tmp_path):
    spread = tmp_path / "spread.csv"
    code, out, _ = _run(
        capsys,
        "cml",
        "--input",
        k5_file,
        "--eps",
        "0.8",
        "--steps",
        "100",
        "--transient",
        "20",
        "--trials",
        "2",
        "--spread-output",
        str(spread),
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("sync"))
    assert payload["synchronized"] is True
    assert spread.read_text().startswith("t,max_spread\n")


# ---------------------------------------------------------------------------
# output handling


def test_output_flag_is_atomic(capsys, k5_file, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = _run(capsys, "spectrum", "--input", k5_file, "--output", str(target))
    assert code == 0
    assert out == ""  # nothing on stdout when writing a file
    json.loads(target.read_text())
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".lapspec-")]
    assert leftovers == []


def test_repeated_runs_are_byte_identical(capsys, k5_file):
    _, first, _ = _run(capsys, "bounds", "--input", k5_file)
    _, second, _ = _run(capsys, "bounds", "--input", k5_file)
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("lapspec ")


# ---------------------------------------------------------------------------
# failure modes


def test_domain_error_exit_1(capsys, tmp_path):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}))
    code, out, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 1
    assert err.startswith("error[Disconnected]")
    assert out == ""


def test_cap_exceeded_exit_1(capsys, tmp_path):
    # one vertex past the Cheeger cap (24), and past the dual Cheeger cap (14)
    for graph, message in [
        (cycle_graph(25), "Cheeger enumeration capped at 24 vertices, graph has 25"),
        (complete_graph(15), "dual Cheeger enumeration capped at 14 vertices, graph has 15"),
    ]:
        path = tmp_path / "g.json"
        write_graph(graph, path)
        code, out, err = _run(capsys, "constants", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error[SizeCapExceeded]: {message}\n"


@pytest.mark.parametrize(
    "argv, edges",
    [
        (["constants"], "0 1 1\n1 2 1\n0 2 1\n0 0 3e16\n"),  # a unit triangle, one heavy loop
        (["bounds", "--l-list", "1"], "0 1 1\n0 0 1e17\n"),  # a unit edge, one heavy loop
    ],
)
def test_weights_too_wide_for_floats_exit_1(capsys, tmp_path, argv, edges):
    # Every cut's `vol - internal` and `total - vol` lose every digit, so
    # every ratio is 0 / 0 and no labeling scores a number: a domain error
    # of one line, without a numpy warning on the way.
    path = tmp_path / "g.txt"
    path.write_text(edges)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv, "--input", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == 1 and out == ""
    assert err == ("error[WeightRange]: no labeling gives the Cheeger constant a finite value: "
                   "the weights span too wide a range\n")


# Two K4 joined by a bridge of 0.68, and a vertex 0 with a loop of 1e16 and
# an edge of 1.5, with the labels in order of first appearance: vol {0}
# rounds up by 0.5, so the scan scores the cut {0} at about 2 / 99 where
# h = 1.5 / 99, and picks the cluster {1, 2, 3, 4} at 0.68 / 39.68, whose
# own ratio it gets right.
_WIDE_CLUSTERS = "".join(
    ["0 0 1e16\n"]
    + [f"{i} {j} 3.25\n" for i in range(1, 5) for j in range(i + 1, 5)]
    + ["4 5 0.68\n"]
    + [f"{i} {j} 4.75\n" for i in range(5, 9) for j in range(i + 1, 9)]
    + ["0 5 1.5\n"]
)


@pytest.mark.parametrize("argv", [["constants"], ["bounds"], ["bounds", "--l-list", "1"]])
@pytest.mark.parametrize("edges", ["0 1 1\n1 2 1\n0 2 1\n0 0 1e16\n", _WIDE_CLUSTERS],
                         ids=["triangle", "clusters"])
def test_weights_too_wide_for_a_finite_but_wrong_ratio_exit_1(capsys, tmp_path, argv, edges):
    # A unit triangle with a loop of 1e16 at vertex 0: its degree 1e16 + 2
    # rounds to 1e16, so the cut {0} scores 0 / 4 where h = 1/2.  On the
    # clusters the witness is not the least cut.  The values are finite, so
    # only the sound scoring of every cut refuses them.
    path = tmp_path / "g.txt"
    path.write_text(edges)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv, "--input", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == 1 and out == ""
    assert err == ("error[WeightRange]: cannot compute the Cheeger constant exactly: "
                   "the weights span too wide a range\n")


def test_wide_but_exact_weights_keep_their_cheeger_constant(capsys, tmp_path):
    # With a loop of 1e15 every sum of the scan is an exact integer, so the
    # tolerance is 0 and h is the oracle's 1/2.
    path = tmp_path / "g.txt"
    path.write_text("0 1 1\n1 2 1\n0 2 1\n0 0 1e15\n")
    code, out, err = _run(capsys, "constants", "--input", str(path))
    assert code == 0 and err == ""
    h = json.loads(out)["h"]
    assert h["method"] == "exact"
    assert h["value"] == 0.5 == oracle_cheeger(read_graph(path))


_DISCONNECTED ="error[Disconnected]: graph is not connected\n"


@pytest.mark.parametrize(
    "component, constants_err",
    [
        (complete_graph(8), _DISCONNECTED),
        (
            cycle_graph(13),
            "error[SizeCapExceeded]: Cheeger enumeration capped at 24 vertices, graph has 26\n",
        ),
    ],
    ids=["two-K8", "two-C13"],
)
def test_size_refusals_come_before_connectivity(capsys, tmp_path, component, constants_err):
    # Two disjoint copies: 16 vertices lie between the caps, 26 past both.
    # ``constants`` refuses a graph past the Cheeger cap for its size; the
    # others run ``spectrum`` first, which refuses it as disconnected.
    path = tmp_path / "g.json"
    n = 2 * component.n
    write_graph(WeightedGraph(n=n, weights=np.kron(np.eye(2), component.weights)), path)
    for argv, want in [
        (["constants"], constants_err),
        (["bounds", "--l-list", "2,3"], _DISCONNECTED),
        (["walk", "--l", "2"], _DISCONNECTED),
    ]:
        code, out, err = _run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert (code, out, err) == (1, "", want), argv


def test_constants_refuses_before_enumerating(capsys, monkeypatch, tmp_path):
    # Each refusal of ``constants`` comes before the first enumerator call:
    # the Cheeger cap, then connectivity, then the dual Cheeger cap.
    from lapspec import partitions

    calls = []
    scan = partitions._exact_scan
    monkeypatch.setattr(partitions, "_exact_scan", lambda g, *args: calls.append(g.n) or scan(g, *args))
    two_c12 = WeightedGraph(n=24, weights=np.kron(np.eye(2), cycle_graph(12).weights))
    cases = [
        (cycle_graph(25), "error[SizeCapExceeded]: Cheeger enumeration capped at 24 vertices, graph has 25\n"),
        (two_c12, _DISCONNECTED),
        (cycle_graph(24), "error[SizeCapExceeded]: dual Cheeger enumeration capped at 14 vertices, graph has 24\n"),
        (complete_graph(15), "error[SizeCapExceeded]: dual Cheeger enumeration capped at 14 vertices, graph has 15\n"),
    ]
    for graph, want in cases:
        path = tmp_path / "g.json"
        write_graph(graph, path)
        assert _run(capsys, "constants", "--input", str(path)) == (1, "", want)
        assert calls == [], want
    # the count sees the h, hbar and balance scans of a graph it accepts
    write_graph(complete_graph(5), path)
    assert _run(capsys, "constants", "--input", str(path))[0] == 0
    assert calls == [5, 5, 5]


@pytest.mark.parametrize("k", [-900, 900])
@pytest.mark.parametrize("command", ["bounds", "constants"])
def test_extreme_weight_scales_print_finite_numbers(capsys, tmp_path, command, k):
    # A connected 14-vertex graph with every weight 2**k: each constant is
    # computed without overflow or underflow, so nothing is warned on stderr
    # and no NaN or Infinity is printed.
    g = random_connected_graph(np.random.default_rng(14), n_min=14, n_max=14)
    path = tmp_path / "g.json"
    write_graph(WeightedGraph(n=14, weights=np.ldexp(g.weights, k)), path)
    code, out, err = _run(capsys, command, "--input", str(path))
    assert (code, err) == (0, "")
    assert "NaN" not in out and "Infinity" not in out


def test_missing_file_exit_2(capsys):
    code, _, err = _run(capsys, "spectrum", "--input", "/nonexistent/g.json")
    assert code == 2
    assert err.startswith("usage error:")


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    code, _, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 2


def test_unknown_family_exit_2(capsys):
    code, _, err = _run(capsys, "curves", "--family", "nosuch", "--grid", "1.0")
    assert code == 2
    assert "nosuch" in err


def test_bad_start_function_exit_2(capsys, k5_file):
    code, _, err = _run(capsys, "walk", "--input", k5_file, "--f", "1,2")
    assert code == 2
    assert "5 comma-separated" in err


def test_bad_order_exit_2(capsys, k5_file):
    code, _, _ = _run(capsys, "neighborhood", "--input", k5_file, "--l", "0")
    assert code == 2


def test_bad_map_exit_2(capsys, k5_file):
    code, _, err = _run(capsys, "cml", "--input", k5_file, "--eps", "0.5", "--map", "sine:1")
    assert code == 2
    assert "sine" in err


def test_bad_grid_exit_2(capsys):
    code, _, _ = _run(capsys, "curves", "--family", "complete", "--grid", "5:3:0")
    assert code == 2


_REFUSAL_FLAG = {
    "huge-steps": "--steps",
    "huge-trials": "--trials",
    "huge-transient": "--transient",
    "huge-walk": "--steps",
    "negative-seed": "--seed",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--input", "{k5}", "--output", "{tmp}/missing/x.json"],
        ["cml", "--input", "{k1}", "--eps", "0.5", "--steps", "10", "--trials", "1"],
        ["curves", "--family", "complete", "--grid", "0:inf:1"],
        ["curves", "--family", "complete", "--grid", "3,inf"],
        ["cml", "--input", "{k5}", "--eps", "nan", "--steps", "10", "--trials", "1"],
        ["cml", "--input", "{k5}", "--eps", "0.5", "--tol", "nan", "--steps", "10", "--trials", "1"],
        ["cml", "--input", "{k5}", "--eps", "0.5", "--map", "logistic:inf", "--steps", "10"],
        ["walk", "--input", "{k5}", "--f", "nan,0,0,0,0"],
        ["walk", "--input", "{k5}", "--f", "1e308,1e308,0,0,0", "--steps", "2"],
        ["cml", "--input", "{k5}", "--eps", "inf", "--steps", "10", "--trials", "1"],
        ["cml", "--input", "{k5}", "--eps", "0.5", "--tol", "inf", "--steps", "10", "--trials", "1"],
        ["cml", "--input", "{k5}", "--eps", "1e308", "--steps", "10", "--trials", "1"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--map", "logistic:1e300", "--steps", "10"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--map", "tent:-5", "--steps", "10"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--transient", "-1", "--steps", "10"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--steps", "100000000000"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--trials", "100000000"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--transient", "100000000000"],
        ["walk", "--input", "{k5}", "--steps", "100000000"],
        ["curves", "--family", "complete", "--grid", "3", "--l-list", "0"],
        ["curves", "--family", "complete", "--grid", "0:1e10:1"],
        ["curves", "--family", "complete", "--grid", "0:1:1e-320"],
        ["curves", "--family", "complete", "--grid", ",".join(["3"] * 10_001)],
        ["walk", "--input", "{c10}", "--l", "3"],
        ["cml", "--input", "{k5}", "--eps", "0.9", "--seed", "-1"],
    ],
    ids=["unwritable-output", "cml-one-vertex", "infinite-grid", "infinite-grid-value",
         "nan-eps", "nan-tol", "infinite-map", "nan-start", "huge-start", "infinite-eps",
         "infinite-tol", "overflowing-eps", "huge-logistic", "negative-tent",
         "negative-transient", "huge-steps", "huge-trials", "huge-transient", "huge-walk",
         "zero-walk-length", "huge-grid", "overflowing-grid", "long-grid-list",
         "odd-walk-order-bipartite", "negative-seed"],
)
def test_bad_flag_or_output_exit_2(capsys, tmp_path, k5_file, argv, request):
    k1 = tmp_path / "k1.json"
    k1.write_text(json.dumps({"n": 1, "edges": [[0, 0, 1.0]]}))
    c10 = tmp_path / "c10.json"
    c10.write_text(json.dumps({"n": 10, "edges": [[i, (i + 1) % 10, 1.0] for i in range(10)]}))
    argv = [a.format(k5=k5_file, k1=k1, c10=c10, tmp=tmp_path) for a in argv]
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1
    # run-length refusals name the flag, not the library parameter
    flag = _REFUSAL_FLAG.get(request.node.callspec.id)
    if flag is not None:
        assert flag in err
        assert re.search(r"(?<![-\w])(t_max|t_steps|transient|trials|base_seed)\b", err) is None
    if "--output" in argv:
        assert str(tmp_path / "missing" / "x.json") in err and ".lapspec-" not in err


def test_edge_list_input(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("a b 1.0\nb c 1.0  # comment\na c 1.0\n")
    code, out, _ = _run(capsys, "spectrum", "--input", str(path))
    assert code == 0
    assert json.loads(out)["n"] == 3


@pytest.mark.parametrize(
    "doc",
    [{"n": 3}, {"n": 2, "edges": [[0, 1, "x"]]}, [1, 2], {"n": 0, "edges": []}],
)
def test_malformed_graph_json_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert out == ""


def test_unknown_graph_key_exit_2(capsys, tmp_path):
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]], "labels": ["a", "b"]}))
    code, out, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 2
    assert err == "usage error: graph JSON has an unexpected key 'labels'\n"
    assert out == ""


@pytest.mark.parametrize("weight", ["1e400", "nan", "inf"])
def test_non_finite_weight_exit_1(capsys, tmp_path, weight):
    path = tmp_path / "g.txt"
    path.write_text(f"a b 1\nb c {weight}\n")
    code, out, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 1
    assert err.startswith("error[NonFiniteWeight]")
    assert out == ""


def test_oversized_graph_exit_1(capsys, tmp_path):
    # refused before the dense n x n matrix is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10_000_000, "edges": [[0, 1, 1.0]]}))
    code, out, err = _run(capsys, "spectrum", "--input", str(path))
    assert code == 1
    assert err.startswith("error[SizeCapExceeded]") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "walks",
    [
        [1],
        {},
        {"walks": [[0, -1, 1, 0], [1, 2, 0, 1], [2, 0, 1, 2]]},
        {"walks": [[0, 7, 1, 0], [1, 2, 0, 1], [2, 0, 1, 2]]},
    ],
)
def test_malformed_walks_file_exit_2(capsys, tmp_path, walks):
    graph = tmp_path / "k3.json"
    write_graph(complete_graph(3), graph)
    path = tmp_path / "walks.json"
    path.write_text(json.dumps(walks))
    code, _, err = _run(capsys, "constants", "--input", str(graph), "--walks", str(path))
    assert code == 2
    assert err.startswith("usage error:") and err.count("\n") == 1


# Integers stay <= 12: a graph's n sizes the dense n x n matrix build_graph allocates.
_json_docs = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "x"]), kids, max_size=3),
    max_leaves=16,
)
_json_scalars = st.integers(-1, 12) | st.floats() | st.text(max_size=2)
_graph_docs = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 12),
        "edges": st.lists(st.lists(_json_scalars, min_size=2, max_size=4), max_size=12),
    }
)
_edge_lines = st.lists(
    st.tuples(
        st.sampled_from("abcdef"),
        st.sampled_from("abcdef"),
        st.sampled_from(["1", "0.25", "0", "-1", "1e308", "1e400", "nan", "inf", "x"]),
    ).map(" ".join),
    max_size=10,
).map("\n".join)

#: Small graph documents, some with a key the schema does not allow.
_keyed_graph_docs = st.builds(
    lambda n, edges, extra: {"n": n, "edges": edges, **extra},
    st.integers(1, 3),
    st.lists(
        st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.sampled_from([1, 0.5, 0.0, -1.0]))
        .map(list),
        max_size=4,
    ),
    st.dictionaries(st.sampled_from(["labels", "x"]), st.none() | st.integers(0, 2), max_size=1),
)


@settings(max_examples=200, deadline=None)
@given(_json_docs | _graph_docs | _keyed_graph_docs)
def test_accepted_graph_documents_match_the_schema(doc):
    try:
        graph_from_dict(doc)
    except (GraphError, ValueError):
        return
    jsonschema.validate(doc, _schema("graph"))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of((_json_docs | _graph_docs).map(json.dumps), _edge_lines, st.text(max_size=30)),
    st.sampled_from(["g.json", "g.txt"]),
)
def test_arbitrary_input_exits_cleanly(text, name):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["spectrum", "--input", str(path)])
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert err.getvalue().count("\n") == (0 if code == 0 else 1)
