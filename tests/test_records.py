"""The result records keep their interface: keyword construction, field
names and defaults, immutability, equality and ``repr``."""

import contextlib
import copy
import inspect

import numpy as np
import pytest

from lapspec.bounds import (
    TARGET_LAMBDA1,
    BoundReport,
    ClusteringConstants,
    CurveRow,
    ImprovementReport,
)
from lapspec.cml import MapSpec, RatioBounds, SyncInterval, SyncReport
from lapspec.graphs import Bipartition, WeightedGraph, complete_graph
from lapspec.partitions import (
    BalancedPartition,
    CheegerResult,
    OddWalkFamily,
    TriPartition,
    XiProductBound,
)
from lapspec.random_walk import WalkReport
from lapspec.spectral import Spectrum

_SIDE = Bipartition(side=frozenset({0}))
_INTERVAL = SyncInterval(mu=0.5, lo=0.1, hi=0.9, ratio=1.2, ratio_threshold=4.1)

#: Each record, keyword arguments for its fields in order, and the fields
#: left out of them with their defaults.
RECORDS = [
    (Bipartition, {"side": frozenset({0})}, {}),
    (Spectrum, {"eigenvalues": np.array([0.0, 1.5, 1.5]), "eigenfunctions": None,
                "residual": 0.0}, {}),
    (TriPartition, {"v1": frozenset({0}), "v2": frozenset({1}), "v3": frozenset({2})}, {}),
    (CheegerResult, {"value": 0.5, "witness": _SIDE}, {}),
    (BalancedPartition, {"partition": _SIDE, "m": 2}, {}),
    (OddWalkFamily, {"walks": ((0, 1, 2, 0),)}, {}),
    (XiProductBound, {"xi": 4.0, "d_max": 2.0, "w_inv": 1.0, "b_load": 3,
                      "sigma_max": 3}, {}),
    (BoundReport, {"name": "cheeger", "target": TARGET_LAMBDA1},
     {"lower": None, "upper": None, "conditions": (), "inputs": {}}),
    (ClusteringConstants, {"c0": 1.0, "w_tri": 1.0, "d_bar": 2.0}, {}),
    (ImprovementReport, {"l": 2, "constants": {"h": 0.75}, "lower_improves": True,
                         "upper_improves": False, "sharpness_sufficient_lower": True,
                         "sharpness_sufficient_upper": False,
                         "some_improvement": True}, {}),
    (CurveRow, {"param": 3.0, "l": 1, "lower": 0.5, "upper_from_h": None,
                "upper_from_h_applicable": False, "upper_from_hbar": 1.5,
                "lambda1": 1.5, "lambda_max": 1.5}, {}),
    (WalkReport, {"t": 0, "deviation": 1.0, "bound_rho": 1.0}, {"bound_hl": None}),
    (MapSpec, {"f": abs, "f_prime": abs}, {}),
    (SyncInterval, {"mu": 0.5, "lo": 0.1, "hi": 0.9, "ratio": 1.2,
                    "ratio_threshold": 4.1}, {}),
    (RatioBounds, {"lower": 1.0, "upper": 2.0, "h": 0.5, "hbar": 0.5,
                   "upper_candidates": {1: 2.0}, "lower_candidates": {1: 1.0}}, {}),
    (SyncReport, {"mu": 0.5, "eps": 0.5, "interval": _INTERVAL, "stability_factor": 0.5,
                  "synchronized": True, "diverged": False, "spread_trajectory": (0.0,),
                  "final_spreads": (0.0,)}, {}),
]


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_fields_defaults_and_immutability(cls, kwargs, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == [*kwargs, *defaults]
    assert [k for k, p in params.items() if p.default is not p.empty] == list(defaults)
    record = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(record, name) is value
    assert {k: getattr(record, k) for k in defaults} == defaults
    for name in [*params, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_weighted_graph_is_immutable_and_equal_only_to_itself():
    assert list(inspect.signature(WeightedGraph).parameters) == ["n", "weights"]
    g = WeightedGraph(n=3, weights=complete_graph(3).weights)
    h = complete_graph(3)
    assert g == g and g != h and hash(g) == hash(g)
    assert len({g, h, g}) == 2
    assert g.degrees.tolist() == [2.0, 2.0, 2.0]
    for name in ("n", "weights", "degrees", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    twin = copy.deepcopy(g)
    assert twin != g and twin.n == 3 and twin.degrees.tolist() == [2.0, 2.0, 2.0]
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_bound_reports_do_not_share_default_inputs():
    a = BoundReport(name="a", target=TARGET_LAMBDA1)
    b = BoundReport(name="b", target=TARGET_LAMBDA1)
    assert a.inputs == {} and b.inputs == {}
    with contextlib.suppress(TypeError):  # the default may be read-only
        a.inputs["x"] = 1.0
    assert b.inputs == {}
    assert BoundReport(name="c", target=TARGET_LAMBDA1).to_dict()["inputs"] == {}


def test_record_repr_is_unchanged():
    r = CheegerResult(value=0.5, witness=_SIDE)
    assert repr(r) == "CheegerResult(value=0.5, witness=Bipartition(side=frozenset({0})))"
