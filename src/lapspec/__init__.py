"""Exact spectra and isoperimetric constants of the normalized graph Laplacian.

The package computes, for small weighted graphs: the full spectrum of
``I - D^{-1}W`` with eigenfunctions orthonormal under the degree inner
product; exact Cheeger and dual Cheeger constants by enumeration;
neighborhood graphs encoding l-step walks; a family of eigenvalue bounds
built from these constants; random-walk convergence rates; and the
spectral synchronization criterion for coupled map lattices.

Names resolve on first use (PEP 562 ``__getattr__``), so ``import lapspec``
runs no module code until one of its names or submodules is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, in ``__all__`` order.
_HOME = {
    "GraphError": "graphs",
    "GraphErrorKind": "graphs",
    "WeightedGraph": "graphs",
    "Spectrum": "spectral",
    "Bipartition": "graphs",
    "TriPartition": "partitions",
    "CheegerResult": "partitions",
    "OddWalkFamily": "partitions",
    "BoundReport": "bounds",
    "WalkReport": "random_walk",
    "MapSpec": "cml",
    "SyncReport": "cml",
    "build_graph": "graphs",
    "read_graph": "graphs",
    "write_graph": "graphs",
    "parse_edge_list": "graphs",
    "complete_graph": "graphs",
    "cycle_graph": "graphs",
    "path_graph": "graphs",
    "looped_pair": "graphs",
    "bridged_triangles": "graphs",
    "is_connected": "graphs",
    "is_bipartite": "graphs",
    "spectrum": "spectral",
    "degree_inner_product": "spectral",
    "degree_norm": "spectral",
    "spectral_radius_rho": "spectral",
    "cheeger_exact": "partitions",
    "dual_cheeger_exact": "partitions",
    "dual_cheeger_greedy_lower": "partitions",
    "balance_ratio_exact": "partitions",
    "greedy_balance_partition": "partitions",
    "default_odd_walk_family": "partitions",
    "xi_product_bound": "partitions",
    "neighborhood_graph": "neighborhood",
    "neighborhood_cheeger": "neighborhood",
    "map_eigenvalues": "neighborhood",
    "cheeger_bounds": "bounds",
    "dual_cheeger_bounds": "bounds",
    "combined_lower": "bounds",
    "localized_upper": "bounds",
    "diameter_variation_upper": "bounds",
    "clustering_constants": "bounds",
    "clustering_upper": "bounds",
    "odd_walk_upper": "bounds",
    "poincare_upper": "bounds",
    "neighborhood_sandwich_from": "bounds",
    "neighborhood_upper_or_from": "bounds",
    "neighborhood_interval_from": "bounds",
    "gap_around_one_from": "bounds",
    "neighborhood_dual_upper_from": "bounds",
    "improvement_predicates": "bounds",
    "bound_curves": "bounds",
    "curves_to_csv": "bounds",
    "all_bound_reports": "bounds",
    "transition_apply": "random_walk",
    "equilibrium_projection": "random_walk",
    "walk_trajectory": "random_walk",
    "logistic_map": "cml",
    "tent_map": "cml",
    "lyapunov_exponent": "cml",
    "step_cml": "cml",
    "sync_interval": "cml",
    "transverse_stability_factor": "cml",
    "ratio_bounds": "cml",
    "simulate_sync": "cml",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _HOME.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_HOME.values()})
