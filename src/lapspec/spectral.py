"""Exact spectrum of the normalized graph Laplacian.

The operator is ``(Delta u)(i) = u(i) - (1/d_i) sum_j w_ij u(j)``, acting on
functions ``u: V -> R``.  It is self-adjoint with respect to the degree
inner product ``(u, v) = sum_i d_i u(i) v(i)``, and its spectrum lies in
``[0, 2]``, with 0 always present and 2 present exactly for bipartite graphs.

Eigenpairs are computed through the symmetric conjugate
``I - D^{-1/2} W D^{-1/2}`` (same eigenvalues; eigenvectors pull back via
``u = D^{-1/2} v``), so a plain dense symmetric eigensolver applies.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph, require_connected

_SIGN_TOL = 1e-12


class Spectrum(NamedTuple):
    """Eigenvalues (ascending) and degree-orthonormal eigenfunctions.

    ``eigenfunctions[k]`` is the eigenfunction for ``eigenvalues[k]``,
    normalized to ``sum_i d_i u(i)^2 = 1`` with the first coordinate of
    nonnegligible size made positive.  ``residual`` is the largest
    degree-norm defect ``||Delta u_k - lambda_k u_k||`` over all k.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_1(self) -> float:
        """Smallest nonzero-index eigenvalue (spectral gap at the bottom)."""
        return float(self.eigenvalues[1])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def degree_inner_product(g: WeightedGraph, u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float((g.degrees * u * v).sum())


def degree_norm(g: WeightedGraph, u) -> float:
    return float(np.sqrt(degree_inner_product(g, u, u)))


def apply_laplacian(g: WeightedGraph, u) -> np.ndarray:
    """Evaluate ``Delta u = u - D^{-1} W u``."""
    u = np.asarray(u, dtype=float)
    return u - (g.weights @ u) / g.degrees


def _fix_signs(funcs: np.ndarray) -> np.ndarray:
    """Flip each eigenfunction so its first nonnegligible coordinate is positive."""
    mag = np.abs(funcs)
    big = mag > _SIGN_TOL * mag.max(axis=1, keepdims=True)
    lead = funcs[np.arange(funcs.shape[0]), big.argmax(axis=1)]  # row[0] if none is big
    return np.where(lead[:, None] < 0, -funcs, funcs)


def spectrum(g: WeightedGraph) -> Spectrum:
    """Full eigendecomposition of the normalized Laplacian of ``g``.

    The graph must be connected, so the zero eigenvalue is simple.
    """
    require_connected(g)
    d = g.degrees
    inv_sqrt = 1.0 / np.sqrt(d)
    sym = -inv_sqrt[:, None] * g.weights * inv_sqrt[None, :]
    np.fill_diagonal(sym, 1.0 + np.diag(sym))
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)

    funcs = (vecs * inv_sqrt[:, None]).T  # row k is the k-th eigenfunction
    norms = np.sqrt((d * funcs**2).sum(axis=1))
    funcs = funcs / norms[:, None]
    funcs = _fix_signs(funcs)

    residual = 0.0
    for k in range(g.n):
        defect = apply_laplacian(g, funcs[k]) - vals[k] * funcs[k]
        residual = max(residual, degree_norm(g, defect))
    return Spectrum(eigenvalues=vals, eigenfunctions=funcs, residual=residual)


def spectral_radius_rho(s: Spectrum) -> float:
    """Convergence factor ``max_{k != 0} |1 - lambda_k|`` of the random walk."""
    if s.n < 2:
        raise ValueError("need at least two eigenvalues")
    return max(abs(1.0 - s.lambda_1), abs(1.0 - s.lambda_max))
