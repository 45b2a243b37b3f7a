"""Independent brute-force enumerators used to cross-check the library.

Everything here is written against the raw weight matrix with Fraction
arithmetic and itertools-style loops — deliberately sharing no code with
the numpy enumeration in lapspec.partitions, so agreement between the two
is meaningful.  Weights must be exactly representable (integers or dyadic
rationals like 0.5); Fraction(float) keeps them exact.

The chunk scores and the coupled-map references are the second kind of
oracle: the plain code that the buffered chunk scores, the batched
simulation and the blocked Lyapunov average must match bit for bit.  With
the chunk scores, ``oracle_scan_of_candidates`` scores every candidate chunk
of a split pass in full, as the enumerators did before the pass's tiles
picked the codes to score again.

The third kind measures how far the computed spectrum is from identities
the paper proves: the two quotients equal to ``2 - lambda``, and the
spectrum of Γ[l] as the mapped spectrum of g.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from lapspec.cml import _LOG_FLOOR, DIVERGENCE_GUARD, PERTURBATION_RADIUS, step_cml
from lapspec import partitions
from lapspec.graphs import Bipartition
from lapspec.neighborhood import neighborhood_graph
from lapspec.spectral import spectrum


def frac_weights(g):
    return [[Fraction(float(g.weights[i, j])) for j in range(g.n)] for i in range(g.n)]


def _degrees(w):
    return [sum(row) for row in w]


def oracle_cheeger(g) -> Fraction:
    """min over proper nonempty subsets of cut / min(vol, vol-complement)."""
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    total = sum(d)
    best = None
    for size in range(1, n):
        for subset in combinations(range(n), size):
            inside = set(subset)
            vol = sum(d[i] for i in inside)
            cut = sum(
                w[i][j] for i in inside for j in range(n) if j not in inside
            )
            val = Fraction(cut, 1) / min(vol, total - vol)
            if best is None or val < best:
                best = val
    return best


def oracle_dual_cheeger(g) -> Fraction:
    """max over labelings (V1, V2, rest) of 2 E(V1,V2) / (vol V1 + vol V2)."""
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    best = None
    for labels in product((0, 1, 2), repeat=n):
        v1 = [i for i in range(n) if labels[i] == 1]
        v2 = [i for i in range(n) if labels[i] == 2]
        if not v1 or not v2:
            continue
        cross = sum(w[i][j] for i in v1 for j in v2)
        vol12 = sum(d[i] for i in v1) + sum(d[i] for i in v2)
        val = Fraction(2) * cross / vol12
        if best is None or val > best:
            best = val
    return best


def oracle_balance_ratio(g) -> Fraction:
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    total = sum(d)
    best = None
    for size in range(1, n):
        for subset in combinations(range(n), size):
            vol = sum(d[i] for i in subset)
            val = Fraction(min(vol, total - vol), 1) / max(vol, total - vol)
            if best is None or val > best:
                best = val
    return best


def balance(g, p) -> float:
    """Volume ratio ``min/max`` of the two sides of a ``Bipartition`` of ``g``."""
    vol = g.subset_volume(p.side)
    other = g.volume - vol
    return min(vol, other) / max(vol, other)


def oracle_cheeger_witness(g) -> frozenset:
    """First minimizing subset in the library's code order.

    Subsets exclude vertex n - 1 and are ordered by the binary number whose
    bit i says vertex i is inside, from 1 to 2^(n-1) - 1.
    """
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    total = sum(d)
    best, witness = None, None
    for code in range(1, 2 ** (n - 1)):
        inside = {i for i in range(n - 1) if code >> i & 1}
        vol = sum(d[i] for i in inside)
        cut = sum(w[i][j] for i in inside for j in range(n) if j not in inside)
        val = Fraction(cut, 1) / min(vol, total - vol)
        if best is None or val < best:
            best, witness = val, frozenset(inside)
    return witness


def oracle_dual_cheeger_witness(g) -> tuple[frozenset, frozenset]:
    """First maximizing ``(V1, V2)`` in the library's code order.

    Labelings are ordered by the base-3 number whose digit i is vertex i's
    label (0 = V3, 1 = V1, 2 = V2), and only those whose first vertex
    outside V3 is in V1 count.
    """
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    best, witness = None, None
    for code in range(3**n):
        labels = [code // 3**i % 3 for i in range(n)]
        v1 = [i for i in range(n) if labels[i] == 1]
        v2 = [i for i in range(n) if labels[i] == 2]
        if not v1 or not v2 or min(v2) < min(v1):
            continue
        cross = sum(w[i][j] for i in v1 for j in v2)
        val = Fraction(2) * cross / (sum(d[i] for i in v1) + sum(d[i] for i in v2))
        if best is None or val > best:
            best, witness = val, (frozenset(v1), frozenset(v2))
    return witness


def _code_digits(codes, base, k):
    """Digit i of each code for i < k, by one shift or division per digit."""
    if base == 2:
        return codes[:, None] >> np.arange(k) & 1
    return codes[:, None] // base ** np.arange(k) % base


def oracle_cheeger_chunk_score(g):
    """``cheeger_exact``'s exact score of a chunk of codes, on fresh arrays.

    This and the two below are the chunk scores as written before they
    reused buffers: the same products and reductions at the same shapes,
    each into a newly allocated array, so they must give the same bits.
    """
    n = g.n
    d = g.degrees[: n - 1]
    w = g.weights[: n - 1, : n - 1]
    total = g.volume

    def neg_ratio(codes):
        memb = _code_digits(codes, 2, n - 1).astype(float)
        vol = memb @ d
        internal = ((memb @ w) * memb).sum(axis=1)
        boundary = vol - internal
        return -(boundary / np.minimum(vol, total - vol))

    return neg_ratio


def oracle_balance_chunk_score(g):
    """``balance_ratio_exact``'s exact score of a chunk of codes, on fresh arrays."""
    n = g.n
    d = g.degrees[: n - 1]
    total = g.volume

    def balance(codes):
        vol = _code_digits(codes, 2, n - 1).astype(float) @ d
        return np.minimum(vol, total - vol) / np.maximum(vol, total - vol)

    return balance


def oracle_dual_cheeger_chunk_score(g):
    """``dual_cheeger_exact``'s exact score of a chunk of codes, on fresh arrays."""
    n = g.n
    d = g.degrees
    w = g.weights

    def ratio(codes):
        digits = _code_digits(codes, 3, n)
        ind1 = (digits == 1).astype(float)
        ind2 = (digits == 2).astype(float)
        labeled = digits != 0
        first = digits[np.arange(len(digits)), np.argmax(labeled, axis=1)]
        # the first non-V3 label is 1 (so V1 is nonempty) and V2 is nonempty
        valid = (first == 1) & ind2.any(axis=1)
        cross = ((ind1 @ w) * ind2).sum(axis=1)
        vols = (ind1 + ind2) @ d
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(valid, 2.0 * cross / vols, -np.inf)

    return ratio


def oracle_scan_of_candidates(name, g, starts):
    """``(value, witness)`` of the enumerator ``name`` on g, chunks at ``starts`` scored in full.

    ``starts`` are the chunks that the enumerator's split pass on g scores again.
    Each chunk of ``_CHUNK`` codes is scored by the chunk-score oracle
    above, and the first largest value and its code are turned into the
    result as the enumerator does: h is ``min(-value, 1.0)``, hbar
    ``min(value, 1.0)``.
    """
    base, chunk_score = {
        "cheeger_exact": (2, oracle_cheeger_chunk_score),
        "balance_ratio_exact": (2, oracle_balance_chunk_score),
        "dual_cheeger_exact": (3, oracle_dual_cheeger_chunk_score),
    }[name]
    m = g.n - 1 if base == 2 else g.n
    score = chunk_score(g)
    best, code = -np.inf, -1
    for lo in starts:
        codes = np.arange(lo, min(lo + partitions._CHUNK, base**m), dtype=np.int64)
        vals = score(codes)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, code = float(vals[k]), int(codes[k])
    digits = _code_digits(np.array([code]), base, m)[0]
    if base == 3:
        v1, v2 = np.flatnonzero(digits == 1), np.flatnonzero(digits == 2)
        return min(best, 1.0), partitions.TriPartition.of(g, v1, v2)
    value = min(-best, 1.0) if name == "cheeger_exact" else best
    return value, Bipartition.of(g, np.flatnonzero(digits))


def oracle_neighborhood_weights(g, l):
    """W[l] = W (D^-1 W)^{l-1} in exact rational arithmetic."""
    w = frac_weights(g)
    n = g.n
    d = _degrees(w)
    walk = [[w[i][j] / d[i] for j in range(n)] for i in range(n)]
    acc = [row[:] for row in w]
    for _ in range(l - 1):
        acc = [
            [sum(acc[i][k] * walk[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return acc


def oracle_neighborhood_cheeger(g, l) -> Fraction:
    """Cheeger constant of Γ[l], tolerating the disconnected even-l case."""
    w_l = oracle_neighborhood_weights(g, l)
    n = g.n
    d = [sum(row) for row in w_l]
    total = sum(d)
    best = None
    for size in range(1, n):
        for subset in combinations(range(n), size):
            inside = set(subset)
            vol = sum(d[i] for i in inside)
            cut = sum(w_l[i][j] for i in inside for j in range(n) if j not in inside)
            val = Fraction(cut, 1) / min(vol, total - vol)
            if best is None or val < best:
                best = val
    return best


def oracle_neighborhood_dual_cheeger(g, l) -> Fraction:
    w_l = oracle_neighborhood_weights(g, l)
    n = g.n
    d = [sum(row) for row in w_l]
    best = None
    for labels in product((0, 1, 2), repeat=n):
        v1 = [i for i in range(n) if labels[i] == 1]
        v2 = [i for i in range(n) if labels[i] == 2]
        if not v1 or not v2:
            continue
        cross = sum(w_l[i][j] for i in v1 for j in v2)
        vol12 = sum(d[i] for i in v1) + sum(d[i] for i in v2)
        val = Fraction(2) * cross / vol12
        if best is None or val > best:
            best = val
    return best


def _edge_energy(g, u) -> float:
    return float((g.weights * (u[:, None] - u[None, :]) ** 2).sum())


def pair_spread_quotient(g, u) -> float:
    """``sum_i (1/d_i) sum_{j,k} w_ij w_ik (u(j)-u(k))^2`` over the edge energy."""
    num = 0.0
    for i in range(g.n):
        wi = g.weights[i]
        nz = np.nonzero(wi > 0)[0]
        pair = (u[nz][:, None] - u[nz][None, :]) ** 2
        num += float((wi[nz][:, None] * wi[nz][None, :] * pair).sum()) / g.degrees[i]
    return num / _edge_energy(g, u)


def mean_offset_quotient(g, u) -> float:
    """``2 sum_{i,k} w_ik ((1/d_i) sum_j w_ij (u(j)-u(k)))^2`` over the edge energy."""
    offset = ((g.weights @ u) / g.degrees)[:, None] - u[None, :]  # entry (i, k)
    return 2.0 * float((g.weights * offset**2).sum()) / _edge_energy(g, u)


def dense_eigenvalues(g):
    """Ascending eigenvalues of the normalized Laplacian of any graph.

    The symmetric solve of ``lapspec.spectrum``, which refuses a
    disconnected graph: an even-order Γ[l] of a bipartite graph is one.
    """
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    sym = -inv_sqrt[:, None] * g.weights * inv_sqrt[None, :]
    np.fill_diagonal(sym, 1.0 + np.diag(sym))
    return np.linalg.eigh(0.5 * (sym + sym.T))[0]


def identity_residual(g) -> float:
    """Largest gap between either quotient and ``2 - lambda`` over eigenpairs with lambda > 1e-9."""
    s = spectrum(g)
    pairs = [(lam, u) for lam, u in zip(s.eigenvalues, s.eigenfunctions) if lam > 1e-9]
    quotients = (pair_spread_quotient, mean_offset_quotient)
    return max((abs(q(g, u) - (2.0 - lam)) for lam, u in pairs for q in quotients), default=0.0)


def spectral_map_mismatch(g, l) -> float:
    """Largest gap between the sorted ``1 - (1 - lambda)^l`` of g and the spectrum of Γ[l].

    ``g`` must be connected; Γ[l] need not be.
    """
    base = spectrum(g).eigenvalues
    direct = dense_eigenvalues(neighborhood_graph(g, l))
    return float(np.abs(np.sort(1.0 - (1.0 - base) ** l) - direct).max())


def oracle_simulate_sync(g, map_spec, eps, t_steps, transient, tol, trials, base_seed=42):
    """The coupled-map simulation of ``cml.simulate_sync``, one trial at a time.

    Returns ``(synchronized, diverged, spread_trajectory, final_spreads)``.
    Trial k is seeded ``base_seed + k`` and stepped on its own with
    ``step_cml``; the first trial that diverges ends the run.
    """
    tail_start = t_steps - max(1, t_steps // 10)
    diverged = False
    all_synced = True
    worst_spread = -1.0
    worst_traj = ()
    final_spreads = []
    for trial in range(trials):
        rng = np.random.default_rng(base_seed + trial)
        s_sync = float(rng.uniform(0.1, 0.9))
        for _ in range(transient):
            s_sync = float(map_spec.f(s_sync))
        x = s_sync + rng.uniform(-PERTURBATION_RADIUS, PERTURBATION_RADIUS, size=g.n)
        x = np.clip(x, 0.0, 1.0)
        traj = []
        for _ in range(t_steps):
            x = step_cml(g, x, map_spec, eps)
            if not np.isfinite(x).all() or np.abs(x).max() > DIVERGENCE_GUARD:
                diverged = True
                break
            traj.append(float(x.max() - x.min()))
        if diverged:
            all_synced = False
            worst_traj = tuple(traj)
            final_spreads.append(math.inf)
            break
        tail = max(traj[tail_start:])
        final_spreads.append(tail)
        if tail >= tol:
            all_synced = False
        if tail > worst_spread:
            worst_spread = tail
            worst_traj = tuple(traj)
    return all_synced and not diverged, diverged, worst_traj, tuple(final_spreads)


def oracle_lyapunov_exponent(map_spec, s0, t_steps, transient):
    """``cml.lyapunov_exponent`` as one scalar loop over the orbit."""
    s = float(s0)
    for _ in range(transient):
        s = float(map_spec.f(s))
    acc = 0.0
    for _ in range(t_steps):
        acc += math.log(max(abs(float(map_spec.f_prime(s))), _LOG_FLOOR))
        s = float(map_spec.f(s))
    return acc / t_steps
