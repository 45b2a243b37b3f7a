"""Coupled map lattices on graphs and the spectral synchronization test.

Each vertex carries a copy of an interval map f; neighbors are coupled
diffusively with strength eps through the normalized Laplacian:

    x_i(t+1) = f(x_i(t)) + (eps/d_i) * sum_j w_ij (f(x_j(t)) - f(x_i(t)))

The synchronized state x_i = s(t) is asymptotically stable when eps lies in
the interval ((1-e^{-mu})/lambda_1, (1+e^{-mu})/lambda_max), with mu the
Lyapunov exponent of f on the synchronized orbit.  This module provides the
maps, the exponent estimate, the interval test, the spectral-ratio bracket
behind it, and a direct simulation check.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .graphs import WeightedGraph
from .spectral import Spectrum, spectrum

#: Initial conditions are drawn this close to the synchronized orbit.
PERTURBATION_RADIUS = 1e-3

#: Any unit state beyond this magnitude aborts a run as divergent.
DIVERGENCE_GUARD = 1e10

#: |f'| is floored here before taking logs in the Lyapunov average.
_LOG_FLOOR = 1e-300
#: Orbit points whose slopes ``lyapunov_exponent`` evaluates in one array.
_LYAPUNOV_BLOCK = 1 << 16


class MapSpec(NamedTuple):
    """An interval map together with its derivative.

    Both callables accept and return numpy arrays (or scalars).  ``f`` must
    act entrywise, as a function of the value alone: equal entries map to
    equal entries, and a scalar maps as the same value does inside an
    array.  ``simulate_sync`` steps exactly synchronized trials as scalars
    on the strength of this.  ``f`` must also be free of side effects and
    defined for every float, infinities and NaN included: ``simulate_sync``
    takes coupled steps in batches and discards the steps after a batch's
    first divergence or synchrony, so ``f`` sees states no output shows.
    Both shipped maps satisfy this.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_prime: Callable[[np.ndarray], np.ndarray]


def logistic_map(a: float) -> MapSpec:
    """``f(x) = a x (1-x)``; keeps [0,1] invariant for ``0 <= a <= 4``.

    At ``a = 4`` the map is chaotic with Lyapunov exponent exactly ln 2.
    """
    if not 0.0 <= a <= 4.0:
        raise ValueError(f"logistic parameter must lie in [0, 4], got {a!r}")
    return MapSpec(f=lambda x: a * x * (1.0 - x), f_prime=lambda x: a * (1.0 - 2.0 * x))


def tent_map(s: float) -> MapSpec:
    """``f(x) = s min(x, 1-x)``; for ``s = 2`` the exponent is exactly ln 2.

    The derivative at the kink ``x = 1/2`` is taken from the right.
    Keeps [0,1] invariant for ``0 <= s <= 2``.
    """
    if not 0.0 <= s <= 2.0:
        raise ValueError(f"tent parameter must lie in [0, 2], got {s!r}")
    return MapSpec(
        f=lambda x: s * np.minimum(x, 1.0 - x),
        f_prime=lambda x: np.where(np.asarray(x) < 0.5, s, -s),
    )


def lyapunov_exponent(
    map_spec: MapSpec, s0: float, t_steps: int, transient: int
) -> float:
    """Time average of ``ln |f'|`` along the orbit of ``s0``.

    The transient is discarded first; ``|f'|`` is floored at a tiny positive
    value so isolated critical points cannot poison the average.
    """
    if t_steps < 1:
        raise ValueError("t_steps must be >= 1")
    if transient < 0:
        raise ValueError("transient must be >= 0")
    s = float(s0)
    for _ in range(transient):
        s = float(map_spec.f(s))
    acc = 0.0
    # The orbit is stepped one point at a time; the slopes of a block of it
    # are one array call.  The logs are added one by one in orbit order, so
    # the result is bit-for-bit that of one loop over the orbit (``sum`` is
    # compensated from Python 3.12 on, ``np.sum`` pairwise).
    for left in range(t_steps, 0, -_LYAPUNOV_BLOCK):
        orbit = []
        for _ in range(min(left, _LYAPUNOV_BLOCK)):
            orbit.append(s)
            s = float(map_spec.f(s))
        xs = np.array(orbit)
        slopes = np.broadcast_to(np.asarray(map_spec.f_prime(xs), dtype=float), xs.shape)
        for term in map(math.log, np.maximum(np.abs(slopes), _LOG_FLOOR).tolist()):
            acc += term
    return acc / t_steps


def step_cml(g: WeightedGraph, x: np.ndarray, map_spec: MapSpec, eps: float) -> np.ndarray:
    """One step of the lattice, for one state ``(n,)`` or a stack ``(..., n)``.

    The coupling is computed from the pairwise differences
    ``f(x_j) - f(x_i)``, so an exactly synchronized state produces coupling
    terms that are exactly zero and stays bit-identical across units.
    """
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and >= 0")
    return _step(g, map_spec.f, eps, np.asarray(x, dtype=float), None)


def _step(g: WeightedGraph, f, eps: float, x: np.ndarray, out, diff=None) -> np.ndarray:
    """``step_cml`` on a float state, unchecked, into ``out`` (a new array if None).

    ``out`` may be ``x`` itself: it is written last, from ``f(x)`` and the
    coupling.  ``diff``, of shape ``x.shape + (n,)``, holds the pairwise
    differences and then their weighted terms (a new array if None).
    """
    fx = np.asarray(f(x), dtype=float)
    diff = np.subtract(fx[..., None, :], fx[..., :, None], out=diff)
    coupling = np.multiply(g.weights, diff, out=diff).sum(axis=-1) / g.degrees
    return np.add(fx, eps * coupling, out=out)


class SyncInterval(NamedTuple):
    """The coupling range guaranteeing stability of the synchronized state.

    ``(lo, hi) = ((1-e^-mu)/lambda_1, (1+e^-mu)/lambda_max)``; nonempty
    exactly when the spectral ratio clears ``(e^mu+1)/(e^mu-1)`` (for
    expanding maps, mu > 0; for contracting maps the interval always
    exists).
    """

    mu: float
    lo: float
    hi: float
    ratio: float
    ratio_threshold: float

    @property
    def nonempty(self) -> bool:
        return self.lo < self.hi

    @property
    def ratio_condition(self) -> bool:
        if self.mu > 0:
            return self.ratio < self.ratio_threshold
        if self.mu < 0:
            return self.ratio > self.ratio_threshold
        return True

    def contains(self, eps: float) -> bool:
        return self.lo < eps < self.hi


def sync_interval(mu: float, lambda_1: float, lambda_max: float) -> SyncInterval:
    if lambda_1 <= 0:
        raise ValueError("lambda_1 must be positive (connected graph)")
    if mu == 0.0:
        threshold = math.inf
    else:
        # expm1 keeps the denominator nonzero for tiny mu, where exp(mu)
        # rounds to 1.0 exactly
        threshold = (math.exp(mu) + 1.0) / math.expm1(mu)
    return SyncInterval(
        mu=mu,
        lo=-math.expm1(-mu) / lambda_1,
        hi=(1.0 + math.exp(-mu)) / lambda_max,
        ratio=lambda_max / lambda_1,
        ratio_threshold=threshold,
    )


def transverse_stability_factor(s: Spectrum, eps: float, mu: float) -> float:
    """``max_{k>=1} |1 - eps lambda_k| e^mu``; < 1 means linearly stable."""
    try:
        with np.errstate(over="raise"):
            return float(np.abs(1.0 - eps * s.eigenvalues[1:]).max() * math.exp(mu))
    except FloatingPointError:
        raise ValueError(f"eps * lambda overflows for eps = {eps!r}") from None


class RatioBounds(NamedTuple):
    """Isoperimetric bracket for the spectral ratio ``lambda_max/lambda_1``.

    ``lower = hbar/h``.  The upper bound divides the best transferred upper
    bound for ``lambda_max`` (even l via the Cheeger constant of the
    neighborhood graph, odd l via its dual) by the best transferred lower
    bound for ``lambda_1``.
    """

    lower: float
    upper: float
    h: float
    hbar: float
    upper_candidates: dict[int, float]
    lower_candidates: dict[int, float]


def ratio_bounds(g: WeightedGraph) -> RatioBounds:
    # imported here: ``lapspec cml`` simulates and needs no enumerator or bound
    from .bounds import _constants, neighborhood_dual_upper_from, neighborhood_sandwich_from
    from .partitions import cheeger_exact, dual_cheeger_exact, require_exact_constants

    require_exact_constants(g)  # h = 0 on a disconnected graph; as in ``lapspec constants``
    const = _constants(g)  # no cap refuses g past the check above
    h = const(cheeger_exact, 1).value
    hbar = const(dual_cheeger_exact, 1).value
    uppers: dict[int, float] = {}
    lowers: dict[int, float] = {}
    for l in (1, 2, 3):
        sandwich = neighborhood_sandwich_from(l, const(cheeger_exact, l).value)
        lowers[l] = sandwich.lower
        if l % 2 == 0:
            uppers[l] = sandwich.upper
        else:
            uppers[l] = neighborhood_dual_upper_from(l, const(dual_cheeger_exact, l).value).upper
    best_lower = max(lowers.values())
    if best_lower <= 0:
        raise ValueError("no positive lower bound for lambda_1 at l = 1, 2, 3")
    return RatioBounds(
        lower=hbar / h,
        upper=min(uppers.values()) / best_lower,
        h=h,
        hbar=hbar,
        upper_candidates=uppers,
        lower_candidates=lowers,
    )


class SyncReport(NamedTuple):
    """Outcome of the interval test plus a direct simulation.

    ``synchronized`` means every trial kept the pairwise spread below the
    tolerance throughout the final tenth of the run; ``spread_trajectory``
    belongs to the worst trial.  ``guaranteed`` reports the analytic side:
    eps strictly inside the interval with a stable linear factor.  Outside
    the interval nothing is guaranteed either way - a failed simulation
    there is evidence, not a contradiction.
    """

    mu: float
    eps: float
    interval: SyncInterval
    stability_factor: float
    synchronized: bool
    diverged: bool
    spread_trajectory: tuple[float, ...]
    final_spreads: tuple[float, ...]

    @property
    def guaranteed(self) -> bool:
        return self.interval.contains(self.eps) and self.stability_factor < 1.0

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "eps": self.eps,
            "interval": {
                "lo": self.interval.lo,
                "hi": self.interval.hi,
                "nonempty": self.interval.nonempty,
                "ratio": self.interval.ratio,
                "ratio_threshold": self.interval.ratio_threshold,
            },
            "stability_factor": self.stability_factor,
            "guaranteed": self.guaranteed,
            "synchronized": self.synchronized,
            "diverged": self.diverged,
            "final_spreads": list(self.final_spreads),
        }


def spread_to_csv(report: SyncReport) -> str:
    lines = ["t,max_spread"]
    for t, v in enumerate(report.spread_trajectory):
        lines.append(f"{t},{v!r}")
    return "\n".join(lines) + "\n"


#: Longest run accepted, in steps with the transient included: each coupled
#: step costs about 6-7 us of fixed overhead on a 2-vCPU host (K3 with one
#: trial, K5 with five, in batches of ``_CML_BATCH``), so about 7 s.  Trials
#: that synchronize exactly step far faster from then on, but the cap stays:
#: a run that never does pays the full per-step cost.
MAX_CML_STEPS = 10**6

#: Largest ``(transient + t_steps) * trials * (n**2 + 64)`` accepted.  A
#: trial's row costs about as much as 64 more matrix entries (its share of
#: the per-step calls); at 1.5-2 ns per entry on a 2-vCPU host (K100 and
#: K300, five trials) this is 3-4 s, and it keeps the ``(t_steps, trials)``
#: spread array under 240 MB.  It counts every step as coupled, for the same
#: reason as ``MAX_CML_STEPS``.
MAX_CML_WORK = 2 * 10**9

#: Most matrix entries one coupled step of ``simulate_sync`` sees.  A step
#: holds two ``(rows, n, n)`` temporaries, so the trials are stepped in
#: blocks of ``_CML_BLOCK_ENTRIES // n**2`` rows, at least one: each
#: temporary stays under 32 MB, whatever ``MAX_CML_WORK`` admits, unless a
#: single row (n above 2048) is larger.
_CML_BLOCK_ENTRIES = 1 << 22

#: Most coupled steps ``simulate_sync`` takes before it tests them.  A batch
#: of 32 saves most of the per-step reductions and wastes little on the
#: steps after a run synchronizes, which are discarded.  Its buffer
#: ``(batch, trials, n)`` holds at most ``_CML_BLOCK_ENTRIES`` entries, or
#: one state when a state alone is larger.
_CML_BATCH = 32

#: Orbit length used when estimating the exponent inside simulate_sync.
_MU_STEPS = 50_000
_MU_TRANSIENT = 1_000


def _first_divergence(
    map_spec: MapSpec, values: list[float], start: int, t_steps: int
) -> tuple[int, int] | None:
    """First ``(trial, step)`` at which an exactly synchronized trial diverges.

    Trial k is the scalar orbit of ``values[k]`` stepped from ``start``.
    Trials never interact, so the first diverging trial in trial order ends
    the run whenever later trials diverge; the orbits after it are never
    needed.  ``None`` if no trial diverges before ``t_steps``.
    """
    f = map_spec.f
    for k, s in enumerate(values):
        for t in range(start, t_steps):
            s = float(f(s))
            if not abs(s) <= DIVERGENCE_GUARD:
                return k, t
    return None


def simulate_sync(
    g: WeightedGraph,
    map_spec: MapSpec,
    eps: float,
    t_steps: int,
    transient: int,
    tol: float,
    trials: int,
    *,
    base_seed: int = 42,
    mu: float | None = None,
) -> SyncReport:
    """Run perturbed-synchronized initial conditions and test for synchrony.

    Each trial starts from a point of the synchronized orbit perturbed by
    at most ``PERTURBATION_RADIUS`` per unit (the stability statement is
    local, so arbitrary initial data would test something else).  Trials
    are seeded ``base_seed + trial`` for reproducibility.  ``mu`` may be
    passed to skip the internal exponent estimate.

    Once a step leaves every live trial exactly synchronized (spread 0.0),
    the coupled steps stop.  A step builds the coupling from the
    differences ``f(x_j) - f(x_i)``, each +0.0 between equal entries; with
    finite nonnegative weights and a finite eps the coupling is exactly
    zero, so the step is ``f`` of the common value, up to the sign of a
    zero state, which no output shows.  From then on each trial's common
    value is stepped by ``f`` alone and its spreads are 0.0.  Divergence is
    still tested at every step, since a synchronized orbit can diverge.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be >= 0")
    if t_steps < 10:
        raise ValueError("t_steps must be >= 10")
    if transient < 0:
        raise ValueError("transient must be >= 0")
    if transient + t_steps > MAX_CML_STEPS:
        raise ValueError(f"transient + t_steps must be <= {MAX_CML_STEPS}")
    work = (transient + t_steps) * trials * (g.n**2 + 64)
    if work > MAX_CML_WORK:
        raise ValueError(
            f"(transient + t_steps) * trials * (n^2 + 64) must be <= {MAX_CML_WORK:.0e}, "
            f"got {work:.1e}"
        )
    if g.n < 2:
        raise ValueError("synchronization needs at least two vertices")
    s = spectrum(g)
    if mu is None:
        mu = lyapunov_exponent(map_spec, 0.2357111317, _MU_STEPS, _MU_TRANSIENT)
    interval = sync_interval(mu, s.lambda_1, s.lambda_max)
    factor = transverse_stability_factor(s, eps, mu)

    rngs = [np.random.default_rng(base_seed + trial) for trial in range(trials)]
    s_sync = np.array([rng.uniform(0.1, 0.9) for rng in rngs])
    for _ in range(transient):
        s_sync = map_spec.f(s_sync)
    noise = [rng.uniform(-PERTURBATION_RADIUS, PERTURBATION_RADIUS, size=g.n) for rng in rngs]
    # Perturbed states must still be states: the maps live on [0, 1],
    # and a perturbation past the boundary would not test stability of
    # the synchronized orbit but escape of the map itself.
    x = np.clip(s_sync[:, None] + noise, 0.0, 1.0)
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and >= 0")
    # Row k of x is trial k.  The first diverging trial ends the run, so it
    # and every later trial stop there; earlier trials keep running, since
    # one of them may still diverge and so become the first.  Rows are
    # stepped independently, so stepping them in blocks keeps their bits.
    # The steps go into ``states`` a batch at a time, and one max and one
    # min over the batch give every step's divergence test and spreads.
    # The steps after the batch's first event (a trial out of the guard, or
    # every spread 0.0) are discarded; a divergence is stepped again alone,
    # outside ``errstate``, so that it warns as a step on its own does.  x
    # is a copy, never a view of ``states``: the next batch overwrites
    # ``states`` before it may have to step again from x.
    f = map_spec.f
    spreads = np.empty((t_steps, trials))
    live, stop = trials, t_steps
    block = max(1, _CML_BLOCK_ENTRIES // g.n**2)
    batch = max(1, min(_CML_BATCH, _CML_BLOCK_ENTRIES // (trials * g.n)))
    states = np.empty((batch, trials, g.n))
    # the terms of a block, held for the run: a step allocates no (rows, n, n) array
    scratch = np.empty((min(trials, block), g.n, g.n))
    t, alone = 0, False
    while t < t_steps:
        run = states[: 1 if alone else min(batch, t_steps - t), :live]
        with np.errstate(all="ignore") if len(run) > 1 else contextlib.nullcontext():
            src = x
            for dst in run:
                for i in range(0, live, block):
                    part = dst[i : i + block]
                    _step(g, f, eps, src[i : i + block], part, scratch[: len(part)])
                src = dst
        hi, lo = run.max(axis=2), run.min(axis=2)
        inside = (hi <= DIVERGENCE_GUARD) & (lo >= -DIVERGENCE_GUARD)  # NaN is outside
        rows = spreads[t : t + len(run), :live]
        np.subtract(hi, lo, out=rows)  # np.ptp, bit for bit
        events = np.flatnonzero(~inside.all(axis=1) | ~rows.any(axis=1))
        if not len(events):
            x, t, alone = run[-1].copy(), t + len(run), False
            continue
        e = int(events[0])
        if not inside[e].all():
            if len(run) > 1:
                x, t, alone = (run[e - 1].copy() if e else x), t + e, True
                continue
            live, stop = int(inside[0].argmin()), t
            if live == 0:
                break
        x, t, alone = run[e, :live].copy(), t + e + 1, False
        if not spreads[t - 1, :live].any():
            # every live trial is exactly synchronized: no more coupling
            spreads[t:] = 0.0
            first = _first_divergence(map_spec, x[:, 0].tolist(), t, t_steps)
            if first is not None:
                live, stop = first
            break
    tails = spreads[t_steps - max(1, t_steps // 10) :, :live].max(axis=0)
    diverged = live < trials
    worst = live if diverged else int(tails.argmax())  # first maximum
    return SyncReport(
        mu=mu,
        eps=eps,
        interval=interval,
        stability_factor=factor,
        synchronized=not diverged and bool((tails < tol).all()),
        diverged=diverged,
        spread_trajectory=tuple(spreads[:stop, worst].tolist()),
        final_spreads=(*tails.tolist(), math.inf) if diverged else tuple(tails.tolist()),
    )
