import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec.cml import (
    DIVERGENCE_GUARD,
    PERTURBATION_RADIUS,
    MapSpec,
    logistic_map,
    lyapunov_exponent,
    ratio_bounds,
    simulate_sync,
    spread_to_csv,
    step_cml,
    sync_interval,
    tent_map,
    transverse_stability_factor,
)
from lapspec.graphs import (
    GraphError,
    GraphErrorKind,
    WeightedGraph,
    complete_graph,
    cycle_graph,
    looped_pair,
)
from lapspec.spectral import spectrum
from lapspec import cml
from oracles import oracle_lyapunov_exponent, oracle_simulate_sync

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# map specs


def test_logistic_values():
    m = logistic_map(4.0)
    assert m.f(0.5) == 1.0
    assert m.f(0.3) == pytest.approx(0.84)
    assert m.f_prime(0.0) == 4.0


def test_tent_values():
    m = tent_map(2.0)
    assert m.f(0.25) == 0.5
    assert m.f(0.75) == 0.5
    assert float(m.f_prime(0.2)) == 2.0
    # kink derivative comes from the right
    assert float(m.f_prime(0.5)) == -2.0


@pytest.mark.parametrize(
    "make, value",
    [(logistic_map, -1e-9), (logistic_map, 4.000001), (logistic_map, math.nan),
     (tent_map, -5.0), (tent_map, 2.000001), (tent_map, math.inf)],
)
def test_map_parameter_outside_invariant_range_rejected(make, value):
    with pytest.raises(ValueError):
        make(value)
    make(0.0)


def _derivative_mismatch(m: MapSpec, xs: np.ndarray) -> float:
    """Largest gap between ``f_prime`` and a central difference of ``f`` with step 1e-6."""
    fd = (m.f(xs + 1e-6) - m.f(xs - 1e-6)) / 2e-6
    return float(np.abs(fd - m.f_prime(xs)).max())


def test_derivative_consistency():
    xs = np.linspace(0.05, 0.95, 37)
    assert _derivative_mismatch(logistic_map(3.7), xs) < 1e-6
    away_from_kink = xs[np.abs(xs - 0.5) > 0.01]
    assert _derivative_mismatch(tent_map(2.0), away_from_kink) < 1e-6


# ---------------------------------------------------------------------------
# Lyapunov exponents


def test_tent_exponent_is_exact():
    # |f'| = 2 everywhere, so the average needs no orbit statistics
    assert lyapunov_exponent(tent_map(2.0), 0.3123, 500, 50) == pytest.approx(
        LN2, abs=1e-12
    )


def test_logistic_exponent_near_ln2():
    mu = lyapunov_exponent(logistic_map(4.0), 0.2357111317, 30_000, 1_000)
    assert abs(mu - LN2) < 0.03


@pytest.mark.parametrize(
    "spec, exact, tol",
    [
        (tent_map(1.5), math.log(1.5), 1e-12),
        (tent_map(2.0), LN2, 1e-12),
        # the estimate read 0.69317923, an error of 3.2e-5
        (logistic_map(4.0), LN2, 1e-4),
    ],
    ids=["tent-1.5", "tent-2", "logistic-4"],
)
def test_simulation_exponent_estimate_against_closed_form(spec, exact, tol):
    # the orbit ``simulate_sync`` takes mu from, as ``lapspec cml`` runs it
    mu = lyapunov_exponent(spec, 0.2357111317, cml._MU_STEPS, cml._MU_TRANSIENT)
    assert abs(mu - exact) < tol


def test_contracting_exponent():
    # constant slope 1/2 keeps the orbit inside [1/4, 3/4]
    m = MapSpec(f=lambda x: 0.5 * x + 0.25, f_prime=lambda x: 0.5)
    assert lyapunov_exponent(m, 0.4, 200, 10) == pytest.approx(-LN2, abs=1e-12)


@pytest.mark.parametrize("block", [7, cml._LYAPUNOV_BLOCK])
def test_exponent_bit_identical_to_scalar_loop(monkeypatch, block):
    monkeypatch.setattr(cml, "_LYAPUNOV_BLOCK", block)
    rng = np.random.default_rng(20261018)
    maps = [logistic_map(a) for a in (2.5, 3.2, 3.57, 3.9, 4.0)]
    maps += [tent_map(s) for s in (0.7, 1.5, 1.9, 2.0)]
    # a flat piece, so some slopes are floored
    maps.append(MapSpec(f=lambda x: np.minimum(3.0 * x, 0.9),
                        f_prime=lambda x: np.where(np.asarray(x) < 0.3, 3.0, 0.0)))
    # a derivative that returns a scalar even for an array
    maps.append(MapSpec(f=lambda x: 0.5 * x + 0.25, f_prime=lambda x: 0.5))
    for m in maps:
        for s0 in (0.5, *rng.uniform(0.0, 1.0, 3)):
            t_steps, transient = int(rng.integers(1, 300)), int(rng.integers(0, 30))
            got = lyapunov_exponent(m, s0, t_steps, transient)
            assert got.hex() == oracle_lyapunov_exponent(m, s0, t_steps, transient).hex()
    # across the real block boundary
    m = logistic_map(4.0)
    assert lyapunov_exponent(m, 0.2357111317, 70_001, 3).hex() == (
        oracle_lyapunov_exponent(m, 0.2357111317, 70_001, 3).hex()
    )


def test_exponent_validation():
    with pytest.raises(ValueError):
        lyapunov_exponent(tent_map(2.0), 0.3, 0, 0)
    with pytest.raises(ValueError):
        lyapunov_exponent(tent_map(2.0), 0.3, 10, -1)


# ---------------------------------------------------------------------------
# lattice stepping


def test_synchronized_state_stays_bit_identical():
    g = looped_pair(1.5)
    m = logistic_map(4.0)
    x = np.full(2, 0.3123)
    for _ in range(50):
        x = step_cml(g, x, m, 0.7)
        assert x[0] == x[1]  # exact equality, not closeness
    assert np.isfinite(x).all()


def test_uncoupled_step_is_plain_map():
    g = complete_graph(4)
    m = logistic_map(3.9)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(step_cml(g, x, m, 0.0), m.f(x))


def test_full_coupling_swaps_pair():
    # identity map on K_2 with eps = 1 exchanges the two unit states
    ident = MapSpec(f=lambda x: x, f_prime=lambda x: 1.0)
    g = complete_graph(2)
    x = np.array([0.2, 0.7])
    np.testing.assert_allclose(step_cml(g, x, ident, 1.0), [0.7, 0.2], atol=1e-15)


def test_negative_coupling_rejected():
    with pytest.raises(ValueError):
        step_cml(complete_graph(2), np.array([0.1, 0.2]), tent_map(2.0), -0.1)


# ---------------------------------------------------------------------------
# the stability interval


def test_k5_interval_endpoints():
    s = spectrum(complete_graph(5))
    iv = sync_interval(LN2, s.lambda_1, s.lambda_max)
    assert iv.lo == pytest.approx(0.4, abs=1e-12)
    assert iv.hi == pytest.approx(1.2, abs=1e-12)
    assert iv.nonempty and iv.ratio_condition
    assert iv.contains(0.8)
    assert not iv.contains(0.3)
    assert not iv.contains(1.3)


def test_zero_exponent_threshold_is_infinite():
    iv = sync_interval(0.0, 1.0, 2.0)
    assert iv.ratio_threshold == math.inf
    assert iv.ratio_condition
    assert iv.lo == 0.0


def test_interval_requires_positive_gap():
    with pytest.raises(ValueError):
        sync_interval(LN2, 0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_nonempty_iff_ratio_condition(mu, lam1, frac):
    lam_max = lam1 + frac * (2.0 - lam1)
    iv = sync_interval(mu, lam1, lam_max)
    if abs(iv.lo - iv.hi) < 1e-12:
        return  # borderline: the two statements may disagree by rounding
    assert iv.nonempty == iv.ratio_condition


def test_stability_factor_k5():
    s = spectrum(complete_graph(5))
    assert transverse_stability_factor(s, 0.8, LN2) == pytest.approx(0.0, abs=1e-12)
    assert transverse_stability_factor(s, 0.05, LN2) > 1.0


# ---------------------------------------------------------------------------
# spectral-ratio brackets


def test_ratio_bounds_k4_exact_lower():
    rb = ratio_bounds(complete_graph(4))
    assert rb.lower == 1.0  # hbar = h = 2/3 exactly
    assert rb.upper >= 1.0


def test_ratio_bounds_bracket(fixtures):
    for name, g in fixtures.items():
        if g.n > 7:
            continue
        s = spectrum(g)
        ratio = s.lambda_max / s.lambda_1
        rb = ratio_bounds(g)
        assert rb.lower <= ratio + 1e-9, name
        assert ratio <= rb.upper + 1e-9, name
        assert set(rb.upper_candidates) == {1, 2, 3}


def test_ratio_bounds_refuses_a_disconnected_graph():
    # h = 0 there: the bracket's lower bounds for lambda_1 vanish and hbar / h is undefined
    g = WeightedGraph(n=6, weights=np.kron(np.eye(2), complete_graph(3).weights))
    with pytest.raises(GraphError) as exc:
        ratio_bounds(g)
    assert exc.value.kind is GraphErrorKind.DISCONNECTED


def test_ratio_bounds_compute_each_constant_once(monkeypatch):
    import lapspec.bounds
    import lapspec.cml
    import lapspec.neighborhood
    import lapspec.partitions
    from lapspec.neighborhood import neighborhood_graph
    from lapspec.partitions import cheeger_exact, dual_cheeger_exact

    originals = {
        fn.__name__: fn for fn in (neighborhood_graph, cheeger_exact, dual_cheeger_exact)
    }
    calls = dict.fromkeys(originals, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    # ratio_bounds imports its enumerators when called, so they are counted
    # through the bindings of their defining modules
    for mod in (lapspec.bounds, lapspec.cml, lapspec.neighborhood, lapspec.partitions):
        for attr, value in list(vars(mod).items()):
            for name, fn in originals.items():
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting(name))
    ratio_bounds(complete_graph(6))
    # h and hbar of g serve l = 1; h of Gamma[2] and Gamma[3], hbar of Gamma[3]
    assert calls == {"neighborhood_graph": 2, "cheeger_exact": 3, "dual_cheeger_exact": 2}


# ---------------------------------------------------------------------------
# direct simulation


def test_simulation_synchronizes_inside_interval():
    rep = simulate_sync(
        complete_graph(5),
        logistic_map(4.0),
        eps=0.8,
        t_steps=200,
        transient=50,
        tol=1e-6,
        trials=2,
        mu=LN2,
    )
    assert rep.guaranteed
    assert rep.synchronized
    assert not rep.diverged
    assert max(rep.final_spreads) == 0.0  # pairwise-difference coupling collapses exactly
    assert len(rep.spread_trajectory) == 200


def test_simulation_fails_outside_interval():
    rep = simulate_sync(
        complete_graph(5),
        logistic_map(4.0),
        eps=0.05,
        t_steps=300,
        transient=50,
        tol=1e-6,
        trials=2,
        mu=LN2,
    )
    assert not rep.guaranteed
    assert not rep.synchronized
    assert rep.stability_factor > 1.0


def test_simulation_is_reproducible():
    kw = dict(eps=0.5, t_steps=120, transient=20, tol=1e-6, trials=3, mu=LN2)
    a = simulate_sync(cycle_graph(5), tent_map(2.0), **kw)
    b = simulate_sync(cycle_graph(5), tent_map(2.0), **kw)
    assert a.final_spreads == b.final_spreads
    assert a.spread_trajectory == b.spread_trajectory


# Each case is the arguments of _assert_matches_per_trial_loop.
_CASES = {
    # every tail is exactly 0.0, so the worst trajectory is the first
    # maximum's; the trials are exactly synchronized at step 23
    "synchronized": (complete_graph(5), logistic_map(4.0), 0.9, 5, False, 5, 200),
    "not-synchronized": (complete_graph(5), logistic_map(4.0), 0.05, 3, False, 3, 200),
    # trial 0 diverges at step 17
    "trial-0-diverges": (complete_graph(5), logistic_map(4.0), 1.5, 3, True, 1, 17),
    "trial-1-diverges": (cycle_graph(5), logistic_map(4.0), 1.05, 3, True, 2, 73),
    # trial 4 diverges at step 68, then trial 1 at step 88
    "earlier-trial-diverges-later": (complete_graph(3), tent_map(2.0), 1.2, 5, True, 2, 88),
    # every state starts clipped to 1.0, so all trials are exactly
    # synchronized after step 0 and each reaches 2^34 at step 33
    "synchronized-then-diverges": (
        complete_graph(4), MapSpec(f=lambda x: 2.0 * x, f_prime=lambda x: 2.0), 0.75, 5,
        True, 1, 33,
    ),
    # trials 0, 2, 3 and 4 are exactly synchronized from steps 182, 189,
    # 190 and 172 on; trial 1 never is
    "partly-synchronized": (complete_graph(3), logistic_map(4.0), 0.95, 5, False, 5, 200),
    "k12-synchronized": (complete_graph(12), logistic_map(4.0), 0.9, 5, False, 5, 200),
    # 2x^2 with no transient from starts near 0.31, 0.17 and 0.85 (base
    # seed 2): trial 2 diverges at step 5, and trials 0 and 1, which run
    # on, are exactly synchronized at 0.0 from step 10 on
    "diverges-then-synchronized": (
        complete_graph(3), MapSpec(f=lambda x: 2.0 * x * x, f_prime=lambda x: 4.0 * x), 0.05,
        3, True, 3, 5, 200, 0, 2,
    ),
}
_BATCH_CASES = pytest.mark.parametrize("case", list(_CASES.values()), ids=list(_CASES))


def _assert_matches_per_trial_loop(g, m, eps, trials, diverged, n_final, n_traj,
                                   t_steps=200, transient=20, base_seed=42):
    rep = simulate_sync(g, m, eps, t_steps, transient, 1e-6, trials, base_seed=base_seed, mu=0.5)
    ref = oracle_simulate_sync(g, m, eps, t_steps, transient, 1e-6, trials, base_seed)
    assert (rep.synchronized, rep.diverged) == ref[:2]
    assert [v.hex() for v in rep.spread_trajectory] == [v.hex() for v in ref[2]]
    assert [v.hex() for v in rep.final_spreads] == [v.hex() for v in ref[3]]
    assert (rep.diverged, len(rep.final_spreads), len(rep.spread_trajectory)) == (
        diverged, n_final, n_traj
    )


_STEP = cml._step


def _record_steps(monkeypatch, record):
    """Make every coupled step of ``simulate_sync`` call ``record(x, out)`` after it."""

    def recording(g, f, eps, x, out, diff=None):
        result = _STEP(g, f, eps, x, out, diff)
        if out is not None:  # not a step of step_cml, which the oracle calls
            record(x, out)
        return result

    monkeypatch.setattr(cml, "_step", recording)


@_BATCH_CASES
def test_batched_simulation_matches_per_trial_loop(case):
    _assert_matches_per_trial_loop(*case)


@_BATCH_CASES
@pytest.mark.parametrize("batch", [1, 2, 3, 5])
def test_every_batch_size_matches_per_trial_loop(monkeypatch, case, batch):
    # The default batch is test_batched_simulation_matches_per_trial_loop's.
    monkeypatch.setattr(cml, "_CML_BATCH", batch)
    _assert_matches_per_trial_loop(*case)


@pytest.mark.parametrize(
    "name, batch, coupled",
    [
        # the step of the event, then the steps the batch discards after it
        ("synchronized", 23, 23 + 23),  # step 23 opens the second batch
        ("synchronized", 8, 24),  # and closes the third
        # step 17 opens the second batch, and is stepped again on its own
        ("trial-0-diverges", 17, 17 + 17 + 1),
        ("trial-0-diverges", 6, 18 + 1),  # and closes the third
    ],
)
def test_events_on_the_edges_of_a_batch(monkeypatch, name, batch, coupled):
    steps = []
    _record_steps(monkeypatch, lambda x, out: steps.append(out))
    monkeypatch.setattr(cml, "_CML_BATCH", batch)
    _assert_matches_per_trial_loop(*_CASES[name])
    assert len(steps) == coupled


def test_divergence_and_synchrony_in_different_batches(monkeypatch):
    # Trial 2 diverges at step 5, inside the first batch of 32 steps.  Step
    # 5 is stepped again on its own, and the two trials left are exactly
    # synchronized at step 10, in the next batch, which runs to step 37.
    rows = []
    _record_steps(monkeypatch, lambda x, out: rows.append(len(x)))
    _assert_matches_per_trial_loop(*_CASES["diverges-then-synchronized"])
    assert rows == [3] * 32 + [3] + [2] * 32


def test_diverging_step_warns_as_a_step_on_its_own(monkeypatch):
    # 2x below 100, where exp overflows: the first step out of the guard is
    # step 8, from about 170 to inf.  The batch holding it steps it again
    # outside errstate, so it warns as a batch of one does.
    m = MapSpec(f=lambda x: 2.0 * x * np.exp(1000.0 * np.maximum(x - 100.0, 0.0)),
                f_prime=lambda x: 2.0)

    def messages(batch):
        monkeypatch.setattr(cml, "_CML_BATCH", batch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = simulate_sync(complete_graph(4), m, 0.5, 50, 0, 1e-6, 2, mu=0.5)
        assert rep.diverged and len(rep.spread_trajectory) == 8
        return [(w.category, str(w.message)) for w in caught]

    alone = messages(1)
    assert alone and {category for category, _ in alone} == {RuntimeWarning}
    assert messages(32) == alone


@pytest.mark.parametrize("trials, n", [(5, 5), (1, 12), (3, 40)])
@pytest.mark.parametrize("cap", [59, 60, 200, 1 << 16])
def test_batch_buffer_holds_at_most_the_cap(monkeypatch, trials, n, cap):
    # A batch holds cap // (trials * n) states, at most _CML_BATCH and at
    # least one, when a single state is larger than the cap: the block
    # bound _CML_BLOCK_ENTRIES bounds the batch buffer too.
    sizes = set()
    _record_steps(monkeypatch, lambda x, out: sizes.add(out.base.size))
    monkeypatch.setattr(cml, "_CML_BLOCK_ENTRIES", cap)
    simulate_sync(complete_graph(n), logistic_map(4.0), 0.05, 100, 0, 1e-6, trials, mu=LN2)
    state = trials * n
    batch = max(1, min(cml._CML_BATCH, cap // state))
    assert sizes == {batch * state}
    assert batch * state <= cap or batch == 1


@_BATCH_CASES
def test_blocked_steps_match_per_trial_loop(monkeypatch, case):
    # Blocks of two rows: three blocks of five trials, two of three, and
    # blocks that shrink as trials diverge.  The oracle steps one row at a
    # time, and no step may see more entries than the patched bound.
    entries = []
    g = case[0]
    _record_steps(monkeypatch, lambda x, out: entries.append(x.size * g.n))
    monkeypatch.setattr(cml, "_CML_BLOCK_ENTRIES", 2 * g.n**2 + 1)
    _assert_matches_per_trial_loop(*case)
    assert max(entries) == 2 * g.n**2


def test_synchronized_trials_diverge_in_trial_order():
    # 1.2 x on K4 at eps 0.75: every trial is exactly synchronized after
    # step 0 and grows by 1.2 per step from there.  Trial 3 diverges at step
    # 128 and trial 2 at step 130; trials 0 and 1 outlast the run.  So the
    # later trial diverges first, and the earlier one ends the run.
    m = MapSpec(f=lambda x: 1.2 * x, f_prime=lambda x: 1.2)
    _assert_matches_per_trial_loop(complete_graph(4), m, 0.75, 4, True, 3, 130,
                                   t_steps=131, transient=0, base_seed=24)


def _k5_coupled_spreads(monkeypatch, batch):
    """The spreads of every coupled step of the benchmark's K5 run, in batches of ``batch``."""
    spreads = []

    def record(x, out):
        assert x.shape == (5, 5)
        spreads.append(np.ptp(out, axis=1))

    _record_steps(monkeypatch, record)
    monkeypatch.setattr(cml, "_CML_BATCH", batch)
    rep = simulate_sync(complete_graph(5), logistic_map(4.0), 0.9, 5000, 100, 1e-6, trials=5,
                        mu=LN2)
    assert rep.synchronized
    return spreads


def test_simulation_steps_all_trials_together(monkeypatch):
    # The benchmark's K5 run, one step per batch.  Each coupled step sees
    # all five trials, and the coupled steps stop after the first one that
    # leaves every trial exactly synchronized: f alone steps the common
    # values from there on.
    spreads = _k5_coupled_spreads(monkeypatch, 1)
    assert all(row.any() for row in spreads[:-1])
    assert not spreads[-1].any()
    assert len(spreads) == 25


def test_default_batch_stops_with_the_batch_of_synchrony(monkeypatch):
    # The same run in batches of 32: the first 25 steps are those of one
    # step per batch, and the batch holding step 25 is the last one taken.
    batch = cml._CML_BATCH
    alone = _k5_coupled_spreads(monkeypatch, 1)
    spreads = _k5_coupled_spreads(monkeypatch, batch)
    assert [row.tobytes() for row in spreads[:25]] == [row.tobytes() for row in alone]
    assert len(spreads) == batch


def test_internal_exponent_estimate():
    rep = simulate_sync(
        complete_graph(5),
        logistic_map(4.0),
        eps=0.8,
        t_steps=50,
        transient=10,
        tol=1e-6,
        trials=1,
    )
    assert abs(rep.mu - LN2) < 0.02


def test_simulation_validation():
    g = complete_graph(3)
    m = tent_map(2.0)
    with pytest.raises(ValueError):
        simulate_sync(g, m, 0.5, t_steps=5, transient=0, tol=1e-6, trials=1)
    with pytest.raises(ValueError):
        simulate_sync(g, m, 0.5, t_steps=50, transient=0, tol=0.0, trials=1)
    with pytest.raises(ValueError):
        simulate_sync(g, m, 0.5, t_steps=50, transient=0, tol=1e-6, trials=0)


def test_report_serialization():
    rep = simulate_sync(
        complete_graph(3),
        tent_map(2.0),
        eps=0.9,
        t_steps=60,
        transient=10,
        tol=1e-6,
        trials=1,
        mu=LN2,
    )
    d = rep.to_dict()
    assert set(d) == {
        "mu",
        "eps",
        "interval",
        "stability_factor",
        "guaranteed",
        "synchronized",
        "diverged",
        "final_spreads",
    }
    text = spread_to_csv(rep)
    assert text.startswith("t,max_spread\n0,")


def test_module_constants():
    assert PERTURBATION_RADIUS == 1e-3
    assert DIVERGENCE_GUARD == 1e10
