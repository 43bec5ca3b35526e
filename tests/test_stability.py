"""Root solver, ensemble estimators, decay fitting, explosion scans."""

import math

import numpy as np
import pytest

from sedes import (
    Grid,
    MsCurve,
    NoiseModel,
    OperatorCoeff,
    ProblemSpec,
    as_stability_stats,
    explosion_scan,
    fit_decay_rate,
    lambda_min,
    make_preset,
    ms_ensemble,
    run_ensemble,
    simulate,
    simulate_paths,
    solve_decay,
    solve_eps1,
    solve_eps2,
    stopping_time_sigma_k,
    truncate_problem,
)
from sedes import stability
from sedes.fields import h_norm_sq_values

# roots of eps + a2 e^{eps tau} = a1, frozen from a 40-digit mpmath solve
EPS1_2_1_1 = 0.44285440100238858
EPS1_3_2_1 = 0.30007632392895282


def test_solve_eps1_degenerate_and_oracle_values():
    assert solve_eps1(1.7, 0.0, 2.0) == 1.7
    assert solve_eps1(2.0, 1.0, 1.0) == pytest.approx(EPS1_2_1_1, abs=1e-12)
    assert solve_eps1(3.0, 2.0, 1.0) == pytest.approx(EPS1_3_2_1, abs=1e-12)


def test_solve_eps1_hypothesis_errors():
    with pytest.raises(ValueError, match="alpha1 > alpha2"):
        solve_eps1(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha1 > alpha2"):
        solve_eps1(1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="tau"):
        solve_eps1(2.0, 1.0, 0.0)


@pytest.mark.parametrize("tau", [1e3, 1e4, 1e6])
def test_solve_eps1_large_delay_meets_the_residual_contract(tau):
    # e^{alpha1 tau} overflows here, so the bracket must not evaluate h at
    # eps = alpha1
    for a1, a2 in ((2.0, 1.0), (3.0, 2.0), (1.0, 1e-9), (5.0, 4.999)):
        e1 = solve_eps1(a1, a2, tau)
        assert 0.0 < e1 <= math.log(a1 / a2) / tau
        assert abs(a1 - e1 - a2 * math.exp(e1 * tau)) <= 1e-12 * a1
    sol = solve_decay(2.0, 1.0, 1.0, 0.5, tau)
    assert sol.residual1 <= 1e-12 * 2.0


def test_solve_eps2_closed_form():
    assert solve_eps2(math.e * 0.3, 0.3, 1.0) == pytest.approx(1.0,
                                                               rel=1e-14)
    assert solve_eps2(1.0, 0.5, 1.0) == pytest.approx(math.log(2),
                                                      rel=1e-14)
    assert solve_eps2(2.0, 1.0, 2.0) == pytest.approx(math.log(2) / 2,
                                                      rel=1e-14)
    with pytest.raises(ValueError, match="alpha3 > alpha4"):
        solve_eps2(1.0, 1.0, 1.0)


@pytest.mark.parametrize("solve, args, what", [
    (solve_eps1, (2.0, 1.0, math.nan), "tau .* got nan"),
    (solve_eps1, (2.0, 1.0, math.inf), "tau .* got inf"),
    (solve_eps2, (1.0, 0.5, math.nan), "tau .* got nan"),
    (solve_eps2, (1.0, 0.5, math.inf), "tau .* got inf"),
    (solve_eps1, (math.inf, 1.0, 1.0), "alpha1=inf"),
    (solve_eps2, (math.inf, 1.0, 1.0), "alpha3=inf"),
], ids=["eps1-tau-nan", "eps1-tau-inf", "eps2-tau-nan", "eps2-tau-inf",
        "eps1-alpha1-inf", "eps2-alpha3-inf"])
def test_the_decay_solver_refuses_a_non_finite_delay_or_constant(
        solve, args, what):
    # unchecked, these returned nan or 0.0 (an infinite tau in solve_eps2)
    # as if they were roots
    with pytest.raises(ValueError, match=what):
        solve(*args)


@pytest.mark.parametrize("name", ["solve_eps1", "solve_eps2"])
def test_a_nan_root_breaks_the_residual_contract(monkeypatch, name):
    import sedes.stability as stability
    monkeypatch.setattr(stability, name, lambda *args: math.nan)
    with pytest.raises(ArithmeticError, match="residual nan"):
        solve_decay(2.0, 1.0, 1.0, 0.5, 1.0)


def test_residual_contract_on_lattice():
    for a1 in np.linspace(0.5, 6.0, 5):
        for ratio in np.linspace(0.0, 0.9, 5):
            for tau in np.linspace(0.25, 4.0, 5):
                a2 = a1 * ratio
                e1 = solve_eps1(a1, a2, tau)
                assert e1 > 0
                r = abs(a1 - e1 - a2 * math.exp(e1 * tau))
                assert r <= 1e-12 * a1


def test_eps1_monotonicity_lattice():
    a1s = np.linspace(1.0, 3.0, 5)
    a2s = np.linspace(0.1, 0.9, 5)
    taus = np.linspace(0.5, 2.5, 5)
    for a2 in a2s:
        for tau in taus:
            vals = [solve_eps1(a1, a2, tau) for a1 in a1s]
            assert all(b > a for a, b in zip(vals, vals[1:]))
    for a1 in a1s:
        for tau in taus:
            vals = [solve_eps1(a1, a2, tau) for a2 in a2s]
            assert all(b < a for a, b in zip(vals, vals[1:]))
        for a2 in a2s:
            vals = [solve_eps1(a1, a2, tau) for tau in taus]
            assert all(b < a for a, b in zip(vals, vals[1:]))


def test_solve_decay_bound_coherence():
    sol = solve_decay(3.0, 2.0, 1.0, 0.5, 1.0)
    assert sol.eps == min(sol.eps1, sol.eps2)
    assert sol.bound == -min(sol.mu, sol.eps1, sol.eps2)
    assert math.isinf(sol.mu)          # gamma == 0 convention
    assert sol.bound == -sol.eps
    finite = solve_decay(3.0, 2.0, 1.0, 0.5, 1.0, mu=0.1)
    assert finite.bound == -0.1


def test_ms_ensemble_heat_matches_analytic():
    pre = make_preset("heat", grid_n=63, dt=1e-3, t_final=1.0)
    curve = ms_ensemble(pre.problem, 2)
    lam = lambda_min(pre.problem.grid)
    exact = (math.pi / 2) * np.exp(-2 * lam * curve.times)
    # deterministic paths: stderr is 0, so compare against the curve with
    # a 1% relative band covering the O(dt) time-discretization bias
    assert np.all(curve.stderr == 0.0)
    assert np.all(np.abs(curve.mean - exact)
                  <= np.maximum(3 * curve.stderr, 0.01 * exact))
    again = ms_ensemble(pre.problem, 2)
    assert np.array_equal(curve.mean, again.mean)


def test_ms_ensemble_collapse_raises():
    grid = Grid(31)
    p = ProblemSpec(grid, OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: u ** 3,
                    diffusion=lambda t, u, v: 0 * u,
                    tau=0.1, noise=NoiseModel.scalar(),
                    initial_history=lambda th, x: 30.0 * np.sin(x),
                    t_final=2.0, dt=1e-2)
    with pytest.raises(RuntimeError, match="ensemble collapse"):
        ms_ensemble(p, 2)
    with pytest.raises(ValueError, match="n_paths"):
        ms_ensemble(p, 1)


def test_fit_decay_rate_exact_data():
    t = np.linspace(0.0, 10.0, 20)
    curve = MsCurve(t, 5.0 * np.exp(-1.2 * t), np.zeros_like(t),
                    np.full(t.size, 2), 2, [], 0)
    rate, hw = fit_decay_rate(curve, (0.0, 10.0))
    assert rate == pytest.approx(-1.2, abs=1e-9)
    assert hw <= 1e-9


def test_fit_decay_rate_constant_curve():
    t = np.linspace(0.0, 10.0, 30)
    y = np.full(t.size, 2.0)
    curve = MsCurve(t, y, np.zeros_like(t), np.full(t.size, 2), 2, [], 0)
    rate, hw = fit_decay_rate(curve)
    assert abs(rate) <= max(hw, 1e-12)


def test_fit_decay_rate_window_and_floor():
    t = np.linspace(0.0, 10.0, 40)
    y = np.exp(-1.0 * t)
    y[-8:] = 1e-22                      # below the 10*eps*initial floor
    curve = MsCurve(t, y, np.zeros_like(t), np.full(t.size, 2), 2, [], 0)
    rate, _ = fit_decay_rate(curve, (0.0, 10.0))
    assert rate == pytest.approx(-1.0, rel=1e-6)
    with pytest.raises(ValueError, match="window too small"):
        fit_decay_rate(curve, (9.0, 10.0))


def test_heat_fitted_rate_matches_eigenvalue():
    pre = make_preset("heat", grid_n=127, dt=1e-3, t_final=1.0)
    curve = ms_ensemble(pre.problem, 2)
    rate, _ = fit_decay_rate(curve)
    lam = lambda_min(pre.problem.grid)
    assert rate == pytest.approx(-2 * lam, rel=0.02)


def test_as_stability_stats_heat():
    pre = make_preset("heat", grid_n=31, dt=2e-3, t_final=12.0, tau=0.5)
    st = as_stability_stats(pre.problem, 2, threshold=1e-2,
                            window=(10.0, 12.0))
    assert st.fraction == 1.0
    assert st.u_bounded_fraction == 1.0
    zero = as_stability_stats(pre.problem, 2, threshold=0.0,
                              window=(10.0, 12.0))
    assert zero.fraction == 0.0


def test_as_stability_stats_of_zero_paths_is_refused():
    pre = make_preset("heat", grid_n=15, dt=1e-2, t_final=1.0, tau=0.1)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths >= 1"):
            as_stability_stats(pre.problem, n_paths, window=(0.5, 1.0))


def test_explosion_scan_of_zero_paths_is_refused():
    pre = make_preset("heat", grid_n=15, dt=1e-2, t_final=1.0, tau=0.1)
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match="n_paths >= 1"):
            explosion_scan(pre.problem, [5.0], n_paths, horizon=0.5)


def test_explosion_scan_heat_never_crosses():
    pre = make_preset("heat", grid_n=31, dt=1e-3, t_final=1.0)
    # ||psi||_H ~ 1.2533: monotone decay never reaches k=2
    rows = explosion_scan(pre.problem, [2.0, 4.0], 4, horizon=1.0)
    assert [r.probability for r in rows] == [0.0, 0.0]
    # every comparison with NaN is False: NaN after 2.0 does not increase,
    # and NaN alone is below the initial data
    for ks in ([4.0, 2.0], [2.0, math.nan]):
        with pytest.raises(ValueError, match="increasing"):
            explosion_scan(pre.problem, ks, 4, horizon=1.0)
    for ks in ([0.5, 2.0], [math.nan]):
        with pytest.raises(ValueError, match="truncation below initial data"):
            explosion_scan(pre.problem, ks, 4, horizon=1.0)


def test_a_path_whose_peak_equals_k_exits_in_the_scan_and_in_sigma_k():
    # k is path 0's peak H norm to the bit, and reaching k means >= in the
    # one-pass scan as in stopping_time_sigma_k; path 1 peaks above k,
    # paths 2 and 3 below
    p = make_preset("eq16", amplitude=1.0, grid_n=15, tau=0.1,
                    t_final=0.5).problem
    k = float(run_ensemble(p, range(4), record_steps=(), record_v=0).peak[0])
    exits = [stopping_time_sigma_k(simulate(p, i), k) is not None
             for i in range(4)]
    assert exits == [True, True, False, False]
    assert explosion_scan(p, [k], 4, horizon=0.5)[0].probability == 0.5


def test_exploded_paths_are_counted_not_dropped():
    grid = Grid(31)
    # noise-kicked supercritical drift: some paths blow up, some do not;
    # this start keeps at least two alive, so the standard error is taken
    # over deviations
    p = ProblemSpec(grid, OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: u ** 3,
                    diffusion=lambda t, u, v: 2.0 + 0 * u,
                    tau=0.1, noise=NoiseModel.scalar(seed=8),
                    initial_history=lambda th, x: 1.5 * np.sin(x),
                    t_final=1.0, dt=5e-3)
    from sedes import simulate_paths
    res = simulate_paths(p, range(16))
    n_exploded = sum(s == "exploded" for s in res.statuses)
    assert 0 < n_exploded < 16
    curve = ms_ensemble(p, 16)
    assert curve.n_exploded == n_exploded
    assert curve.n_alive[0] == 16 - n_exploded
    assert np.all(curve.n_alive >= 2)
    assert np.all(np.isfinite(curve.mean))


def cubic_blowup_problem():
    # noise-kicked supercritical drift: all but about one path in sixteen
    # blow up
    return ProblemSpec(Grid(31), OperatorCoeff.laplacian(),
                       drift=lambda t, u, v: u ** 3,
                       diffusion=lambda t, u, v: 5.0 + 0 * u,
                       tau=0.1, noise=NoiseModel.scalar(seed=8),
                       initial_history=lambda th, x: 2.29 * np.sin(x),
                       t_final=1.0, dt=5e-3)


def test_ms_curve_reduces_the_alive_rows_path_contiguously_to_the_bit():
    # the milder start of test_as_stats_matches_per_path_loop: 11 of 32
    # paths stay alive, enough rows for the two orders of summation to part
    p = cubic_blowup_problem().replace(
        diffusion=lambda t, u, v: 2.0 + 0 * u,
        initial_history=lambda th, x: 1.5 * np.sin(x))
    res = run_ensemble(p, range(32), record_steps=range(0, p.n_steps + 1, 7),
                       record_v=0)
    alive = ~res.exploded
    assert alive.sum() == 11
    curve = stability.ms_curve_from_batch(res, p)
    assert np.array_equal(curve.times, res.times)
    assert curve.exploded_ids == res.ids[res.exploded].tolist()
    assert np.all(curve.n_alive == alive.sum())
    # numpy sums a path-contiguous column pairwise, a row-contiguous one
    # row by row; the curve's bits are those of the pairwise sums
    h2 = np.asfortranarray(res.h_norms[alive]) ** 2
    stderr = (h2 - h2[:1]).std(axis=0, ddof=1) / math.sqrt(alive.sum())
    assert np.array_equal(curve.mean, h2.mean(axis=0))
    assert np.array_equal(curve.stderr, stderr)
    assert not np.array_equal(curve.mean, (res.h_norms[alive] ** 2).mean(0))


def test_as_stats_matches_per_path_loop():
    # the per-path loop the array reduction replaced is the reference; a
    # milder start and kick leave about a third of the paths alive
    p = cubic_blowup_problem().replace(
        diffusion=lambda t, u, v: 2.0 + 0 * u,
        initial_history=lambda th, x: 1.5 * np.sin(x))
    window = (0.5, 1.0)
    i0, i1 = 100, 200
    # every step is recorded, so the rows below are the full trace
    res = run_ensemble(p, range(32), record_v=0, window=(i0, i1))
    kept = [row for row, s in zip(res.h_norms, res.statuses)
            if s != "exploded"]
    threshold = float(np.median([np.max(row[i0:i1 + 1]) for row in kept]))
    u_bound = float(np.median([np.max(row) ** 2 for row in kept]))
    ok = sum(float(np.max(row[i0:i1 + 1])) < threshold for row in kept)
    bounded = sum(float(np.max(row)) ** 2 < u_bound for row in kept)
    st = stability.as_stats_from_batch(res, p, threshold, window, u_bound)
    assert 1 < len(kept) < 32 and 0 < ok < len(kept)
    assert (st.fraction, st.u_bounded_fraction, st.n_exploded) == (
        ok / 32, bounded / 32, 32 - len(kept))
    # the batch holds maxima over one window of steps only
    with pytest.raises(ValueError, match="window's steps"):
        stability.as_stats_from_batch(res, p, threshold, (0.2, 1.0), u_bound)


def test_a_history_four_times_larger_scales_the_ms_curve_by_sixteen():
    # for linear f and g every operation of the step commutes with a power
    # of two while nothing under- or overflows, so psi -> 4 psi gives 4x on
    # every path and 16x on every mean square, exactly
    def linear(amplitude):
        return ProblemSpec(
            Grid(31), OperatorCoeff.laplacian(),
            drift=lambda t, u, v: 0.3 * u + 0.4 * v,
            diffusion=lambda t, u, v: 0.6 * v,
            tau=0.1, noise=NoiseModel.scalar(seed=2),
            initial_history=lambda th, x: amplitude * np.sin(x),
            t_final=1.0, dt=1e-3)
    one, four = ms_ensemble(linear(1.0), 12), ms_ensemble(linear(4.0), 12)
    assert np.array_equal(four.times, one.times)
    assert np.all(one.stderr[1:] > 0)     # every path starts at psi
    assert np.array_equal(four.mean, 16.0 * one.mean)
    assert np.array_equal(four.stderr, 16.0 * one.stderr)


def test_ensemble_invariant_under_batch_grouping():
    # counter-based noise makes the ensemble independent of how paths are
    # grouped into workers: two half-batches reproduce the full batch
    from sedes import simulate_paths

    pre = make_preset("eq6", t_final=1.0, seed=4)
    full = simulate_paths(pre.problem, range(8), record_v=0)
    lo = simulate_paths(pre.problem, range(0, 4), record_v=0)
    hi = simulate_paths(pre.problem, range(4, 8), record_v=0)
    assert np.array_equal(full.h_norms, np.vstack([lo.h_norms, hi.h_norms]))


def per_k_exits(p, ks, n_paths, horizon):
    """Oracle for explosion_scan: one k-truncated run per radius.

    Returns the (len(ks), n_paths) mask of paths whose truncated norm
    reached k within the horizon or that exploded."""
    exits = []
    for k in ks:
        q = truncate_problem(p, k).replace(t_final=horizon)
        res = simulate_paths(q, range(n_paths), record_v=0)
        hit = []
        for row, status in zip(res.h_norms, res.statuses):
            with np.errstate(invalid="ignore"):
                hit.append(bool(np.any(row >= k)) or status == "exploded")
        exits.append(hit)
    return np.array(exits)


@pytest.mark.parametrize("case", ["eq16-amplitude-1.5", "cubic-blowup",
                                  "cubic-blowup-limit-12"])
def test_one_pass_scan_matches_per_k_truncated_runs(case, monkeypatch):
    if case == "eq16-amplitude-1.5":
        p = make_preset("eq16", amplitude=1.5, seed=0, t_final=2.5).problem
        ks, n_paths, horizon = [2.0, 4.0, 8.0, 16.0], 60, 2.5
    else:
        p = cubic_blowup_problem()
        ks, n_paths, horizon = [4.0, 8.0, 16.0], 16, 1.0
        if case == "cubic-blowup-limit-12":
            # exploded paths never record a norm of 16: they exit the
            # largest ball by explosion alone
            p = p.replace(explosion_limit=12.0)
    oracle = per_k_exits(p, ks, n_paths, horizon)
    if case == "eq16-amplitude-1.5":
        assert oracle.any(axis=1).tolist() == [True, True, False, False]
    else:
        assert 0 < oracle[-1].sum() < n_paths

    # per path: the exits read off one untruncated run
    res = simulate_paths(p.replace(t_final=horizon), range(n_paths),
                         record_v=0)
    assert np.array_equal(stability._exits(res, np.array(ks)), oracle)

    # the table, bit for bit, from exactly one ensemble run that records
    # no per-step norms
    from sedes import integrator
    calls = []

    def counted(*args, **kw):
        calls.append(kw)
        return integrator.run_ensemble(*args, **kw)
    monkeypatch.setattr(stability, "run_ensemble", counted)
    rows = explosion_scan(p, ks, n_paths, horizon)
    assert len(calls) == 1 and calls[0]["record_steps"] == ()
    for row, k, crossed in zip(rows, ks, oracle.sum(axis=1)):
        phat = int(crossed) / n_paths
        assert (row.k, row.probability, row.stderr, row.n_paths) == (
            k, phat, math.sqrt(phat * (1.0 - phat) / n_paths), n_paths)


def test_explosion_scan_checks_the_initial_ring_itself():
    # a spike in psi narrower than the validation grid's theta spacing,
    # centred on a ring state: psi_h_bound misses it, the ring holds it
    theta0 = -(37 * 1e-3)

    def psi(th, x):
        return (0.5 + 20.0 * np.exp(-((th - theta0) / 1e-6) ** 2)) * np.sin(x)

    p = ProblemSpec(Grid(31), OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: np.zeros_like(u),
                    diffusion=lambda t, u, v: np.zeros_like(u),
                    tau=0.1, noise=NoiseModel.scalar(), initial_history=psi,
                    t_final=0.05, dt=1e-3)
    assert p.dt == 1e-3
    ring_max = float(np.max(np.sqrt(
        h_norm_sq_values(p.history_values(), p.grid.dx))))
    assert p.psi_h_bound < 1.0 < 20.0 < ring_max
    # truncate_problem and the scan share the bound: neither lets k = 2 pass
    with pytest.raises(ValueError, match="truncation below initial data"):
        truncate_problem(p, 2.0)
    with pytest.raises(ValueError, match="truncation below initial data"):
        explosion_scan(p, [2.0, 4.0], 4, horizon=0.05)
    rows = explosion_scan(p, [2 * ring_max, 4 * ring_max], 4, horizon=0.05)
    assert [r.probability for r in rows] == [0.0, 0.0]


def test_ms_ensemble_memory_does_not_grow_with_the_horizon():
    # the ensemble keeps its norms at the 501 record times only, so four
    # times the horizon costs less than the one (B, n_steps + 1) trace of
    # the shorter run
    import tracemalloc
    B, T = 64, 2.0
    p = make_preset("eq24", grid_n=15, tau=0.1, t_final=T, seed=3).problem

    def peak(q):
        # numpy's and the problem's one-time set-up is left out of the count
        ms_ensemble(q.replace(t_final=0.1), B)
        q.history_values()
        tracemalloc.start()
        try:
            ms_ensemble(q, B)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    short, long = peak(p), peak(p.replace(t_final=4 * T))
    trace = B * (p.n_steps + 1) * 8
    assert abs(long - short) < trace, (short, long, trace)


def test_explosion_scan_memory_does_not_grow_with_the_horizon():
    # the scan reads each path's peak norm and status off the reducers, so
    # four times the horizon costs no more than the shorter scan
    import tracemalloc
    p = make_preset("eq16", grid_n=15, tau=0.1, t_final=1.0).problem
    ks, B = [1.0, 2.0], 64

    def peak(horizon):
        tracemalloc.start()
        try:
            explosion_scan(p, ks, B, horizon)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # numpy's and the problem's one-time set-up is left out of the count
    explosion_scan(p, ks, B, 0.1)
    short, long = peak(1.0), peak(4.0)
    assert long <= short, (short, long)


def test_ms_curve_matches_the_exact_second_moment_recursion():
    # du = (u_xx + a u + b v) dt + c v dB with psi = A sin x: every path is
    # s_n sin(x_j) (see the pathwise test in test_integrator), with
    #   s_{n+1} = alpha s_n + beta s_{n-m} + gamma s_{n-m} dB_n,
    # so D_n(j) = E[s_n s_{n-j}] obeys an exact recursion:
    #   D_{n+1}(0) = alpha^2 D_n(0) + 2 alpha beta D_n(m)
    #                + (beta^2 + gamma^2 dt) D_{n-m}(0),
    #   D_{n+1}(k) = alpha D_n(k-1) + beta D_{n+1-k}(m+1-k),  k = 1..m,
    # and E||x_n||_H^2 = (pi/2) D_n(0)
    from statistics import NormalDist

    a, b, c, amp = 0.3, 0.4, 0.6, 1.5
    p = ProblemSpec(Grid(63), OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: a * u + b * v,
                    diffusion=lambda t, u, v: c * v, tau=0.1,
                    noise=NoiseModel.scalar(seed=17),
                    initial_history=lambda th, x: amp * np.sin(x),
                    t_final=5.0, dt=1e-3)
    m, n_steps, dt = p.m_delay, p.n_steps, p.dt
    assert (m, n_steps) == (100, 5000)
    curve = ms_ensemble(p, 200)

    def exact(alpha, beta, gamma):
        """E||x_n||_H^2 for n = 0..n_steps; row n + m of D is D_n."""
        D = np.empty((n_steps + m + 1, m + 1))
        D[:m + 1] = amp * amp               # the history is deterministic
        k = np.arange(1, m + 1)
        for i in range(m, n_steps + m):     # row i is D_n with n = i - m
            D[i + 1, 0] = (alpha * alpha * D[i, 0] + 2 * alpha * beta
                           * D[i, m] + (beta * beta + gamma * gamma * dt)
                           * D[i - m, 0])
            D[i + 1, 1:] = alpha * D[i, :-1] + beta * D[i + 1 - k, m + 1 - k]
        return 0.5 * math.pi * D[m:, 0]

    lam = lambda_min(p.grid)
    coeffs = ((1 + dt * a) / (1 + dt * lam), dt * b / (1 + dt * lam),
              c / (1 + dt * lam))
    steps = np.round(curve.times / dt).astype(int)
    want = exact(*coeffs)[steps]
    assert curve.n_exploded == 0
    assert curve.mean[0] == pytest.approx(want[0], rel=1e-12)
    # every path starts from the same state: no spread, not rounding noise
    assert curve.stderr[0] == 0.0
    assert np.all(curve.stderr[1:] > 0)
    z = (curve.mean[1:] - want[1:]) / curve.stderr[1:]
    # normal tails with a Bonferroni count over the record points: a
    # correct scheme fails this with probability below 1e-3
    bound = NormalDist().inv_cdf(1 - 1e-3 / (2 * z.size))
    assert np.max(np.abs(z)) <= bound, (np.max(np.abs(z)), bound)
    # noise of twice the variance moves the curve far outside the bound
    off = exact(coeffs[0], coeffs[1], math.sqrt(2.0) * coeffs[2])[steps]
    z_off = (curve.mean[1:] - off[1:]) / curve.stderr[1:]
    assert np.max(np.abs(z_off)) > 2 * bound


def test_default_record_steps_keep_at_most_the_points_asked_for():
    # eq24 to t = 1.249 has 1249 steps: a stride rounded to the nearest
    # integer (2) recorded 626 steps where 501 were asked for
    for t_final, n_points in ((1.249, 501), (1.001, 501), (0.75, 501),
                              (0.2, 501), (0.017, 5), (0.013, 4),
                              (0.101, 3)):
        p = make_preset("eq24", t_final=t_final).problem
        assert p.n_steps == round(t_final * 1000)
        assert p.n_steps % (n_points - 1) != 0
        steps = stability.default_record_steps(p, n_points)
        assert steps[0] == 0 and steps[-1] == p.n_steps
        assert len(steps) <= n_points, (t_final, n_points, len(steps))
        # one stride throughout, and a last step no longer than it
        gaps = np.diff(steps)
        assert np.all(gaps[:-1] == gaps[0]) and 1 <= gaps[-1] <= gaps[0]
    # a multiple of n_points - 1 keeps its grid of exactly n_points steps,
    # so the desk-scale eq24 ms curve is unchanged
    for t_final, n_points in ((10.0, 501), (1.0, 501), (0.5, 501),
                              (0.016, 5)):
        p = make_preset("eq24", t_final=t_final).problem
        stride = p.n_steps // (n_points - 1)
        assert np.array_equal(stability.default_record_steps(p, n_points),
                              np.arange(0, p.n_steps + 1, stride))
