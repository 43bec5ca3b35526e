"""Acceptance suite: one test per criterion, each printing a PASS line
(run with -s to see them).

Each expected value is pinned to an independent oracle: closed-form
integrals and eigen-identities for the discretization, the exact linear
solution for the heat control, Gaussian moment identities for the noise,
a long bisection for the transcendental roots, and Monte Carlo proxies
with their pass bars for the three stability claims.

The existence-preset growth bound is checked with its certified constant
pair (lam1, lam2) = (4/3, 4/3) and the quartic-integral W: the chain
bounding the cross term needs lam1 >= 4/3, and with lam1 = 1 random
states genuinely violate the inequality at roughly one sample in 50k.
"""

import json
import math
import time

import numpy as np
import pytest

import sedes
from sedes import (
    Field,
    FourierSampler,
    Grid,
    NoiseModel,
    OperatorCoeff,
    check_exponential,
    check_khasminskii,
    check_lasalle,
    fit_decay_rate,
    fit_decay_rate_adaptive,
    lambda_min,
    laplacian_eigenvalue,
    make_preset,
    ms_ensemble,
    simulate,
    solve_decay,
    solve_eps1,
    solve_eps2,
    truncate_problem,
)
from sedes.cli import (EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, EXIT_OK, main)
from sedes.fields import h_norm_sq_values, v_norm_sq_values


def report(n, name, detail=""):
    print("ACCEPTANCE %d %-28s PASS  %s" % (n, name, detail))


def test_criterion_1_discrete_analysis_identities():
    t0 = time.time()
    g = Grid(63)
    dx = g.dx
    rng = np.random.default_rng(101)
    lam = lambda_min(g)
    a_mid = np.ones(64)
    for _ in range(1000):
        v = rng.standard_normal(63) * rng.uniform(0.1, 5.0)
        # summation by parts: <-A f, f>_H = ||f||_V^2 to 1e-12 relative
        d = np.diff(v, prepend=0.0, append=0.0)
        quad = -np.sum(a_mid * d * d) / dx
        vn2 = v_norm_sq_values(v, dx)
        assert abs(-quad - vn2) <= 1e-12 * (1 + vn2)
        # discrete Poincare with lambda_min = (4/dx^2) sin^2(dx/2)
        assert vn2 >= lam * h_norm_sq_values(v, dx) * (1 - 1e-12)
    c = OperatorCoeff.laplacian()
    for k in (1, 2, 3):
        f = sedes.sine_field(g, k)
        lam_k = laplacian_eigenvalue(g, k)
        out = sedes.apply_operator(c, 0.0, f)
        assert np.max(np.abs(out.values + lam_k * f.values)) <= 1e-10 * lam_k
    report(1, "discrete identities", "%.1fs" % (time.time() - t0))


def test_criterion_2_heat_equation_oracle():
    t0 = time.time()
    lam = lambda_min(Grid(127))
    exact = (math.pi / 2) * math.exp(-2 * lam)
    errs = {}
    for dt in (1e-3, 5e-4):
        pre = make_preset("heat", grid_n=127, dt=dt, t_final=1.0)
        traj = simulate(pre.problem, 0)
        errs[dt] = abs(traj.h_norms[-1] ** 2 - exact)
    assert errs[1e-3] <= 0.01 * exact
    ratio = errs[1e-3] / errs[5e-4]
    assert 1.6 <= ratio <= 2.4
    pre = make_preset("heat", grid_n=127, dt=1e-3, t_final=1.0)
    curve = ms_ensemble(pre.problem, 2)
    rate, _ = fit_decay_rate(curve)
    assert rate == pytest.approx(-2 * lam, rel=0.02)
    report(2, "heat oracle",
           "t=1 rel err %.2e, dt-halving ratio %.2f, rate %.5f (%.1fs)"
           % (errs[1e-3] / exact, ratio, rate, time.time() - t0))


def test_criterion_3_noise_statistics():
    t0 = time.time()
    m = NoiseModel.scalar(seed=555)
    dt = 0.01
    draws = np.concatenate(
        [m.increments(np.arange(4000), s, dt).ravel() for s in range(250)])
    assert draws.size == 10 ** 6
    assert 0.99 * dt <= draws.var() <= 1.01 * dt
    # bitwise determinism under reordered evaluation
    batch = m.increments(np.arange(512), 9, dt)
    reordered = np.array([m.increments([i], 9, dt)[0, 0]
                          for i in np.random.default_rng(0).permutation(512)])
    order = np.random.default_rng(0).permutation(512)
    assert np.array_equal(batch[order, 0], reordered)
    report(3, "noise statistics",
           "var %.5f (%.1fs)" % (draws.var() / dt, time.time() - t0))


def test_criterion_4_condition_checkers():
    t0 = time.time()
    outcomes = []
    for name, checker in (("eq16", check_khasminskii),
                          ("eq6", check_lasalle),
                          ("eq24", check_exponential)):
        pre = make_preset(name)
        s = FourierSampler(pre.problem.grid, seed=0, t_max=pre.problem.t_final)
        rep = checker(pre.problem, pre.lyapunov, s, 10000)
        assert rep.passed, "%s check failed: %s" % (name, rep.argmax_sample)
        outcomes.append("%s %.1e" % (name, rep.max_violation))
    # deliberately broken variants must fail
    pre = make_preset("eq16", lam2=10.0)
    s = FourierSampler(pre.problem.grid, seed=0, t_max=50.0)
    assert not check_khasminskii(pre.problem, pre.lyapunov, s, 10000).passed
    pre = make_preset("eq6", g_factor=3.0)
    assert not check_lasalle(pre.problem, pre.lyapunov, s, 10000).passed
    with pytest.raises(ValueError, match="c\\^4 < 2"):
        make_preset("eq24", c=1.3)
    report(4, "condition checkers",
           "; ".join(outcomes) + "; broken variants fail (%.1fs)"
           % (time.time() - t0))


def _bisect_oracle(a1, a2, tau, steps=10 ** 6):
    # brute-force oracle, independent of the library's solver path
    lo, hi = 0.0, float(a1)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid + a2 * math.exp(mid * tau) - a1 <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_5_decay_solver():
    t0 = time.time()
    assert solve_eps1(2.0, 1.0, 1.0) == pytest.approx(
        _bisect_oracle(2.0, 1.0, 1.0), abs=1e-6)
    assert solve_eps1(3.0, 2.0, 1.0) == pytest.approx(
        _bisect_oracle(3.0, 2.0, 1.0), abs=1e-6)
    assert solve_eps1(2.0, 1.0, 1.0) == pytest.approx(0.4429, abs=1e-4)
    assert solve_eps1(3.0, 2.0, 1.0) == pytest.approx(0.3001, abs=1e-4)
    # residual contract on the 5x5x5 lattice
    a1s = np.linspace(0.5, 6.0, 5)
    ratios = np.linspace(0.0, 0.9, 5)
    taus = np.linspace(0.25, 4.0, 5)
    for a1 in a1s:
        for r in ratios:
            for tau in taus:
                e1 = solve_eps1(a1, a1 * r, tau)
                assert abs(a1 - e1 - a1 * r * math.exp(e1 * tau)) <= 1e-12 * a1
                e2 = solve_eps2(a1, 0.5 * a1, tau)
                assert abs(a1 - 0.5 * a1 * math.exp(e2 * tau)) <= 1e-12 * a1
    # monotonicity in each argument
    for r in (0.2, 0.5):
        for tau in (0.5, 2.0):
            v = [solve_eps1(a1, a1 * 0.4, tau) for a1 in a1s]
            # eps1 grows when both constants scale up together
            assert all(b > a for a, b in zip(v, v[1:]))
            v = [solve_eps1(2.0, a2, tau) for a2 in np.linspace(0.1, 1.9, 5)]
            assert all(b < a for a, b in zip(v, v[1:]))
            v = [solve_eps1(2.0, 2.0 * r, t) for t in taus]
            assert all(b < a for a, b in zip(v, v[1:]))
    report(5, "decay solver", "oracle roots %.6f, %.6f (%.1fs)"
           % (solve_eps1(2.0, 1.0, 1.0), solve_eps1(3.0, 2.0, 1.0),
              time.time() - t0))


def test_criterion_6_exponential_stability_eq24():
    t0 = time.time()
    sol = solve_decay(2 * (2.0 - 0.5), 2 * 1.0, 1.0, 0.5, 1.0)
    assert sol.eps1 == pytest.approx(0.3001, abs=1e-3)
    assert sol.eps2 == pytest.approx(math.log(2), rel=1e-12)
    assert sol.eps == pytest.approx(sol.eps1)
    assert sol.bound == pytest.approx(-0.30, abs=2e-3)
    pre = make_preset("eq24", seed=0)    # nu=2, a=0.5, b=1, c=1, tau=1
    curve = ms_ensemble(pre.problem, 200)
    assert curve.n_exploded == 0
    rate, hw, window = fit_decay_rate_adaptive(curve)
    slack = 2 * hw + 0.05
    assert rate <= sol.bound + slack, \
        "fitted %.4f above bound %.4f + %.4f" % (rate, sol.bound, slack)
    after = curve.times >= 2.0
    m, se = curve.mean[after], curve.stderr[after]
    for i in range(len(m) - 1):
        assert m[i + 1] <= m[i] + 2 * (se[i] + se[i + 1]), \
            "ms curve rises at t=%.2f" % curve.times[after][i + 1]
    report(6, "exponential stability eq24",
           "fitted %.4f <= bound %.4f, window %s (%.1fs)"
           % (rate, sol.bound, window, time.time() - t0))


def test_criterion_7_almost_sure_stability_eq6():
    t0 = time.time()
    pre = make_preset("eq6", seed=0)
    st = sedes.as_stability_stats(pre.problem, 200, threshold=1e-2,
                                  window=(45.0, 50.0))
    assert st.n_exploded == 0
    assert st.fraction >= 0.99
    assert st.u_bounded_fraction == 1.0
    report(7, "a.s. stability eq6",
           "settled fraction %.3f, bounded-energy fraction %.3f (%.1fs)"
           % (st.fraction, st.u_bounded_fraction, time.time() - t0))


def test_criterion_8_non_explosion_eq16():
    t0 = time.time()
    pre = make_preset("eq16", seed=0, t_final=5.0)
    rows = sedes.explosion_scan(pre.problem, [2.0, 4.0, 8.0, 16.0], 200,
                                horizon=5.0)
    probs = [r.probability for r in rows]
    for a, b in zip(rows, rows[1:]):
        assert b.probability <= a.probability + 2 * (a.stderr + b.stderr)
    assert probs[-1] <= 0.05
    # truncation consistency: paths that never exit coincide bitwise
    short = make_preset("eq16", seed=0, t_final=2.0)
    for pid in (0, 1, 2):
        a = simulate(short.problem, pid)
        b = simulate(truncate_problem(short.problem, 8.0), pid)
        assert np.array_equal(a.h_norms, b.h_norms)
    report(8, "non-explosion eq16",
           "P(sigma_k<=5) = %s (%.1fs)" % (probs, time.time() - t0))


def test_criterion_9_cli_contract(tmp_path):
    t0 = time.time()
    flags = ["--preset", "heat", "--grid-n", "31", "--t-final", "0.5",
             "--tau", "0.25", "--paths", "2", "--n-samples", "200"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(flags + ["--out-dir", str(out1)]) == EXIT_OK
    assert main(flags + ["--out-dir", str(out2)]) == EXIT_OK
    resolved = json.loads((out1 / "config.resolved.json").read_text())
    assert resolved["preset"] == "heat" and resolved["grid_n"] == 31
    for name in ("ms_curve.csv", "paths_sample.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the three broken-variant exit codes
    broken = tmp_path / "b"
    assert main(["--preset", "eq16", "--lam2", "10", "--t-final", "2",
                 "--n-samples", "2000", "--no-ms-ensemble",
                 "--out-dir", str(broken / "eq16")]) == EXIT_CHECK_FAILURE
    assert main(["--preset", "eq6", "--g-factor", "3", "--t-final", "2",
                 "--n-samples", "2000", "--no-ms-ensemble",
                 "--out-dir", str(broken / "eq6")]) == EXIT_CHECK_FAILURE
    assert main(["--preset", "eq24", "--c", "1.3",
                 "--out-dir", str(broken / "eq24")]) == EXIT_CONFIG_ERROR
    report(9, "cli contract", "%.1fs" % (time.time() - t0))
