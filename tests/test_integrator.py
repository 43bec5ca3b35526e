"""Stepping, history, truncation, and explosion behavior of the integrator."""

import math

import numpy as np
import pytest

from sedes import (
    Field,
    Grid,
    NoiseModel,
    OperatorCoeff,
    ProblemSpec,
    imex_em_step,
    lambda_min,
    make_preset,
    run_ensemble,
    simulate,
    simulate_paths,
    stopping_time_sigma_k,
    truncate_problem,
)
from sedes.fields import h_norm_sq_values


def zero_problem(grid_n=31, dt=1e-3, tau=0.1, t_final=0.5, amplitude=1.0,
                 drift=None, diffusion=None, seed=0, **kw):
    grid = Grid(grid_n)
    return ProblemSpec(
        grid, OperatorCoeff.laplacian(),
        drift=drift or (lambda t, u, v: np.zeros_like(u)),
        diffusion=diffusion or (lambda t, u, v: np.zeros_like(u)),
        tau=tau, noise=NoiseModel.scalar(seed=seed),
        initial_history=lambda th, x: amplitude * np.sin(x),
        t_final=t_final, dt=dt, **kw)


def test_dt_adjusted_downward_to_divide_tau():
    p = zero_problem(dt=0.0003, tau=1.0)
    assert p.dt_adjusted
    assert p.dt <= 0.0003 + 1e-15
    assert p.m_delay * p.dt == pytest.approx(1.0, rel=1e-15)
    q = zero_problem(dt=1e-3, tau=1.0)
    assert not q.dt_adjusted
    assert q.m_delay == 1000


def test_one_step_implicit_eigen_decay():
    p = zero_problem(grid_n=63, dt=1e-3, tau=0.01)
    x1 = imex_em_step(p, p.history_values(), 0, 0)
    lam = lambda_min(p.grid)
    expected = np.sin(p.grid.points) / (1.0 + p.dt * lam)
    assert np.max(np.abs(x1.values - expected)) <= 1e-12


def test_equilibrium_preserved_exactly():
    p = zero_problem(amplitude=0.0, t_final=0.05, tau=0.01)
    traj = simulate(p, 0)
    assert traj.status == "completed"
    assert np.all(traj.h_norms == 0.0)


def test_two_half_steps_richardson():
    # deterministic nonlinear drift: one step of dt vs two of dt/2 differ
    # by O(dt^2), so halving dt quarters the difference
    drift = lambda t, u, v: -u ** 3 + 0.5 * v
    diffs = []
    for dt in (2e-3, 1e-3):
        p1 = zero_problem(dt=dt, tau=1.0, t_final=5 * dt, drift=drift)
        p2 = zero_problem(dt=dt / 2, tau=1.0, t_final=5 * dt, drift=drift)
        a = simulate(p1, 0)
        b = simulate(p2, 0)
        diffs.append(abs(a.h_norms[-1] - b.h_norms[-1]))
    ratio = diffs[0] / diffs[1]
    assert 3.0 <= ratio <= 5.0


def test_heat_trajectory_matches_analytic():
    pre = make_preset("heat", grid_n=127, dt=1e-3, t_final=1.0)
    traj = simulate(pre.problem, 0)
    lam = lambda_min(pre.problem.grid)
    exact = (math.pi / 2) * math.exp(-2 * lam * 1.0)
    assert traj.status == "completed"
    assert traj.h_norms[-1] ** 2 == pytest.approx(exact, rel=0.01)


def test_step_size_convergence_first_order():
    lam = lambda_min(Grid(63))
    exact = (math.pi / 2) * math.exp(-2 * lam)
    errs = []
    for dt in (2e-3, 1e-3):
        pre = make_preset("heat", grid_n=63, dt=dt, t_final=1.0)
        traj = simulate(pre.problem, 0)
        errs.append(abs(traj.h_norms[-1] ** 2 - exact))
    assert 1.6 <= errs[0] / errs[1] <= 2.4


def test_simulate_deterministic_and_batch_consistent():
    pre = make_preset("eq6", t_final=2.0, seed=11)
    a = simulate(pre.problem, 4)
    b = simulate(pre.problem, 4)
    assert np.array_equal(a.h_norms, b.h_norms)
    assert np.array_equal(a.v_norms, b.v_norms)
    batch = simulate_paths(pre.problem, range(6))
    assert np.array_equal(batch.h_norms[4], a.h_norms)
    assert np.array_equal(batch.v_norms[4], a.v_norms)


def test_zero_noise_paths_ignore_seed_and_path_id():
    a = simulate(zero_problem(seed=1, tau=0.01, t_final=0.2), 0)
    b = simulate(zero_problem(seed=999, tau=0.01, t_final=0.2), 123)
    assert np.array_equal(a.h_norms, b.h_norms)


def test_eq6_runs_to_completion():
    pre = make_preset("eq6", t_final=5.0, seed=3)
    traj = simulate(pre.problem, 7)
    assert traj.status == "completed"
    assert np.all(np.isfinite(traj.h_norms))


def test_each_step_reads_the_state_exactly_tau_back():
    # with no drift and no diffusion, sin x decays by 1 / (1 + dt lambda_h)
    # a step, so step j >= 0 holds sin x (1 + dt lambda_h)^-j and step j < 0
    # holds psi(j dt) = (1 + j dt) sin x: an oracle in closed form for the
    # state each step reads m steps back and for the state it returns,
    # whichever ring slots hold them
    seen = []

    def drift(t, u, v):
        seen.append(v.copy())
        return np.zeros_like(u)

    grid = Grid(15)
    p = ProblemSpec(grid, OperatorCoeff.laplacian(), drift=drift,
                    diffusion=lambda t, u, v: np.zeros_like(u), tau=0.03,
                    noise=NoiseModel.scalar(seed=0),
                    initial_history=lambda th, x: (1.0 + th) * np.sin(x),
                    t_final=0.12, dt=0.01)
    m, n_steps = p.m_delay, p.n_steps
    assert m == 3 and n_steps == 12

    def state(j):
        decay = (1.0 + p.dt * lambda_min(grid)) ** -max(j, 0)
        return (1.0 + min(j, 0) * p.dt) * decay * np.sin(grid.points)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    seen.clear()
    ring = p.history_values()
    for s in range(n_steps):
        x = imex_em_step(p, ring, 0, s)
        assert close(seen[-1][0], state(s - m)), s
        assert close(x.values, state(s + 1)), s
    # the engine steps the same ring slots
    seen.clear()
    res = simulate_paths(p, [0], snapshot_steps=range(n_steps + 1))
    for s in range(n_steps):
        assert close(seen[s][0], state(s - m)), s
        assert close(res.snapshots[s + 1][0], state(s + 1)), s


def test_problem_times_must_be_finite():
    # unchecked, an infinite dt runs with dt = tau, and int() refuses an
    # infinite or NaN tau or t_final with an error that does not name it
    p = zero_problem()
    for key, name in (("tau", "delay tau"), ("dt", "dt"),
                      ("t_final", "t_final")):
        for bad, text in ((math.inf, "inf"), (math.nan, "nan"),
                          (-1.0, "-1"), (0.0, "0")):
            with pytest.raises(ValueError, match="%s must be positive and "
                               "finite, got %s" % (name, text)):
                p.replace(**{key: bad})


def test_initial_history_validation():
    grid = Grid(16)
    mk = lambda psi: ProblemSpec(
        grid, OperatorCoeff.laplacian(),
        drift=lambda t, u, v: 0 * u, diffusion=lambda t, u, v: 0 * u,
        tau=0.5, noise=NoiseModel.scalar(), initial_history=psi,
        t_final=1.0, dt=0.01)
    with pytest.raises(ValueError, match="walls"):
        mk(lambda th, x: np.cos(x))           # cos(0) = 1 at the wall
    with pytest.raises(ValueError, match="discontinuous"):
        mk(lambda th, x: np.sin(x) * np.where(th > -0.25, 1.0, 2.0))
    mk(lambda th, x: (1 + th) * np.sin(x))    # smooth in theta: accepted
    # a value that does not broadcast to one row per theta is refused
    with pytest.raises(ValueError, match="^initial_history gives shape "
                       r"\(17,\) on a column of 65 thetas, not one that "
                       r"broadcasts to \(65, 16\)"):
        mk(lambda th, x: np.append(0.0, np.sin(x)))


def test_zero_state_boundedness_check():
    grid = Grid(16)
    with pytest.raises(ValueError, match="non-finite"):
        ProblemSpec(
            grid, OperatorCoeff.laplacian(),
            drift=lambda t, u, v: np.full_like(u, np.nan),
            diffusion=lambda t, u, v: 0 * u,
            tau=0.5, noise=NoiseModel.scalar(),
            initial_history=lambda th, x: 0.1 * np.sin(x),
            t_final=1.0, dt=0.01)


def test_truncation_wrapper_semantics():
    pre = make_preset("eq16", t_final=2.0)
    p = pre.problem
    q = truncate_problem(p, 4.0)
    pts = p.grid.points
    dx = p.grid.dx
    small = 0.2 * np.sin(pts)
    # inside the ball the wrapped coefficients agree bitwise
    orig = p.drift(0.3, small, small)
    wrapped = q.drift(0.3, small, small)
    assert np.array_equal(orig, wrapped)
    # the zero field maps to zero (0/0 convention)
    z = np.zeros_like(pts)
    assert np.array_equal(q.drift(0.0, z, z), p.drift(0.0, z, z))
    # a field of H norm 2k is projected to H norm exactly k
    from sedes.integrator import clamp_to_ball
    from sedes.fields import h_norm_sq_values
    big = np.sin(pts) * (8.0 / math.sqrt(h_norm_sq_values(np.sin(pts), dx)))
    proj = clamp_to_ball(big, 4.0, dx)
    assert math.sqrt(h_norm_sq_values(proj, dx)) == pytest.approx(4.0,
                                                                  rel=1e-12)
    # every comparison with NaN is False, so NaN fails both radius checks
    from sedes.integrator import BallClampedCoeff
    for bad in (0.01, math.nan):
        with pytest.raises(ValueError, match="truncation below initial data"):
            truncate_problem(p, bad)
    for bad in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive"):
            BallClampedCoeff(p.drift, bad, dx)


def test_clamp_keeps_fields_whose_squared_norm_underflows():
    # dx * sum(u^2) underflows to 0 for entries of 1e-170, yet the field is
    # inside the ball and must come back bitwise unchanged, not as zeros
    from sedes.integrator import clamp_to_ball
    tiny = np.full((1, 31), 1e-170)
    assert np.array_equal(clamp_to_ball(tiny, 2.0, 0.1), tiny)
    # a batch mixing the tiny field, the zero field and one outside the ball
    dx = 0.1
    rows = np.stack([tiny[0], np.zeros(31), np.full(31, 3.0)])
    out = clamp_to_ball(rows, 2.0, dx)
    assert np.array_equal(out[:2], rows[:2])
    assert math.sqrt(dx * np.sum(out[2] ** 2)) == pytest.approx(2.0,
                                                                rel=1e-12)


def test_truncation_consistency_bitwise():
    # a path that never leaves the ball coincides with the untruncated one
    pre = make_preset("eq16", t_final=2.0, seed=21)
    p = pre.problem
    a = simulate(p, 2)
    b = simulate(truncate_problem(p, 8.0), 2)
    assert np.array_equal(a.h_norms, b.h_norms)


def test_stopping_time_sigma_k():
    pre = make_preset("heat", grid_n=31, t_final=0.1, dt=1e-3)
    traj = simulate(pre.problem, 0)
    assert stopping_time_sigma_k(traj, 2.0) is None    # inf of empty set
    fake = traj
    fake.h_norms = np.array([0.5, 1.5, 0.7])
    fake.times = np.array([0.0, 1e-3, 2e-3])
    assert stopping_time_sigma_k(fake, 1.0) == pytest.approx(1e-3)


def test_explosion_detected_and_truncated():
    # supercritical feedback blows up under the explicit nonlinearity
    p = zero_problem(grid_n=31, dt=1e-2, tau=0.1, t_final=2.0, amplitude=30.0,
                     drift=lambda t, u, v: u ** 3)
    traj = simulate(p, 0)
    assert traj.status == "exploded"
    assert traj.status_time is not None
    assert len(traj.times) == len(traj.h_norms)
    assert np.all(np.isfinite(traj.h_norms))
    assert traj.times[-1] < traj.status_time <= 2.0


def test_a_squared_norm_at_the_explosion_limit_is_not_an_explosion():
    # a path explodes when its squared H norm is beyond explosion_limit**2;
    # path 0 of this eq16 run peaks with a squared norm whose float root
    # squares back to it bitwise, so that root is a limit the path reaches
    # exactly
    p = make_preset("eq16", amplitude=1.0, grid_n=15, tau=0.1,
                    t_final=0.5).problem
    step = int(np.argmax(run_ensemble(p, [0], record_v=0).h_norms[0]))
    x = run_ensemble(p, [0], record_steps=(), record_v=0,
                     snapshot_steps=[step]).snapshots[step]
    hn2 = float(h_norm_sq_values(x, p.grid.dx)[0])
    limit = math.sqrt(hn2)
    assert step > 0 and limit * limit == hn2
    res = run_ensemble(p.replace(explosion_limit=limit), [0],
                       record_steps=(), record_v=0)
    assert res.statuses[0] == "completed"
    assert res.peak[0] == limit


def test_an_exploded_path_is_nan_from_its_explosion_step_on():
    # against the same problem at an infinite limit, a path agrees bitwise
    # up to its first step whose squared H norm is beyond limit * limit or
    # not finite; that step is its explosion step, every later norm and
    # snapshot row is NaN, and its peak is the largest norm before it
    p = dict(_block_cases())["explodes"]
    ids, every, dx = range(6), range(p.n_steps + 1), p.grid.dx
    res = simulate_paths(p, ids, snapshot_steps=every)
    ref = simulate_paths(p.replace(explosion_limit=math.inf), ids,
                         snapshot_steps=every)
    with np.errstate(over="ignore", invalid="ignore"):
        hn2 = np.stack([h_norm_sq_values(ref.snapshots[s], dx)
                        for s in every], axis=1)
    limit = p.explosion_limit
    beyond = ~np.isfinite(hn2) | (hn2 > limit * limit)
    exploded = beyond.any(axis=1)
    assert exploded.any() and not exploded.all()
    for i in ids:
        end = int(np.argmax(beyond[i])) if exploded[i] else p.n_steps + 1
        for key in ("h_norms", "v_norms"):
            got, want = getattr(res, key)[i], getattr(ref, key)[i]
            assert np.array_equal(got[:end], want[:end]), (i, key)
            assert np.all(np.isnan(got[end:])), (i, key)
        for s in every:
            row = res.snapshots[s][i]
            if s < end:
                assert np.array_equal(row, ref.snapshots[s][i]), (i, s)
            else:
                assert np.all(np.isnan(row)), (i, s)
        assert res.peak[i] == np.max(ref.h_norms[i, :end]), i
        if exploded[i]:
            assert res.explosion_times[i] == end * p.dt, i
        else:
            assert math.isnan(res.explosion_times[i]), i
    # simulate returns no snapshot at or after the explosion
    times = (0.0, 0.5, 1.0, 1.5)
    for i in np.nonzero(exploded)[0].tolist():
        traj = simulate(p, i, snapshot_times=times)
        assert traj.status == "exploded"
        kept = [t for t in times if t < traj.status_time]
        assert [t for t, _ in traj.snapshots] == kept, i
        for t, field in traj.snapshots:
            assert np.array_equal(
                field.values, ref.snapshots[int(round(t / p.dt))][i]), i


def test_a_history_beyond_the_limit_explodes_at_step_0():
    # the initial state is judged as every later one; a limit that is not
    # positive is refused
    p = zero_problem(t_final=0.05, tau=0.01)
    q = p.replace(explosion_limit=0.5)
    res = simulate_paths(q, [0, 1], snapshot_steps=[0, 3])
    assert res.explosion_times.tolist() == [0.0, 0.0]
    assert np.all(np.isnan(res.h_norms)) and np.all(np.isnan(res.peak))
    assert all(np.all(np.isnan(x)) for x in res.snapshots.values())
    traj = simulate(q, 0, snapshot_times=[0.0])
    assert (traj.times.size, traj.snapshots, traj.status_time) == (0, [], 0.0)
    assert repr(traj) == "Trajectory(path_id=0, steps=0, status=exploded)"
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="explosion_limit must be "
                           "positive"):
            p.replace(explosion_limit=bad)


def test_snapshots_at_requested_times():
    pre = make_preset("heat", grid_n=31, t_final=0.2, dt=1e-3)
    traj = simulate(pre.problem, 0, snapshot_times=(0.0, 0.1))
    assert len(traj.snapshots) == 2
    t0, f0 = traj.snapshots[0]
    assert t0 == 0.0
    assert np.allclose(f0.values, np.sin(pre.problem.grid.points))


def test_manual_stepping_matches_simulate_bitwise():
    # the public step-by-step workflow reproduces the engine exactly
    from sedes import h_norm

    pre = make_preset("eq16", t_final=1.0, seed=13)
    p = pre.problem
    traj = simulate(p, 2)
    ring = p.history_values()
    for n in range(5):
        x = imex_em_step(p, ring, 2, n)
        assert h_norm(x) == traj.h_norms[n + 1]


def test_step_draws_its_increment_at_the_problem_dt():
    # the step draws the path's increment over p.dt itself, so no increment
    # of another step size can reach it
    from sedes.integrator import _Solver, _em_step

    p = make_preset("eq16", t_final=1.0).problem
    n, slots = p.grid.n_interior, p.m_delay + 1
    for path_id, step in ((0, 0), (3, 0), (3, 11)):
        dB = p.noise.increments([path_id], step, p.dt)
        solver = _Solver(n, 1, p.dt, p.grid.dx)
        solver.factor(p.op.midpoint_values(step * p.dt + p.dt, p.grid))
        want = _em_step(p, p.history_values(), step, dB, solver)[0]
        ring = p.history_values()
        before = ring.copy()
        x = imex_em_step(p, ring, path_id, step)
        assert np.array_equal(x.values, want)
        # the step writes slot step % (m+1), with the new state, and no other
        others = np.arange(slots) != step % slots
        assert np.array_equal(ring[others], before[others])
        assert np.array_equal(ring[step % slots, 0], x.values)


# ---------------------------------------------------------------------------
# The implicit solve.  Cyclic reduction replaced the Thomas algorithm; the
# Thomas elimination is kept here as the reference.

class ThomasFactor:
    """Thomas solve of (I - dt A) x = rhs, one elimination per row."""

    def __init__(self, a_mid, dt, dx):
        r = dt / (dx * dx)
        n = a_mid.size - 1
        self.lower = -r * a_mid[:-1]
        upper = -r * a_mid[1:]
        diag = 1.0 + r * (a_mid[:-1] + a_mid[1:])
        self.denom = np.empty(n)
        self.w = np.empty(n)
        self.denom[0] = diag[0]
        self.w[0] = upper[0] / diag[0]
        for j in range(1, n):
            self.denom[j] = diag[j] - self.lower[j] * self.w[j - 1]
            self.w[j] = upper[j] / self.denom[j]

    def solve(self, rhs):
        x = np.empty_like(rhs)
        x[..., 0] = rhs[..., 0] / self.denom[0]
        for j in range(1, x.shape[-1]):
            x[..., j] = ((rhs[..., j] - self.lower[j] * x[..., j - 1])
                         / self.denom[j])
        for j in range(x.shape[-1] - 2, -1, -1):
            x[..., j] -= self.w[j] * x[..., j + 1]
        return x


def factored_solver(a_mid, dt, dx, batch):
    """The engine's solve for batch rows, factored for a_mid."""
    from sedes.integrator import _Solver
    solver = _Solver(a_mid.size - 1, batch, dt, dx)
    solver.factor(a_mid)
    return solver


def tridiag_matrix(a_mid, dt, dx):
    r = dt / (dx * dx)
    return (np.diag(1.0 + r * (a_mid[:-1] + a_mid[1:]))
            - np.diag(r * a_mid[1:-1], 1) - np.diag(r * a_mid[1:-1], -1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 63, 64, 200, 1000])
@pytest.mark.parametrize("dt", [1e-5, 1e-3, 1e-1])
def test_cyclic_reduction_matches_thomas(n, dt):
    rng = np.random.default_rng(n)
    a_mid = rng.uniform(0.5, 2.0, n + 1)
    dx = math.pi / (n + 1)
    rhs = rng.standard_normal((7, n))
    x = factored_solver(a_mid, dt, dx, 7).solve(rhs, np.empty((7, n)))
    ref = ThomasFactor(a_mid, dt, dx).solve(rhs)
    assert x.shape == rhs.shape and x.flags.c_contiguous
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    if n <= 200:
        resid = tridiag_matrix(a_mid, dt, dx) @ x.T - rhs.T
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(rhs))
    # each row is solved with its own arithmetic: a one-row solve gives
    # the same bits as that row of the batch
    solver = factored_solver(a_mid, dt, dx, 1)
    for i in range(rhs.shape[0]):
        one = solver.solve(rhs[i:i + 1], np.empty((1, n)))
        assert one.flags.c_contiguous
        assert np.array_equal(one[0], x[i])


def _block_cases():
    yield "eq16", make_preset("eq16", t_final=0.15, seed=3).problem
    yield "eq24", make_preset("eq24", t_final=0.15, seed=4).problem
    # cubic feedback with multiplicative noise: some paths explode
    boom = zero_problem(grid_n=31, dt=1e-2, tau=0.1, t_final=1.5,
                        amplitude=3.0, drift=lambda t, u, v: u ** 3,
                        diffusion=lambda t, u, v: 3.0 * u,
                        explosion_limit=1e3)
    yield "explodes", boom


@pytest.mark.parametrize("block", [1, 7, 64])
def test_ensembles_do_not_depend_on_the_noise_block(monkeypatch, block):
    import sedes.integrator as integ
    ref = {name: simulate_paths(p, range(6)) for name, p in _block_cases()}
    assert "exploded" in ref["explodes"].statuses
    assert "completed" in ref["explodes"].statuses
    monkeypatch.setattr(integ, "NOISE_BLOCK", block)
    for name, p in _block_cases():
        res = simulate_paths(p, range(6))
        assert np.array_equal(res.h_norms, ref[name].h_norms,
                              equal_nan=True), name
        assert np.array_equal(res.v_norms, ref[name].v_norms,
                              equal_nan=True), name
        assert res.statuses == ref[name].statuses, name
        assert np.array_equal(res.explosion_times, ref[name].explosion_times,
                              equal_nan=True), name


def _chunked_run(p, n_paths):
    """Every reducer of one ensemble, and the full trace."""
    from sedes import as_stability_stats, ms_ensemble, run_ensemble
    ids = range(n_paths)
    trace = simulate_paths(p, ids, snapshot_steps=(0, 75, 150))
    reduced = run_ensemble(p, ids, record_steps=[150, 0, 77, 5, 77],
                           record_v=3, window=(40, 90))
    stats = (ms_ensemble(p, n_paths).to_dict(),
             as_stability_stats(p, n_paths, threshold=0.5).to_dict(),
             as_stability_stats(p, n_paths, threshold=0.5,
                                window=(0.05, 0.1)).to_dict())
    return trace, reduced, stats


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_ensembles_do_not_depend_on_the_path_chunk(monkeypatch, chunk):
    import sedes.integrator as integ
    # two full chunks and a part one; the reference runs them in one chunk
    n_paths = 2 * chunk + 3 if chunk < 64 else chunk + 6
    assert integ.PATH_CHUNK >= n_paths
    ref = {name: _chunked_run(p, n_paths) for name, p in _block_cases()}
    assert "exploded" in ref["explodes"][0].statuses
    assert "completed" in ref["explodes"][0].statuses
    # the reducers read the very values the trace holds
    for name, (trace, reduced, _) in ref.items():
        steps = [0, 5, 77, 150]
        assert np.array_equal(reduced.steps, steps)
        assert np.array_equal(reduced.h_norms, trace.h_norms[:, steps],
                              equal_nan=True), name
        assert np.array_equal(reduced.v_norms, trace.v_norms[:3, steps],
                              equal_nan=True), name
        assert np.array_equal(reduced.window_peak,
                              np.fmax.reduce(trace.h_norms[:, 40:91], axis=1),
                              equal_nan=True), name
        for res in (trace, reduced):
            assert np.array_equal(res.peak,
                                  np.fmax.reduce(trace.h_norms, axis=1),
                                  equal_nan=True), name
            assert res.statuses == trace.statuses, name
            assert np.array_equal(res.explosion_times, trace.explosion_times,
                                  equal_nan=True), name
    monkeypatch.setattr(integ, "PATH_CHUNK", chunk)
    for name, p in _block_cases():
        trace, reduced, stats = _chunked_run(p, n_paths)
        ref_trace, ref_reduced, ref_stats = ref[name]
        for res, want in ((trace, ref_trace), (reduced, ref_reduced)):
            for key in ("h_norms", "v_norms", "peak"):
                assert np.array_equal(getattr(res, key), getattr(want, key),
                                      equal_nan=True), (name, key)
            assert res.statuses == want.statuses, name
            assert np.array_equal(res.explosion_times, want.explosion_times,
                                  equal_nan=True), name
        assert np.array_equal(reduced.window_peak, ref_reduced.window_peak,
                              equal_nan=True), name
        assert trace.snapshots.keys() == ref_trace.snapshots.keys()
        for step, states in trace.snapshots.items():
            # an exploded path's row is NaN in both runs
            assert np.array_equal(states, ref_trace.snapshots[step],
                                  equal_nan=True), name
        assert stats == ref_stats, name


def test_the_maxima_take_both_end_steps_of_their_range():
    # deterministic runs whose norm falls, and rises, at every step: each
    # maximum is the norm at one end of its steps, so a fold that skips an
    # end step reads a neighbour's norm instead
    window = (20, 60)
    falls = zero_problem(t_final=0.1)
    rises = zero_problem(t_final=0.1, drift=lambda t, u, v: 3.0 * u)
    for p, sign, at in ((falls, -1.0, 0), (rises, 1.0, 1)):
        res = run_ensemble(p, [0, 1], window=window)
        assert np.all(sign * np.diff(res.h_norms, axis=1) > 0)
        assert np.array_equal(res.peak, res.h_norms[:, (0, -1)[at]])
        assert np.array_equal(res.window_peak, res.h_norms[:, window[at]])


_SIGN_CASES = (("heat", 1.0, {}), ("eq6", 0.1, {}),
               ("eq24", 0.1, {"b": 1.0, "c": 1.0}))


@pytest.mark.parametrize("name, amplitude, odd", _SIGN_CASES,
                         ids=[c[0] for c in _SIGN_CASES])
def test_a_negated_history_negates_every_path_bit_for_bit(name, amplitude,
                                                          odd):
    # f and g are odd in the state (eq24's once b and c change sign with
    # it), rounding to nearest is symmetric in sign and every operation of
    # the step commutes with negation, so psi -> -psi maps x to -x exactly
    kw = dict(grid_n=31, t_final=1.0, seed=5)
    every = range(0, 1001, 25)
    pos, neg = [run_ensemble(make_preset(
        name, amplitude=sign * amplitude,
        **{k: sign * v for k, v in odd.items()}, **kw).problem,
        range(12), snapshot_steps=every) for sign in (1.0, -1.0)]
    assert pos.steps.size == 1001 and not pos.exploded.any()
    for s in every:
        assert np.array_equal((-pos.snapshots[s]).view(np.uint64),
                              neg.snapshots[s].view(np.uint64)), s
    for key in ("h_norms", "v_norms", "peak"):
        assert np.array_equal(getattr(pos, key).view(np.uint64),
                              getattr(neg, key).view(np.uint64)), key


# ---------------------------------------------------------------------------
# The contiguous-level solve and the in-place ring write.  The cyclic
# reduction that ran on row-strided views of one (n, B) array is kept here
# as the bitwise reference: the contiguous layout applies the same
# multipliers in the same per-element order.

class StridedCyclicReduction:
    """Cyclic reduction on stride-2**k rows of one (n, B) work array."""

    def __init__(self, a_mid, dt, dx):
        r = dt / (dx * dx)
        n = a_mid.size - 1
        lower = -r * a_mid[:-1]
        upper = -r * a_mid[1:]
        diag = 1.0 + r * (a_mid[:-1] + a_mid[1:])
        lower[0] = upper[-1] = 0.0
        self.n = n
        self._reduce, self._back = [], []
        s = 1
        while diag.size > 1:
            ne, no = (diag.size + 1) // 2, diag.size // 2
            m = ne - 1
            inv = 1.0 / diag[0::2]
            lo_e, up_e = lower[0::2], upper[0::2]
            alpha = -lower[1::2] * inv[:no]
            beta = -upper[1::2][:m] * inv[1:]
            w = 2 * s
            odd = slice(w - 1, None, w)
            odd_m = slice(w - 1, w - 1 + w * m, w)
            left = slice(s - 1, s - 1 + w * no, w)
            right = slice(w + s - 1, w + s - 1 + w * m, w)
            self._reduce.append((no, m, odd, odd_m, left, right,
                                 alpha[:, None], beta[:, None]))
            self._back.append((no, m, slice(s - 1, None, w), odd, odd_m,
                               left, right, inv[:, None],
                               (lo_e[1:] * inv[1:])[:, None],
                               (up_e[:no] * inv[:no])[:, None]))
            next_diag = diag[1::2] + alpha * up_e[:no]
            next_diag[:m] += beta * lo_e[1:]
            lower = alpha * lo_e[:no]
            upper = np.zeros(no)
            upper[:m] = beta * up_e[1:]
            diag = next_diag
            s = w
        self._top = (s - 1, 1.0 / diag[0])
        self._back.reverse()

    def solve(self, rhs):
        work = np.empty((self.n + self.n // 2, rhs.shape[0]))
        f, tmp = work[:self.n], work[self.n:]
        np.copyto(f, rhs.T)
        for no, m, odd, odd_m, left, right, alpha, beta in self._reduce:
            o = f[odd]
            o += np.multiply(alpha, f[left], out=tmp[:no])
            o = f[odd_m]
            o += np.multiply(beta, f[right], out=tmp[:m])
        row, inv = self._top
        f[row] *= inv
        for (no, m, even, odd, odd_m, left, right,
             inv, lo_inv, up_inv) in self._back:
            e = f[even]
            e *= inv
            e = f[right]
            e -= np.multiply(lo_inv, f[odd_m], out=tmp[:m])
            e = f[left]
            e -= np.multiply(up_inv, f[odd], out=tmp[:no])
        return f.T.copy()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 63, 64, 200, 1000])
def test_contiguous_levels_match_the_strided_solve_bitwise(n):
    rng = np.random.default_rng(100 + n)
    a_mid = rng.uniform(0.5, 2.0, n + 1)
    dx = math.pi / (n + 1)
    for dt in (1e-5, 1e-3, 1e-1):
        ref = StridedCyclicReduction(a_mid, dt, dx)
        for B in (1, 7, 200, 7):
            solver = factored_solver(a_mid, dt, dx, B)
            rhs = rng.standard_normal((B, n))
            assert np.array_equal(solver.solve(rhs, np.empty((B, n))),
                                  ref.solve(rhs)), (dt, B)
            # a reused solver and a caller's output array: same bits, and
            # the right-hand side is left as it was
            out = np.empty((B, n))
            kept = rhs.copy()
            for _ in range(2):
                assert solver.solve(rhs, out) is out
                assert np.array_equal(out, ref.solve(rhs))
            assert np.array_equal(rhs, kept)
            # solved in place, as the step does in the ring
            inplace = rhs.copy()
            assert solver.solve(inplace, inplace) is inplace
            assert np.array_equal(inplace, out)


@pytest.mark.parametrize("n", [2, 5, 31, 64])
def test_a_solver_refactored_in_place_equals_a_fresh_one_bitwise(n):
    # each factor overwrites every coefficient of the last: a solver
    # refactored over a sequence of operators solves as a new one would
    rng = np.random.default_rng(200 + n)
    dx = math.pi / (n + 1)
    a_mids = [rng.uniform(0.5, 2.0, n + 1) for _ in range(3)]
    a_mids += [np.ones(n + 1), 10.0 * a_mids[0]]
    for B in (1, 7, 200):
        reused = factored_solver(a_mids[0], 1e-3, dx, B)
        for a_mid in a_mids:
            reused.factor(a_mid)
            rhs = rng.standard_normal((B, n))
            want = factored_solver(a_mid, 1e-3, dx, B).solve(
                rhs, np.empty((B, n)))
            got = reused.solve(rhs, np.empty((B, n)))
            assert np.array_equal(got, want), (B, a_mid[:3])


def _line_offset(a):
    """Bytes past a 64-byte cache line at which a's data starts."""
    return a.__array_interface__["data"][0] % 64


@pytest.mark.parametrize("batch", [8, 200, 256])
def test_every_step_buffer_starts_on_a_cache_line(batch):
    # a multiple of 8 paths makes a (k, batch) row and a (batch, 63) ring
    # slot whole cache lines, so every prebuilt view and every slot of the
    # ring starts on one as well as every block
    from sedes.integrator import _Solver
    p = zero_problem(grid_n=63, tau=0.01, t_final=0.05)
    ring = p.history_values(batch)
    assert [_line_offset(slot) for slot in ring] == [0] * (p.m_delay + 1)
    solver = _Solver(63, batch, p.dt, p.grid.dx)
    arrays = [solver.noise, solver.evens, solver.odds, solver.top]
    for views, coeffs in solver.levels:
        # the level's blocks, tmp's two views and nxt's two halves
        arrays += list(views) + list(coeffs)
    assert len(arrays) == 4 + 16 * len(solver.levels)
    assert [_line_offset(a) for a in arrays] == [0] * len(arrays)


def test_an_unaligned_batch_still_starts_every_block_on_a_cache_line():
    # at 7 paths a row is 56 bytes, so only the blocks' starts are aligned
    from sedes.integrator import _Solver
    p = zero_problem(grid_n=63, tau=0.01, t_final=0.05)
    assert _line_offset(p.history_values(7)) == 0
    solver = _Solver(63, 7, p.dt, p.grid.dx)
    starts = [solver.noise, solver.top]
    for (e, _, _, _, _, tmp, _, _, _, nxt, _), coeffs in solver.levels:
        starts += [e, tmp, nxt] + list(coeffs)
    assert [_line_offset(a) for a in starts] == [0] * len(starts)


def _stepped_by_hand(p, path_id, n_steps):
    """States of one path from imex_em_step, as an (n_steps + 1, n)
    array."""
    ring = p.history_values()
    states = [ring[-1, 0].copy()]
    for k in range(n_steps):
        states.append(imex_em_step(p, ring, path_id, k).values)
    return np.array(states)


def _assert_engine_equals_hand_stepping(p, path_ids, n_steps):
    from sedes.fields import h_norm_sq_values, v_norm_sq_values
    dx = p.grid.dx
    steps = range(n_steps + 1)
    res = simulate_paths(p, path_ids, snapshot_steps=steps)
    for i, pid in enumerate(path_ids):
        states = _stepped_by_hand(p, pid, n_steps)
        for k in steps:
            assert np.array_equal(res.snapshots[k][i], states[k]), (pid, k)
        assert np.array_equal(res.h_norms[i],
                              np.sqrt(h_norm_sq_values(states, dx)))
        assert np.array_equal(res.v_norms[i],
                              np.sqrt(v_norm_sq_values(states, dx)))


def test_coefficients_returning_their_own_inputs_step_bitwise():
    # the solve writes the new state over the delayed slot of the ring; a
    # coefficient that hands back that very array (diffusion = v) or the
    # current one (drift = u) must still see the values of the step
    cases = [
        dict(drift=lambda t, u, v: u, diffusion=lambda t, u, v: v),
        dict(drift=lambda t, u, v: v, diffusion=lambda t, u, v: u),
    ]
    for coeffs in cases:
        # tau = 3 dt: the ring has four slots, so every slot is written
        # over several times within 12 steps
        p = zero_problem(grid_n=15, dt=1e-2, tau=0.03, t_final=0.12,
                         seed=8, **coeffs)
        assert p.m_delay == 3 and p.n_steps == 12
        _assert_engine_equals_hand_stepping(p, [0, 3, 5], p.n_steps)


def test_time_dependent_operator_is_refactored_every_step():
    grid = Grid(31)
    a_fn = lambda t, x: 1.0 + 0.5 * np.sin(3.0 * t + x) ** 2
    op = OperatorCoeff.divergence(a_fn, nu=1.0, alpha_upper=1.5)
    assert op.time_dependent
    p = ProblemSpec(grid, op, drift=lambda t, u, v: 0.5 * v - u ** 3,
                    diffusion=lambda t, u, v: 0.8 * u * v, tau=0.02,
                    noise=NoiseModel.scalar(seed=4),
                    initial_history=lambda th, x: (1.0 + th) * np.sin(x),
                    t_final=0.2, dt=1e-2)
    _assert_engine_equals_hand_stepping(p, [0, 1, 6], p.n_steps)
    # each step solves the system of its own end time t_{n+1}
    ring, slots = p.history_values(), p.m_delay + 1
    dx, worst = grid.dx, 0.0
    for k in range(p.n_steps):
        t, x, y = k * p.dt, ring[(k - 1) % slots], ring[k % slots]
        dB = p.noise.increments([1], k, p.dt)
        rhs = (x + p.dt * p.drift(t, x, y) + p.diffusion(t, x, y) * dB)[0]
        x_next = imex_em_step(p, ring, 1, k).values
        a_mid = op.midpoint_values(t + p.dt, grid)
        resid = tridiag_matrix(a_mid, p.dt, dx) @ x_next - rhs
        worst = max(worst, np.max(np.abs(resid)) / np.max(np.abs(rhs)))
        # against A at t_n instead the residual is far from rounding
        stale = (tridiag_matrix(op.midpoint_values(t, grid), p.dt, dx)
                 @ x_next - rhs)
        assert np.max(np.abs(stale)) > 1e-6 * np.max(np.abs(rhs))
    assert worst <= 1e-12


def _spiked_operator(value):
    """a = 1 except within 1e-4 of t = 0.014, where it is value: between
    two of validate's 64 lattice times over [0, 0.05], but at the end of
    step 13 at dt = 1e-3."""
    return OperatorCoeff.divergence(
        lambda t, x: np.where(np.abs(t - 0.014) < 1e-4, value, 1.0) + 0 * x,
        nu=0.5, alpha_upper=1.0)


@pytest.mark.parametrize("value, what", [
    (-1.0, r"drops below nu=0.5 \(-1 at t=0.014,"),
    (0.4, r"drops below nu=0.5 \(0.4 at t=0.014,"),
    (2.0, r"exceeds alpha_upper=1 \(2 at t=0.014,"),
    (math.nan, r"evaluated non-finite \(nan at t=0.014,"),
])
def test_the_operator_is_checked_where_the_solver_is_factored(value, what):
    op = _spiked_operator(value)
    p = ProblemSpec(Grid(15), op, drift=lambda t, u, v: -u,
                    diffusion=lambda t, u, v: 0.5 * v, tau=0.01,
                    noise=NoiseModel.scalar(seed=2),
                    initial_history=lambda th, x: np.sin(x),
                    t_final=0.05, dt=1e-3)
    assert op.time_dependent and p.n_steps == 50
    # the lattice misses the spike: construction and the steps before it
    # pass, and the step that would solve with it is refused
    ring = p.history_values()
    for k in range(13):
        imex_em_step(p, ring, 0, k)
    with pytest.raises(ValueError, match=what):
        imex_em_step(p, ring, 0, 13)
    with pytest.raises(ValueError, match=what):
        run_ensemble(p, range(3))
    # a checker block evaluates a(t, .) through the same check
    with pytest.raises(ValueError, match=what):
        op.midpoint_values(np.array([[0.0], [0.014], [0.03]]), p.grid)
    assert op.midpoint_values(np.array([[0.0], [0.03]]), p.grid).shape \
        == (2, 16)


def test_no_state_leaks_from_one_ensemble_into_the_next():
    # a second run_ensemble on the same ProblemSpec, after a simulate call
    # in between, gives the first one's every array bit for bit
    p = make_preset("eq16", grid_n=15, t_final=0.5, amplitude=1.0,
                    seed=3).problem
    kw = dict(record_steps=range(0, p.n_steps + 1, 7), record_v=2,
              window=(10, 40), snapshot_steps=(0, 25, p.n_steps))

    def arrays(res):
        return [res.h_norms, res.v_norms, res.peak, res.window_peak,
                res.explosion_times] + list(res.snapshots.values())

    first = arrays(run_ensemble(p, range(6), **kw))
    simulate(p, 9, snapshot_times=(0.1,))
    again = arrays(run_ensemble(p, range(6), **kw))
    assert len(first) == len(again) == 8
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


def test_linear_sine_mode_paths_match_the_scalar_recursion():
    # du = (u_xx + a u + b v) dt + c v dB with psi = A sin x stays on the
    # first eigenvector of the grid Laplacian: every path is s_n sin(x_j),
    # with s driven by the same Brownian increments
    a, b, c, amp = 0.3, 0.4, 0.6, 1.5
    p = zero_problem(grid_n=63, dt=1e-3, tau=0.1, t_final=5.0, amplitude=amp,
                     drift=lambda t, u, v: a * u + b * v,
                     diffusion=lambda t, u, v: c * v, seed=17)
    B, m, n_steps, dt = 200, p.m_delay, p.n_steps, p.dt
    assert m == 100 and n_steps == 5000
    res = simulate_paths(p, range(B), record_v=0)
    lam = lambda_min(p.grid)
    dB = p.noise.increments(np.arange(B), np.arange(n_steps), dt)
    s = np.empty((B, n_steps + m + 1))
    s[:, :m + 1] = amp                       # s at steps -m, ..., 0
    for k in range(n_steps):
        now, lag = s[:, m + k], s[:, k]
        s[:, m + k + 1] = ((now * (1.0 + dt * a) + dt * b * lag
                            + c * lag * dB[:, k]) / (1.0 + dt * lam))
    # ||sin||_H^2 = dx sum sin^2(x_j) = pi / 2 exactly on the grid
    oracle = np.abs(s[:, m:]) * math.sqrt(math.pi / 2.0)
    assert res.statuses == ["completed"] * B
    rel = np.abs(res.h_norms - oracle) / np.max(oracle, axis=1, keepdims=True)
    assert np.max(rel) <= 1e-10
    # the recursion with the delay one step short is far off: the check
    # sees an off-by-one delay
    s1 = np.empty_like(s)
    s1[:, :m + 1] = amp
    for k in range(n_steps):
        now, lag = s1[:, m + k], s1[:, k + 1]
        s1[:, m + k + 1] = ((now * (1.0 + dt * a) + dt * b * lag
                             + c * lag * dB[:, k]) / (1.0 + dt * lam))
    off = np.abs(s1[:, m:]) * math.sqrt(math.pi / 2.0)
    assert np.max(np.abs(res.h_norms - off)
                  / np.max(off, axis=1, keepdims=True)) > 1e-6


class SummedNoise:
    """Brownian increments built on a fine grid: the increment over coarse
    step k is the sum of the base model's increments over fine steps
    k r, ..., k r + r - 1, each of length dt / r.  Runs at different dt
    with the matching r are then driven by the same Brownian path."""

    def __init__(self, base, r):
        self.seed = base.seed
        self.base = base
        self.r = int(r)

    def increments(self, path_ids, step_index, dt):
        paths = np.atleast_1d(np.asarray(path_ids))
        steps = np.atleast_1d(np.asarray(step_index, dtype=np.int64))
        fine = (steps[:, None] * self.r + np.arange(self.r)).reshape(-1)
        dB = self.base.increments(paths, fine, dt / self.r)
        return dB.reshape(paths.size, steps.size, self.r).sum(axis=2)


def test_summed_noise_is_the_base_noise_at_r_1_and_sums_fine_steps():
    base = NoiseModel.scalar(seed=3)
    steps = np.arange(5, 9)
    assert np.array_equal(SummedNoise(base, 1).increments([0, 4], steps, 0.5),
                          base.increments([0, 4], steps, 0.5))
    coarse = SummedNoise(base, 4).increments([2], steps, 0.5)
    fine = base.increments([2], np.arange(20, 36), 0.125)
    assert np.allclose(coarse, fine.reshape(1, 4, 4).sum(axis=2),
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name", ["eq24", "eq16", "eq6"])
def test_strong_error_falls_at_least_at_a_floor_below_order_one_half(name):
    # Euler-Maruyama for SDDEs converges strongly with order 1/2 (Buckwar,
    # J. Comput. Appl. Math. 125, 2000).  Coarse runs at dt = 2^-4 ... 2^-8
    # share each path's Brownian motion with a 2^-12 reference; between any
    # two levels the RMS H-norm error at T must fall at an order of at
    # least ORDER_FLOOR, half the theoretical value, so sampling noise in
    # 64 paths cannot fail a correct scheme
    ORDER_FLOOR = 0.25
    paths, ref_level, levels = 64, 12, range(4, 9)

    def final_states(level):
        pre = make_preset(name, grid_n=15, dt=2.0 ** -level, tau=0.25,
                          t_final=1.0)
        p = pre.problem.replace(noise=SummedNoise(
            pre.problem.noise, 2 ** (ref_level - level)))
        assert p.n_steps == 2 ** level and not p.dt_adjusted
        res = run_ensemble(p, range(paths), record_steps=(), record_v=0,
                           snapshot_steps=(p.n_steps,))
        assert res.statuses == ["completed"] * paths
        return res.snapshots[p.n_steps], p.grid.dx

    ref, dx = final_states(ref_level)
    errors = []
    for level in levels:
        x, _ = final_states(level)
        errors.append(math.sqrt(np.mean(h_norm_sq_values(x - ref, dx))))
    for i in range(len(errors)):
        for j in range(i + 1, len(errors)):
            order = math.log2(errors[i] / errors[j]) / (j - i)
            assert order >= ORDER_FLOOR, (name, levels[i], levels[j], order)


@pytest.mark.parametrize("record", [[40, 3, 40, 0, 17, 3, 50], (7, 7, 7), (),
                                    np.array([[9, 2], [2, 50]])])
def test_record_steps_are_sorted_without_repeats(record):
    # the steps np.unique would give, and the norms of the full trace there
    p = zero_problem(tau=0.01, t_final=0.05, diffusion=lambda t, u, v: v)
    trace = simulate_paths(p, range(3))
    res = run_ensemble(p, range(3), record_steps=record)
    want = np.unique(np.asarray(record, dtype=np.int64))
    assert res.steps.dtype == np.int64
    assert np.array_equal(res.steps, want)
    assert np.array_equal(res.h_norms, trace.h_norms[:, want])
    assert np.array_equal(res.v_norms, trace.v_norms[:, want])


def test_path_ids_must_be_integers():
    # int64 conversion would take 0.5 for path 0 and 2.7 for path 2
    p = zero_problem(tau=0.01, t_final=0.05, diffusion=lambda t, u, v: v)
    ref = run_ensemble(p, [0, 1, 2])
    for ids in ([0, np.int32(1), np.int64(2)], range(3), np.arange(3),
                np.arange(3, dtype=np.uint8)):
        res = run_ensemble(p, ids)
        assert res.ids.dtype == np.int64 and res.ids.tolist() == [0, 1, 2]
        assert np.array_equal(res.h_norms, ref.h_norms)
    for bad in ([0.5], [0, 2.0], np.array([1.5]), ["1"]):
        with pytest.raises(ValueError, match="path id .* is not an integer"):
            run_ensemble(p, bad)
    with pytest.raises(ValueError, match="path id 2.7 is not an integer"):
        simulate(p, 2.7)


def test_the_step_norm_equals_h_norm_sq_values_of_the_state_bitwise():
    # the loop squares each state into the solver's level-0 block and sums
    # with add.reduce; the norms and maxima must be those of the fields, by
    # h_norm_sq_values, to the bit, at the desk batch and at a ragged one
    p = make_preset("eq24", t_final=0.05, seed=3).problem
    steps = range(p.n_steps + 1)
    for paths in (200, 13):
        res = run_ensemble(p, range(paths), snapshot_steps=steps,
                           window=(10, 30))
        sq = np.array([h_norm_sq_values(res.snapshots[k], p.grid.dx)
                       for k in steps]).T
        assert np.array_equal(res.h_norms, np.sqrt(sq))
        assert np.array_equal(res.peak, np.sqrt(sq.max(axis=1)))
        assert np.array_equal(res.window_peak,
                              np.sqrt(sq[:, 10:31].max(axis=1)))


def test_record_window_and_snapshot_steps_must_be_integers():
    # int() and np.int64 would take 2.5 for step 2 and (1.5, 4.7) for the
    # window (1, 4)
    p = zero_problem(tau=0.01, t_final=0.05, diffusion=lambda t, u, v: v)
    ref = run_ensemble(p, [0], record_steps=[2, 3], snapshot_steps=[2],
                       window=(1, 4))
    res = run_ensemble(p, [0], record_steps=np.array([3, 2], dtype=np.uint8),
                       snapshot_steps=[np.int32(2)],
                       window=(np.int64(1), np.int16(4)))
    assert np.array_equal(res.steps, ref.steps) and res.window == (1, 4)
    assert np.array_equal(res.h_norms, ref.h_norms)
    assert np.array_equal(res.window_peak, ref.window_peak)
    assert np.array_equal(res.snapshots[2], ref.snapshots[2])
    for kw, what in [(dict(record_steps=[2.5, 3.9]), "record step 2.5"),
                     (dict(record_steps=np.array([[1.0, 2.0]])),
                      "record step 1.0"),
                     (dict(snapshot_steps=[2.5]), "snapshot step 2.5"),
                     (dict(snapshot_steps=[1, "3"]), "snapshot step '3'"),
                     (dict(window=(1.5, 4.7)), "window step 1.5"),
                     (dict(window=(1, 4.0)), "window step 4.0")]:
        with pytest.raises(ValueError, match="^%s is not an integer$" % what):
            run_ensemble(p, [0], **kw)


def test_integers_outside_64_bits_are_refused_by_name():
    # np.fromiter into int64 raised OverflowError for these
    p = zero_problem(tau=0.01, t_final=0.05, diffusion=lambda t, u, v: v)
    top = run_ensemble(p, [2 ** 63 - 1, -2 ** 63])
    assert top.ids.tolist() == [2 ** 63 - 1, -2 ** 63]
    for kw, what, i in [(dict(path_ids=[2 ** 63]), "path id", 2 ** 63),
                        (dict(path_ids=[0, -2 ** 63 - 1]), "path id",
                         -2 ** 63 - 1),
                        (dict(path_ids=[np.uint64(2 ** 63)]), "path id",
                         2 ** 63),
                        (dict(record_steps=[2 ** 63]), "record step",
                         2 ** 63),
                        (dict(snapshot_steps=[2 ** 64]), "snapshot step",
                         2 ** 64),
                        (dict(window=(0, 2 ** 63)), "window step", 2 ** 63)]:
        kw.setdefault("path_ids", [0])
        with pytest.raises(ValueError, match=r"^%s %d is outside "
                           r"\[-2\^63, 2\^63\)$" % (what, i)):
            run_ensemble(p, **kw)


def test_snapshot_points_must_lie_in_the_run():
    p = zero_problem(tau=0.01, t_final=0.05)
    n = p.n_steps
    res = run_ensemble(p, [0], record_steps=(), snapshot_steps=(n, 0, n))
    assert sorted(res.snapshots) == [0, n]
    for bad in ((-1,), (0, n + 1)):
        with pytest.raises(ValueError,
                           match=r"snapshot steps must lie in \[0, %d\]" % n):
            run_ensemble(p, [0], snapshot_steps=bad)
    # simulate takes times in [0, t_final], to within 1e-12
    traj = simulate(p, 0, snapshot_times=(-1e-13, 0.01, 0.05 + 1e-13))
    assert [t for t, _ in traj.snapshots] == pytest.approx([0.0, 0.01, 0.05])
    for bad in (-0.5, 99.0, 0.05 + 1e-9, -1e-9, math.nan):
        with pytest.raises(ValueError, match=r"snapshot time .* must lie in "
                           r"\[0, t_final=0.05\]"):
            simulate(p, 0, snapshot_times=(0.01, bad))


def test_history_block_is_the_ring_of_every_path():
    p = zero_problem(tau=0.01, t_final=0.05)
    psi = p.history_block()
    assert psi.shape == (p.m_delay + 1, p.grid.n_interior)
    # evaluated afresh on every call, never cached on the problem
    assert np.array_equal(p.history_block(), psi)
    assert np.array_equal(psi[-1], np.sin(p.grid.points))
    ring = p.history_values(3)
    assert ring.shape == (p.m_delay + 1, 3, p.grid.n_interior)
    for path in range(3):
        assert np.array_equal(ring[:, path], psi)


def test_no_problem_holds_a_history_block_after_a_run(monkeypatch):
    # a run holds its delay ring and its reducers; the (m+1, n) history
    # block lives only while a chunk's ring is filled or the scan bounds it
    from sedes.stability import explosion_scan
    made = [zero_problem(tau=0.01, t_final=0.05, diffusion=lambda t, u, v: v)]
    real_replace = ProblemSpec.replace

    def replace(self, **kw):
        made.append(real_replace(self, **kw))
        return made[-1]
    monkeypatch.setattr(ProblemSpec, "replace", replace)
    p = made[0]
    run_ensemble(p, range(3), record_steps=(0, p.n_steps))
    explosion_scan(p, [5.0, 6.0], 3, 0.03)
    assert len(made) == 2
    block = (p.m_delay + 1, p.grid.n_interior)
    for q in made:
        held = [name for name, val in vars(q).items()
                if np.shape(val) == block]
        assert held == []


def _loop_history_block(p):
    """The per-theta loop history_block replaced: one call of psi per
    theta, on a float theta, at -(j * dt) for j = m, ..., 0."""
    rows = np.empty((p.m_delay + 1, p.grid.n_interior))
    thetas = [-(j * p.dt) for j in range(p.m_delay, -1, -1)]
    for row, th in zip(rows, thetas):
        row[...] = p.initial_history(th, p.grid.points)
    return rows


@pytest.mark.parametrize("m", [1, 3, 100])
def test_history_block_equals_the_per_theta_loop(m):
    # theta is a stored step -37 dt at m = 100, the ring state the spike of
    # test_stability's psi sits on
    theta0 = -(37 * 1e-3)
    psis = [
        lambda th, x: (1.0 + th) * np.sin(x),
        lambda th, x: np.exp(3.0 * th) * np.sin(2.0 * x) + th * th * np.sin(x),
        lambda th, x: (0.5 + 20.0 * np.exp(-((th - theta0) / 1e-6) ** 2))
        * np.sin(x),
        lambda th, x: np.sin(x) * np.cos(5.0 * th + x),
        lambda th, x: 0.1 * np.sin(x),
    ]
    for psi in psis:
        p = ProblemSpec(Grid(31), OperatorCoeff.laplacian(),
                        drift=lambda t, u, v: np.zeros_like(u),
                        diffusion=lambda t, u, v: np.zeros_like(u),
                        tau=0.1, noise=NoiseModel.scalar(),
                        initial_history=psi, t_final=0.05, dt=0.1 / m)
        assert p.m_delay == m
        block = p.history_block()
        assert block.shape == (m + 1, 31) and not block.flags.writeable
        assert np.array_equal(block, _loop_history_block(p))
        assert np.array_equal(p.history_values(2)[:, 1], block)


def test_a_theta_independent_history_block_is_one_row():
    p = zero_problem(tau=1.0, dt=1e-3)
    block = p.history_block()
    assert block.shape == (1001, 31) and block.strides[0] == 0
    assert np.array_equal(block, _loop_history_block(p))


@pytest.mark.parametrize("m", [1, 10, 1000])
def test_psi_is_called_once_per_ring_whatever_m(monkeypatch, m):
    calls = []

    def psi(th, x):
        calls.append(np.shape(th))
        return (1.0 + th) * np.sin(x)
    p = ProblemSpec(Grid(15), OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: -u,
                    diffusion=lambda t, u, v: np.zeros_like(u),
                    tau=1.0, noise=NoiseModel.scalar(), initial_history=psi,
                    t_final=2e-3, dt=1.0 / m)
    assert p.m_delay == m
    # the coarse and fine continuity grids and the walls
    assert calls == [(65, 1), (9, 1), (257, 1)]
    del calls[:]
    p.history_values(4)
    assert calls == [(m + 1, 1)]
    del calls[:]
    from sedes import integrator
    monkeypatch.setattr(integrator, "PATH_CHUNK", 2)
    run_ensemble(p, range(5), record_steps=())
    assert calls == [(m + 1, 1)] * 3          # one ring per chunk of 2


@pytest.mark.parametrize("a_fn, per_step", [
    (None, False),
    (lambda t, x: 1.0 + 0.5 * np.sin(x) ** 2, False),
    (lambda t, x: np.full_like(np.asarray(x, dtype=float), 1.5), False),
    (lambda t, x: 1.0 + 0.5 * np.sin(3.0 * t + x) ** 2, True),
    (lambda t, x: 1.25 + 0.0 * t, True),      # a t axis, if a constant one
    (lambda t, x: 1.0 + 0.5 * np.sin(t) ** 2 + 0.0 * x, True),
])
def test_the_operator_is_factored_once_unless_a_has_a_t_axis(monkeypatch,
                                                              a_fn, per_step):
    from sedes import integrator
    made = []
    factor = integrator._Solver.factor

    def counted(self, a_mid):
        made.append(a_mid)
        return factor(self, a_mid)
    monkeypatch.setattr(integrator._Solver, "factor", counted)
    op = (OperatorCoeff.laplacian() if a_fn is None
          else OperatorCoeff.divergence(a_fn, nu=1.0, alpha_upper=1.5))
    p = ProblemSpec(Grid(15), op, drift=lambda t, u, v: -u,
                    diffusion=lambda t, u, v: 0.5 * v, tau=0.02,
                    noise=NoiseModel.scalar(seed=1),
                    initial_history=lambda th, x: np.sin(x),
                    t_final=0.1, dt=1e-2)
    assert op.time_dependent == per_step
    # one path chunk per run: a static A is factored once per chunk, a
    # time-dependent one at every step
    run_ensemble(p, range(3))
    run_ensemble(p, range(2))
    assert len(made) == (2 * p.n_steps if per_step else 2)
