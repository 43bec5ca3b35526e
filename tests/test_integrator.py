"""Stepping, history, truncation, and explosion behavior of the integrator."""

import math

import numpy as np
import pytest

from sedes import (
    Field,
    Grid,
    HistoryBuffer,
    NoiseModel,
    OperatorCoeff,
    ProblemSpec,
    imex_em_step,
    lambda_min,
    make_preset,
    sample_increment,
    simulate,
    simulate_paths,
    stopping_time_sigma_k,
    truncate_problem,
)


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
    h = HistoryBuffer.from_problem(p)
    dW = sample_increment(p.noise, 0, 0, p.dt)
    x1 = imex_em_step(p, h, 0.0, dW)
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


def test_history_buffer_delay_exactness():
    grid = Grid(8)
    m = 5
    ring = np.zeros((m + 1, 1, 8))
    h = HistoryBuffer(ring, dt=0.1)
    pushed = []
    for i in range(1, 20):
        vals = np.full((1, 8), float(i))
        h.push(vals)
        pushed.append(vals)
        if i > m:
            assert np.array_equal(h.delayed(), pushed[i - 1 - m])
    assert h.head_time == pytest.approx(1.9)
    with pytest.raises(ValueError):
        h.at_lag(m + 1)


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
        mk(lambda th, x: np.sin(x) * (1.0 if th > -0.25 else 2.0))
    mk(lambda th, x: (1 + th) * np.sin(x))    # smooth in theta: accepted


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
    orig = p.drift.evaluate(0.3, small, small, dx)
    wrapped = q.drift.evaluate(0.3, small, small, dx)
    assert np.array_equal(orig, wrapped)
    # the zero field maps to zero (0/0 convention)
    z = np.zeros_like(pts)
    assert np.array_equal(q.drift.evaluate(0.0, z, z, dx),
                          p.drift.evaluate(0.0, z, z, dx))
    # a field of H norm 2k is projected to H norm exactly k
    from sedes.integrator import clamp_to_ball
    from sedes.fields import h_norm_sq_values
    big = np.sin(pts) * (8.0 / math.sqrt(h_norm_sq_values(np.sin(pts), dx)))
    proj = clamp_to_ball(big, 4.0, dx)
    assert math.sqrt(h_norm_sq_values(proj, dx)) == pytest.approx(4.0,
                                                                  rel=1e-12)
    with pytest.raises(ValueError, match="truncation below initial data"):
        truncate_problem(p, 0.01)


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


def test_clamp_mode_keeps_running():
    p = zero_problem(grid_n=31, dt=1e-2, tau=0.1, t_final=0.5, amplitude=30.0,
                     drift=lambda t, u, v: u ** 3, explosion_limit=1e3)
    traj = simulate(p, 0, clamp=True)
    assert traj.status == "clamped"
    assert traj.status_time is not None
    assert np.nanmax(traj.h_norms) <= 1e3 * (1 + 1e-9)


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
    h = HistoryBuffer.from_problem(p)
    for n in range(5):
        dW = sample_increment(p.noise, 2, n, p.dt)
        x = imex_em_step(p, h, n * p.dt, dW)
        h.push(x.values)
        assert h_norm(x) == traj.h_norms[n + 1]
    assert h.head_time == pytest.approx(5 * p.dt)


def test_step_rejects_an_increment_of_another_dt():
    p = make_preset("eq16", t_final=1.0).problem
    h = HistoryBuffer.from_problem(p)
    for dt in (2.0 * p.dt, p.dt * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match="does not match problem dt"):
            imex_em_step(p, h, 0.0, sample_increment(p.noise, 0, 0, dt))
    # the step is pure: a rejected call leaves the history untouched
    assert h.head_time == 0.0
    x = imex_em_step(p, h, 0.0, sample_increment(p.noise, 0, 0, p.dt))
    assert x.values.shape == (p.grid.n_interior,)


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


def tridiag_matrix(a_mid, dt, dx):
    r = dt / (dx * dx)
    return (np.diag(1.0 + r * (a_mid[:-1] + a_mid[1:]))
            - np.diag(r * a_mid[1:-1], 1) - np.diag(r * a_mid[1:-1], -1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 31, 63, 64, 200, 1000])
@pytest.mark.parametrize("dt", [1e-5, 1e-3, 1e-1])
def test_cyclic_reduction_matches_thomas(n, dt):
    from sedes.integrator import _TridiagFactor
    rng = np.random.default_rng(n)
    a_mid = rng.uniform(0.5, 2.0, n + 1)
    dx = math.pi / (n + 1)
    rhs = rng.standard_normal((7, n))
    x = _TridiagFactor(a_mid, dt, dx).solve(rhs)
    ref = ThomasFactor(a_mid, dt, dx).solve(rhs)
    assert x.shape == rhs.shape and x.flags.c_contiguous
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    if n <= 200:
        resid = tridiag_matrix(a_mid, dt, dx) @ x.T - rhs.T
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(rhs))
    # each row is solved with its own arithmetic: a one-row solve gives
    # the same bits as that row of the batch
    solver = _TridiagFactor(a_mid, dt, dx)
    for i in range(rhs.shape[0]):
        one = solver.solve(rhs[i:i + 1])
        assert one.flags.c_contiguous
        assert np.array_equal(one[0], x[i])


def _block_cases():
    yield "eq16", make_preset("eq16", t_final=0.15, seed=3).problem, False
    yield "eq24", make_preset("eq24", t_final=0.15, seed=4).problem, False
    # cubic feedback with multiplicative noise: some paths explode, and in
    # clamp mode the same paths are held on the ball instead
    boom = zero_problem(grid_n=31, dt=1e-2, tau=0.1, t_final=1.5,
                        amplitude=3.0, drift=lambda t, u, v: u ** 3,
                        diffusion=lambda t, u, v: 3.0 * u,
                        explosion_limit=1e3)
    yield "explodes", boom, False
    yield "clamped", boom, True


@pytest.mark.parametrize("block", [1, 7, 64])
def test_ensembles_do_not_depend_on_the_noise_block(monkeypatch, block):
    import sedes.integrator as integ
    ref = {name: simulate_paths(p, range(6), clamp=clamp)
           for name, p, clamp in _block_cases()}
    assert "exploded" in ref["explodes"].statuses
    assert "completed" in ref["explodes"].statuses
    assert "clamped" in ref["clamped"].statuses
    monkeypatch.setattr(integ, "NOISE_BLOCK", block)
    for name, p, clamp in _block_cases():
        res = simulate_paths(p, range(6), clamp=clamp)
        assert np.array_equal(res.h_norms, ref[name].h_norms,
                              equal_nan=True), name
        assert np.array_equal(res.v_norms, ref[name].v_norms,
                              equal_nan=True), name
        assert res.statuses == ref[name].statuses, name
        assert res.status_times == ref[name].status_times, name


def _chunked_run(p, clamp, n_paths):
    """Every reducer of one ensemble, and the full trace."""
    from sedes import as_stability_stats, ms_ensemble, run_ensemble
    ids = range(n_paths)
    trace = simulate_paths(p, ids, clamp=clamp, snapshot_steps=(0, 75, 150))
    reduced = run_ensemble(p, ids, record_steps=[150, 0, 77, 5, 77],
                           record_v=3, clamp=clamp, window=(40, 90))
    stats = None
    if not clamp:
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
    ref = {name: _chunked_run(p, clamp, n_paths)
           for name, p, clamp in _block_cases()}
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
            assert (res.statuses, res.status_times) == (
                trace.statuses, trace.status_times), name
    monkeypatch.setattr(integ, "PATH_CHUNK", chunk)
    for name, p, clamp in _block_cases():
        trace, reduced, stats = _chunked_run(p, clamp, n_paths)
        ref_trace, ref_reduced, ref_stats = ref[name]
        for res, want in ((trace, ref_trace), (reduced, ref_reduced)):
            for key in ("h_norms", "v_norms", "peak"):
                assert np.array_equal(getattr(res, key), getattr(want, key),
                                      equal_nan=True), (name, key)
            assert (res.statuses, res.status_times) == (
                want.statuses, want.status_times), name
        assert np.array_equal(reduced.window_peak, ref_reduced.window_peak,
                              equal_nan=True), name
        assert trace.snapshots.keys() == ref_trace.snapshots.keys()
        for step, states in trace.snapshots.items():
            assert np.array_equal(states, ref_trace.snapshots[step]), name
        assert stats == ref_stats, name


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
    from sedes.integrator import _TridiagFactor, _Workspace
    rng = np.random.default_rng(100 + n)
    a_mid = rng.uniform(0.5, 2.0, n + 1)
    dx = math.pi / (n + 1)
    for dt in (1e-5, 1e-3, 1e-1):
        factor = _TridiagFactor(a_mid, dt, dx)
        ref = StridedCyclicReduction(a_mid, dt, dx)
        for B in (1, 7, 200, 7):
            rhs = rng.standard_normal((B, n))
            assert np.array_equal(factor.solve(rhs), ref.solve(rhs)), (dt, B)
            # a reused workspace and a caller's output array: same bits,
            # and the right-hand side is left as it was
            work, out = _Workspace(n, B), np.empty((B, n))
            kept = rhs.copy()
            for _ in range(2):
                assert factor.solve(rhs, out, work) is out
                assert np.array_equal(out, ref.solve(rhs))
            assert np.array_equal(rhs, kept)


def _stepped_by_hand(p, path_id, n_steps):
    """States of one path from imex_em_step and push, as an (n_steps + 1,
    n) array."""
    h = HistoryBuffer.from_problem(p)
    states = [h.current()[0].copy()]
    for k in range(n_steps):
        dW = sample_increment(p.noise, path_id, k, p.dt)
        x = imex_em_step(p, h, k * p.dt, dW)
        h.push(x.values)
        states.append(x.values.copy())
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
    h = HistoryBuffer.from_problem(p)
    dx, worst = grid.dx, 0.0
    for k in range(p.n_steps):
        t, x, y = k * p.dt, h.current(), h.delayed()
        dW = sample_increment(p.noise, 1, k, p.dt)
        rhs = (x + p.dt * p.drift.evaluate(t, x, y, dx)
               + p.diffusion.evaluate(t, x, y, dx) * dW.coords)[0]
        x_next = imex_em_step(p, h, t, dW).values
        a_mid = op.midpoint_values(t + p.dt, grid)
        resid = tridiag_matrix(a_mid, p.dt, dx) @ x_next - rhs
        worst = max(worst, np.max(np.abs(resid)) / np.max(np.abs(rhs)))
        # against A at t_n instead the residual is far from rounding
        stale = (tridiag_matrix(op.midpoint_values(t, grid), p.dt, dx)
                 @ x_next - rhs)
        assert np.max(np.abs(stale)) > 1e-6 * np.max(np.abs(rhs))
        h.push(x_next)
    assert worst <= 1e-12


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
