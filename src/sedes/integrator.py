"""IMEX Euler-Maruyama integration of the discretized delay equation

    dx(t) = [A(t, x(t)) + f(t, x(t), x(t - tau))] dt
            + g(t, x(t), x(t - tau)) dB(t)

on the interior grid of (0, pi).  One step solves

    (I - dt A(t_{n+1})) x_{n+1} = x_n + dt f(t_n, x_n, x_{n-m})
                                  + g(t_n, x_n, x_{n-m}) * dB_n,

implicit in the stiff linear part (whose largest eigenvalue grows like
4/dx^2 and would otherwise force dt = O(dx^2)), explicit in the
nonlinearity and the noise so the scheme stays Ito-consistent.  The
tridiagonal solve is cyclic reduction (Hockney 1965) without pivoting: the
matrix is strictly diagonally dominant for any positive diffusion
coefficient, every reduction level stays so, and breakdown cannot occur.
Each level's multipliers are computed once per factor, and the solve runs
on all paths at once with elementwise arithmetic only.  It stores every
level as two contiguous (k, B) blocks, [evens | odds], so each of its
ufunc calls is one flat loop over k * B numbers; the odd rows are
de-interleaved into the next level on the way down and interleaved back
on the way up.  The ensemble engine forms the right-hand side in buffers
allocated once per path chunk, and the solve writes the new state straight
into the ring slot of the delayed state, the one slot no later part of the
step reads; explosion zeroing and clamp scaling then act on that slot in
place.

The ensemble engine integrates PATH_CHUNK paths at a time, each chunk with a
ring of its own, and keeps per path only what its reducers ask for: the
norms at the record steps, running maxima of the H norm, statuses and
snapshots.  A run's memory therefore grows with neither its path count
(beyond the reducers' arrays) nor its number of steps.

The delay tau is pinned to an exact multiple m * dt (the constructor
shrinks dt to the nearest divisor and records the adjustment), so the
delayed state is always a stored step and never interpolated.

Paths are pure functions of (ProblemSpec, path_id): all randomness is
counter-based, and the batched ensemble driver performs exactly the same
elementwise arithmetic per path as a single-path run, so batching is a
speed knob, not a semantics knob.  Blow-up is reported, never masked: a
non-finite state or an H norm beyond the explosion limit truncates the
trajectory with status "exploded".
"""

import math

import numpy as np

from .fields import (
    Field,
    Grid,
    OperatorCoeff,
    h_norm_sq_values,
    v_norm_sq_values,
)
from .noise import NoiseIncrement, NoiseModel

__all__ = [
    "PointwiseCoeff",
    "BallClampedCoeff",
    "ProblemSpec",
    "HistoryBuffer",
    "Trajectory",
    "BatchResult",
    "imex_em_step",
    "run_ensemble",
    "simulate",
    "simulate_paths",
    "truncate_problem",
    "stopping_time_sigma_k",
]

EXPLOSION_LIMIT = 1e12
# steps whose noise simulate_paths draws in one call; every draw is keyed
# by (seed, path, step), so the value moves no bit of any path
NOISE_BLOCK = 64
# paths integrated together, each chunk with a delay ring of its own, so a
# run holds one (m+1, PATH_CHUNK, n) ring however many paths it has; paths
# are independent and their noise is keyed by path, so the value moves no
# bit of any path.  The eq24 batch sweep is fastest near B = 200
# (BENCH_6.json: 923k path-steps/s, against 879k at 1000 and 815k at 2000)
PATH_CHUNK = 256


class PointwiseCoeff:
    """Coefficient applied entrywise: fn(t, u, v) with u current, v delayed.

    fn must be numpy-vectorized: it receives arrays of grid values, one
    state per row, and a row's result may not depend on the other rows
    (the rule batch invariance already sets for the integrator).
    time_dependent=False declares that fn ignores t, which lets the
    hypothesis checkers evaluate a whole block of sampled states in one
    call at one time, as OperatorCoeff.time_dependent does for the
    operator.
    """

    def __init__(self, fn, time_dependent=True):
        self.fn = fn
        self.time_dependent = bool(time_dependent)

    def evaluate(self, t, x, y, dx):
        return self.fn(t, x, y)


def clamp_to_ball(values, radius, dx):
    """Rescale whole fields onto the H ball of the given radius.

    Fields already inside the ball are returned bitwise unchanged (the
    scale factor is exactly 1.0); the zero field maps to itself, matching
    the convention that the radial projection of 0 is 0.
    """
    h = np.sqrt(h_norm_sq_values(values, dx))[..., None]
    # decide on h > radius, not h > 0: a field whose squared norm underflows
    # to 0 is inside the ball and must keep its values
    with np.errstate(divide="ignore"):
        scale = np.where(h > radius, radius / h, 1.0)
    return values * scale


class BallClampedCoeff:
    """Coefficient that first projects x and y onto the H ball of radius k.

    The scale factor depends on the whole field, not on the value at one
    grid point, so this cannot be written as a pointwise function of
    (u, v) and wraps the inner coefficient instead.
    """

    def __init__(self, inner, radius):
        if radius <= 0:
            raise ValueError("truncation radius must be positive")
        self.inner = inner
        self.radius = float(radius)
        # the clamp acts row by row, so it keeps the inner time rule
        self.time_dependent = getattr(inner, "time_dependent", True)

    def evaluate(self, t, x, y, dx):
        xk = clamp_to_ball(x, self.radius, dx)
        yk = clamp_to_ball(y, self.radius, dx)
        return self.inner.evaluate(t, xk, yk, dx)


def _as_coeff(c):
    if hasattr(c, "evaluate"):
        return c
    if callable(c):
        return PointwiseCoeff(c)
    raise TypeError("coefficient must be callable or provide .evaluate")


class ProblemSpec:
    """Discrete instance of the delay evolution equation.

    drift and diffusion are pointwise (t, u, v) callables or coefficient
    objects; initial_history is psi(theta, x) for theta in [-tau, 0],
    vectorized in x, with psi(., 0) = psi(., pi) = 0.  Construction
    validates the operator bounds, the boundedness of f(t,0,0) and
    g(t,0,0) over the horizon, and (by a sampled refinement check) the
    continuity of psi in theta.
    """

    def __init__(self, grid: Grid, op: OperatorCoeff, drift, diffusion,
                 tau: float, noise: NoiseModel, initial_history,
                 t_final: float, dt: float, explosion_limit=EXPLOSION_LIMIT,
                 validate: bool = True):
        if tau <= 0:
            raise ValueError("delay tau must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if t_final <= 0:
            raise ValueError("t_final must be positive")
        self.grid = grid
        self.op = op
        self.drift = _as_coeff(drift)
        self.diffusion = _as_coeff(diffusion)
        self.tau = float(tau)
        self.noise = noise
        self.initial_history = initial_history
        self.t_final = float(t_final)
        self.explosion_limit = float(explosion_limit)

        # pin tau to an exact multiple of dt, shrinking dt if needed
        self.dt_requested = float(dt)
        m = int(math.ceil(self.tau / dt - 1e-9))
        self.m_delay = max(m, 1)
        self.dt = self.tau / self.m_delay
        self.dt_adjusted = not math.isclose(self.dt, self.dt_requested,
                                            rel_tol=1e-12)
        self.n_steps = int(math.ceil(self.t_final / self.dt - 1e-9))
        self._factor = None     # set by _factor_for for a static operator
        self._psi = None        # set by history_values

        if validate:
            self._validate()

    def _validate(self):
        self.op.validate(self.grid, self.t_final)
        pts = self.grid.points
        dx = self.grid.dx
        zero = np.zeros_like(pts)

        # (B.2)-style boundedness of f(t,0,0) and g(t,0,0), sampled in t
        sup = 0.0
        for t in np.linspace(0.0, self.t_final, 33):
            for coeff in (self.drift, self.diffusion):
                out = np.asarray(coeff.evaluate(t, zero, zero, dx), dtype=float)
                if not np.all(np.isfinite(out)):
                    raise ValueError(
                        "coefficient at the zero state is non-finite "
                        "(boundedness check failed at t=%g)" % t)
                sup = max(sup, float(np.max(np.abs(out))) if out.size else 0.0)
        self.zero_state_bound = sup

        # initial history: walls, continuity in theta, and H-norm bound
        walls = np.array([0.0, math.pi])
        thetas = np.linspace(-self.tau, 0.0, 65)
        coarse = np.array([self.initial_history(th, pts) for th in thetas])
        scale = float(np.max(np.abs(coarse))) if coarse.size else 0.0
        tol = 1e-9 * (1.0 + scale)
        for th in thetas[::8]:
            w = np.asarray(self.initial_history(th, walls), dtype=float)
            if np.any(np.abs(w) > tol):
                raise ValueError(
                    "initial history does not vanish on the walls "
                    "(psi(%g, {0, pi}) = %s)" % (th, w))
        fine_thetas = np.linspace(-self.tau, 0.0, 257)
        fine = np.array([self.initial_history(th, pts) for th in fine_thetas])
        if not np.all(np.isfinite(fine)):
            raise ValueError("initial history evaluated non-finite")
        jump_coarse = float(np.max(np.abs(np.diff(coarse, axis=0))))
        jump_fine = float(np.max(np.abs(np.diff(fine, axis=0))))
        if jump_fine > 0.75 * jump_coarse + tol:
            raise ValueError(
                "initial history looks discontinuous in theta "
                "(refinement does not shrink the largest jump)")
        # a finite history can still overflow its norm
        with np.errstate(over="ignore"):
            self.psi_h_bound = float(
                np.max(np.sqrt(h_norm_sq_values(fine, dx))))
        if not math.isfinite(self.psi_h_bound):
            raise ValueError("initial history has an H norm that overflows")

    def history_values(self, batch: int = 1):
        """Initial ring (m+1, batch, n): psi at theta = -m dt, ..., -dt, 0.

        psi is evaluated once per problem; each call copies those m+1
        states to every path of the batch."""
        m, n = self.m_delay, self.grid.n_interior
        if self._psi is None:
            psi = np.empty((m + 1, n))
            for j in range(m, -1, -1):
                psi[m - j] = np.asarray(
                    self.initial_history(-(j * self.dt), self.grid.points),
                    dtype=float)
            self._psi = psi
        ring = np.empty((m + 1, batch, n))
        ring[...] = self._psi[:, None, :]
        return ring

    def replace(self, **kw) -> "ProblemSpec":
        args = dict(grid=self.grid, op=self.op, drift=self.drift,
                    diffusion=self.diffusion, tau=self.tau, noise=self.noise,
                    initial_history=self.initial_history,
                    t_final=self.t_final, dt=self.dt_requested,
                    explosion_limit=self.explosion_limit)
        args.update(kw)
        return ProblemSpec(**args)


class HistoryBuffer:
    """Ring of the m+1 most recent states, covering one delay window.

    current() is the state at head_time; delayed() is the state stored
    exactly m steps earlier (no interpolation, by construction).
    """

    def __init__(self, ring, dt, head_time=0.0):
        ring = np.asarray(ring, dtype=float)
        if ring.ndim == 2:
            ring = ring[:, None, :]
        self._ring = ring
        self._m = ring.shape[0] - 1
        self._head = self._m
        self.dt = float(dt)
        self.head_time = float(head_time)

    @classmethod
    def from_problem(cls, p: ProblemSpec, batch: int = 1) -> "HistoryBuffer":
        return cls(p.history_values(batch), p.dt, head_time=0.0)

    @property
    def m(self) -> int:
        return self._m

    def current(self):
        return self._ring[self._head]

    def delayed(self):
        """State from m steps ago (lag exactly tau)."""
        return self._ring[(self._head + 1) % (self._m + 1)]

    def at_lag(self, j: int):
        """State stored j steps before head_time, 0 <= j <= m."""
        if not 0 <= j <= self._m:
            raise ValueError("lag out of the delay window")
        return self._ring[(self._head - j) % (self._m + 1)]

    def push(self, values):
        self.delayed()[...] = values
        self.advance()

    def advance(self):
        """Move the head onto the slot delayed() returned, whose values the
        caller has overwritten with the new state (push without a copy)."""
        self._head = (self._head + 1) % (self._m + 1)
        self.head_time += self.dt


class _TridiagFactor:
    """Prefactored cyclic-reduction solve of (I - dt A(t)) x = rhs, batched
    over rows.

    Level k keeps the odd-numbered equations of level k-1, with their
    even-numbered neighbours eliminated.  Every level's multipliers and
    reciprocal pivots are computed here, once; solve() applies them level
    by level with elementwise ufuncs, so no path's arithmetic depends on the
    rest of its batch.  No pivoting: reduction keeps the matrix strictly
    diagonally dominant with positive diagonal for any a > 0, so no pivot
    can vanish.

    solve() keeps each level as two contiguous (k, B) blocks in natural
    order, [evens | odds] (see _Workspace), so every reduction and
    back-substitution op is one flat ufunc loop.  The coefficients are
    materialized as (k, B) arrays for the same reason: against a (k, 1)
    column numpy restarts its inner loop on every row.  Both forms give the
    same bits; at n = 63 the materialized one is about 30% faster at B = 50,
    25% at 200, and level with the column form at 1000 and 2000.
    """

    def __init__(self, a_mid, dt, dx):
        r = dt / (dx * dx)
        n = a_mid.size - 1
        lower = -r * a_mid[:-1]          # subdiagonal, entry j couples j-1
        upper = -r * a_mid[1:]           # superdiagonal, entry j couples j+1
        diag = 1.0 + r * (a_mid[:-1] + a_mid[1:])
        lower[0] = upper[-1] = 0.0       # the walls carry no unknown
        self.n = n
        # per level: alpha, beta (reduction) and inv, lo_inv, up_inv (back
        # substitution), for the level's no odd and ne even rows
        self._levels = []
        while diag.size > 1:
            ne, no = (diag.size + 1) // 2, diag.size // 2
            m = ne - 1                   # odd rows with a right neighbour
            assert np.all(diag > 0.0), "cyclic reduction broke down"
            inv = 1.0 / diag[0::2]
            lo_e, up_e = lower[0::2], upper[0::2]
            alpha = -lower[1::2] * inv[:no]
            beta = -upper[1::2][:m] * inv[1:]
            self._levels.append((alpha, beta, inv, lo_e[1:] * inv[1:],
                                 up_e[:no] * inv[:no]))
            next_diag = diag[1::2] + alpha * up_e[:no]
            next_diag[:m] += beta * lo_e[1:]
            lower = alpha * lo_e[:no]
            upper = np.zeros(no)
            upper[:m] = beta * up_e[1:]
            diag = next_diag
        assert diag[0] > 0.0, "cyclic reduction broke down"
        self._top = 1.0 / diag[0]
        self._columns = (0, None)

    def _columns_for(self, batch):
        """Every level's coefficients as (k, batch) arrays, kept for the
        last batch size asked for."""
        if self._columns[0] != batch:
            self._columns = (batch, [
                tuple(np.repeat(c[:, None], batch, axis=1) for c in level)
                for level in self._levels])
        return self._columns[1]

    def solve(self, rhs, out=None, work=None):
        """Solve for every row of rhs (B, n) into out, a C-contiguous (B, n)
        (allocated when None); work is a _Workspace for n and B, built
        here when None.  rhs may be work.rhs or share memory with out: it
        is read in full before out is written."""
        B = rhs.shape[0]
        if work is None:
            work = _Workspace(self.n, B)
        if out is None:
            out = np.empty((B, self.n))
        mul, add, sub, copy = np.multiply, np.add, np.subtract, np.copyto
        levels = list(zip(work.levels, self._columns_for(B)))
        evens, odds = work.level0
        copy(evens, rhs[:, 0::2].T)
        copy(odds, rhs[:, 1::2].T)
        for (e, o, e_l, e_r, o_m, t_no, t_m, o_ev, o_od, n_ev, n_od), \
                (alpha, beta, _, _, _) in levels:
            mul(alpha, e_l, t_no)
            add(o, t_no, o)
            mul(beta, e_r, t_m)
            add(o_m, t_m, o_m)
            copy(n_ev, o_ev)
            copy(n_od, o_od)
        mul(work.top, self._top, work.top)
        for (e, o, e_l, e_r, o_m, t_no, t_m, o_ev, o_od, n_ev, n_od), \
                (_, _, inv, lo_inv, up_inv) in reversed(levels):
            copy(o_ev, n_ev)
            copy(o_od, n_od)
            mul(e, inv, e)
            mul(lo_inv, o_m, t_m)
            sub(e_r, t_m, e_r)
            mul(up_inv, o, t_no)
            sub(e_l, t_no, e_l)
        copy(out[:, 0::2], evens.T)
        copy(out[:, 1::2], odds.T)
        return out


class _Workspace:
    """Buffers of one IMEX step for B paths of n unknowns, with every view
    the solve uses, built once per run.

    rhs and noise hold the right-hand side and its noise term.  The solve
    stores a level of k rows as a (k, B) array whose first (k + 1) // 2 rows
    are the level's even rows and the rest its odd rows, each in natural
    order.  The odd rows are the next level's rows, so between levels the
    odds block is de-interleaved into the next level's array on the way
    down and interleaved back on the way up; level 0 is filled straight
    from the transposed right-hand side and read straight into the
    solution.
    """

    def __init__(self, n, batch):
        self.rhs = np.empty((batch, n))
        self.noise = np.empty((batch, n))
        tmp = np.empty((n // 2, batch))
        f = np.empty((n, batch))
        self.level0 = (f[:(n + 1) // 2], f[(n + 1) // 2:])
        self.levels = []
        while f.shape[0] > 1:
            ne, no = (f.shape[0] + 1) // 2, f.shape[0] // 2
            e, o = f[:ne], f[ne:]
            nxt = np.empty((no, batch))
            half = (no + 1) // 2
            self.levels.append((e, o, e[:no], e[1:], o[:ne - 1], tmp[:no],
                                tmp[:ne - 1], o[0::2], o[1::2], nxt[:half],
                                nxt[half:]))
            f = nxt
        self.top = f


def _factor_for(p: ProblemSpec, t_next: float) -> _TridiagFactor:
    """Factor of I - dt A(t_next): built once per problem when A does not
    depend on time, afresh for every step when it does."""
    factor = p._factor
    if factor is None:
        factor = _TridiagFactor(p.op.midpoint_values(t_next, p.grid), p.dt,
                                p.grid.dx)
        if not p.op.time_dependent:
            p._factor = factor
    return factor


def _em_step(p: ProblemSpec, t: float, x, y, dB, work=None, out=None):
    """Scheme arithmetic: solve (I - dt A(t + dt)) x' = x + dt f + g dB,
    with f, g at (t, x, y) and dB the Brownian increments, one per row of x.

    x' goes into out (allocated when None).  out may be y's memory: the
    right-hand side is formed in work's buffers before the solve writes."""
    dx = p.grid.dx
    drift = np.asarray(p.drift.evaluate(t, x, y, dx), dtype=float)
    diff = np.asarray(p.diffusion.evaluate(t, x, y, dx), dtype=float)
    if work is None:
        work = _Workspace(p.grid.n_interior, x.shape[0])
    rhs, noise = work.rhs, work.noise
    np.multiply(p.dt, drift, rhs)
    np.add(x, rhs, rhs)
    np.multiply(diff, dB, noise)
    np.add(rhs, noise, rhs)
    return _factor_for(p, t + p.dt).solve(rhs, out, work)


def imex_em_step(p: ProblemSpec, h: HistoryBuffer, t: float,
                 dW: NoiseIncrement) -> Field:
    """One IMEX Euler-Maruyama step from the state at time t in h.

    Pure: h is not advanced (push the returned state to advance).  The
    increment dW must carry the problem's step size.
    """
    if not math.isclose(dW.dt, p.dt, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("noise increment dt=%g does not match problem dt=%g"
                         % (dW.dt, p.dt))
    out = _em_step(p, t, h.current(), h.delayed(), dW.coords)
    return Field(p.grid, out[0])


class Trajectory:
    """One sample path: per-step norms, optional snapshots, and a status."""

    def __init__(self, times, h_norms, v_norms, status, status_time=None,
                 snapshots=None, path_id=0):
        self.times = times
        self.h_norms = h_norms
        self.v_norms = v_norms
        self.status = status            # completed | exploded | clamped
        self.status_time = status_time
        self.snapshots = snapshots or []
        self.path_id = path_id

    def __repr__(self):
        return ("Trajectory(path_id=%d, steps=%d, status=%s)"
                % (self.path_id, len(self.times) - 1, self.status))


class BatchResult:
    """Ensemble run, as its reducers left it.

    h_norms (n_paths, len(steps)) and v_norms (n_v, len(steps)) hold the
    norms at the recorded steps (every step for simulate_paths); dead
    entries are NaN.  peak is each path's largest H norm from step 0 to the
    end, and window_peak its largest over steps window[0]..window[1] (None
    without a window); both stop at a path's explosion, and window_peak is
    NaN for a path dead before the window.  snapshots maps a step to the
    (n_paths, n) states there."""

    def __init__(self, steps, dt, h_norms, v_norms, statuses, status_times,
                 path_ids, peak, window=None, window_peak=None,
                 snapshots=None):
        self.steps = steps
        self.times = dt * steps
        self.h_norms = h_norms
        self.v_norms = v_norms
        self.statuses = statuses
        self.status_times = status_times
        self.path_ids = path_ids
        self.peak = peak
        self.window = window
        self.window_peak = window_peak
        self.snapshots = snapshots if snapshots is not None else {}

    @property
    def n_paths(self):
        return len(self.path_ids)

    def exploded_ids(self):
        return [pid for pid, s in zip(self.path_ids, self.statuses)
                if s == "exploded"]

    def columns(self, steps):
        """Column of h_norms and v_norms holding each of the given steps;
        ValueError for a step the run did not record."""
        steps = np.asarray(steps, dtype=np.int64)
        cols = np.searchsorted(self.steps, steps)
        if np.any(cols >= self.steps.size) or \
                not np.array_equal(self.steps[cols], steps):
            raise ValueError("the ensemble recorded no norms at some of the "
                             "requested steps")
        return cols


def run_ensemble(p: ProblemSpec, path_ids, record_steps=None, record_v=None,
                 clamp=False, window=None, snapshot_steps=()) -> BatchResult:
    """Integrate paths PATH_CHUNK at a time through per-path reducers.

    The reducers keep the H norms at record_steps (every step when None),
    the V norms there for the first record_v paths (all when None), the
    running maxima of the H norm over the whole run and over the steps
    window = (i0, i1), the statuses and the states at snapshot_steps.
    Each reads the very values a full per-step trace would hold, and each
    path's arithmetic is identical to a single-path run, so results do not
    depend on how paths are grouped or chunked."""
    path_arr = np.asarray(list(path_ids), dtype=np.int64)
    B, n_steps = path_arr.size, p.n_steps
    steps = (np.arange(n_steps + 1) if record_steps is None
             else np.unique(np.asarray(record_steps, dtype=np.int64)))
    if steps.size and not 0 <= steps[0] <= steps[-1] <= n_steps:
        raise ValueError("record steps must lie in [0, %d]" % n_steps)
    if window is not None:
        window = (int(window[0]), int(window[1]))
        if not 0 <= window[0] <= window[1] <= n_steps:
            raise ValueError("window steps must lie in [0, %d]" % n_steps)
    n_v = B if record_v is None else min(record_v, B)
    res = BatchResult(
        steps, p.dt, h_norms=np.full((B, steps.size), np.nan),
        v_norms=np.full((n_v, steps.size), np.nan) if n_v else None,
        statuses=np.full(B, "completed", dtype=object),
        status_times=np.full(B, None, dtype=object),
        path_ids=path_arr.tolist(),
        peak=np.full(B, np.nan), window=window,
        window_peak=None if window is None else np.full(B, np.nan),
        snapshots={s: np.empty((B, p.grid.n_interior))
                   for s in set(int(s) for s in snapshot_steps)
                   if 0 <= s <= n_steps})
    # the reducers keep squared norms: sqrt is monotone and correctly
    # rounded, so the root of the largest square is the largest root
    for lo in range(0, B, PATH_CHUNK):
        _run_chunk(p, res, path_arr, slice(lo, min(lo + PATH_CHUNK, B)),
                   n_v, clamp)
    np.sqrt(res.peak, out=res.peak)
    if window is not None:
        np.sqrt(res.window_peak, out=res.window_peak)
    res.statuses = res.statuses.tolist()
    res.status_times = res.status_times.tolist()
    return res


def _run_chunk(p: ProblemSpec, res: BatchResult, path_arr, rows, n_v, clamp):
    """Integrate the paths path_arr[rows] in one batch with a delay ring of
    their own, feeding res's reducers at those rows."""
    ids = path_arr[rows]
    dx, dt, n_steps = p.grid.dx, p.dt, p.n_steps
    nv = max(0, min(rows.stop, n_v) - rows.start)
    h_rec = res.h_norms[rows]
    v_rec = res.v_norms[rows.start:rows.start + nv] if nv else None
    peak_sq = res.peak[rows]
    w0, w1 = res.window if res.window is not None else (-1, -1)
    window_sq = res.window_peak[rows] if res.window is not None else None
    record = res.steps.tolist()
    snapshots = {s: snap[rows] for s, snap in res.snapshots.items()}
    statuses, status_times = res.statuses[rows], res.status_times[rows]

    hist = HistoryBuffer.from_problem(p, ids.size)
    work = _Workspace(p.grid.n_interior, ids.size)
    alive = np.ones(ids.size, dtype=bool)
    limit_sq = p.explosion_limit * p.explosion_limit

    def feed(step, x, hn2, col):
        """Feed the reducers the state at step; returns the next record
        column."""
        np.fmax(peak_sq, hn2, out=peak_sq, where=alive)
        if w0 <= step <= w1:
            np.fmax(window_sq, hn2, out=window_sq, where=alive)
        if col < len(record) and record[col] == step:
            h_rec[:, col] = np.where(alive, np.sqrt(hn2), np.nan)
            if nv:
                vn2 = v_norm_sq_values(x[:nv], dx)
                v_rec[:, col] = np.where(alive[:nv], np.sqrt(vn2), np.nan)
            col += 1
        if step in snapshots:
            snapshots[step][...] = x
        return col

    x0 = hist.current()
    col = feed(0, x0, h_norm_sq_values(x0, dx), 0)

    # a path heading for blow-up may overflow inside the coefficients, the
    # solve or the norms; that is detected and reported below, not warned
    # about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, n_steps + 1):
            k = (step - 1) % NOISE_BLOCK
            if k == 0:
                dBs = p.noise.increments(
                    ids,
                    np.arange(step - 1, min(step - 1 + NOISE_BLOCK, n_steps)),
                    dt)
            # the delayed state is last read while the right-hand side is
            # formed, so the solve writes the new state over it, in the ring
            x_new = _em_step(p, (step - 1) * dt, hist.current(),
                             hist.delayed(), dBs[:, k:k + 1], work,
                             out=hist.delayed())
            hist.advance()
            hn2 = h_norm_sq_values(x_new, dx)

            # a finite squared norm implies finite entries
            finite = np.isfinite(hn2)
            over = finite & (hn2 > limit_sq)
            if clamp:
                newly_clamped = over & alive
                if newly_clamped.any():
                    scale = np.where(over,
                                     p.explosion_limit / np.sqrt(hn2), 1.0)
                    x_new *= scale[:, None]
                    hn2 = np.where(over, limit_sq, hn2)
                    first = newly_clamped & (statuses == "completed")
                    statuses[first] = "clamped"
                    status_times[first] = step * dt
                bad = ~finite
            else:
                bad = ~finite | over
            newly_bad = bad & alive
            if newly_bad.any():
                statuses[newly_bad] = "exploded"
                status_times[newly_bad] = step * dt
                alive &= ~bad
                x_new[bad] = 0.0
                hn2 = np.where(bad, np.nan, hn2)
            col = feed(step, x_new, hn2, col)


def simulate_paths(p: ProblemSpec, path_ids, record_v=None, clamp=False,
                   snapshot_steps=()) -> BatchResult:
    """Integrate a batch of paths, recording the norms at every step; each
    path's arithmetic is identical to a single-path run, so results do not
    depend on how paths are grouped."""
    return run_ensemble(p, path_ids, record_v=record_v, clamp=clamp,
                        snapshot_steps=snapshot_steps)


def simulate(p: ProblemSpec, path_id: int, snapshot_times=(),
             clamp=False) -> Trajectory:
    """Integrate one path; deterministic given (p.noise.seed, path_id).

    On explosion the trajectory is truncated at the first bad step and the
    status records when it happened.
    """
    snap_steps = sorted({min(p.n_steps, int(round(t / p.dt)))
                         for t in snapshot_times})
    res = simulate_paths(p, [path_id], clamp=clamp, snapshot_steps=snap_steps)
    status, status_time = res.statuses[0], res.status_times[0]
    # an exploded path ends at the last step before the explosion
    end = (int(round(status_time / p.dt)) if status == "exploded"
           else p.n_steps + 1)
    snaps = [(s * p.dt, Field(p.grid, res.snapshots[s][0]))
             for s in snap_steps if s in res.snapshots
             and np.all(np.isfinite(res.snapshots[s][0]))]
    return Trajectory(res.times[:end], res.h_norms[0, :end],
                      res.v_norms[0, :end], status, status_time, snaps,
                      path_id=int(path_id))


def truncate_problem(p: ProblemSpec, k: float) -> ProblemSpec:
    """Problem with drift/diffusion composed with radial projection onto
    the H ball of radius k (the device reducing local-Lipschitz existence
    to the globally Lipschitz case).  k must dominate the initial data."""
    if k < p.psi_h_bound:
        raise ValueError(
            "truncation below initial data: k=%g < psi bound %g"
            % (k, p.psi_h_bound))
    return p.replace(drift=BallClampedCoeff(p.drift, k),
                     diffusion=BallClampedCoeff(p.diffusion, k))


def stopping_time_sigma_k(traj: Trajectory, k: float):
    """First time the H norm reaches k, or None for 'never' (inf empty set).

    An exploded trajectory that never reached k before blowing up counts as
    crossing at its explosion time (the norm left every ball)."""
    hit = np.nonzero(traj.h_norms >= k)[0]
    if hit.size:
        return float(traj.times[hit[0]])
    if traj.status == "exploded":
        return float(traj.status_time)
    return None
