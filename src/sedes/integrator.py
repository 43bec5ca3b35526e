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
One solver per path chunk holds every level's blocks and every level's
multipliers as (k, B) arrays.  A static A is factored once per chunk; a
time-dependent one is refactored in place at every step.  The solve runs
on all paths at once with elementwise arithmetic only.  It stores every
level as two contiguous (k, B) blocks, [evens | odds], so each of its
ufunc calls is one flat loop over k * B numbers; the odd rows are
de-interleaved into the next level on the way down and interleaved back
on the way up.  The step forms the right-hand side in the ring slot of
the delayed state, the one slot no later part of the step reads, and
the solve overwrites it with the new state; the noise term is formed in
the solver's level-0 block, which holds nothing until the solve starts.

The ensemble engine integrates PATH_CHUNK paths at a time, each chunk with a
ring of its own, and keeps per path only what its reducers ask for: the
norms at the record steps, running maxima of the H norm, explosion times
and snapshots.  A run's memory therefore grows with neither its path count
(beyond the reducers' arrays) nor its number of steps.  Every buffer a
chunk keeps, the ring and the solver's blocks and coefficients, starts on
a 64-byte cache line: numpy's AVX-512 loops run about twice as fast on
aligned operands (see _Solver), and alignment moves no bit.

The delay tau is pinned to an exact multiple m * dt (the constructor
shrinks dt to the nearest divisor and records the adjustment), so the
delayed state is always a stored step and never interpolated.

Paths are pure functions of (ProblemSpec, path_id): all randomness is
counter-based, and the batched ensemble driver performs exactly the same
elementwise arithmetic per path as a single-path run, so batching is a
speed knob, not a semantics knob.  Blow-up is reported, never masked: a
non-finite state or an H norm beyond the explosion limit truncates the
trajectory with status "exploded", and the path's state is NaN from that
step on, so its norms and snapshots are too; no state is invented for it.
"""

import math
import operator

import numpy as np

from .fields import (
    Field,
    Grid,
    OperatorCoeff,
    call_on_times,
    h_norm_sq_values,
    v_norm_sq_values,
)
from .noise import NoiseModel

__all__ = [
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
# bit of any path.  A multiple of 8 keeps every row of a chunk on whole
# cache lines.  The eq24 batch sweep of `bench/run.py --trace 1` (medians
# of ten, BENCH_25.json) gives 1.16M path-steps/s at B = 200, 1.19M at
# 1000, 1.15M at 2000 and 0.66M at 50
PATH_CHUNK = 256


def _aligned_empty(shape):
    """np.empty(shape) of float64 whose data starts on a 64-byte boundary,
    the cache line: a slice of a one-dimensional block eight numbers longer.
    It stays a numpy allocation, so a large one keeps numpy's huge-page
    advice."""
    size = math.prod(shape)
    block = np.empty(size + 8)
    start = (-block.__array_interface__["data"][0] % 64) // 8
    return block[start:start + size].reshape(shape)


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
    """Coefficient that first projects x and y onto the H ball of radius k,
    on a grid of spacing dx.

    The scale factor depends on the whole field, not on the value at one
    grid point, so this cannot be written as a pointwise function of
    (u, v) and wraps the inner coefficient instead.  The clamp acts row by
    row, so the wrapper broadcasts over t as its inner coefficient does.
    """

    def __init__(self, inner, radius, dx):
        if radius <= 0:
            raise ValueError("truncation radius must be positive")
        self.inner = inner
        self.radius = float(radius)
        self.dx = float(dx)

    def __call__(self, t, x, y):
        return self.inner(t, clamp_to_ball(x, self.radius, self.dx),
                          clamp_to_ball(y, self.radius, self.dx))


class ProblemSpec:
    """Discrete instance of the delay evolution equation.

    drift and diffusion are callables fn(t, u, v) of arrays of grid values,
    u the current and v the delayed state, one state per row; a row's
    result may not depend on the other rows.  fn must broadcast over t: the
    integrator passes t as a float, the hypothesis checkers and this
    constructor an (S, 1) column with one time per row, so write sin(t) as
    np.sin(t), not math.sin(t).  initial_history is psi(theta, x) for theta
    in [-tau, 0], with psi(., 0) = psi(., pi) = 0, called on a (K, 1) column
    of thetas beside the points, so it broadcasts over theta as fn does
    over t.  Construction validates the operator bounds, the boundedness of
    f(t,0,0) and g(t,0,0) over the horizon, and (by a sampled refinement
    check) the continuity of psi in theta.

    A path explodes at its first state, step 0's included, that is not
    finite or has an H norm beyond explosion_limit, and is NaN from then
    on: drift and diffusion see NaN rows of dead paths, inside the
    integrator's np.errstate, and must not raise on them.
    """

    def __init__(self, grid: Grid, op: OperatorCoeff, drift, diffusion,
                 tau: float, noise: NoiseModel, initial_history,
                 t_final: float, dt: float, explosion_limit=EXPLOSION_LIMIT):
        if tau <= 0:
            raise ValueError("delay tau must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if t_final <= 0:
            raise ValueError("t_final must be positive")
        if not explosion_limit > 0:
            raise ValueError("explosion_limit must be positive")
        self.grid = grid
        self.op = op
        if not (callable(drift) and callable(diffusion)):
            raise TypeError("drift and diffusion must be callables "
                            "fn(t, u, v)")
        self.drift = drift
        self.diffusion = diffusion
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
        self._validate()

    def _validate(self):
        self.op.validate(self.grid, self.t_final)
        zero = np.zeros(self.grid.n_interior)

        # (B.2)-style boundedness of f(t,0,0) and g(t,0,0), sampled in t:
        # one call per coefficient on a column of 33 times
        ts = np.linspace(0.0, self.t_final, 33)[:, None]
        finite = np.ones(ts.size, dtype=bool)
        for name in ("drift", "diffusion"):
            out = np.asarray(call_on_times(name, getattr(self, name), ts,
                                           zero, zero), dtype=float)
            finite &= np.isfinite(np.broadcast_to(out, (ts.size, zero.size))
                                  ).all(axis=-1)
        if not finite.all():
            raise ValueError(
                "coefficient at the zero state is non-finite "
                "(boundedness check failed at t=%g)" % ts[np.argmin(finite), 0])

        # initial history: walls, continuity in theta, and H-norm bound
        thetas = np.linspace(-self.tau, 0.0, 65)
        coarse = self._psi(thetas, self.grid.points)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(coarse))))
        walls = np.abs(self._psi(thetas[::8], np.array([0.0, math.pi])))
        if np.any(walls > tol):
            raise ValueError("initial history does not vanish on the walls "
                             "(|psi| up to %g there)" % walls.max())
        fine = self._psi(np.linspace(-self.tau, 0.0, 257),
                         self.grid.points)
        if not np.all(np.isfinite(fine)):
            raise ValueError("initial history evaluated non-finite")
        jump_coarse = float(np.max(np.abs(np.diff(coarse, axis=0))))
        # one (257, n) temporary at a time beside fine
        jumps = np.diff(fine, axis=0)
        jump_fine = float(np.max(np.abs(jumps, out=jumps)))
        del jumps
        if jump_fine > 0.75 * jump_coarse + tol:
            raise ValueError(
                "initial history looks discontinuous in theta "
                "(refinement does not shrink the largest jump)")
        # a finite history can still overflow its norm
        with np.errstate(over="ignore"):
            self.psi_h_bound = float(
                np.max(np.sqrt(h_norm_sq_values(fine, self.grid.dx))))
        if not math.isfinite(self.psi_h_bound):
            raise ValueError("initial history has an H norm that overflows")

    def _psi(self, thetas, xs):
        """psi(theta, xs) from one call on the (K, 1) column of thetas, as a
        read-only (K, len(xs)): one broadcast row if psi ignores theta."""
        shape = (thetas.size, xs.size)
        psi = np.asarray(call_on_times("initial_history", self.initial_history,
                                       thetas[:, None], xs), dtype=float)
        try:
            return np.broadcast_to(psi, shape)
        except ValueError:
            raise ValueError("initial_history gives shape %s on a column of "
                             "%d thetas, not one that broadcasts to %s"
                             % (psi.shape, shape[0], shape)) from None

    def history_block(self):
        """Initial history (m+1, n): psi at theta = -m dt, ..., -dt, 0 (see
        _psi).  Evaluated on every call and held by nobody but the caller,
        so a run keeps no block beside its ring."""
        return self._psi(-(np.arange(self.m_delay, -1, -1) * self.dt),
                         self.grid.points)

    def history_values(self, batch: int = 1):
        """Initial ring (m+1, batch, n): history_block copied to every path
        of the batch; the block is dropped once the ring is filled.  The
        ring starts on a cache line (see _Solver)."""
        psi = self.history_block()
        ring = _aligned_empty((psi.shape[0], batch, psi.shape[1]))
        ring[...] = psi[:, None, :]
        return ring

    def check_radius(self, k: float):
        """ValueError for a truncation radius k below the initial data: the
        larger of psi_h_bound (257 thetas) and the ring's own norms."""
        ring_sq = h_norm_sq_values(self.history_block(), self.grid.dx)
        bound = max(self.psi_h_bound, float(np.sqrt(ring_sq.max())))
        if k < bound:
            raise ValueError("truncation below initial data: k=%g < psi "
                             "bound %g" % (k, bound))

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
        self._ring = np.asarray(ring, dtype=float)
        self._m = self._ring.shape[0] - 1
        self._head = self._m
        self.dt = float(dt)
        self.head_time = float(head_time)

    @classmethod
    def from_problem(cls, p: ProblemSpec, batch: int = 1) -> "HistoryBuffer":
        return cls(p.history_values(batch), p.dt, head_time=0.0)

    def current(self):
        return self._ring[self._head]

    def delayed(self):
        """State from m steps ago (lag exactly tau)."""
        return self._ring[(self._head + 1) % (self._m + 1)]

    def push(self, values):
        self.delayed()[...] = values
        self.advance()

    def advance(self):
        """Move the head onto the slot delayed() returned, whose values the
        caller has overwritten with the new state (push without a copy)."""
        self._head = (self._head + 1) % (self._m + 1)
        self.head_time += self.dt


class _Solver:
    """Cyclic-reduction solve of (I - dt A(t)) x = rhs for batch rows of n
    unknowns, with the noise buffer of one IMEX step; built once per path
    chunk.

    Level k keeps the odd-numbered equations of level k-1, with their
    even-numbered neighbours eliminated.  factor(a_mid) writes every
    level's multipliers and reciprocal pivots in place; solve() applies
    them level by level with elementwise ufuncs, so no path's arithmetic
    depends on the rest of its batch.  No pivoting: reduction keeps the
    matrix strictly diagonally dominant with positive diagonal for any
    a > 0, so no pivot can vanish.

    A level of k rows is a (k, batch) array, its (k + 1) // 2 even rows
    then its odd rows, each in natural order, so every op is one flat
    ufunc loop; the odd rows, the next level's, are de-interleaved into its
    array on the way down and back on the way up, and level 0 is filled
    from the transposed right-hand side and read into the solution.  The
    coefficients are (k, batch) arrays for the same reason: against a
    (k, 1) column numpy restarts its inner loop on every row.  Both forms
    give the same bits; at n = 63 the materialized one is about 30% faster
    at B = 50, 25% at 200, and level with the column form at 1000 and 2000.

    Every array starts on a 64-byte cache line (_aligned_empty), as does
    the delay ring: an AVX-512 multiply of two (200, 63) blocks into a
    third takes 4.45 us when all three do and 8.9 to 10.5 us when they
    start 8 or 16 bytes past one.  Alignment moves no bit.  When B is a
    multiple of 8, as 200 and PATH_CHUNK are, a (k, B) row and a ring slot
    are whole numbers of lines, so every view the solve prebuilds and every
    slot is aligned too; other batch sizes keep unaligned rows, unpadded.
    """

    def __init__(self, n, batch, dt, dx):
        self.r = dt / (dx * dx)
        tmp = _aligned_empty((n // 2, batch))
        f = _aligned_empty((n, batch))
        # the step's g dB, a (batch, n) view of level 0, which holds nothing
        # until solve() reads the right-hand side
        self.noise = f.reshape(batch, n)
        self.evens, self.odds = f[:(n + 1) // 2], f[(n + 1) // 2:]
        # per level: the views of its blocks, and alpha, beta (reduction) and
        # inv, lo_inv, up_inv (back substitution) for its no odd and ne even
        # rows
        self.levels = []
        while f.shape[0] > 1:
            ne, no = (f.shape[0] + 1) // 2, f.shape[0] // 2
            e, o = f[:ne], f[ne:]
            nxt = _aligned_empty((no, batch))
            half = (no + 1) // 2
            self.levels.append((
                (e, o, e[:no], e[1:], o[:ne - 1], tmp[:no], tmp[:ne - 1],
                 o[0::2], o[1::2], nxt[:half], nxt[half:]),
                tuple(_aligned_empty((k, batch))
                      for k in (no, ne - 1, ne, ne - 1, no))))
            f = nxt
        self.top = f
        self.top_inv = None

    def factor(self, a_mid):
        """Set the coefficients of I - dt A for a(t, .) = a_mid at the n+1
        gap midpoints, each positive (OperatorCoeff.midpoint_values checks
        them against [nu, alpha_upper])."""
        lower = -self.r * a_mid[:-1]     # subdiagonal, entry j couples j-1
        upper = -self.r * a_mid[1:]      # superdiagonal, entry j couples j+1
        diag = 1.0 + self.r * (a_mid[:-1] + a_mid[1:])
        lower[0] = upper[-1] = 0.0       # the walls carry no unknown
        for _, coeffs in self.levels:
            no = diag.size // 2
            m = (diag.size + 1) // 2 - 1  # odd rows with a right neighbour
            inv = 1.0 / diag[0::2]
            lo_e, up_e = lower[0::2], upper[0::2]
            alpha = -lower[1::2] * inv[:no]
            beta = -upper[1::2][:m] * inv[1:]
            for c, v in zip(coeffs, (alpha, beta, inv, lo_e[1:] * inv[1:],
                                     up_e[:no] * inv[:no])):
                c[...] = v[:, None]
            next_diag = diag[1::2] + alpha * up_e[:no]
            next_diag[:m] += beta * lo_e[1:]
            lower = alpha * lo_e[:no]
            upper = np.zeros(no)
            upper[:m] = beta * up_e[1:]
            diag = next_diag
        self.top_inv = 1.0 / diag[0]

    def solve(self, rhs, out):
        """Solve for every row of rhs (batch, n) into out, a C-contiguous
        (batch, n).  rhs may share memory with out: it is read in full
        before out is written."""
        mul, add, sub, copy = np.multiply, np.add, np.subtract, np.copyto
        copy(self.evens, rhs[:, 0::2].T)
        copy(self.odds, rhs[:, 1::2].T)
        for (e, o, e_l, e_r, o_m, t_no, t_m, o_ev, o_od, n_ev, n_od), \
                (alpha, beta, _, _, _) in self.levels:
            mul(alpha, e_l, t_no)
            add(o, t_no, o)
            mul(beta, e_r, t_m)
            add(o_m, t_m, o_m)
            copy(n_ev, o_ev)
            copy(n_od, o_od)
        mul(self.top, self.top_inv, self.top)
        for (e, o, e_l, e_r, o_m, t_no, t_m, o_ev, o_od, n_ev, n_od), \
                (_, _, inv, lo_inv, up_inv) in reversed(self.levels):
            copy(o_ev, n_ev)
            copy(o_od, n_od)
            mul(e, inv, e)
            mul(lo_inv, o_m, t_m)
            sub(e_r, t_m, e_r)
            mul(up_inv, o, t_no)
            sub(e_l, t_no, e_l)
        copy(out[:, 0::2], self.evens.T)
        copy(out[:, 1::2], self.odds.T)
        return out


def _em_step(p: ProblemSpec, t: float, x, y, dB, solver, out):
    """Scheme arithmetic: solve (I - dt A(t + dt)) x' = x + dt f + g dB,
    with f, g at (t, x, y) and dB the Brownian increments, one per row of x.

    solver is a _Solver for x's rows, factored at t + dt.  The right-hand
    side is formed in out and solved in place, so out may be y's memory:
    g dB is formed first, and f and g may be views of y."""
    drift = np.asarray(p.drift(t, x, y), dtype=float)
    diff = np.asarray(p.diffusion(t, x, y), dtype=float)
    noise = solver.noise
    np.multiply(diff, dB, noise)
    np.multiply(p.dt, drift, out)
    np.add(x, out, out)
    np.add(out, noise, out)
    return solver.solve(out, out)


def imex_em_step(p: ProblemSpec, h: HistoryBuffer, path_id: int,
                 step: int) -> Field:
    """One IMEX Euler-Maruyama step of path path_id from the state at
    t = step * dt in h, driven by the path's Brownian increment over
    [t, t + dt).

    Pure: h is not advanced (push the returned state to advance).
    """
    n, t = p.grid.n_interior, step * p.dt
    solver = _Solver(n, 1, p.dt, p.grid.dx)
    solver.factor(p.op.midpoint_values(t + p.dt, p.grid))
    dB = p.noise.increments([path_id], step, p.dt)
    out = _em_step(p, t, h.current(), h.delayed(), dB, solver,
                   np.empty((1, n)))
    return Field(p.grid, out[0])


class Trajectory:
    """One sample path: per-step norms, optional snapshots, and a status."""

    def __init__(self, times, h_norms, v_norms, status, status_time=None,
                 snapshots=None, path_id=0):
        self.times = times
        self.h_norms = h_norms
        self.v_norms = v_norms
        self.status = status            # completed | exploded
        self.status_time = status_time
        self.snapshots = snapshots or []
        self.path_id = path_id

    def __repr__(self):
        return ("Trajectory(path_id=%d, steps=%d, status=%s)"
                % (self.path_id, max(len(self.times) - 1, 0), self.status))


class BatchResult:
    """Ensemble run, as its reducers left it.

    ids (int64) are the paths in row order and explosion_times each path's
    explosion time, NaN for a path that completed; exploded is the mask of
    the paths that did not, the one explosion status every analysis reads.
    h_norms (n_paths, len(steps)) and v_norms (n_v, len(steps)) hold the
    norms at the recorded steps, at times = steps * dt (every step for
    simulate_paths); dead entries are NaN.
    peak is each path's largest H norm from step 0 to the end, and
    window_peak its largest over steps window[0]..window[1] (None without a
    window); both stop at a path's explosion, and window_peak is NaN for a
    path dead before the window.  snapshots maps a step to the (n_paths, n)
    states there; an exploded path's row is NaN at and after its
    explosion step."""

    def __init__(self, steps, dt, h_norms, v_norms, ids, explosion_times,
                 peak, window=None, window_peak=None, snapshots=None):
        self.steps = steps
        self.times = dt * steps
        self.h_norms = h_norms
        self.v_norms = v_norms
        self.ids = ids
        self.explosion_times = explosion_times
        self.peak = peak
        self.window = window
        self.window_peak = window_peak
        self.snapshots = snapshots if snapshots is not None else {}

    @property
    def n_paths(self):
        return self.ids.size

    @property
    def exploded(self):
        return ~np.isnan(self.explosion_times)

    @property
    def statuses(self):
        """Status per path: "exploded" or "completed"."""
        return ["exploded" if e else "completed"
                for e in self.exploded.tolist()]

    @property
    def status_times(self):
        """Explosion time per path, None for a completed one."""
        return [None if math.isnan(t) else t
                for t in self.explosion_times.tolist()]

    def exploded_ids(self):
        return self.ids[self.exploded].tolist()


def run_ensemble(p: ProblemSpec, path_ids, record_steps=None, record_v=None,
                 window=None, snapshot_steps=()) -> BatchResult:
    """Integrate paths PATH_CHUNK at a time through per-path reducers.

    The reducers keep the H norms at record_steps (every step when None),
    the V norms there for the first record_v paths (all when None), the
    running maxima of the H norm over the whole run and over the steps
    window = (i0, i1), the explosion times and the states at
    snapshot_steps.
    Each reads the very values a full per-step trace would hold, and each
    path's arithmetic is identical to a single-path run, so results do not
    depend on how paths are grouped or chunked.  ValueError for a path id
    or a record, window or snapshot step that is not an integer, and for a
    step outside [0, n_steps]."""
    path_arr = np.fromiter((_index(i, "path id") for i in path_ids),
                           dtype=np.int64)
    B, n_steps = path_arr.size, p.n_steps
    if record_steps is None:
        steps = np.arange(n_steps + 1)
    else:
        # sorted, without repeats; np.unique would import numpy.ma
        steps = np.sort(np.fromiter(
            (_index(s, "record step")
             for s in np.ravel(record_steps).tolist()), dtype=np.int64))
        keep = np.ones(steps.size, dtype=bool)
        keep[1:] = steps[1:] != steps[:-1]
        steps = steps[keep]
    if steps.size and not 0 <= steps[0] <= steps[-1] <= n_steps:
        raise ValueError("record steps must lie in [0, %d]" % n_steps)
    if window is not None:
        window = (_index(window[0], "window step"),
                  _index(window[1], "window step"))
        if not 0 <= window[0] <= window[1] <= n_steps:
            raise ValueError("window steps must lie in [0, %d]" % n_steps)
    snap_steps = sorted({_index(s, "snapshot step") for s in snapshot_steps})
    if snap_steps and not 0 <= snap_steps[0] <= snap_steps[-1] <= n_steps:
        raise ValueError("snapshot steps must lie in [0, %d]" % n_steps)
    n_v = B if record_v is None else min(record_v, B)
    res = BatchResult(
        steps, p.dt, h_norms=np.full((B, steps.size), np.nan),
        v_norms=np.full((n_v, steps.size), np.nan) if n_v else None,
        ids=path_arr, explosion_times=np.full(B, np.nan),
        peak=np.full(B, np.nan), window=window,
        window_peak=None if window is None else np.full(B, np.nan),
        snapshots={s: np.empty((B, p.grid.n_interior)) for s in snap_steps})
    # the reducers keep squared norms: sqrt is monotone and correctly
    # rounded, so the root of the largest square is the largest root
    for lo in range(0, B, PATH_CHUNK):
        _run_chunk(p, res, path_arr, slice(lo, min(lo + PATH_CHUNK, B)), n_v)
    np.sqrt(res.peak, out=res.peak)
    if window is not None:
        np.sqrt(res.window_peak, out=res.window_peak)
    return res


def _index(i, what):
    """i as an int: a Python or numpy integer in [-2^63, 2^63); ValueError
    naming what i is for anything else, which int() or np.int64 would
    truncate or refuse with an OverflowError."""
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError("%s %r is not an integer" % (what, i)) from None
    if not -2 ** 63 <= i < 2 ** 63:
        raise ValueError("%s %d is outside [-2^63, 2^63)" % (what, i))
    return i


def _run_chunk(p: ProblemSpec, res: BatchResult, path_arr, rows, n_v):
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
    explosion_times = res.explosion_times[rows]

    hist = HistoryBuffer.from_problem(p, ids.size)
    solver = _Solver(p.grid.n_interior, ids.size, dt, dx)
    # step 0 solves with A(dt); a static A keeps that factor for the chunk,
    # a time-dependent one is refactored in place at every later step
    solver.factor(p.op.midpoint_values(dt, p.grid))
    refactor = p.op.time_dependent
    # capped, so a non-finite state explodes even at an infinite limit
    limit_sq = min(p.explosion_limit * p.explosion_limit,
                   np.finfo(float).max)
    x, col = hist.current(), 0
    # the step's squared H norms, by h_norm_sq_values' ufuncs in its order;
    # the squares go to the level-0 block, which holds nothing between steps
    hn2, sq = _aligned_empty((ids.size,)), solver.noise

    # a path heading for blow-up may overflow inside the coefficients, the
    # solve or the norms, and a dead path's NaN row runs through all of
    # them; that is reported through explosion_times, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_steps + 1):
            np.multiply(x, x, out=sq)
            np.add.reduce(sq, axis=-1, out=hn2)
            np.multiply(hn2, dx, out=hn2)
            # NaN, inf and norms beyond the limit fail one comparison; a NaN
            # row enters the next right-hand side additively, so stays NaN
            new = ~(hn2 <= limit_sq) & np.isnan(explosion_times)
            if new.any():
                explosion_times[new] = step * dt
                x[new] = np.nan
                hn2[new] = np.nan
            np.fmax(peak_sq, hn2, out=peak_sq)
            if w0 <= step <= w1:
                np.fmax(window_sq, hn2, out=window_sq)
            if col < len(record) and record[col] == step:
                h_rec[:, col] = np.sqrt(hn2)
                if nv:
                    v_rec[:, col] = np.sqrt(v_norm_sq_values(x[:nv], dx))
                col += 1
            if step in snapshots:
                snapshots[step][...] = x
            if step == n_steps:
                break
            k, t = step % NOISE_BLOCK, step * dt
            if k == 0:
                dBs = p.noise.increments(
                    ids, np.arange(step, min(step + NOISE_BLOCK, n_steps)), dt)
            if refactor and step:
                solver.factor(p.op.midpoint_values(t + dt, p.grid))
            # the delayed state is last read while the right-hand side is
            # formed, so the step forms it and the new state over it, in the
            # ring
            x = _em_step(p, t, hist.current(), hist.delayed(),
                         dBs[:, k:k + 1], solver, hist.delayed())
            hist.advance()


def simulate_paths(p: ProblemSpec, path_ids, record_v=None,
                   snapshot_steps=()) -> BatchResult:
    """Integrate a batch of paths, recording the norms at every step; each
    path's arithmetic is identical to a single-path run, so results do not
    depend on how paths are grouped."""
    return run_ensemble(p, path_ids, record_v=record_v,
                        snapshot_steps=snapshot_steps)


def simulate(p: ProblemSpec, path_id: int, snapshot_times=()) -> Trajectory:
    """Integrate one path; deterministic given (p.noise.seed, path_id).

    snapshot_times must lie in [0, t_final] (to within 1e-12); each is
    taken at its nearest step.  On explosion the trajectory and its
    snapshots end before the first bad step, and the status records when
    it happened.
    """
    for t in snapshot_times:
        if not -1e-12 <= t <= p.t_final + 1e-12:
            raise ValueError("snapshot time %r must lie in [0, t_final=%g]"
                             % (t, p.t_final))
    snap_steps = sorted({min(p.n_steps, int(round(t / p.dt)))
                         for t in snapshot_times})
    res = simulate_paths(p, [path_id], snapshot_steps=snap_steps)
    status, status_time = res.statuses[0], res.status_times[0]
    # an exploded path ends at the last step before the explosion
    end = (int(round(status_time / p.dt)) if status == "exploded"
           else p.n_steps + 1)
    snaps = [(s * p.dt, Field(p.grid, res.snapshots[s][0]))
             for s in snap_steps if np.all(np.isfinite(res.snapshots[s][0]))]
    return Trajectory(res.times[:end], res.h_norms[0, :end],
                      res.v_norms[0, :end], status, status_time, snaps,
                      path_id=int(path_id))


def truncate_problem(p: ProblemSpec, k: float) -> ProblemSpec:
    """Problem with drift/diffusion composed with radial projection onto
    the H ball of radius k (the device reducing local-Lipschitz existence
    to the globally Lipschitz case).  k must dominate the initial data."""
    p.check_radius(k)
    dx = p.grid.dx
    return p.replace(drift=BallClampedCoeff(p.drift, k, dx),
                     diffusion=BallClampedCoeff(p.diffusion, k, dx))


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
