"""Quantitative stability analysis on top of the integrator.

The exponential-stability theorem predicts

    limsup (1/t) log E ||x(t)||_H^2  <=  -(mu ^ eps),

where eps = min(eps1, eps2) and eps1, eps2 are the unique positive roots
of

    alpha1 = eps1 + alpha2 e^{eps1 tau},      alpha3 = alpha4 e^{eps2 tau}.

solve_eps1 brackets the strictly increasing h(eps) = eps + alpha2
e^{eps tau} - alpha1 on [0, min(alpha1, log(alpha1/alpha2)/tau)] (h is
negative at 0 and non-negative at both candidate ends, and no exp can
overflow), bisects to 1e-13 of the bracket's width and polishes with one
Newton step; solve_eps2 is closed form.  Both carry a residual contract of
1e-12 relative.

The Monte Carlo side estimates the mean-square curve E ||x(t)||^2 over an
ensemble of counter-based paths, fits the decay rate by least squares on
the log of the mean curve (the theorem speaks about the mean, not about
pathwise rates), and computes finite-horizon proxies for almost-sure
stability and for non-explosion (empirical crossing probabilities of the
truncated problems, read off one untruncated run).  Exploded paths are
excluded from the mean but always counted and reported; they are
failures, not missing data.
"""

import math

import numpy as np

from .integrator import ProblemSpec, run_ensemble

__all__ = [
    "DecaySolution",
    "MsCurve",
    "ASStats",
    "ExplosionRow",
    "solve_eps1",
    "solve_eps2",
    "solve_decay",
    "ms_ensemble",
    "ms_curve_from_batch",
    "default_record_steps",
    "fit_decay_rate",
    "fit_decay_rate_adaptive",
    "as_stability_stats",
    "as_stats_from_batch",
    "as_window",
    "explosion_scan",
]

RESIDUAL_RTOL = 1e-12
LOG_FLOOR_FACTOR = 10.0


def _check_tau(tau):
    # NaN fails the comparison too
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite, got %g" % tau)


def solve_eps1(alpha1: float, alpha2: float, tau: float) -> float:
    """Unique positive root of alpha1 = eps + alpha2 e^{eps tau}, for a
    finite alpha1 and tau."""
    if not math.inf > alpha1 > alpha2 >= 0:
        raise ValueError("hypothesis inf > alpha1 > alpha2 >= 0 violated "
                         "(alpha1=%g, alpha2=%g)" % (alpha1, alpha2))
    _check_tau(tau)
    if alpha2 == 0.0:
        return float(alpha1)

    def h(e):
        return e + alpha2 * math.exp(e * tau) - alpha1

    # h(hi) >= 0 at both ends of the min: h(alpha1) = alpha2 e^{alpha1 tau}
    # and h(log(alpha1/alpha2)/tau) = log(alpha1/alpha2)/tau; the second
    # keeps e^{eps tau} <= alpha1/alpha2, so no exp overflows for large tau
    lo, hi = 0.0, min(float(alpha1), math.log(alpha1 / alpha2) / tau)
    tol = 1e-13 * hi
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    eps = 0.5 * (lo + hi)
    # one Newton polish; h' = 1 + alpha2 tau e^{eps tau} >= 1
    eps -= h(eps) / (1.0 + alpha2 * tau * math.exp(eps * tau))
    return eps


def solve_eps2(alpha3: float, alpha4: float, tau: float) -> float:
    """Closed-form root of alpha3 = alpha4 e^{eps tau}, for a finite
    alpha3 and tau."""
    if not math.inf > alpha3 > alpha4 > 0:
        raise ValueError("hypothesis inf > alpha3 > alpha4 > 0 violated "
                         "(alpha3=%g, alpha4=%g)" % (alpha3, alpha4))
    _check_tau(tau)
    return math.log(alpha3 / alpha4) / tau


class DecaySolution:
    """Roots of the decay equations and the predicted rate bound -(mu ^ eps)."""

    def __init__(self, eps1, eps2, mu, residual1, residual2):
        self.eps1 = float(eps1)
        self.eps2 = float(eps2)
        self.eps = min(self.eps1, self.eps2)
        self.mu = float(mu)
        self.bound = -min(self.mu, self.eps)
        self.residual1 = float(residual1)
        self.residual2 = float(residual2)

    def to_dict(self):
        return {"eps1": self.eps1, "eps2": self.eps2, "eps": self.eps,
                "mu": self.mu, "bound": self.bound,
                "residual1": self.residual1, "residual2": self.residual2}

    def __repr__(self):
        return ("DecaySolution(eps1=%.6g, eps2=%.6g, bound=%.6g)"
                % (self.eps1, self.eps2, self.bound))


def solve_decay(alpha1, alpha2, alpha3, alpha4, tau, mu=math.inf):
    """Solve both root equations and assemble the decay prediction.

    mu defaults to +inf, the convention for gamma == 0 (the weighted
    integrability condition then holds for every mu, so the binding
    constraint is eps alone)."""
    eps1 = solve_eps1(alpha1, alpha2, tau)
    eps2 = solve_eps2(alpha3, alpha4, tau)
    r1 = abs(alpha1 - eps1 - alpha2 * math.exp(eps1 * tau))
    r2 = abs(alpha3 - alpha4 * math.exp(eps2 * tau))
    # a NaN residual breaks the contract too
    if not r1 <= RESIDUAL_RTOL * alpha1:
        raise ArithmeticError("eps1 residual %g beyond contract" % r1)
    if not r2 <= RESIDUAL_RTOL * alpha3:
        raise ArithmeticError("eps2 residual %g beyond contract" % r2)
    return DecaySolution(eps1, eps2, mu, r1, r2)


class MsCurve:
    """Mean-square curve: estimate of E ||x(t)||_H^2 with standard errors.

    n_alive is the number of paths that never exploded over the whole run
    (the same count at every t), and mean and stderr are taken over those
    paths only: the curve is conditioned on survival to t_final."""

    def __init__(self, times, mean, stderr, n_alive, n_paths, exploded_ids,
                 seed):
        self.times = np.asarray(times, dtype=float)
        self.mean = np.asarray(mean, dtype=float)
        self.stderr = np.asarray(stderr, dtype=float)
        self.n_alive = np.asarray(n_alive, dtype=int)
        self.n_paths = int(n_paths)
        self.exploded_ids = list(exploded_ids)
        self.seed = seed

    @property
    def n_exploded(self):
        return len(self.exploded_ids)

    def to_dict(self):
        return {"times": self.times.tolist(), "mean": self.mean.tolist(),
                "stderr": self.stderr.tolist(),
                "n_alive": self.n_alive.tolist(), "n_paths": self.n_paths,
                "exploded_ids": self.exploded_ids, "seed": self.seed}


def default_record_steps(p: ProblemSpec, n_points=501):
    """Uniform grid of at most n_points record steps (int64), both ends
    included, no finer than the step size: the stride is n_steps /
    (n_points - 1) rounded up, and the last step closes the grid."""
    stride = max(1, -(-p.n_steps // max(1, n_points - 1)))
    steps = np.arange(0, p.n_steps + 1, stride)
    if steps[-1] != p.n_steps:
        steps = np.append(steps, p.n_steps)
    return steps


def ms_curve_from_batch(res, p: ProblemSpec) -> MsCurve:
    """Reduce an ensemble batch to the mean-square curve (see ms_ensemble):
    one point per step the batch recorded, at res.times."""
    alive = ~res.exploded
    n_alive = int(alive.sum())
    if not n_alive:
        raise RuntimeError("ensemble collapse: every path exploded")
    # path-contiguous (Fortran-order) rows, so the mean and the deviations
    # below are numpy's pairwise sums down each column; a C-order copy
    # sums row by row and moves the last bits of the curve
    h2 = np.asfortranarray(res.h_norms[alive]) ** 2
    mean = h2.mean(axis=0)
    if n_alive > 1:
        # deviations about the first alive path, not the rounded mean: a
        # column where every path is equal has a standard error of exactly 0
        stderr = (h2 - h2[:1]).std(axis=0, ddof=1) / math.sqrt(n_alive)
    else:
        stderr = np.zeros_like(mean)
    return MsCurve(res.times, mean, stderr, np.full(res.steps.size, n_alive),
                   res.n_paths, res.exploded_ids(), p.noise.seed)


def ms_ensemble(p: ProblemSpec, n_paths: int) -> MsCurve:
    """Sample mean and standard error of ||x(t)||_H^2 over paths 0..n-1 at
    the default_record_steps grid.

    Exploded paths are excluded from the mean but reported; they are never
    silently dropped.  Raises if every path exploded."""
    if n_paths < 2:
        raise ValueError("ensemble needs n_paths >= 2")
    res = run_ensemble(p, range(n_paths), record_steps=default_record_steps(p),
                       record_v=0)
    return ms_curve_from_batch(res, p)


def fit_decay_rate(curve: MsCurve, window=None):
    """Least-squares slope of log(mean) over t in the window.

    Points at or below the floor 10 * eps * (initial estimate) are dropped
    so machine-level quantization is never fitted; fewer than 4 usable
    points is an error.  Returns (rate, half_width) with the half width
    1.96 regression standard errors of the slope."""
    t_hi = float(curve.times[-1])
    if window is None:
        window = (0.5 * t_hi, t_hi)
    lo, hi = float(window[0]), float(window[1])
    floor = LOG_FLOOR_FACTOR * np.finfo(float).eps * float(curve.mean[0])
    mask = ((curve.times >= lo) & (curve.times <= hi)
            & (curve.mean > max(floor, 0.0)))
    if mask.sum() < 4:
        raise ValueError("window too small: %d usable points in [%g, %g]"
                         % (int(mask.sum()), lo, hi))
    t = curve.times[mask]
    logy = np.log(curve.mean[mask])
    n = t.size
    tbar = t.mean()
    sxx = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (logy - logy.mean())) / sxx)
    resid = logy - (logy.mean() + slope * (t - tbar))
    se = math.sqrt(float(np.sum(resid ** 2)) / max(n - 2, 1) / sxx)
    return slope, 1.96 * se


def fit_decay_rate_adaptive(curve: MsCurve, window=None):
    """fit_decay_rate, widening the window leftward when the default one
    has too few points above the floor (fast decays hit the floor before
    t_final/2).  Returns (rate, half_width, window_used)."""
    t_hi = float(curve.times[-1])
    candidates = []
    if window is not None:
        candidates.append(tuple(window))
    candidates += [(t_hi / 2, t_hi), (t_hi / 4, t_hi), (t_hi / 8, t_hi),
                   (float(curve.times[1]) if curve.times.size > 1 else 0.0,
                    t_hi)]
    last_err = None
    for cand in candidates:
        try:
            rate, hw = fit_decay_rate(curve, cand)
            return rate, hw, cand
        except ValueError as err:
            last_err = err
    raise last_err


class ASStats:
    """Finite-horizon proxy for almost-sure stability.

    fraction: paths whose sup of ||x||_H over the window stays below the
    threshold; u_bounded_fraction: paths whose sup of ||x||_H^2 over the
    whole run stays below u_bound (the bounded-energy proxy).  Exploded
    paths fail both."""

    def __init__(self, fraction, u_bounded_fraction, threshold, window,
                 u_bound, n_paths, n_exploded):
        self.fraction = float(fraction)
        self.u_bounded_fraction = float(u_bounded_fraction)
        self.threshold = float(threshold)
        self.window = (float(window[0]), float(window[1]))
        self.u_bound = float(u_bound)
        self.n_paths = int(n_paths)
        self.n_exploded = int(n_exploded)

    def to_dict(self):
        return {"fraction": self.fraction,
                "u_bounded_fraction": self.u_bounded_fraction,
                "threshold": self.threshold, "window": list(self.window),
                "u_bound": self.u_bound, "n_paths": self.n_paths,
                "n_exploded": self.n_exploded}


def as_window(p: ProblemSpec, window=None):
    """The a.s. window in time (by default the last 5 time units) and its
    steps (i0, i1)."""
    if window is None:
        window = (max(0.0, p.t_final - 5.0), p.t_final)
    lo, hi = window
    if not (0.0 <= lo < hi <= p.t_final + 1e-12):
        raise ValueError("window must sit inside [0, t_final]")
    i0 = int(math.floor(lo / p.dt))
    i1 = min(int(math.ceil(hi / p.dt)), p.n_steps)
    return window, (i0, i1)


def as_stability_stats(p: ProblemSpec, n_paths: int, threshold=1e-2,
                       window=None, u_bound=1e6) -> ASStats:
    """Fraction of paths settled below the threshold over the late window."""
    if n_paths < 1:
        raise ValueError("a.s. statistics need n_paths >= 1")
    res = run_ensemble(p, range(n_paths), record_steps=(), record_v=0,
                       window=as_window(p, window)[1])
    return as_stats_from_batch(res, p, threshold, window, u_bound)


def as_stats_from_batch(res, p: ProblemSpec, threshold=1e-2, window=None,
                        u_bound=1e6) -> ASStats:
    """Reduce an ensemble batch to ASStats (see as_stability_stats); res
    must come from run_ensemble with window = the window's steps."""
    n_paths = res.n_paths
    window, steps = as_window(p, window)
    if res.window != steps:
        raise ValueError("the batch holds maxima over steps %s, not over "
                         "the window's steps %s" % (res.window, steps))
    exploded = res.exploded
    ok = int(np.count_nonzero(res.window_peak[~exploded] < threshold))
    bounded = int(np.count_nonzero(res.peak[~exploded] ** 2 < u_bound))
    return ASStats(ok / n_paths, bounded / n_paths, threshold, window,
                   u_bound, n_paths, int(exploded.sum()))


class ExplosionRow:
    """Empirical P(sigma_k <= horizon) for one truncation level."""

    def __init__(self, k, probability, stderr, n_paths):
        self.k = float(k)
        self.probability = float(probability)
        self.stderr = float(stderr)
        self.n_paths = int(n_paths)

    def to_dict(self):
        return {"k": self.k, "probability": self.probability,
                "stderr": self.stderr, "n_paths": self.n_paths}


def _exits(res, ks):
    """(len(ks), n_paths) mask: the path's norm reached k, or it exploded."""
    return (res.peak >= ks[:, None]) | res.exploded


def explosion_scan(p: ProblemSpec, k_values, n_paths: int,
                   horizon: float):
    """Exit statistics of the truncated problems over a finite horizon.

    For each radius k, the fraction of paths of the k-truncated problem
    whose H norm reaches k within the horizon (an exploded path counts as
    an exit).  One untruncated run gives every k exactly: the projection
    leaves states inside the ball bitwise unchanged, so a truncated path
    is the untruncated one up to the first step whose norm reaches k,
    provided the initial ring lies in the ball (checked).  The theorem
    predicts the table is nonincreasing in k and heads to 0."""
    ks = np.array([float(k) for k in k_values])
    # a NaN radius fails the comparison, so it is not increasing
    if not ks.size or not np.all(ks[1:] > ks[:-1]):
        raise ValueError("k_values must be non-empty and increasing")
    if n_paths < 1:
        raise ValueError("explosion scan needs n_paths >= 1")
    q = p.replace(t_final=horizon)
    q.check_radius(ks[0])
    # the exits need each path's peak norm and status only, which the
    # reducers keep without a per-step trace
    res = run_ensemble(q, range(n_paths), record_steps=(), record_v=0)
    phat = _exits(res, ks).sum(axis=1) / n_paths
    se = np.sqrt(phat * (1.0 - phat) / n_paths)
    return [ExplosionRow(k, ph, s, n_paths) for k, ph, s in zip(ks, phat, se)]
