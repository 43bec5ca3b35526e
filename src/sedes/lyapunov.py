"""Numerical evaluation of the diffusion operator and the stability
hypotheses it enters.

For a functional U(t, x) along the delay equation, the Ito drift is

    LU(t, x, y) = dU/dt + <A(t,x) + f(t,x,y), U_x(t,x)>
                  + 1/2 U_xx(t,x)[g(t,x,y), g(t,x,y)]

for the scalar Brownian motion that drives the integrator.  Every worked
example uses U = ||x||_H^2, for which this collapses to

    LU = 2 <A x, x>_H + 2 <f, x>_H + ||g||_H^2,

with <A x, x>_H evaluated through the summation-by-parts identity so the
coercive term is exact at the discrete level.  That is the one U the
checkers evaluate.

The three checkers draw (t, x, y) samples in blocks of SAMPLE_BLOCK and
evaluate each block on (S, n) arrays with the kernels of fields.py: LU
and both sides of every inequality become a few numpy calls per block,
and the relative violations

    (lhs - rhs) / (1 + |lhs| + |rhs|)

form an (S, F) array with one column per inequality family.  The report
keeps the first maximum in (sample, family) order, carried across
blocks, which is the sample and family a one-sample-at-a-time loop would
keep; it passes when no family exceeds the tolerance (default 1e-8).
The relative floor does not absorb the gap between the grid operator
and its continuum: the presets' constants use the continuum spectral gap
(1, or nu for eq24), while the grid Laplacian's is
lambda_h = (4/dx^2) sin^2(dx/2) < 1 (fields.lambda_min).  At x on the
discrete ground mode and y = 0, the heat and eq6 check_lasalle and the
eq24 check_exponential fail by more than the 1e-8 tolerance (eq24 at
|x|_H below about 0.04 on 63 points, where the quartic term does not yet
cover the gap).  FourierSampler does not draw such states: its x and y
mix the first modes with Gaussian weights.

U = ||x||_H^2 is radially unbounded and meets the exponential theorem's
sandwich c1 ||x||_H^2 <= U <= c2 ||x||_H^2 with c1 = c2 = 1 by
definition, so neither hypothesis is sampled.

Functionals reach the blocks in one of two ways: an ArrayFunctional
carries its array form (the presets' ||x||_H^2, int u^4 and their
combinations), and any other Field -> float callable is applied row by
row.  Drift, diffusion and gamma take a scalar t.  A drift or diffusion
whose time_dependent attribute is False (every preset coefficient that
ignores t) is evaluated once per block on the (S, n) arrays, like the
operator coefficient; any other, and gamma, is called once per sample.

Samples are a prefix-extension stream whose rows are bitwise independent
of the block they are drawn in: growing the sample count only appends
samples, so a failed report can never turn into a pass with the same
seed, and the block size never changes a report.
"""

import math

import numpy as np

from .fields import (
    Field,
    h_norm_sq_values,
    operator_quad_form_values,
)
from .noise import keyed_gaussians, keyed_uniforms

__all__ = [
    "ArrayFunctional",
    "LyapunovSpec",
    "ConditionReport",
    "FourierSampler",
    "diffusion_operator",
    "check_khasminskii",
    "check_lasalle",
    "check_exponential",
]

DEFAULT_TOLERANCE = 1e-8

# samples per block in the checkers; 128 states of 63 points keep a block
# in cache, and a report does not depend on this number
SAMPLE_BLOCK = 128


class ArrayFunctional:
    """A Field -> float functional that also has an array form.

    of_values(values, dx) maps an (..., n) array of field values to the
    (...) array of the functional, so the checkers evaluate it on a whole
    block of samples in one call.  Called on a Field it returns a float,
    like any plain functional.
    """

    __slots__ = ("of_values",)

    def __init__(self, of_values):
        self.of_values = of_values

    def __call__(self, f: Field) -> float:
        return float(self.of_values(f.values, f.grid.dx))


def _rows(fn, X, grid):
    """fn on each row of an (S, n) block: its array form when it has one,
    otherwise one Field per row."""
    of_values = getattr(fn, "of_values", None)
    if of_values is not None:
        return of_values(X, grid.dx)
    return np.array([float(fn(Field(grid, row))) for row in X])


def _per_sample(fn, t):
    """fn(t_s) for each sample time, each call with a scalar t."""
    return np.array([float(fn(ts)) for ts in t.tolist()])


class LyapunovSpec:
    """Functionals and constants entering the three stability theorems.

    The Lyapunov functional is U = ||x||_H^2, as in every worked example.
    The functionals W_fn, w1_fn, w2_fn and W1_fn map a Field to a float;
    an ArrayFunctional among them is evaluated a block at a time.

    Constant families are validated on construction when present:
    lam1, lam2 > 0 (existence); alpha1 > alpha2 >= 0, alpha3 > alpha4 > 0,
    mu > 0 (exponential; mu may be inf when gamma vanishes).  Pass
    enforce_constants=False to build a deliberately broken spec; the
    checkers then report the violated hypothesis instead of raising.
    """

    def __init__(self, W_fn=None, w1_fn=None, w2_fn=None, W1_fn=None,
                 gamma_fn=None, lam1=None, lam2=None, alpha1=None,
                 alpha2=None, alpha3=None, alpha4=None, mu=None,
                 enforce_constants=True):
        self.W_fn = W_fn
        self.w1_fn = w1_fn
        self.w2_fn = w2_fn
        self.W1_fn = W1_fn
        self.gamma_fn = gamma_fn
        self.lam1 = lam1
        self.lam2 = lam2
        self.alpha1 = alpha1
        self.alpha2 = alpha2
        self.alpha3 = alpha3
        self.alpha4 = alpha4
        self.mu = mu
        if enforce_constants:
            bad = self.constant_violations()
            if bad:
                raise ValueError("hypothesis constants violated: "
                                 + "; ".join(bad))

    def constant_violations(self):
        """Human-readable list of violated constant hypotheses."""
        bad = []
        if self.lam1 is not None and not self.lam1 > 0:
            bad.append("lam1 > 0 fails (lam1=%g)" % self.lam1)
        if self.lam2 is not None and not self.lam2 > 0:
            bad.append("lam2 > 0 fails (lam2=%g)" % self.lam2)
        a1, a2, a3, a4 = self.alpha1, self.alpha2, self.alpha3, self.alpha4
        if a1 is not None or a2 is not None or a3 is not None or a4 is not None:
            if a1 is None or a2 is None or a3 is None or a4 is None:
                bad.append("alpha1..alpha4 must all be set together")
            else:
                if not a1 > a2:
                    bad.append("alpha1 > alpha2 fails (%g <= %g)" % (a1, a2))
                if not a2 >= 0:
                    bad.append("alpha2 >= 0 fails (alpha2=%g)" % a2)
                if not a3 > a4:
                    bad.append("alpha3 > alpha4 fails (%g <= %g)" % (a3, a4))
                if not a4 > 0:
                    bad.append("alpha4 > 0 fails (alpha4=%g)" % a4)
        if self.mu is not None and not self.mu > 0:
            bad.append("mu > 0 fails (mu=%g)" % self.mu)
        return bad


class ConditionReport:
    """Outcome of a sampled hypothesis check.

    max_violation is the worst relative margin (lhs - rhs)/(1+|lhs|+|rhs|)
    over every inequality family tested; positive means the hypothesis
    failed by that margin, and passed is exactly max_violation <= tolerance.
    """

    def __init__(self, name, n_samples, max_violation, argmax_sample,
                 tolerance, extras=None):
        self.name = name
        self.n_samples = int(n_samples)
        self.max_violation = float(max_violation)
        self.argmax_sample = argmax_sample
        self.tolerance = float(tolerance)
        self.passed = self.max_violation <= self.tolerance
        self.extras = extras or {}

    def to_dict(self):
        return {
            "name": self.name,
            "n_samples": self.n_samples,
            "max_violation": self.max_violation,
            "argmax_sample": self.argmax_sample,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "extras": self.extras,
        }

    def __repr__(self):
        return ("ConditionReport(%s, passed=%s, max_violation=%.3e, n=%d)"
                % (self.name, self.passed, self.max_violation,
                   self.n_samples))


class _Worst:
    """Running first maximum of relative violations with a description.

    A margin replaces the current one only when strictly greater, so a tie
    keeps the family and the sample checked first.  The sampled families
    (one column each in update_block) also keep their own maxima, so a
    family that never wins overall still shows its worst margin."""

    def __init__(self, families=()):
        self.margin = -math.inf
        self.where = "no samples"
        self.families = tuple(families)
        self._family_max = -math.inf    # becomes one entry per column

    def update_flagged(self, failed, margin, desc):
        # for strict or boolean hypotheses, where a tie must register as a
        # failure: a failing sample scores at least 1.0, a passing one
        # scores its genuine (nonpositive) margin
        if failed:
            margin = max(margin, 1.0)
        if margin > self.margin:
            self.margin = margin
            self.where = desc
        return margin

    def update_block(self, margins, describe):
        """Fold in an (S, F) array of margins, one column per family.

        The block's first maximum in row-major (sample, family) order wins
        if it beats the running one; describe(row, column) names it and is
        called for that winner only."""
        # NaN never compares greater, so it never wins
        m = np.where(np.isnan(margins), -math.inf, margins)
        self._family_max = np.maximum(self._family_max, m.max(axis=0))
        j = int(np.argmax(m))
        if m.flat[j] > self.margin:
            self.margin = float(m.flat[j])
            self.where = describe(*divmod(j, m.shape[1]))

    def by_family(self):
        """Worst margin of each sampled family, keyed by family name."""
        worst = np.broadcast_to(self._family_max, len(self.families))
        return {nm: float(v) for nm, v in zip(self.families, worst)}


def _margin(lhs, rhs):
    return (lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))


def _h_of(values, dx) -> float:
    return math.sqrt(float(h_norm_sq_values(values, dx)))


class FourierSampler:
    """Random truncated Fourier states for the hypothesis checkers.

    Each sample i yields (t, x, y) with x = sum_{k<=n_modes} c_k sin(k x_j),
    Gaussian coefficients rescaled so the H norm hits a log-uniform target
    in [norm_lo, norm_hi], and t uniform in [0, t_max].  The stream is
    keyed by (seed, i): samples are a prefix-extension family, and two
    checkers with the same seed see the same states.  Samples are drawn
    in blocks (sample_block); each row of a block is bitwise the same
    whatever block it is drawn in, and sample(i) is a block of one.
    """

    def __init__(self, grid, seed=0, t_max=50.0, n_modes=8,
                 norm_lo=1e-2, norm_hi=8.0):
        if n_modes > grid.n_interior:
            raise ValueError("more sampler modes than grid points")
        if not 0 < norm_lo < norm_hi:
            raise ValueError("need 0 < norm_lo < norm_hi")
        self.grid = grid
        self.seed = int(seed)
        self.t_max = float(t_max)
        self.n_modes = int(n_modes)
        self.norm_lo = float(norm_lo)
        self.norm_hi = float(norm_hi)
        k = np.arange(1, self.n_modes + 1)
        self._sines = np.sin(k[:, None] * grid.points[None, :])
        self._ground_norm = _h_of(self._sines[0], grid.dx)
        self._log_lo = math.log(norm_lo)
        self._log_span = math.log(norm_hi) - math.log(norm_lo)

    def _fields(self, stream, idx):
        c = keyed_gaussians(self.seed, stream, idx[:, None],
                            np.arange(self.n_modes)[None, :])
        # the mode sum in a fixed order, elementwise: a matrix product
        # would let BLAS blocking tie a row's bits to the block's shape
        vals = c[:, :1] * self._sines[0]
        for k in range(1, self.n_modes):
            vals = vals + c[:, k:k + 1] * self._sines[k]
        u = keyed_uniforms(self.seed, stream + 1, idx, 0)
        target = np.array([math.exp(self._log_lo + self._log_span * v)
                           for v in u.tolist()])
        hn = np.sqrt(h_norm_sq_values(vals, self.grid.dx))
        zero = hn == 0.0  # measure-zero draw; fall back to the ground mode
        vals = np.where(zero[:, None], self._sines[0], vals)
        hn = np.where(zero, self._ground_norm, hn)
        return vals * (target / hn)[:, None]

    def sample_block(self, indices):
        """(t, X, Y) for a block of sample indices: t has shape (S,), X and
        Y shape (S, n); row s is pure in (seed, indices[s])."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        t = self.t_max * keyed_uniforms(self.seed, 10, idx, 0)
        return t, self._fields(20, idx), self._fields(30, idx)

    def sample(self, i):
        """(t, x, y) for sample index i; pure in (seed, i)."""
        t, X, Y = self.sample_block([i])
        return float(t[0]), Field(self.grid, X[0]), Field(self.grid, Y[0])


def _coeff_rows(coeff, t, X, Y, dx):
    """A drift or diffusion on each row of an (S, n) block, with a scalar t:
    one call at the block's first time when the coefficient declares
    time_dependent False, otherwise one call per sample."""
    out = np.empty_like(X)
    if not getattr(coeff, "time_dependent", True):
        out[...] = coeff.evaluate(float(t[0]), X, Y, dx)
        return out
    for s, ts in enumerate(t.tolist()):
        out[s] = coeff.evaluate(ts, X[s], Y[s], dx)
    return out


def _lu_block(p, t, X, Y):
    """LU(t_s, X_s, Y_s) = 2<A x, x> + 2<f, x> + ||g||^2 for each row of an
    (S, n) block, as an (S,) array."""
    grid, dx = p.grid, p.grid.dx
    # an overflow is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        F = _coeff_rows(p.drift, t, X, Y, dx)
        G = _coeff_rows(p.diffusion, t, X, Y, dx)
        if p.op.time_dependent:
            a_mid = np.stack([p.op.midpoint_values(ts, grid)
                              for ts in t.tolist()])
        else:
            a_mid = p.op.midpoint_values(float(t[0]), grid)
        out = (2.0 * operator_quad_form_values(a_mid, X, dx)
               + 2.0 * dx * np.sum(F * X, axis=-1)
               + h_norm_sq_values(G, dx))
    if not np.all(np.isfinite(out)):
        raise ValueError("evaluation overflow")
    return out


def diffusion_operator(p, t, x: Field, y: Field) -> float:
    """LU(t, x, y) for U = ||x||_H^2 and the problem's drift and diffusion
    (a block of one sample)."""
    return float(_lu_block(p, np.array([float(t)]), x.values[None, :],
                           y.values[None, :])[0])


def _gamma_integral(L, t_final, mu=None):
    """Quadrature of gamma(t) (mu None) or gamma(t) e^{mu t} over [0, t_final].

    With gamma identically zero the weighted integral is 0 for every mu,
    including mu = inf (the convention letting the decay bound come from
    the root solver alone)."""
    ts = np.linspace(0.0, t_final, 4097)
    g = np.asarray([float(L.gamma_fn(t)) for t in ts])
    if mu is None:
        w = g
    elif not np.any(g != 0.0):
        return 0.0
    elif math.isinf(mu):
        return math.inf
    else:
        w = g * np.exp(mu * ts)
    return float(np.trapezoid(w, ts))


def _constants_family(L, worst, names):
    for msg in L.constant_violations():
        if any(msg.startswith(nm) for nm in names):
            worst.update_flagged(True, 1.0, "constants: " + msg)


def _blocks(sampler, n):
    """(first index, t, X, Y) for samples 0..n-1, SAMPLE_BLOCK at a time."""
    if n < 0:
        raise ValueError("number of samples must be >= 0, got %d" % n)
    for start in range(0, n, SAMPLE_BLOCK):
        idx = np.arange(start, min(start + SAMPLE_BLOCK, n))
        t, X, Y = sampler.sample_block(idx)
        yield start, t, X, Y


def _state_desc(what, i, t, x, y, dx):
    return ("%s at sample %d: t=%.3f, |x|_H=%.3f, |y|_H=%.3f"
            % (what, i, t, _h_of(x, dx), _h_of(y, dx)))


def check_khasminskii(p, L: LyapunovSpec, sampler, n,
                      tolerance=DEFAULT_TOLERANCE) -> ConditionReport:
    """Existence-theorem hypotheses: the LU growth bound

        LU(t,x,y) <= lam1 [1 + U(t,x) + U(t-tau,y) + W(y)] - lam2 W(x)

    on n sampled states."""
    if L.lam1 is None or L.lam2 is None or L.W_fn is None:
        raise ValueError("check_khasminskii needs lam1, lam2 and W_fn")
    worst = _Worst(("growth bound",))
    _constants_family(L, worst, ("lam1", "lam2"))
    grid, dx = p.grid, p.grid.dx
    for start, t, X, Y in _blocks(sampler, n):
        lhs = _lu_block(p, t, X, Y)
        rhs = (L.lam1 * (1.0 + h_norm_sq_values(X, dx)
                         + h_norm_sq_values(Y, dx)
                         + _rows(L.W_fn, Y, grid))
               - L.lam2 * _rows(L.W_fn, X, grid))
        worst.update_block(
            _margin(lhs, rhs)[:, None],
            lambda s, f: _state_desc("growth bound", start + s, t[s], X[s],
                                     Y[s], dx))
    return ConditionReport("khasminskii", n, worst.margin, worst.where,
                           tolerance, extras={
                               "max_violation_by_family": worst.by_family()})


def check_lasalle(p, L: LyapunovSpec, sampler, n,
                  tolerance=DEFAULT_TOLERANCE) -> ConditionReport:
    """Pathwise-stability hypotheses: the dissipation bound

        LU(t,x,y) <= gamma(t) - w1(x) + w2(y),

    strictness w1 > w2 away from zero (with w1(0) = w2(0) = 0), and
    integrability of gamma by quadrature."""
    if L.w1_fn is None or L.w2_fn is None or L.gamma_fn is None:
        raise ValueError("check_lasalle needs w1_fn, w2_fn and gamma_fn")
    worst = _Worst(("dissipation bound", "strictness"))
    zero = Field.zero(p.grid)
    w10, w20 = float(L.w1_fn(zero)), float(L.w2_fn(zero))
    zero_bad = w10 != 0.0 or w20 != 0.0
    worst.update_flagged(zero_bad,
                         abs(w10) + abs(w20) if zero_bad else -math.inf,
                         "w1(0)=%g, w2(0)=%g not both zero" % (w10, w20))
    grid, dx = p.grid, p.grid.dx
    for start, t, X, Y in _blocks(sampler, n):
        lhs = _lu_block(p, t, X, Y)
        w1x, w2x = _rows(L.w1_fn, X, grid), _rows(L.w2_fn, X, grid)
        rhs = _per_sample(L.gamma_fn, t) - w1x + _rows(L.w2_fn, Y, grid)
        strict = (w2x - w1x) / (1.0 + np.abs(w1x) + np.abs(w2x))
        # update_flagged's rule: a failure scores at least 1.0
        strict = np.where(w1x > w2x, strict, np.maximum(strict, 1.0))

        def describe(s, f):
            if f == 0:
                return _state_desc("dissipation bound", start + s, t[s],
                                   X[s], Y[s], dx)
            return ("strictness w1 > w2 at sample %d (w1=%g, w2=%g)"
                    % (start + s, w1x[s], w2x[s]))
        worst.update_block(
            np.column_stack([_margin(lhs, rhs), strict]), describe)
    gamma_int = _gamma_integral(L, p.t_final)
    worst.update_flagged(not math.isfinite(gamma_int), -math.inf,
                         "gamma quadrature not finite")
    return ConditionReport("lasalle", n, worst.margin, worst.where, tolerance,
                           extras={"gamma_integral": gamma_int,
                                   "max_violation_by_family":
                                       worst.by_family()})


def check_exponential(p, L: LyapunovSpec, sampler, n,
                      tolerance=DEFAULT_TOLERANCE) -> ConditionReport:
    """Exponential-decay hypotheses: the decay bound

        LU <= gamma(t) - alpha1 U(t,x) + alpha2 U(t-tau,y)
              - alpha3 W1(x) + alpha4 W1(y),

    the constants ordering, and finiteness of int gamma(t) e^{mu t} dt."""
    need = (L.alpha1, L.alpha2, L.alpha3, L.alpha4, L.mu, L.W1_fn,
            L.gamma_fn)
    if any(v is None for v in need):
        raise ValueError("check_exponential needs alpha1..4, mu, W1_fn and "
                         "gamma_fn")
    worst = _Worst(("decay bound",))
    _constants_family(L, worst, ("alpha", "mu"))
    grid, dx = p.grid, p.grid.dx
    for start, t, X, Y in _blocks(sampler, n):
        lhs = _lu_block(p, t, X, Y)
        rhs = (_per_sample(L.gamma_fn, t)
               - L.alpha1 * h_norm_sq_values(X, dx)
               + L.alpha2 * h_norm_sq_values(Y, dx)
               - L.alpha3 * _rows(L.W1_fn, X, grid)
               + L.alpha4 * _rows(L.W1_fn, Y, grid))
        worst.update_block(
            _margin(lhs, rhs)[:, None],
            lambda s, f: _state_desc("decay bound", start + s, t[s], X[s],
                                     Y[s], dx))
    gamma_int = _gamma_integral(L, p.t_final, mu=L.mu)
    worst.update_flagged(not math.isfinite(gamma_int), -math.inf,
                         "int gamma e^{mu t} dt diverges on [0, t_final]")
    return ConditionReport("exponential", n, worst.margin, worst.where,
                           tolerance,
                           extras={"gamma_exp_integral": gamma_int,
                                   "max_violation_by_family":
                                       worst.by_family()})
