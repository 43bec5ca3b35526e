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

One engine runs the three checks: check_khasminskii, check_lasalle and
check_exponential declare their theorem's constants, functionals and
families and the right-hand side of its bound on LU.  The engine draws
(t, x, y) samples in blocks of SAMPLE_BLOCK, evaluates each block on
(S, n) arrays with the kernels of fields.py, and the relative violations

    (lhs - rhs) / (1 + |lhs| + |rhs|)

form an (S, F) array with one column per inequality family.  The report
keeps the first maximum in (sample, family) order, carried across
blocks, which is the sample and family a one-sample-at-a-time loop would
keep; it passes when no family exceeds the tolerance, 1e-8.  An infinite
right-hand side takes the margin's limit, +1 at -inf and -1 at +inf.  A
check never passes on what it cannot evaluate: a non-finite LU, or a NaN
margin (a NaN functional or gamma, or a right-hand side inf - inf),
raises ValueError naming the sample.
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

The functionals W, w1, w2 and W1 are functions fn(values, dx) of an
(S, n) block of field values, and gamma is a function of the (S,) sample
times; each is called once per block, and its result is broadcast to one
value per row, so a constant such as lambda t: 0.0 works as written.  A
functional that reduces over the whole block by mistake (a sum missing
axis=-1) also gives one value; each check tells it from a constant once,
on samples 0 and 1, and raises ValueError naming it.
Drift, diffusion and the operator coefficient a(t, x) broadcast over t:
each is called once per block, with the (S, 1) column of the block's
sample times beside the (S, n) arrays of states.

Samples are FourierSampler's keyed streams, each row bitwise independent
of its block, and a check holds one block at a time.  Growing the sample
count only appends samples, so a failed report can never turn into a
pass with the same seed, and the block size never changes a report.
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

# the H-norm range the sampler draws states in, log-uniformly
NORM_LO, NORM_HI = 1e-2, 8.0


def _rows(values, S, name):
    """A functional's or gamma's values as one per row of an S-row block: a
    constant broadcasts, and any other shape raises ValueError."""
    try:
        return np.broadcast_to(np.asarray(values, dtype=float), (S,))
    except ValueError:
        raise ValueError("%s must give one value per row of a %d-sample "
                         "block, got shape %s"
                         % (name, S, np.shape(values))) from None


def _probe_rows(sampler, names, call):
    """ValueError for a functional or gamma, named by its LyapunovSpec
    attribute and evaluated by call(name, block), that gives one value on
    the block of samples 0 and 1 but other values on each sample alone: it
    reduces over the whole block.  A constant passes; any other shape is
    left to _rows.  The probe does not depend on SAMPLE_BLOCK, so neither
    does a report."""
    t, X, _ = sampler.sample_block(np.arange(2))
    for name in names:
        V = t if name == "gamma_fn" else X
        both = np.asarray(call(name, V[0:2]), dtype=float)
        if both.ndim:
            continue
        both = float(both)
        alone = [float(_rows(call(name, V[s:s + 1]), 1, name)[0])
                 for s in (0, 1)]
        if any(a != both and not (math.isnan(a) and math.isnan(both))
               for a in alone):
            raise ValueError(
                "%s gives one value, %g, on a block of two samples and %g, "
                "%g on each alone: it must reduce each row (axis=-1), not "
                "the whole block" % ((name, both) + tuple(alone)))


class LyapunovSpec:
    """Functionals and constants entering the three stability theorems.

    The Lyapunov functional is U = ||x||_H^2, as in every worked example.
    The functionals W_fn, w1_fn, w2_fn and W1_fn map an (S, n) block of
    field values and the grid spacing to one value per row, fn(values, dx),
    and gamma_fn maps the (S,) sample times to one value per sample.

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
    failed by that margin, and passed is exactly max_violation <= tolerance,
    which is DEFAULT_TOLERANCE.
    """

    def __init__(self, name, n_samples, max_violation, argmax_sample,
                 extras=None):
        self.name = name
        self.n_samples = int(n_samples)
        self.max_violation = float(max_violation)
        self.argmax_sample = argmax_sample
        self.tolerance = DEFAULT_TOLERANCE
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
        # failure: a failing sample scores at least 1.0 (1.0 when its
        # margin is NaN), a passing one its genuine (nonpositive) margin
        if failed:
            margin = max(1.0, margin)
        if margin > self.margin:
            self.margin = margin
            self.where = desc

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
    # inf/inf at an infinite rhs (lhs is finite) is the limit, -sign(rhs)
    with np.errstate(invalid="ignore"):
        m = (lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs))
    return np.where(rhs == -np.inf, 1.0, np.where(rhs == np.inf, -1.0, m))


class FourierSampler:
    """Random truncated Fourier states for the hypothesis checkers.

    Each sample i yields (t, x, y) with x = sum_{k<=n_modes} c_k sin(k x_j),
    n_modes = min(8, grid points), Gaussian coefficients rescaled so the H
    norm hits a log-uniform target in [NORM_LO, NORM_HI], and t uniform in
    [0, t_max].  Each draw is keyed (seed, stream, i, ...): uniforms
    (10, i, 0) for t and (21, i, 0), (31, i, 0) for the targets of x and y;
    Gaussians (20, i, k), (30, i, k) for the weights of mode k + 1 in x and
    y.  A block (sample_block) draws its uniforms in one call and its
    Gaussians in another and forms x and y as one (2, S, n) array.  Each
    row is bitwise the same whatever block it is drawn in, so samples are a
    prefix-extension family, two checkers with the same seed see the same
    states, and sample(i) is a block of one.
    """

    def __init__(self, grid, seed=0, t_max=50.0):
        self.grid = grid
        self.seed = int(seed)
        self.t_max = float(t_max)
        self.n_modes = min(8, grid.n_interior)
        k = np.arange(1, self.n_modes + 1)
        self._sines = np.sin(k[:, None] * grid.points[None, :])
        self._log_lo = math.log(NORM_LO)
        self._log_span = math.log(NORM_HI) - math.log(NORM_LO)

    def sample_block(self, indices):
        """(t, X, Y) for a block of sample indices: t has shape (S,), X and
        Y shape (S, n); row s is pure in (seed, indices[s])."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        u = keyed_uniforms(self.seed, np.array([[10], [21], [31]]), idx, 0)
        c = keyed_gaussians(self.seed, np.array([[[20]], [[30]]]),
                            idx[:, None], np.arange(self.n_modes))
        # the mode sum in a fixed order, elementwise (BLAS blocking would
        # tie a row's bits to the block's shape), each product in place
        XY = np.empty(c.shape[:2] + self._sines.shape[1:])
        term = np.empty_like(XY)
        np.copyto(XY, self._sines[0])
        XY *= c[..., :1]
        for k in range(1, self.n_modes):
            np.copyto(term, self._sines[k])
            term *= c[..., k:k + 1]
            XY += term
        del term
        target = np.array([math.exp(self._log_lo + self._log_span * v)
                           for v in u[1:].reshape(-1).tolist()])
        XY *= (target.reshape(2, -1)
               / np.sqrt(h_norm_sq_values(XY, self.grid.dx)))[..., None]
        return self.t_max * u[0], XY[0], XY[1]

    def sample(self, i):
        """(t, x, y) for sample index i; pure in (seed, i)."""
        t, X, Y = self.sample_block([i])
        return float(t[0]), Field(self.grid, X[0]), Field(self.grid, Y[0])


def _lu_block(p, t, X, Y):
    """LU(t_s, X_s, Y_s) = 2<A x, x> + 2<f, x> + ||g||^2 for each row of an
    (S, n) block, as an (S,) array."""
    dx, tc = p.grid.dx, t[:, None]

    def coeff(fn):
        return np.broadcast_to(np.asarray(fn(tc, X, Y), dtype=float),
                               X.shape)
    # an overflow is reported by the finiteness check below; each term is
    # summed in before the next coefficient is evaluated, so the block's
    # drift is freed before its diffusion is formed
    with np.errstate(over="ignore", invalid="ignore"):
        a_mid = p.op.midpoint_values(tc, p.grid)
        out = 2.0 * operator_quad_form_values(a_mid, X, dx)
        out = out + 2.0 * dx * np.sum(coeff(p.drift) * X, axis=-1)
        out = out + h_norm_sq_values(coeff(p.diffusion), dx)
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
    g = _rows(L.gamma_fn(ts), ts.size, "gamma_fn")
    # an overflow is reported by the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        if mu is not None:
            if not np.any(g != 0.0):
                return 0.0
            if math.isinf(mu):
                return math.inf
            g = g * np.exp(mu * ts)
        return float(np.trapezoid(g, ts))


def _blocks(sampler, n):
    """(first index, t, X, Y) for samples 0..n-1, SAMPLE_BLOCK at a time."""
    for start in range(0, n, SAMPLE_BLOCK):
        # yielded unbound: the generator holds no block while drawing one
        yield (start,) + sampler.sample_block(
            np.arange(start, min(start + SAMPLE_BLOCK, n)))


def _check(name, p, L, sampler, n, constants, functionals, families, rows,
           zero=(), gamma=None):
    """One theorem's sampled check, as its check_* function declares it:
    the LyapunovSpec constants and functionals it needs; its families, the
    bound LU <= rhs first; rows(t, X, Y, dx, fn), giving rhs on a block
    and (margins, describe(sample, row)) for each further family, with
    fn(name, V) the named functional on states V (gamma on times), one
    value per row; the functionals vanishing at x = 0; and gamma's
    (extras key, message, mu), weighted by e^{mu t} unless mu is None.
    Constants and the zero check enter first, gamma's quadrature last."""
    # with no sample the worst margin would be -inf, a pass
    if n < 1:
        raise ValueError("number of samples must be >= 1, got %d" % n)
    missing = [nm for nm in constants + functionals if getattr(L, nm) is None]
    if missing:
        raise ValueError("check_%s needs %s set in its LyapunovSpec"
                         % (name, ", ".join(missing)))
    dx = p.grid.dx

    def call(nm, V):
        # gamma maps the sample times, every other functional states
        f = getattr(L, nm)
        return f(V) if nm == "gamma_fn" else f(V, dx)

    def fn(nm, V):
        return _rows(call(nm, V), V.shape[0], nm)
    _probe_rows(sampler, functionals, call)
    worst = _Worst(families)
    named = {nm: getattr(L, nm) for nm in constants}
    for msg in LyapunovSpec(enforce_constants=False,
                            **named).constant_violations():
        worst.update_flagged(True, 1.0, "constants: " + msg)
    if zero:
        at0 = [float(fn(nm, np.zeros((1, p.grid.n_interior)))[0])
               for nm in zero]
        bad = any(v != 0.0 for v in at0)
        worst.update_flagged(bad, sum(map(abs, at0)) if bad else -math.inf,
                             ", ".join("%s(0)=%g" % (nm[:-3], v) for nm, v
                                       in zip(zero, at0)) + " not both zero")
    for start, t, X, Y in _blocks(sampler, n):
        lhs = _lu_block(p, t, X, Y)
        # an infinite right-hand side is judged by _margin's limit
        with np.errstate(over="ignore", invalid="ignore"):
            rhs, further = rows(t, X, Y, dx, fn)
        margins = np.column_stack([_margin(lhs, rhs)]
                                  + [m for m, _ in further])
        nan = np.isnan(margins)
        if nan.any():
            s, f = divmod(int(np.argmax(nan)), nan.shape[1])
            raise ValueError("check_%s: the %s margin is NaN at sample %d (a "
                             "NaN functional or gamma, or rhs inf - inf)"
                             % (name, families[f], start + s))
        describe = [lambda i, s: "%s at sample %d: t=%.3f, |x|_H=%.3f, "
                    "|y|_H=%.3f" % (families[0], i, t[s], *np.sqrt(
                        h_norm_sq_values(np.stack([X[s], Y[s]]), dx)))]
        describe += [d for _, d in further]
        worst.update_block(margins, lambda s, f: describe[f](start + s, s))
        del t, X, Y     # the block is freed before the next one is drawn
    extras = {}
    if gamma is not None:
        key, msg, mu = gamma
        extras[key] = _gamma_integral(L, p.t_final, mu)
        worst.update_flagged(not math.isfinite(extras[key]), -math.inf, msg)
    extras["max_violation_by_family"] = worst.by_family()
    return ConditionReport(name, n, worst.margin, worst.where, extras=extras)


def check_khasminskii(p, L: LyapunovSpec, sampler, n) -> ConditionReport:
    """Existence-theorem hypotheses: the LU growth bound

        LU(t,x,y) <= lam1 [1 + U(t,x) + U(t-tau,y) + W(y)] - lam2 W(x)

    on n sampled states, and lam1, lam2 > 0."""
    def rows(t, X, Y, dx, fn):
        return (L.lam1 * (1.0 + h_norm_sq_values(X, dx)
                          + h_norm_sq_values(Y, dx) + fn("W_fn", Y))
                - L.lam2 * fn("W_fn", X)), ()
    return _check("khasminskii", p, L, sampler, n, ("lam1", "lam2"),
                  ("W_fn",), ("growth bound",), rows)


def check_lasalle(p, L: LyapunovSpec, sampler, n) -> ConditionReport:
    """Pathwise-stability hypotheses: the dissipation bound

        LU(t,x,y) <= gamma(t) - w1(x) + w2(y),

    strictness w1 > w2 away from zero (with w1(0) = w2(0) = 0), and
    integrability of gamma by quadrature."""
    def rows(t, X, Y, dx, fn):
        w1x, w2x = fn("w1_fn", X), fn("w2_fn", X)
        rhs = fn("gamma_fn", t) - w1x + fn("w2_fn", Y)
        strict = (w2x - w1x) / (1.0 + np.abs(w1x) + np.abs(w2x))
        # update_flagged's rule: a failure scores at least 1.0
        strict = np.where(w1x > w2x, strict, np.maximum(strict, 1.0))
        return rhs, ((strict, lambda i, s: "strictness w1 > w2 at sample %d"
                      " (w1=%g, w2=%g)" % (i, w1x[s], w2x[s])),)
    return _check("lasalle", p, L, sampler, n, (),
                  ("w1_fn", "w2_fn", "gamma_fn"),
                  ("dissipation bound", "strictness"), rows,
                  zero=("w1_fn", "w2_fn"),
                  gamma=("gamma_integral", "gamma quadrature not finite",
                         None))


def check_exponential(p, L: LyapunovSpec, sampler, n) -> ConditionReport:
    """Exponential-decay hypotheses: the decay bound

        LU <= gamma(t) - alpha1 U(t,x) + alpha2 U(t-tau,y)
              - alpha3 W1(x) + alpha4 W1(y),

    the constants ordering, and finiteness of int gamma(t) e^{mu t} dt."""
    def rows(t, X, Y, dx, fn):
        return (fn("gamma_fn", t) - L.alpha1 * h_norm_sq_values(X, dx)
                + L.alpha2 * h_norm_sq_values(Y, dx)
                - L.alpha3 * fn("W1_fn", X) + L.alpha4 * fn("W1_fn", Y)), ()
    return _check("exponential", p, L, sampler, n,
                  ("alpha1", "alpha2", "alpha3", "alpha4", "mu"),
                  ("W1_fn", "gamma_fn"), ("decay bound",), rows,
                  gamma=("gamma_exp_integral",
                         "int gamma e^{mu t} dt diverges on [0, t_final]",
                         L.mu))
