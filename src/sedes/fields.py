"""Spatial discretization of (0, pi) with homogeneous Dirichlet walls.

Fields live on the interior points x_j = j*dx, j = 1..n, dx = pi/(n+1),
with the wall values at x = 0 and x = pi implicitly zero.  The discrete
L2 norm uses the composite rectangle rule with weight dx; the discrete
H1 seminorm uses forward differences across all n+1 gaps, including the
two boundary gaps.  With these choices the three-point divergence-form
stencil

    (A u)_j = [a_{j+1/2} (u_{j+1} - u_j) - a_{j-1/2} (u_j - u_{j-1})] / dx^2

satisfies summation by parts exactly:

    <A u, u>_H = -(1/dx) * sum_i a_{i+1/2} (u_{i+1} - u_i)^2,

so for a == 1 the identity <-A u, u>_H = ||u||_V^2 holds to rounding, not
just to discretization error.  The smallest eigenvalue of the discrete
Dirichlet Laplacian is lambda_min = (4/dx^2) sin^2(dx/2) < 1; it plays
the role of the squared embedding constant between the V and H norms at
the discrete level (the continuum constant on (0, pi) is 1).

All operations here are pure functions of their arguments and safe to
call concurrently.
"""

import functools
import math

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "OperatorCoeff",
    "h_norm",
    "v_norm",
    "quartic",
    "apply_operator",
    "operator_quad_form",
    "lambda_min",
    "laplacian_eigenvalue",
    "sine_field",
]


class Grid:
    """Interior grid of (0, pi): n_interior points x_j = j*dx, dx = pi/(n+1)."""

    def __init__(self, n_interior: int):
        n = int(n_interior)
        if n < 2:
            raise ValueError("grid needs n_interior >= 2, got %d" % n)
        self.n_interior = n
        self.dx = math.pi / (n + 1)
        self.points = self.dx * np.arange(1, n + 1, dtype=float)
        self.points.flags.writeable = False
        # midpoints of all n+1 gaps, including the two boundary gaps
        self.midpoints = self.dx * (np.arange(0, n + 1, dtype=float) + 0.5)
        self.midpoints.flags.writeable = False

    def __repr__(self):
        return "Grid(n_interior=%d)" % self.n_interior

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n_interior == self.n_interior

    def __hash__(self):
        return hash(("Grid", self.n_interior))


class Field:
    """Real-valued function on the interior points of a Grid (walls are zero).

    Entries must be finite; NaN or Inf is a hard error, not a value.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n_interior,):
            raise ValueError(
                "invalid field: expected %d values, got shape %s"
                % (grid.n_interior, v.shape)
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("invalid field: non-finite entries")
        self.grid = grid
        self.values = v.copy()
        self.values.flags.writeable = False

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))

    def __repr__(self):
        return "Field(n=%d, h_norm=%.6g)" % (self.grid.n_interior, h_norm(self))


def _check_values(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("invalid field: non-finite entries")


# ---------------------------------------------------------------------------
# Array-level kernels.  They act on the last axis, so a batch of fields can
# be processed as an array of shape (..., n).  The Field-level operations
# below are thin wrappers.

def _wall_diffs(values):
    """Differences u_{i+1} - u_i over i = 0..n with u_0 = u_{n+1} = 0, as
    np.diff(values, axis=-1, prepend=0.0, append=0.0) computes them."""
    padded = np.zeros(values.shape[:-1] + (values.shape[-1] + 2,))
    padded[..., 1:-1] = values
    return padded[..., 1:] - padded[..., :-1]


def h_norm_sq_values(values, dx):
    return dx * np.sum(values * values, axis=-1)


def v_norm_sq_values(values, dx):
    d = _wall_diffs(values)
    return np.sum(d * d, axis=-1) / dx


def quartic_values(values, dx):
    v2 = values * values
    return dx * np.sum(v2 * v2, axis=-1)


def apply_operator_values(a_mid, values, dx):
    """Divergence-form stencil on (..., n) arrays; a_mid has length n+1."""
    d = _wall_diffs(values)
    flux = a_mid * d
    return np.diff(flux, axis=-1) / (dx * dx)


def operator_quad_form_values(a_mid, values, dx):
    """<A u, u>_H evaluated through the summation-by-parts identity.

    Returns -(1/dx) sum_i a_{i+1/2} (u_{i+1} - u_i)^2, which equals
    dx * sum_j (A u)_j u_j exactly in exact arithmetic.
    """
    d = _wall_diffs(values)
    return -np.sum(a_mid * d * d, axis=-1) / dx


# ---------------------------------------------------------------------------
# Field-level operations.

def h_norm(f: Field) -> float:
    """Discrete L2 norm sqrt(dx * sum u_j^2)."""
    _check_values(f.values)
    return float(np.sqrt(h_norm_sq_values(f.values, f.grid.dx)))


def v_norm(f: Field) -> float:
    """Discrete H1 seminorm from forward differences including both walls."""
    _check_values(f.values)
    return float(np.sqrt(v_norm_sq_values(f.values, f.grid.dx)))


def quartic(f: Field) -> float:
    """Integral of u^4 over (0, pi) by the rectangle rule (dx * sum u_j^4)."""
    _check_values(f.values)
    return float(quartic_values(f.values, f.grid.dx))


def lambda_min(grid: Grid) -> float:
    """Smallest eigenvalue of the discrete Dirichlet Laplacian on the grid."""
    return laplacian_eigenvalue(grid, 1)


def laplacian_eigenvalue(grid: Grid, k: int) -> float:
    """k-th eigenvalue (4/dx^2) sin^2(k dx / 2); eigenvector sin(k x_j)."""
    if not 1 <= k <= grid.n_interior:
        raise ValueError("mode index out of range")
    s = math.sin(0.5 * k * grid.dx)
    return 4.0 * s * s / (grid.dx * grid.dx)


def sine_field(grid: Grid, k: int, amplitude: float = 1.0) -> Field:
    """amplitude * sin(k x) sampled on the grid (a Laplacian eigenvector)."""
    return Field(grid, amplitude * np.sin(k * grid.points))


def call_on_times(name, fn, ts, *args):
    """fn(ts, *args) on an (S, 1) column of times ts.  A TypeError or
    ValueError raised there is raised again naming fn, its own message
    first and the broadcast rule as a hint: a callable written for a
    scalar t (math.sin(t), if t > 1) fails that way on the column."""
    try:
        return fn(ts, *args)
    except (TypeError, ValueError) as e:
        kind = TypeError if isinstance(e, TypeError) else ValueError
        raise kind(
            "%s raised %s on an (S, 1) column of times: %s; it must "
            "broadcast over t (np.sin(t), not math.sin(t); np.where(t > 1, "
            "a, b), not a if t > 1 else b)" % (name, kind.__name__, e)) from e


class OperatorCoeff:
    """Coefficient of the divergence-form operator A(t, u) = (a(t, x) u')'.

    a_fn(t, x) is the user's a with 0 < nu <= a <= alpha_upper, validated by
    sampling since the callable is opaque; None means a == 1.  a_fn must
    broadcast over t, as a drift or diffusion does: t is a float in the
    integrator and an (S, 1) column of times in the checkers and in
    validate.  Whether A depends on t is read from that shape (see
    time_dependent), so a static A is factored once per path chunk and a
    time-dependent one at every step.
    """

    def __init__(self, a_fn=None, nu=1.0, alpha_upper=1.0):
        if not (0.0 < nu <= alpha_upper):
            raise ValueError("operator bounds need 0 < nu <= alpha_upper")
        self.a_fn = a_fn
        self.nu = float(nu)
        self.alpha_upper = float(alpha_upper)

    @classmethod
    def laplacian(cls) -> "OperatorCoeff":
        return cls()

    @classmethod
    def divergence(cls, a_fn, nu, alpha_upper):
        return cls(a_fn, nu, alpha_upper)

    @functools.cached_property
    def time_dependent(self) -> bool:
        """True when a_fn's value on a column of two times has one row per
        time, False when it has no t axis (or there is no a_fn)."""
        if self.a_fn is None:
            return False
        a = call_on_times("a_fn", self.a_fn, np.array([[0.0], [1.0]]),
                          np.array([0.0, math.pi]))
        return np.shape(a)[:-1] == (2,)

    def midpoint_values(self, t, grid: Grid):
        """a(t, .) at the n+1 gap midpoints: an (n+1,) array for a float t,
        an (S, n+1) array for an (S, 1) column of times.  Read-only: a value
        that does not vary along an axis is broadcast there, not copied.
        Every value is checked (check_range), so the solver is never
        factored, nor a checker block evaluated, with an a that validate's
        lattice missed."""
        shape = np.broadcast_shapes(np.shape(t), grid.midpoints.shape)
        if self.a_fn is None:
            return np.broadcast_to(1.0, shape)
        a = np.broadcast_to(np.asarray(self.a_fn(t, grid.midpoints),
                                       dtype=float), shape)
        self.check_range(a, t, grid.midpoints)
        return a

    def validate(self, grid: Grid, t_final: float):
        """Sampled check of 0 < nu <= a(t,x) <= alpha_upper on a lattice."""
        if self.a_fn is None:
            return
        n = 64                  # lattice points per axis
        ts = np.linspace(0.0, t_final, n)[:, None]
        xs = np.linspace(0.0, math.pi, n)
        a = np.empty((n, n))
        a[...] = call_on_times("a_fn", self.a_fn, ts, xs)
        self.check_range(a, ts, xs)

    def check_range(self, a, t, x):
        """ValueError unless every value of a = a(t, x) is finite and in
        [nu, alpha_upper] to within 1e-12 relative; the message gives the
        worst value with its t and x, which broadcast to a's shape."""
        if not np.all(np.isfinite(a)):
            i, what = np.argmin(np.isfinite(a)), "evaluated non-finite"
        elif a.min() < self.nu - 1e-12 * max(1.0, self.nu):
            i, what = np.argmin(a), "drops below nu=%g" % self.nu
        elif a.max() > self.alpha_upper + 1e-12 * max(1.0, self.alpha_upper):
            i, what = np.argmax(a), "exceeds alpha_upper=%g" % self.alpha_upper
        else:
            return
        raise ValueError("operator coefficient %s (%g at t=%g, x=%g)" % (
            what, a.flat[i], np.broadcast_to(t, a.shape).flat[i],
            np.broadcast_to(x, a.shape).flat[i]))


def apply_operator(c: OperatorCoeff, t: float, f: Field) -> Field:
    """Apply the conservative stencil for A(t, .) to a field."""
    _check_values(f.values)
    a_mid = c.midpoint_values(t, f.grid)
    out = apply_operator_values(a_mid, f.values, f.grid.dx)
    if not np.all(np.isfinite(out)):
        raise ValueError("operator overflow")
    return Field(f.grid, out)


def operator_quad_form(c: OperatorCoeff, t: float, f: Field) -> float:
    """<A(t) f, f>_H via summation by parts (always <= 0 for a > 0)."""
    _check_values(f.values)
    a_mid = c.midpoint_values(t, f.grid)
    out = float(operator_quad_form_values(a_mid, f.values, f.grid.dx))
    if not math.isfinite(out):
        raise ValueError("operator overflow")
    return out
