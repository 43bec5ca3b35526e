"""Discrete-analysis identities of the spatial core.

The expected values here come from independent oracles: closed-form
integrals for the norms, the discrete Fourier eigen-identity for the
stencil, and (for summation by parts) a symbolic check of the n=3 case.
"""

import math

import numpy as np
import pytest

from sedes import (
    Field,
    Grid,
    OperatorCoeff,
    apply_operator,
    h_norm,
    lambda_min,
    laplacian_eigenvalue,
    operator_quad_form,
    quartic,
    sine_field,
    v_norm,
)
from sedes.fields import (
    apply_operator_values,
    operator_quad_form_values,
    v_norm_sq_values,
)


def random_field(grid, rng, scale=1.0):
    return Field(grid, scale * rng.standard_normal(grid.n_interior))


def test_grid_invariants():
    g = Grid(63)
    assert g.n_interior == 63
    assert math.isclose(g.dx * 64, math.pi, rel_tol=1e-15)
    assert np.allclose(g.points, g.dx * np.arange(1, 64))
    with pytest.raises(ValueError):
        Grid(1)


def test_field_rejects_nonfinite():
    g = Grid(8)
    vals = np.zeros(8)
    vals[3] = np.nan
    with pytest.raises(ValueError, match="invalid field"):
        Field(g, vals)
    with pytest.raises(ValueError, match="invalid field"):
        Field(g, np.full(8, np.inf))


def test_h_norm_zero_and_sine():
    g = Grid(199)
    assert h_norm(Field.zero(g)) == 0.0
    # integral of sin^2 over (0, pi) is pi/2; the rectangle rule on this
    # grid reproduces it exactly for low trigonometric polynomials
    assert h_norm(sine_field(g, 1)) == pytest.approx(math.sqrt(math.pi / 2),
                                                     abs=1e-3)


def test_h_norm_homogeneity():
    g = Grid(50)
    rng = np.random.default_rng(1)
    f = random_field(g, rng)
    scaled = Field(g, -3.0 * f.values)
    assert h_norm(scaled) == pytest.approx(3.0 * h_norm(f), rel=1e-13)


def test_v_norm_zero_and_eigen_identity():
    g = Grid(199)
    assert v_norm(Field.zero(g)) == 0.0
    # discrete eigen-identity: ||sin(k .)||_V^2 = lambda_k ||sin(k .)||_H^2
    for k in (1, 2, 5):
        f = sine_field(g, k)
        lam = laplacian_eigenvalue(g, k)
        assert v_norm(f) ** 2 == pytest.approx(lam * h_norm(f) ** 2,
                                               rel=1e-12)
    assert v_norm(sine_field(g, 1)) == pytest.approx(math.sqrt(math.pi / 2),
                                                     abs=1e-3)


def test_discrete_poincare_over_random_fields():
    g = Grid(63)
    lam = lambda_min(g)
    assert lam < 1.0
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = random_field(g, rng)
        assert v_norm(f) ** 2 >= lam * h_norm(f) ** 2 * (1 - 1e-12)
    # the discrete constant approaches the continuum value 1 from below
    assert lambda_min(Grid(63)) < lambda_min(Grid(255)) < 1.0


def test_apply_operator_eigenvectors():
    g = Grid(64)
    c = OperatorCoeff.laplacian()
    for k in (1, 2, 3):
        f = sine_field(g, k)
        lam = laplacian_eigenvalue(g, k)
        out = apply_operator(c, 0.0, f)
        assert np.max(np.abs(out.values + lam * f.values)) <= 1e-10 * lam


def test_apply_operator_zero_and_linearity():
    g = Grid(33)
    c = OperatorCoeff.laplacian()
    assert np.all(apply_operator(c, 0.0, Field.zero(g)).values == 0.0)
    rng = np.random.default_rng(3)
    f, h = random_field(g, rng), random_field(g, rng)
    lhs = apply_operator(c, 0.0, Field(g, 2.5 * f.values - 0.75 * h.values))
    rhs = (2.5 * apply_operator(c, 0.0, f).values
           - 0.75 * apply_operator(c, 0.0, h).values)
    scale = np.max(np.abs(rhs)) + 1.0
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * scale


def test_summation_by_parts_symbolic_n3():
    # exact algebra on the 3-point grid: <-A f, f>_H == ||f||_V^2
    import sympy as sp

    f1, f2, f3 = sp.symbols("f1 f2 f3")
    dx = sp.pi / 4
    vals = [f1, f2, f3]
    padded = [sp.Integer(0)] + vals + [sp.Integer(0)]
    Af = [(padded[j + 1] - 2 * padded[j] + padded[j - 1]) / dx ** 2
          for j in range(1, 4)]
    lhs = -dx * sum(a * v for a, v in zip(Af, vals))
    rhs = sum((padded[j + 1] - padded[j]) ** 2 for j in range(4)) / dx
    assert sp.simplify(lhs - rhs) == 0


def test_summation_by_parts_random_fields():
    g = Grid(63)
    c = OperatorCoeff.laplacian()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        f = random_field(g, rng, scale=rng.uniform(0.1, 10))
        q = operator_quad_form(c, 0.0, f)
        vn2 = v_norm(f) ** 2
        assert abs(-q - vn2) <= 1e-12 * (1.0 + vn2)
        assert q <= 0.0


def test_monotonicity_constant_for_laplacian():
    # 2 <A(f-g), f-g>_H = -2 ||f-g||_V^2, the alpha=2, lambda=0 case
    g = Grid(47)
    c = OperatorCoeff.laplacian()
    rng = np.random.default_rng(5)
    f, h = random_field(g, rng), random_field(g, rng)
    diff = Field(g, f.values - h.values)
    assert 2 * operator_quad_form(c, 0.0, diff) == pytest.approx(
        -2 * v_norm(diff) ** 2, rel=1e-12)


def test_variable_coefficient_against_dense_reference():
    g = Grid(21)
    a_fn = lambda t, x: 2.0 + np.sin(x) + 0.1 * t
    c = OperatorCoeff.divergence(a_fn, nu=1.5, alpha_upper=3.2)
    t = 0.7
    rng = np.random.default_rng(9)
    f = random_field(g, rng)
    # reference: assemble the dense matrix from midpoint values directly
    am = a_fn(t, g.midpoints)
    n, dx = g.n_interior, g.dx
    ref = np.zeros(n)
    v = np.concatenate([[0.0], f.values, [0.0]])
    for j in range(1, n + 1):
        ref[j - 1] = (am[j] * (v[j + 1] - v[j])
                      - am[j - 1] * (v[j] - v[j - 1])) / dx ** 2
    out = apply_operator(c, t, f)
    assert np.allclose(out.values, ref, rtol=1e-13, atol=1e-13)
    # coercivity with the lower bound nu
    assert 2 * operator_quad_form(c, t, f) <= -2 * 1.5 * v_norm(f) ** 2 + 1e-10


def test_operator_bounds_validated_by_sampling():
    g = Grid(16)
    bad = OperatorCoeff.divergence(lambda t, x: 0.5 + 0 * x, nu=1.0,
                                   alpha_upper=2.0)
    with pytest.raises(ValueError, match="below nu"):
        bad.validate(g, 1.0)
    bad_hi = OperatorCoeff.divergence(lambda t, x: 3.0 + 0 * x, nu=1.0,
                                      alpha_upper=2.0)
    with pytest.raises(ValueError, match="exceeds alpha_upper"):
        bad_hi.validate(g, 1.0)


def test_quartic_is_the_integral_of_u4():
    g = Grid(199)
    f = sine_field(g, 1)
    # integral of sin^4 over (0, pi) is 3 pi / 8
    assert quartic(f) == pytest.approx(3 * math.pi / 8, abs=1e-3)
    assert quartic(Field.zero(g)) == 0.0


def test_wall_difference_kernels_equal_their_np_diff_forms():
    # the np.diff forms the kernels used to be written in are the
    # reference: same subtractions, same sums, so equal to the bit
    rng = np.random.default_rng(17)
    for shape in ((2,), (31,), (5, 63), (3, 4, 200)):
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
        a_mid = rng.uniform(0.5, 2.0, shape[-1] + 1)
        dx = math.pi / (shape[-1] + 1)
        d = np.diff(vals, axis=-1, prepend=0.0, append=0.0)
        assert np.array_equal(v_norm_sq_values(vals, dx),
                              np.sum(d * d, axis=-1) / dx)
        assert np.array_equal(apply_operator_values(a_mid, vals, dx),
                              np.diff(a_mid * d, axis=-1) / (dx * dx))
        assert np.array_equal(operator_quad_form_values(a_mid, vals, dx),
                              -np.sum(a_mid * d * d, axis=-1) / dx)
