"""Diffusion-operator identities and the three hypothesis checkers.

The preset quartic functionals are integrals of u^4 (what the worked
derivations actually produce); with that reading each preset inequality
is exact at the discrete level and the checks below pass with the 1e-8
relative tolerance, while the deliberately broken variants fail by large
margins.
"""

import math

import numpy as np
import pytest

from sedes import (
    Field,
    FourierSampler,
    Grid,
    LyapunovSpec,
    NoiseModel,
    OperatorCoeff,
    ProblemSpec,
    check_exponential,
    check_khasminskii,
    check_lasalle,
    diffusion_operator,
    h_norm,
    make_preset,
    quartic,
    truncate_problem,
    v_norm,
)
from sedes.fields import h_norm_sq_values, quartic_values


def default_sampler(p, seed=0):
    return FourierSampler(p.grid, seed=seed, t_max=p.t_final)


def test_diffusion_operator_zero_state_is_zero():
    for name in ("eq16", "eq6", "eq24"):
        pre = make_preset(name)
        z = Field.zero(pre.problem.grid)
        assert diffusion_operator(pre.problem, 0.37, z, z) == 0.0


def test_heat_zero_diffusion_identity():
    # with f = g = 0 and U = ||x||^2 the operator is exactly -2 ||x||_V^2
    pre = make_preset("heat", grid_n=63)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = Field(pre.problem.grid, rng.standard_normal(63))
        lu = diffusion_operator(pre.problem, 1.0, f, f)
        assert lu == pytest.approx(-2 * v_norm(f) ** 2, rel=1e-12)


def test_eq6_certified_bound():
    # LU <= -2 (Q4(x) + 2||x||_H^2) + ||y||_H^2 up to the discrete slack
    pre = make_preset("eq6")
    s = default_sampler(pre.problem)
    for i in range(500):
        t, x, y = s.sample(i)
        lu = diffusion_operator(pre.problem, t, x, y)
        bound = (-2 * (quartic(x) + 2 * h_norm(x) ** 2) + h_norm(y) ** 2)
        assert lu <= bound + 1e-8 * (1 + abs(lu) + abs(bound))


def test_eq24_certified_bound():
    pre = make_preset("eq24")  # nu=2, a=0.5, b=1, c=1
    s = default_sampler(pre.problem)
    for i in range(500):
        t, x, y = s.sample(i)
        lu = diffusion_operator(pre.problem, t, x, y)
        bound = (-2 * (2.0 - 0.5) * h_norm(x) ** 2 + 2 * h_norm(y) ** 2
                 - quartic(x) + 0.5 * quartic(y))
        assert lu <= bound + 1e-8 * (1 + abs(lu) + abs(bound))


def test_trace_term_quadratic_in_g():
    pre = make_preset("eq6")
    p = pre.problem
    s = default_sampler(p)
    t, x, y = s.sample(3)
    values = {}
    for c in (0.0, 1.0, 2.0):
        q = p.replace(diffusion=lambda tt, u, v, _c=c: _c * v * np.sin(tt))
        values[c] = diffusion_operator(q, t, x, y)
    base = values[1.0] - values[0.0]
    assert values[2.0] - values[0.0] == pytest.approx(4.0 * base, rel=1e-12)


def test_sampler_is_deterministic_prefix_stream():
    g = Grid(63)
    s1 = FourierSampler(g, seed=4, t_max=10.0)
    s2 = FourierSampler(g, seed=4, t_max=10.0)
    for i in (0, 5, 17):
        t1, x1, y1 = s1.sample(i)
        t2, x2, y2 = s2.sample(i)
        assert t1 == t2
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(y1.values, y2.values)
    norms = [h_norm(s1.sample(i)[1]) for i in range(200)]
    assert min(norms) >= 1e-2
    assert max(norms) <= 8.0 + 1e-9


def test_khasminskii_eq16_passes():
    pre = make_preset("eq16")
    rep = check_khasminskii(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 10000)
    assert rep.passed
    assert rep.max_violation <= rep.tolerance
    # the worst sample of the stream is pinned (seed 0, 10000 samples)
    assert rep.argmax_sample.startswith("growth bound at sample 7420:")
    assert rep.max_violation == pytest.approx(-0.14736008099113, rel=1e-9)


def test_khasminskii_trivial_zero_problem_passes():
    grid = Grid(31)
    p = ProblemSpec(grid, OperatorCoeff.laplacian(),
                    drift=lambda t, u, v: 0 * u,
                    diffusion=lambda t, u, v: 0 * u,
                    tau=1.0, noise=NoiseModel.scalar(),
                    initial_history=lambda th, x: 0.1 * np.sin(x),
                    t_final=10.0, dt=0.01)
    L = LyapunovSpec(W_fn=lambda v, dx: 0.0, lam1=1.0, lam2=1.0)
    rep = check_khasminskii(p, L, FourierSampler(grid, t_max=10.0), 2000)
    assert rep.passed


def test_khasminskii_broken_lam2_fails():
    pre = make_preset("eq16", lam2=10.0)
    rep = check_khasminskii(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 10000)
    assert not rep.passed
    assert rep.max_violation > 0
    assert rep.argmax_sample.startswith("growth bound at sample 871:")
    # direct construction of a violating state: the drift only sinks the
    # quartic at rate 2, so demanding 10 Q4(x) on the right fails at
    # large ||x||
    p, L = pre.problem, pre.lyapunov
    x = Field(p.grid, np.sin(p.grid.points)
              * (6.0 / math.sqrt(math.pi / 2)))
    y = Field.zero(p.grid)
    lu = diffusion_operator(p, 0.0, x, y)
    rhs = L.lam1 * (1 + h_norm(x) ** 2) - 10.0 * quartic(x)
    assert lu > rhs


def test_khasminskii_fails_where_the_growth_bound_is_minus_infinity():
    # lam2 W(x) overflows on the larger samples: a bound of -inf fails by
    # the margin's limit, 1.0, without a warning and without a NaN
    import warnings
    from sedes.lyapunov import _margin
    pre = make_preset("eq16", lam2=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_khasminskii(pre.problem, pre.lyapunov,
                                default_sampler(pre.problem), 200)
        m = _margin(np.full(3, 2.0), np.array([-math.inf, math.inf, np.nan]))
    assert not rep.passed
    assert rep.max_violation == 1.0
    assert rep.argmax_sample.startswith("growth bound at sample ")
    assert m[:2].tolist() == [1.0, -1.0] and math.isnan(m[2])


def test_lasalle_eq6_passes():
    pre = make_preset("eq6")
    rep = check_lasalle(pre.problem, pre.lyapunov,
                        default_sampler(pre.problem), 10000)
    assert rep.passed
    assert rep.argmax_sample.startswith("strictness w1 > w2 at sample 5722 ")
    assert rep.max_violation == pytest.approx(-2.9991126582605e-4, rel=1e-9)
    assert math.isfinite(rep.extras["gamma_integral"])


def test_lasalle_strictness_boundary_fails():
    pre = make_preset("eq6")
    L = LyapunovSpec(w1_fn=h_norm_sq_values, w2_fn=h_norm_sq_values,
                     gamma_fn=lambda t: 0.0)
    rep = check_lasalle(pre.problem, L, default_sampler(pre.problem), 200)
    assert not rep.passed
    assert "strictness" in rep.argmax_sample


def test_lasalle_amplified_noise_fails():
    pre = make_preset("eq6", g_factor=3.0)
    rep = check_lasalle(pre.problem, pre.lyapunov,
                        default_sampler(pre.problem), 10000)
    assert not rep.passed
    assert rep.max_violation > 0
    assert rep.argmax_sample.startswith("dissipation bound at sample 4203:")
    # direct evaluation at x = 0, ||y||_H = 1, t = pi/2: the dissipation
    # bound is beaten by (9 sin^2 t - 1) ||y||^2 = 8
    p, L = pre.problem, pre.lyapunov
    x = Field.zero(p.grid)
    y = Field(p.grid, np.sin(p.grid.points) / math.sqrt(math.pi / 2))
    lu = diffusion_operator(p, math.pi / 2, x, y)
    rhs = (-float(L.w1_fn(x.values, p.grid.dx))
           + float(L.w2_fn(y.values, p.grid.dx)))
    assert lu - rhs == pytest.approx(8.0, rel=1e-6)


def test_exponential_eq24_passes():
    pre = make_preset("eq24")
    rep = check_exponential(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 10000)
    assert rep.passed
    # the worst sample of the stream is pinned (seed 0, 10000 samples)
    assert rep.argmax_sample.startswith("decay bound at sample 1397:")
    assert rep.max_violation == pytest.approx(-0.0042183942672120505,
                                              rel=1e-9)
    assert rep.extras["gamma_exp_integral"] == 0.0


def test_exponential_eq24_reports_each_familys_worst_margin():
    # the decay bound is the one sampled family, so it is the headline
    pre = make_preset("eq24")
    rep = check_exponential(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 10000)
    assert rep.extras["max_violation_by_family"] == {
        "decay bound": rep.max_violation}


def test_exponential_gamma_integral_value():
    # gamma(t) = e^{-2 mu t}: the weighted integral tends to 1/mu
    pre = make_preset("eq24", t_final=50.0)
    mu = 1.0
    L = LyapunovSpec(W1_fn=quartic_values,
                     alpha1=3.0, alpha2=2.0, alpha3=1.0, alpha4=0.5,
                     mu=mu, gamma_fn=lambda t: np.exp(-2 * mu * t))
    rep = check_exponential(pre.problem, L, default_sampler(pre.problem), 100)
    assert rep.extras["gamma_exp_integral"] == pytest.approx(1.0 / mu,
                                                             rel=1e-4)


def test_exponential_constants_fail_at_construction():
    # c = 1.3 gives alpha4 = c^4/2 = 1.428 > alpha3 = 1
    with pytest.raises(ValueError, match="alpha3 > alpha4"):
        LyapunovSpec(W1_fn=quartic_values,
                     alpha1=3.0, alpha2=2.0, alpha3=1.0,
                     alpha4=0.5 * 1.3 ** 4, mu=math.inf,
                     gamma_fn=lambda t: 0.0)
    with pytest.raises(ValueError, match="c\\^4 < 2"):
        make_preset("eq24", c=1.3)
    # but a deliberately broken spec can be built and is then reported
    pre = make_preset("eq24", c=1.3, enforce_constraints=False)
    rep = check_exponential(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 100)
    assert not rep.passed
    assert "constants" in rep.argmax_sample


def test_report_monotone_under_prefix_extension():
    pre = make_preset("eq16", lam2=10.0)
    s = default_sampler(pre.problem)
    small = check_khasminskii(pre.problem, pre.lyapunov, s, 2000)
    large = check_khasminskii(pre.problem, pre.lyapunov, s, 4000)
    assert not small.passed
    assert not large.passed
    assert large.max_violation >= small.max_violation


def test_report_serializes():
    import json

    pre = make_preset("eq16")
    rep = check_khasminskii(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), 100)
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["name"] == "khasminskii"
    assert doc["passed"] == (doc["max_violation"] <= doc["tolerance"])


# ---------------------------------------------------------------------------
# Block evaluation: the checkers draw and evaluate SAMPLE_BLOCK samples at a
# time; nothing a report says may depend on the block size.

def _report_cases():
    yield "eq16 lam2=10", make_preset("eq16", lam2=10.0), check_khasminskii
    yield "eq6", make_preset("eq6"), check_lasalle
    yield "eq6 g_factor=3", make_preset("eq6", g_factor=3.0), check_lasalle
    yield "eq24", make_preset("eq24"), check_exponential
    yield "heat", make_preset("heat"), check_khasminskii


@pytest.mark.parametrize("block", [1, 7, 128, 300])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, block):
    import sedes.lyapunov as lyap
    n = 300
    ref = {}
    for name, pre, checker in _report_cases():
        ref[name] = checker(pre.problem, pre.lyapunov,
                            default_sampler(pre.problem), n).to_dict()
    monkeypatch.setattr(lyap, "SAMPLE_BLOCK", block)
    for name, pre, checker in _report_cases():
        rep = checker(pre.problem, pre.lyapunov,
                      default_sampler(pre.problem), n)
        assert rep.to_dict() == ref[name], name


def test_sample_is_a_row_of_any_block():
    s = FourierSampler(Grid(63), seed=3, t_max=20.0)
    whole = s.sample_block(np.arange(300))
    for idx in ([7], [250, 3, 17], np.arange(120, 140), np.arange(300)):
        t, X, Y = s.sample_block(idx)
        for r, i in enumerate(idx):
            assert t[r] == whole[0][i]
            assert np.array_equal(X[r], whole[1][i])
            assert np.array_equal(Y[r], whole[2][i])
    for i in (0, 1, 64, 299):
        t, x, y = s.sample(i)
        assert t == whole[0][i]
        assert np.array_equal(x.values, whole[1][i])
        assert np.array_equal(y.values, whole[2][i])


def _five_draw_block(s, indices):
    """FourierSampler.sample_block as the package wrote it with one keyed
    draw per stream (t, then x's weights and norm, then y's) and a
    ground-mode fallback for a zero norm: the bitwise reference for the
    sampler that draws every stream of a block in two calls."""
    from sedes.noise import keyed_gaussians, keyed_uniforms
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    dx = s.grid.dx

    def fields(stream):
        c = keyed_gaussians(s.seed, stream, idx[:, None],
                            np.arange(s.n_modes)[None, :])
        vals = c[:, :1] * s._sines[0]
        for k in range(1, s.n_modes):
            vals = vals + c[:, k:k + 1] * s._sines[k]
        u = keyed_uniforms(s.seed, stream + 1, idx, 0)
        target = np.array([math.exp(s._log_lo + s._log_span * v)
                           for v in u.tolist()])
        hn = np.sqrt(h_norm_sq_values(vals, dx))
        zero = hn == 0.0
        vals = np.where(zero[:, None], s._sines[0], vals)
        hn = np.where(zero, math.sqrt(h_norm_sq_values(s._sines[0], dx)), hn)
        return vals * (target / hn)[:, None]

    t = s.t_max * keyed_uniforms(s.seed, 10, idx, 0)
    return t, fields(20), fields(30)


@pytest.mark.parametrize("grid_n", [2, 15, 31, 63])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
def test_sample_block_equals_the_five_draw_reference(seed, grid_n):
    s = FourierSampler(Grid(grid_n), seed=seed, t_max=20.0,
                       n_modes=min(8, grid_n))
    for idx in (np.arange(128), np.arange(5000, 5044), [7], [0, 1],
                np.arange(300)):
        got = s.sample_block(idx)
        want = _five_draw_block(s, idx)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_block_reduction_keeps_the_loops_first_maximum():
    # margins drawn from a few integers tie all over the array; the loop
    # replaced its maximum only on a strictly greater margin, visiting
    # samples in order and families in order within a sample
    from sedes.lyapunov import _Worst
    rng = np.random.default_rng(5)
    margins = rng.integers(-3, 2, size=(300, 3)).astype(float)
    margins[:40] = -3.0
    margins[40, 0] = np.nan
    best, where = -math.inf, None
    for s in range(300):
        for f in range(3):
            if margins[s, f] > best:
                best, where = margins[s, f], (s, f)
    for block in (1, 7, 128, 300):
        w = _Worst()
        for start in range(0, 300, block):
            w.update_block(margins[start:start + block],
                           lambda s, f, start=start: (start + s, f))
        assert (w.margin, w.where) == (best, where)


def test_block_reduction_keeps_each_familys_maximum():
    from sedes.lyapunov import _Worst
    rng = np.random.default_rng(6)
    margins = rng.normal(size=(300, 3))
    margins[17, 1] = np.nan
    expected = np.where(np.isnan(margins), -math.inf, margins).max(axis=0)
    for block in (1, 7, 128, 300):
        w = _Worst(("a", "b", "c"))
        for start in range(0, 300, block):
            w.update_block(margins[start:start + block],
                           lambda s, f: "")
        assert w.by_family() == dict(zip("abc", expected.tolist()))
    assert _Worst(("a", "b")).by_family() == {"a": -math.inf,
                                              "b": -math.inf}


def _loop_oracle(kind, p, L, s, n):
    """The checkers' sample families as the per-sample loop they replaced:
    a margin wins only when strictly greater, samples in order, families
    in order within a sample.  Returns (max margin, description)."""
    best, where = -math.inf, "no samples"

    def update(m, desc):
        nonlocal best, where
        if m > best:
            best, where = m, desc

    def rel(lhs, rhs):
        return (lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))

    def state(what, i, t, x, y):
        return ("%s at sample %d: t=%.3f, |x|_H=%.3f, |y|_H=%.3f"
                % (what, i, t, h_norm(x), h_norm(y)))

    def one(fn, f):
        # a functional on the one-row block of f
        return float(np.broadcast_to(fn(f.values[None, :], f.grid.dx),
                                     (1,))[0])

    def gamma(t):
        return float(np.broadcast_to(L.gamma_fn(np.array([t])), (1,))[0])

    for i in range(n):
        t, x, y = s.sample(i)
        lu = diffusion_operator(p, t, x, y)
        u = float(h_norm_sq_values(x.values, x.grid.dx))
        uy = float(h_norm_sq_values(y.values, y.grid.dx))
        if kind == "khasminskii":
            rhs = (L.lam1 * (1.0 + u + uy + one(L.W_fn, y))
                   - L.lam2 * one(L.W_fn, x))
            update(rel(lu, rhs), state("growth bound", i, t, x, y))
        elif kind == "lasalle":
            w1x, w2x = one(L.w1_fn, x), one(L.w2_fn, x)
            rhs = gamma(t) - w1x + one(L.w2_fn, y)
            update(rel(lu, rhs), state("dissipation bound", i, t, x, y))
            m = (w2x - w1x) / (1.0 + abs(w1x) + abs(w2x))
            update(m if w1x > w2x else max(m, 1.0),
                   "strictness w1 > w2 at sample %d (w1=%g, w2=%g)"
                   % (i, w1x, w2x))
        else:
            rhs = (gamma(t) - L.alpha1 * u + L.alpha2 * uy
                   - L.alpha3 * one(L.W1_fn, x) + L.alpha4 * one(L.W1_fn, y))
            update(rel(lu, rhs), state("decay bound", i, t, x, y))
    return best, where


def _tie_spec():
    # strictness fails, scoring exactly 1.0, on every sample with
    # |x|_H > 1 (the first is sample 1 of the seed-0 stream)
    def w1(v, dx):
        h2 = h_norm_sq_values(v, dx)
        return np.where(h2 > 1.0, h2, 2.0 * h2)
    return LyapunovSpec(w1_fn=w1, w2_fn=h_norm_sq_values,
                        gamma_fn=lambda t: 0.0)


def test_block_checkers_match_the_per_sample_loop(monkeypatch):
    # exact agreement: every row of a block is computed with the arithmetic
    # of a one-sample block, so only the reduction differs from the loop.
    # The tie spec ties strictness failures across samples and blocks.
    import sedes.lyapunov as lyap
    n = 400
    eq6 = make_preset("eq6")
    cases = [("khasminskii", make_preset("eq16"), None),
             ("khasminskii", make_preset("eq16", lam2=10.0), None),
             ("lasalle", eq6, None),
             ("lasalle", make_preset("eq6", g_factor=3.0), None),
             ("lasalle", eq6, _tie_spec()),
             ("exponential", make_preset("eq24"), None)]
    checkers = {"khasminskii": check_khasminskii, "lasalle": check_lasalle,
                "exponential": check_exponential}
    for kind, pre, L in cases:
        p, L = pre.problem, L or pre.lyapunov
        s = default_sampler(p)
        expected = _loop_oracle(kind, p, L, s, n)
        for block in (1, 7, 128):
            monkeypatch.setattr(lyap, "SAMPLE_BLOCK", block)
            rep = checkers[kind](p, L, s, n)
            assert (rep.max_violation, rep.argmax_sample) == expected, kind


def test_functionals_and_gamma_must_give_one_value_per_row():
    # a constant (every preset's gamma) broadcasts to every row; an (S, n)
    # array or a gamma of the wrong length is rejected
    pre = make_preset("eq24")
    p, L, s = pre.problem, pre.lyapunov, default_sampler(pre.problem)
    consts = dict(alpha1=L.alpha1, alpha2=L.alpha2, alpha3=L.alpha3,
                  alpha4=L.alpha4, mu=L.mu)
    rows = LyapunovSpec(W1_fn=lambda v, dx: v * v, gamma_fn=lambda t: 0.0,
                        **consts)
    with pytest.raises(ValueError, match="W1_fn must give one value per "
                                         "row of a 10-sample block"):
        check_exponential(p, rows, s, 10)
    short = LyapunovSpec(W1_fn=quartic_values,
                         gamma_fn=lambda t: np.zeros(3), **consts)
    with pytest.raises(ValueError, match="gamma_fn must give one value"):
        check_exponential(p, short, s, 10)
    pre = make_preset("eq16")
    with pytest.raises(ValueError, match="W_fn must give one value"):
        check_khasminskii(pre.problem, LyapunovSpec(
            W_fn=lambda v, dx: v, lam1=1.0, lam2=1.0), s, 10)


def test_gamma_integral_overflow_is_reported_without_a_warning():
    # e^{mu t} overflows a float at mu = 100, t = 50, and the trapezoid
    # sums of a gamma near the largest float overflow: each check reports
    # its integral as not finite instead of raising a RuntimeWarning
    import warnings
    pre = make_preset("eq24", t_final=50.0)
    L = pre.lyapunov
    spec = LyapunovSpec(W1_fn=quartic_values, alpha1=L.alpha1,
                        alpha2=L.alpha2, alpha3=L.alpha3, alpha4=L.alpha4,
                        mu=100.0, gamma_fn=lambda t: np.exp(-t))
    eq6 = make_preset("eq6")
    huge = LyapunovSpec(w1_fn=eq6.lyapunov.w1_fn, w2_fn=h_norm_sq_values,
                        gamma_fn=lambda t: np.full_like(t, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_exponential(pre.problem, spec,
                                default_sampler(pre.problem), 10)
        las = check_lasalle(eq6.problem, huge, default_sampler(eq6.problem),
                            10)
    assert not math.isfinite(rep.extras["gamma_exp_integral"])
    assert not rep.passed
    assert "diverges" in rep.argmax_sample
    assert not math.isfinite(las.extras["gamma_integral"])
    assert not las.passed
    assert las.argmax_sample == "gamma quadrature not finite"


def test_diffusion_operator_is_a_row_of_the_block_kernel():
    from sedes.lyapunov import _lu_block
    problems = [make_preset(nm).problem for nm in ("eq16", "eq6", "eq24")]
    for p in problems + [_varying_problem()]:
        s = default_sampler(p)
        t, X, Y = s.sample_block(np.arange(40))
        block = _lu_block(p, t, X, Y)
        for i in range(40):
            one = diffusion_operator(p, t[i], Field(p.grid, X[i]),
                                     Field(p.grid, Y[i]))
            assert one == block[i]


def test_checkers_reject_a_negative_sample_count():
    pre = make_preset("eq16")
    with pytest.raises(ValueError, match="samples"):
        check_khasminskii(pre.problem, pre.lyapunov,
                          default_sampler(pre.problem), -1)


def _varying_problem():
    """A problem whose operator, drift and diffusion all depend on t."""
    return ProblemSpec(
        Grid(31), OperatorCoeff.divergence(
            lambda t, x: 1.5 + 0.25 * np.sin(t) * np.cos(x),
            nu=1.25, alpha_upper=1.75),
        drift=lambda t, u, v: -u * u * u + 0.5 * v * np.cos(2.0 * t),
        diffusion=lambda t, u, v: v * np.cos(t),
        tau=1.0, noise=NoiseModel.scalar(),
        initial_history=lambda th, x: 0.1 * np.sin(x),
        t_final=10.0, dt=0.01)


def _problem_coefficients():
    """(label, problem, fn(t, X, Y)) for every preset drift and diffusion,
    the sign variant, a ball-clamped wrapper and a time-dependent
    operator's a(t, .) at the gap midpoints included."""
    problems = [(nm, make_preset(nm).problem)
                for nm in ("heat", "eq16", "eq6", "eq24")]
    problems += [
        ("eq16 sign variant", make_preset("eq16", sign_variant=True).problem),
        ("eq24 clamped", truncate_problem(make_preset("eq24").problem, 0.5)),
        ("varying", _varying_problem())]
    out = [(label + " " + part, p, getattr(p, part))
           for label, p in problems for part in ("drift", "diffusion")]
    for label, p in problems:
        out.append((label + " operator", p,
                    lambda t, X, Y, p=p: p.op.midpoint_values(t, p.grid)))
    return out


def test_coefficients_evaluate_a_block_as_its_rows():
    # 300 samples are blocks of 128, 128 and a partial 44; a block is
    # evaluated in one call with its (S, 1) column of times, and each row
    # must be the bits of that row evaluated alone at its own float t, as
    # the integrator calls it
    from sedes.lyapunov import _blocks
    for label, p, fn in _problem_coefficients():
        sizes = []
        for _, t, X, Y in _blocks(default_sampler(p), 300):
            sizes.append(len(t))
            block = fn(t[:, None], X, Y)
            rows = np.stack([np.broadcast_to(fn(ts, X[s], Y[s]),
                                             block.shape[1:])
                             for s, ts in enumerate(t.tolist())])
            assert block.shape == (len(t), rows.shape[1]), label
            assert np.array_equal(block, rows), label
        assert sizes == [128, 128, 44]


class _Counted:
    """A coefficient that records the t of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.times = []

    def __call__(self, t, x, y):
        self.times.append(np.array(t, dtype=float))
        return self.inner(t, x, y)


def test_checkers_call_drift_and_diffusion_once_per_block():
    # construction checks both coefficients at the zero state in one call
    # on a column of 33 times; a check calls each once per block of 128,
    # with the block's (S, 1) column of sample times
    pre = make_preset("eq6")
    n = 300
    p = pre.problem.replace(drift=_Counted(pre.problem.drift),
                            diffusion=_Counted(pre.problem.diffusion))
    for coeff in (p.drift, p.diffusion):
        assert [c.shape for c in coeff.times] == [(33, 1)]
        coeff.times.clear()
    s = default_sampler(p)
    rep = check_lasalle(p, pre.lyapunov, s, n)
    assert rep.to_dict() == check_lasalle(pre.problem, pre.lyapunov, s,
                                          n).to_dict()
    t_all = s.sample_block(np.arange(n))[0]
    for coeff in (p.drift, p.diffusion):
        assert [c.shape for c in coeff.times] == [(128, 1), (128, 1), (44, 1)]
        assert np.array_equal(np.concatenate(coeff.times)[:, 0], t_all)


def test_problem_rejects_coefficients_written_for_a_scalar_t():
    # math.sin takes one number, so a coefficient built on it cannot be
    # evaluated on a column of times; construction says so at once, naming
    # the coefficient and the rule
    def make(op=OperatorCoeff.laplacian(), drift=lambda t, u, v: 0.0 * u,
             diffusion=lambda t, u, v: 0.5 * v):
        return ProblemSpec(Grid(16), op, drift=drift,
                           diffusion=diffusion, tau=0.5,
                           noise=NoiseModel.scalar(),
                           initial_history=lambda th, x: 0.1 * np.sin(x),
                           t_final=1.0, dt=0.01)

    def rule(name):
        return (r"^%s raised TypeError on an \(S, 1\) column of times: .*"
                r"must broadcast over t \(np\.sin\(t\), not math\.sin" % name)
    with pytest.raises(TypeError, match=rule("drift")):
        make(drift=lambda t, u, v: -u * (1.0 + math.sin(t) ** 2))
    with pytest.raises(TypeError, match=rule("diffusion")):
        make(diffusion=lambda t, u, v: math.cos(t) * v)
    scalar_a = OperatorCoeff.divergence(
        lambda t, x: 1.5 + 0.25 * math.sin(t) * np.cos(x),
        nu=1.25, alpha_upper=1.75)
    with pytest.raises(TypeError, match=rule("a_fn")):
        make(op=scalar_a)
    with pytest.raises(TypeError, match=rule("a_fn")):
        scalar_a.validate(Grid(16), 1.0)
    # any other TypeError keeps its own message first
    with pytest.raises(TypeError, match=r"^drift raised TypeError .*: .*"
                       r"<lambda>\(\) takes 2 positional arguments"):
        make(drift=lambda t, u: -u)
    # the same coefficients written with np.sin broadcast over t
    make(drift=lambda t, u, v: -u * (1.0 + np.sin(t) ** 2),
         op=OperatorCoeff.divergence(
             lambda t, x: 1.5 + 0.25 * np.sin(t) * np.cos(x),
             nu=1.25, alpha_upper=1.75))


def test_problem_names_a_callable_that_branches_on_a_scalar_t():
    # an if on t or theta asks numpy for the truth value of a column, whose
    # bare ValueError names nothing; construction names the callable, keeps
    # numpy's message and gives the broadcast rule
    def make(op=OperatorCoeff.laplacian(), drift=lambda t, u, v: 0.0 * u,
             diffusion=lambda t, u, v: 0.5 * v,
             psi=lambda th, x: 0.1 * np.sin(x)):
        return ProblemSpec(Grid(16), op, drift=drift, diffusion=diffusion,
                           tau=0.5, noise=NoiseModel.scalar(),
                           initial_history=psi, t_final=1.0, dt=0.01)

    def rule(name):
        return (r"^%s raised ValueError on an \(S, 1\) column of times: "
                r"The truth value of an array .* is ambiguous.*; it must "
                r"broadcast over t .*np\.where\(t > 1, a, b\), not a if "
                r"t > 1 else b" % name)
    with pytest.raises(ValueError, match=rule("drift")):
        make(drift=lambda t, u, v: -u if t > 0.5 else -2.0 * u)
    with pytest.raises(ValueError, match=rule("diffusion")):
        make(diffusion=lambda t, u, v: v if t > 0.5 else 0.0 * v)
    with pytest.raises(ValueError, match=rule("a_fn")):
        make(op=OperatorCoeff.divergence(
            lambda t, x: 1.5 + (0.25 if t > 0.5 else 0.0) * np.cos(x),
            nu=1.25, alpha_upper=1.75))
    with pytest.raises(ValueError, match=rule("initial_history")):
        make(psi=lambda th, x: np.sin(x) * (1.0 if th > -0.25 else 2.0))
    # the same callables written with np.where broadcast
    make(drift=lambda t, u, v: -u * np.where(t > 0.5, 1.0, 2.0),
         diffusion=lambda t, u, v: v * np.where(t > 0.5, 1.0, 0.0),
         op=OperatorCoeff.divergence(
             lambda t, x: 1.5 + np.where(t > 0.5, 0.25, 0.0) * np.cos(x),
             nu=1.25, alpha_upper=1.75),
         psi=lambda th, x: np.sin(x) * (1.5 + 0.5 * np.cos(th)))


@pytest.mark.parametrize("block", [1, 7, 128])
def test_a_whole_block_functional_raises_at_every_block_size(monkeypatch,
                                                             block):
    # a sum missing axis=-1 gives one value for the whole block; broadcast
    # to every row, it passed at block 1 and failed at block 128
    import sedes.lyapunov as lyap
    monkeypatch.setattr(lyap, "SAMPLE_BLOCK", block)
    eq6, eq16, eq24 = (make_preset(nm) for nm in ("eq6", "eq16", "eq24"))
    L6, L24 = eq6.lyapunov, eq24.lyapunov

    def whole(v, dx):
        return dx * np.sum(v * v)
    cases = [
        ("w2_fn", check_lasalle, eq6, LyapunovSpec(
            w1_fn=L6.w1_fn, w2_fn=whole, gamma_fn=L6.gamma_fn)),
        ("gamma_fn", check_lasalle, eq6, LyapunovSpec(
            w1_fn=L6.w1_fn, w2_fn=L6.w2_fn,
            gamma_fn=lambda t: np.exp(-np.sum(t)))),
        ("W_fn", check_khasminskii, eq16, LyapunovSpec(
            W_fn=whole, lam1=eq16.lyapunov.lam1,
            lam2=eq16.lyapunov.lam2)),
        ("W1_fn", check_exponential, eq24, LyapunovSpec(
            W1_fn=whole, gamma_fn=L24.gamma_fn, alpha1=L24.alpha1,
            alpha2=L24.alpha2, alpha3=L24.alpha3, alpha4=L24.alpha4,
            mu=L24.mu))]
    for name, checker, pre, L in cases:
        with pytest.raises(ValueError, match=name + " gives one value"):
            checker(pre.problem, L, default_sampler(pre.problem), 300)
    # a constant, such as every preset's gamma lambda t: 0.0, passes
    assert check_lasalle(eq6.problem, L6, default_sampler(eq6.problem),
                         300).passed


# ---------------------------------------------------------------------------
# A check never passes on what it cannot evaluate: a functional or gamma
# that is NaN on a sample makes that sample's margin NaN, and the check
# raises, naming itself, the family and the first such sample.

def _nan(v, dx):
    return np.full(v.shape[0], np.nan)


def test_khasminskii_raises_on_a_nan_functional():
    pre = make_preset("eq16")
    L = LyapunovSpec(W_fn=_nan, lam1=pre.lyapunov.lam1,
                     lam2=pre.lyapunov.lam2)
    with pytest.raises(ValueError, match="check_khasminskii: the growth "
                                         "bound margin is NaN at sample 0 "):
        check_khasminskii(pre.problem, L, default_sampler(pre.problem), 2000)


def test_exponential_raises_on_a_nan_functional():
    pre = make_preset("eq24")
    L = pre.lyapunov
    spec = LyapunovSpec(W1_fn=_nan, gamma_fn=L.gamma_fn, alpha1=L.alpha1,
                        alpha2=L.alpha2, alpha3=L.alpha3, alpha4=L.alpha4,
                        mu=L.mu)
    with pytest.raises(ValueError, match="check_exponential: the decay "
                                         "bound margin is NaN at sample 0 "):
        check_exponential(pre.problem, spec, default_sampler(pre.problem),
                          2000)


def test_lasalle_raises_on_the_first_sample_a_functional_is_nan():
    # w1 is NaN wherever |x|_H^2 > 1, first at sample 1 of the seed-0
    # stream; the dissipation bound is the first family of that sample
    def w1(v, dx):
        h2 = h_norm_sq_values(v, dx)
        return np.where(h2 > 1.0, np.nan, 2.0 * h2)
    pre = make_preset("eq6")
    L = LyapunovSpec(w1_fn=w1, w2_fn=h_norm_sq_values,
                     gamma_fn=lambda t: 0.0)
    with pytest.raises(ValueError, match="check_lasalle: the dissipation "
                                         "bound margin is NaN at sample 1 "):
        check_lasalle(pre.problem, L, default_sampler(pre.problem), 2000)


def test_lasalle_zero_check_fails_on_a_nan_at_zero():
    # w1(0) = NaN is not zero: the flagged failure scores 1.0, as any other
    pre = make_preset("eq6")
    L6 = pre.lyapunov

    def w1(v, dx):
        return np.where(h_norm_sq_values(v, dx) > 0.0, L6.w1_fn(v, dx),
                        np.nan)
    L = LyapunovSpec(w1_fn=w1, w2_fn=L6.w2_fn, gamma_fn=L6.gamma_fn)
    rep = check_lasalle(pre.problem, L, default_sampler(pre.problem), 200)
    assert not rep.passed
    assert rep.max_violation == 1.0
    assert rep.argmax_sample == "w1(0)=nan, w2(0)=0 not both zero"
