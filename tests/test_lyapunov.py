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
from sedes.fields import h_norm_sq_values


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
        q = p.replace(diffusion=lambda tt, u, v, _c=c: _c * v * math.sin(tt))
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
    L = LyapunovSpec(W_fn=lambda f: 0.0, lam1=1.0, lam2=1.0)
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
    L = LyapunovSpec(w1_fn=lambda f: h_norm(f) ** 2,
                     w2_fn=lambda f: h_norm(f) ** 2,
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
    rhs = -float(L.w1_fn(x)) + float(L.w2_fn(y))
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
    L = LyapunovSpec(W1_fn=quartic,
                     alpha1=3.0, alpha2=2.0, alpha3=1.0, alpha4=0.5,
                     mu=mu, gamma_fn=lambda t: math.exp(-2 * mu * t))
    rep = check_exponential(pre.problem, L, default_sampler(pre.problem), 100)
    assert rep.extras["gamma_exp_integral"] == pytest.approx(1.0 / mu,
                                                             rel=1e-4)


def test_exponential_constants_fail_at_construction():
    # c = 1.3 gives alpha4 = c^4/2 = 1.428 > alpha3 = 1
    with pytest.raises(ValueError, match="alpha3 > alpha4"):
        LyapunovSpec(W1_fn=quartic,
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

    for i in range(n):
        t, x, y = s.sample(i)
        lu = diffusion_operator(p, t, x, y)
        u = float(h_norm_sq_values(x.values, x.grid.dx))
        uy = float(h_norm_sq_values(y.values, y.grid.dx))
        if kind == "khasminskii":
            rhs = (L.lam1 * (1.0 + u + uy + float(L.W_fn(y)))
                   - L.lam2 * float(L.W_fn(x)))
            update(rel(lu, rhs), state("growth bound", i, t, x, y))
        elif kind == "lasalle":
            w1x, w2x = float(L.w1_fn(x)), float(L.w2_fn(x))
            rhs = float(L.gamma_fn(t)) - w1x + float(L.w2_fn(y))
            update(rel(lu, rhs), state("dissipation bound", i, t, x, y))
            m = (w2x - w1x) / (1.0 + abs(w1x) + abs(w2x))
            update(m if w1x > w2x else max(m, 1.0),
                   "strictness w1 > w2 at sample %d (w1=%g, w2=%g)"
                   % (i, w1x, w2x))
        else:
            rhs = (float(L.gamma_fn(t)) - L.alpha1 * u + L.alpha2 * uy
                   - L.alpha3 * float(L.W1_fn(x))
                   + L.alpha4 * float(L.W1_fn(y)))
            update(rel(lu, rhs), state("decay bound", i, t, x, y))
    return best, where


def _tie_spec():
    # strictness fails, scoring exactly 1.0, on every sample with
    # |x|_H > 1 (the first is sample 1 of the seed-0 stream)
    def w1(f):
        h2 = h_norm(f) ** 2
        return h2 if h2 > 1.0 else 2.0 * h2
    return LyapunovSpec(w1_fn=w1, w2_fn=lambda f: h_norm(f) ** 2,
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


def test_plain_functionals_match_their_array_forms():
    # the row-wise adapter for Field -> float callables gives the report
    # the presets' array functionals give
    def h2(f):
        return h_norm_sq_values(f.values, f.grid.dx)

    n = 500
    pre = make_preset("eq16", lam2=10.0)
    plain = LyapunovSpec(W_fn=quartic, lam1=4.0 / 3.0, lam2=10.0,
                         gamma_fn=lambda t: 0.0)
    s = default_sampler(pre.problem)
    assert (check_khasminskii(pre.problem, plain, s, n).to_dict()
            == check_khasminskii(pre.problem, pre.lyapunov, s, n).to_dict())
    pre = make_preset("eq6")
    plain = LyapunovSpec(w1_fn=lambda f: 2.0 * (quartic(f) + 2.0 * h2(f)),
                         w2_fn=h2, gamma_fn=lambda t: 0.0)
    assert (check_lasalle(pre.problem, plain, s, n).to_dict()
            == check_lasalle(pre.problem, pre.lyapunov, s, n).to_dict())
    pre = make_preset("eq24")
    L = pre.lyapunov
    plain = LyapunovSpec(W1_fn=quartic,
                         alpha1=L.alpha1, alpha2=L.alpha2, alpha3=L.alpha3,
                         alpha4=L.alpha4, mu=L.mu, gamma_fn=lambda t: 0.0)
    assert (check_exponential(pre.problem, plain, s, n).to_dict()
            == check_exponential(pre.problem, L, s, n).to_dict())


def test_diffusion_operator_is_a_row_of_the_block_kernel():
    from sedes.lyapunov import _lu_block
    grid = Grid(31)
    varying = ProblemSpec(
        grid, OperatorCoeff.divergence(
            lambda t, x: 1.5 + 0.25 * math.sin(t) * np.cos(x),
            nu=1.25, alpha_upper=1.75),
        drift=lambda t, u, v: -u * u * u + 0.5 * v,
        diffusion=lambda t, u, v: v * math.cos(t),
        tau=1.0, noise=NoiseModel.scalar(),
        initial_history=lambda th, x: 0.1 * np.sin(x),
        t_final=10.0, dt=0.01)
    problems = [make_preset(nm).problem for nm in ("eq16", "eq6", "eq24")]
    for p in problems + [varying]:
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


def _preset_coefficients():
    """(label, problem, coefficient) for every preset drift and diffusion,
    the sign variant and a ball-clamped wrapper included."""
    problems = [(nm, make_preset(nm).problem)
                for nm in ("heat", "eq16", "eq6", "eq24")]
    problems += [
        ("eq16 sign variant", make_preset("eq16", sign_variant=True).problem),
        ("eq24 clamped", truncate_problem(make_preset("eq24").problem, 0.5))]
    return [(label + " " + part, p, getattr(p, part))
            for label, p in problems for part in ("drift", "diffusion")]


def test_only_eq6_diffusion_depends_on_time():
    marked = {label: coeff.time_dependent
              for label, _, coeff in _preset_coefficients()}
    assert [label for label, dep in marked.items() if dep] == \
        ["eq6 diffusion"]


def test_time_independent_coefficients_evaluate_a_block_as_its_rows():
    # 300 samples are blocks of 128, 128 and a partial 44; a block is
    # evaluated in one call at its first time, and each row must be the
    # bits of that row evaluated alone at its own time
    from sedes.lyapunov import _blocks, _coeff_rows
    for label, p, coeff in _preset_coefficients():
        if coeff.time_dependent:
            continue
        dx, sizes = p.grid.dx, []
        for _, t, X, Y in _blocks(default_sampler(p), 300):
            sizes.append(len(t))
            block = _coeff_rows(coeff, t, X, Y, dx)
            rows = np.stack([np.broadcast_to(
                coeff.evaluate(ts, X[s], Y[s], dx), X[s].shape)
                for s, ts in enumerate(t.tolist())])
            assert np.array_equal(block, rows), label
        assert sizes == [128, 128, 44]


class _Counted:
    """A coefficient that records the t of every evaluate() call."""

    def __init__(self, inner):
        self.inner = inner
        self.time_dependent = inner.time_dependent
        self.times = []

    def evaluate(self, t, x, y, dx):
        self.times.append(t)
        return self.inner.evaluate(t, x, y, dx)


def test_block_evaluation_calls_time_independent_coefficients_per_block():
    # eq6's drift ignores t and is called once per block of 128; its
    # v sin(t) diffusion is called once per sample, at that sample's t
    pre = make_preset("eq6")
    n = 300
    p = pre.problem.replace(drift=_Counted(pre.problem.drift),
                            diffusion=_Counted(pre.problem.diffusion))
    # replace() validates the problem, which evaluates both coefficients
    p.drift.times.clear()
    p.diffusion.times.clear()
    s = default_sampler(p)
    rep = check_lasalle(p, pre.lyapunov, s, n)
    assert rep.to_dict() == check_lasalle(pre.problem, pre.lyapunov, s,
                                          n).to_dict()
    t_all = s.sample_block(np.arange(n))[0]
    assert len(p.drift.times) == math.ceil(n / 128)
    assert p.drift.times == t_all[::128].tolist()
    assert p.diffusion.times == t_all.tolist()
