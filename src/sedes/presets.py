"""The built-in problems: three reaction-diffusion examples with delay and
a deterministic heat-equation control.

All four live on (0, pi) with zero walls and scalar Brownian forcing:

  heat       du = u_xx dt                                   (f = g = 0)
  existence  du = u_xx dt + (v^2 - u^3) dt + v^2 dB         ("eq16")
  lasalle    du = u_xx dt - (u^3 + u) dt + v sin(t) dB      ("eq6")
  expstab    du = (a(t,x) u_x)_x dt + u (a + b v - u^2) dt
             + c u v dB                                     ("eq24")

where v denotes the state delayed by tau.  Each stochastic preset comes
with the Lyapunov data that certifies it: U = ||x||_H^2 throughout, and
quartic functionals built from the integral of u^4 (written Q4 below).
The source derivations state their quartic terms loosely as powers of the
H norm, but the quantities they actually produce are Q4 integrals; using
(int u^2)^2 instead makes the inequalities false on single-mode states,
so the presets pin the Q4 form.

Every drift and diffusion is a plain lambda (t, u, v) that broadcasts
over t, so the hypothesis checkers evaluate it on a whole block of
sampled states, with their column of times, in one call; the lasalle
preset's v sin(t) is written with np.sin for that reason.

For the existence preset the growth-bound derivation closes with the
constant pair (lam1, lam2) = (4/3, 4/3): the chain bounds the cross term
by 3||x||_H^2 + (1/3) Q4(y), so the delayed-W allowance needs lam1 >= 4/3
(with lam1 = 1 a random state stream finds genuine violations at roughly
one sample in 50k).

The expstab preset requires nu - a > b^2 > 0 and 0 < c^4 < 2 (so that
alpha3 > alpha4 > 0), and its decay constants are alpha1 = 2(nu - a),
alpha2 = 2 b^2, alpha3 = 1, alpha4 = c^4 / 2 with W1 = Q4.  U = ||x||_H^2
meets the exponential theorem's sandwich c1 ||x||_H^2 <= U <= c2 ||x||_H^2
with c1 = c2 = 1 by definition, so the certificate carries no sandwich
constants.  gamma == 0 for every preset, so mu is reported as +inf and
the predicted rate bound is -eps from the root solver alone.
"""

import math

import numpy as np

from .fields import OperatorCoeff, Grid, h_norm_sq_values, quartic_values
from .integrator import ProblemSpec
from .lyapunov import LyapunovSpec
from .noise import NoiseModel

__all__ = ["PRESET_NAMES", "Preset", "eq24_failed_requirement",
           "make_preset"]

PRESET_NAMES = ("heat", "eq16", "eq6", "eq24")

# desk-scale defaults; the heat control runs to t=1, the stability
# presets to t=50
DEFAULTS = {
    "heat": dict(grid_n=63, dt=1e-3, tau=1.0, t_final=1.0, amplitude=1.0),
    "eq16": dict(grid_n=63, dt=1e-3, tau=1.0, t_final=50.0, amplitude=0.1),
    "eq6": dict(grid_n=63, dt=1e-3, tau=1.0, t_final=50.0, amplitude=0.1),
    "eq24": dict(grid_n=63, dt=1e-3, tau=1.0, t_final=50.0, amplitude=0.1),
}


def _fourth_power(c):
    """c^4, or inf where it overflows (c ** 4 raises there)."""
    try:
        return c ** 4
    except OverflowError:
        return math.inf


def eq24_failed_requirement(nu, a, b, c):
    """The first expstab requirement (nu, a, b, c) fails, worded with the
    values that fail it: nu - a > b^2 > 0, then 0 < c^4 < 2; None when both
    hold."""
    if not (nu - a > b * b > 0.0):
        return "nu - a > b^2 > 0 (nu=%g, a=%g, b=%g)" % (nu, a, b)
    if not (0.0 < _fourth_power(c) < 2.0):
        return "0 < c^4 < 2 (c=%g, c^4=%g)" % (c, _fourth_power(c))
    return None


def _sine_history(amplitude):
    def psi(theta, x):
        return amplitude * np.sin(x)
    return psi


class Preset:
    """A built-in problem plus its Lyapunov certificate and the amplitude
    of its initial history psi(theta, x) = amplitude sin(x), the one
    parameter the problem does not hold."""

    def __init__(self, name, problem, lyapunov, amplitude):
        self.name = name
        self.problem = problem
        self.lyapunov = lyapunov
        self.amplitude = amplitude


def make_preset(name, grid_n=None, dt=None, tau=None, t_final=None,
                seed=0, amplitude=None, nu=2.0, a=0.5, b=1.0, c=1.0,
                sign_variant=False, g_factor=1.0, lam2=None,
                enforce_constraints=True) -> Preset:
    """Build one of the named presets with optional numeric overrides.

    sign_variant flips the existence preset's drift to the variant with
    drift -(v^2 - u^3) that appears alongside the main one; g_factor
    scales the lasalle preset's diffusion (3.0 gives the deliberately
    broken variant); lam2 overrides the existence preset's second
    growth-bound constant.  enforce_constraints=False skips the expstab
    parameter requirements so unstable parameterizations can be run on
    purpose."""
    if name not in PRESET_NAMES:
        raise ValueError("unknown preset %r (choose from %s)"
                         % (name, ", ".join(PRESET_NAMES)))
    d = DEFAULTS[name]
    grid_n = d["grid_n"] if grid_n is None else int(grid_n)
    dt = d["dt"] if dt is None else float(dt)
    tau = d["tau"] if tau is None else float(tau)
    t_final = d["t_final"] if t_final is None else float(t_final)
    amplitude = d["amplitude"] if amplitude is None else float(amplitude)

    grid = Grid(grid_n)
    noise = NoiseModel.scalar(seed=seed)
    psi = _sine_history(amplitude)

    if name == "heat":
        problem = ProblemSpec(
            grid, OperatorCoeff.laplacian(),
            drift=lambda t, u, v: np.zeros_like(u),
            diffusion=lambda t, u, v: np.zeros_like(u),
            tau=tau, noise=noise, initial_history=psi,
            t_final=t_final, dt=dt)
        # zero drift and diffusion: the trivial certificate LU <= 0 works
        lyap = LyapunovSpec(
            W_fn=h_norm_sq_values, lam1=1.0, lam2=1.0,
            w1_fn=lambda v, dx: 2.0 * h_norm_sq_values(v, dx),
            w2_fn=h_norm_sq_values,
            gamma_fn=lambda t: 0.0)
        return Preset(name, problem, lyap, amplitude)

    if name == "eq16":
        sign = -1.0 if sign_variant else 1.0
        problem = ProblemSpec(
            grid, OperatorCoeff.laplacian(),
            drift=lambda t, u, v: sign * (v * v - u * u * u),
            diffusion=lambda t, u, v: v * v,
            tau=tau, noise=noise, initial_history=psi,
            t_final=t_final, dt=dt)
        lyap = LyapunovSpec(
            W_fn=quartic_values, lam1=4.0 / 3.0,
            lam2=(4.0 / 3.0 if lam2 is None else float(lam2)),
            gamma_fn=lambda t: 0.0)
        return Preset(name, problem, lyap, amplitude)

    if name == "eq6":
        gf = float(g_factor)
        problem = ProblemSpec(
            grid, OperatorCoeff.laplacian(),
            drift=lambda t, u, v: -(u * u * u + u),
            diffusion=lambda t, u, v: gf * v * np.sin(t),
            tau=tau, noise=noise, initial_history=psi,
            t_final=t_final, dt=dt)
        lyap = LyapunovSpec(
            w1_fn=lambda v, dx: 2.0 * (quartic_values(v, dx)
                                       + 2.0 * h_norm_sq_values(v, dx)),
            w2_fn=h_norm_sq_values,
            gamma_fn=lambda t: 0.0)
        return Preset(name, problem, lyap, amplitude)

    # eq24: divergence-form operator with 0 < nu <= a(t,x) <= alpha
    nu, a, b, c = float(nu), float(a), float(b), float(c)
    failed = (eq24_failed_requirement(nu, a, b, c) if enforce_constraints
              else None)
    if failed is not None:
        raise ValueError("expstab preset requires " + failed)
    op = OperatorCoeff.divergence(
        lambda t, x: np.full_like(np.asarray(x, dtype=float), nu),
        nu=nu, alpha_upper=nu)
    problem = ProblemSpec(
        grid, op,
        drift=lambda t, u, v: u * (a + b * v - u * u),
        diffusion=lambda t, u, v: c * u * v,
        tau=tau, noise=noise, initial_history=psi,
        t_final=t_final, dt=dt)
    lyap = LyapunovSpec(
        W1_fn=quartic_values,
        alpha1=2.0 * (nu - a), alpha2=2.0 * b * b,
        alpha3=1.0, alpha4=0.5 * _fourth_power(c),
        mu=math.inf,
        gamma_fn=lambda t: 0.0,
        enforce_constants=enforce_constraints)
    return Preset(name, problem, lyap, amplitude)
