"""sedes: a simulator and stability laboratory for semilinear stochastic
evolution equations with discrete delay on (0, pi).

The package integrates the spatially discretized equations with an IMEX
Euler-Maruyama scheme over counter-based noise, evaluates the diffusion
operator of Lyapunov functionals, checks the existence / pathwise /
exponential stability hypotheses on sampled states, and verifies the
predicted decay and convergence behavior by Monte Carlo.
"""

from .fields import (
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
from .noise import NoiseModel
from .integrator import (
    BallClampedCoeff,
    ProblemSpec,
    Trajectory,
    imex_em_step,
    run_ensemble,
    simulate,
    simulate_paths,
    stopping_time_sigma_k,
    truncate_problem,
)
from .lyapunov import (
    ConditionReport,
    FourierSampler,
    LyapunovSpec,
    check_exponential,
    check_khasminskii,
    check_lasalle,
    diffusion_operator,
)
from .stability import (
    ASStats,
    DecaySolution,
    MsCurve,
    as_stability_stats,
    explosion_scan,
    fit_decay_rate,
    fit_decay_rate_adaptive,
    ms_ensemble,
    solve_decay,
    solve_eps1,
    solve_eps2,
)
from .presets import PRESET_NAMES, Preset, make_preset

__version__ = "0.1.0"
