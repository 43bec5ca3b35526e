"""The built-in problems: defaults, parameters, and variants."""

import numpy as np
import pytest

from sedes import make_preset
from sedes.presets import DEFAULTS, PRESET_NAMES


def test_defaults_per_preset():
    for name in PRESET_NAMES:
        pre = make_preset(name)
        p = pre.problem
        assert p.grid.n_interior == 63
        assert p.dt == pytest.approx(1e-3)
        assert p.tau == 1.0
        assert p.t_final == DEFAULTS[name]["t_final"]
    assert make_preset("heat").problem.t_final == 1.0
    assert make_preset("eq6").problem.t_final == 50.0
    with pytest.raises(ValueError, match="unknown preset"):
        make_preset("nope")


def test_initial_history_amplitudes():
    heat = make_preset("heat")
    assert heat.problem.psi_h_bound == pytest.approx(
        np.sqrt(np.pi / 2), rel=1e-12)
    eq6 = make_preset("eq6")
    assert eq6.problem.psi_h_bound == pytest.approx(
        0.1 * np.sqrt(np.pi / 2), rel=1e-12)
    wide = make_preset("eq6", amplitude=0.5)
    assert wide.problem.psi_h_bound == pytest.approx(
        0.5 * np.sqrt(np.pi / 2), rel=1e-12)


def test_eq16_sign_variant_flips_the_drift():
    main = make_preset("eq16")
    intro = make_preset("eq16", sign_variant=True)
    u = np.array([0.3, -0.7, 1.1])
    v = np.array([0.4, 0.2, -0.5])
    f_main = main.problem.drift(0.0, u, v)
    f_intro = intro.problem.drift(0.0, u, v)
    assert np.allclose(f_main, v * v - u ** 3)
    assert np.array_equal(f_intro, -f_main)
    # the diffusion is the same in both variants
    assert np.array_equal(main.problem.diffusion(0.0, u, v),
                          intro.problem.diffusion(0.0, u, v))


def test_eq24_parameter_gates():
    with pytest.raises(ValueError, match="nu - a > b\\^2 > 0"):
        make_preset("eq24", b=2.0)
    with pytest.raises(ValueError, match="nu - a > b\\^2 > 0"):
        make_preset("eq24", b=0.0)
    # nu - a = b^2 exactly is on the wrong side of nu - a > b^2
    with pytest.raises(ValueError, match=r"^expstab preset requires "
                       r"nu - a > b\^2 > 0 \(nu=2, a=1, b=1\)$"):
        make_preset("eq24", nu=2.0, a=1.0, b=1.0)
    make_preset("eq24", nu=2.0, a=0.99, b=1.0)
    with pytest.raises(ValueError, match=r"^expstab preset requires "
                       r"0 < c\^4 < 2 \(c=1.3, c\^4=2.8561\)$"):
        make_preset("eq24", c=1.3)
    ok = make_preset("eq24", nu=3.0, a=1.0, b=1.2, c=1.0)
    assert ok.lyapunov.alpha1 == pytest.approx(2 * (3.0 - 1.0))
    assert ok.lyapunov.alpha2 == pytest.approx(2 * 1.2 ** 2)
    assert ok.lyapunov.alpha4 == pytest.approx(0.5)
    # unstable parameters are constructible only on request
    loose = make_preset("eq24", c=1.3, enforce_constraints=False)
    assert loose.lyapunov.alpha4 > loose.lyapunov.alpha3


def test_eq24_operator_is_divergence_form_with_nu():
    pre = make_preset("eq24", nu=2.0)
    op = pre.problem.op
    assert not op.time_dependent
    mids = op.midpoint_values(0.0, pre.problem.grid)
    assert np.all(mids == 2.0)
