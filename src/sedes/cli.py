"""Command-line front end: configuration, run orchestration, artifacts.

A run is described by a JSON document whose keys are exactly the
RunConfig fields below; command-line flags override file values, and the
fully resolved configuration is echoed to <out>/config.resolved.json so
every run can be replayed.  Enabled analyses execute in a fixed order
(condition checks, decay solver, ensemble, statistics) and the artifacts
are written once at the end:

    ms_curve.csv       t, mean_h_norm_sq, std_err, n_alive
    paths_sample.csv   t, path_id, h_norm, v_norm   (at most 8 paths)
    report.json        stability report + decay solution + metadata
    conditions.json    the hypothesis-check reports
    config.resolved.json

Exit codes: 0 all enabled checks passed, 2 a check failed, 3 numerical
failure (explosion budget exceeded), 4 configuration error.  Numbers in
the CSV bodies carry 17 significant digits and runs with identical
resolved configurations reproduce them byte for byte.

The only environment variable honored is SEDES_OUT, which overrides the
output directory.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .fields import lambda_min
# bench/spans.py wraps simulate_paths in this namespace, so it stays
# importable from here though run() no longer calls it
from .integrator import PATH_CHUNK, run_ensemble, simulate_paths  # noqa: F401
from .lyapunov import (FourierSampler, check_exponential, check_khasminskii,
                       check_lasalle)
from .presets import (DEFAULTS as PRESET_DEFAULTS, PRESET_NAMES,
                      eq24_failed_requirement, make_preset)
from .stability import (StabilityReport, as_stats_from_batch, as_window,
                        default_record_times, explosion_scan,
                        fit_decay_rate_adaptive, ms_curve_from_batch,
                        record_steps, solve_decay)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 2
EXIT_NUMERICAL_FAILURE = 3
EXIT_CONFIG_ERROR = 4

SCHEME = "imex_euler_maruyama"
GAUSSIAN_METHOD = "box_muller_counter_keyed"

# RunConfig fields with their defaults; None means "preset decides" or
# "derived from other fields at run time"
CONFIG_DEFAULTS = {
    "preset": None,
    "grid_n": None,
    "dt": None,
    "tau": None,
    "t_final": None,
    "n_paths": 200,
    "seed": 0,
    "amplitude": None,
    # preset parameters
    "nu": 2.0,
    "a": 0.5,
    "b": 1.0,
    "c": 1.0,
    "sign_variant": False,
    "g_factor": 1.0,
    "lam2": None,
    # analysis toggles
    "check_conditions": True,
    "ms_ensemble": True,
    "as_stats": False,
    "explosion_scan": False,
    "decay_solver": None,       # defaults to True for eq24 only
    # thresholds and windows
    "n_samples": 10000,
    "sampler_seed": 0,
    "as_threshold": 1e-2,
    "as_window": None,          # [t_final - 5, t_final]
    "as_pass_fraction": 0.99,
    "u_bound": 1e6,
    "fit_window": None,
    "explosion_k_values": [2.0, 4.0, 8.0, 16.0],
    "explosion_horizon": 5.0,
    "explosion_budget": 0.01,
    "record_points": 501,
    "n_sample_paths": 8,
    "allow_unstable": False,
    "clamp": False,
    "output_dir": "sedes-out",
}


# integer keys and their ranges [lo, hi); seeds are hashed as 64-bit words,
# and a record grid has at least its two ends.  A key whose default is None
# may also be left unset
INT_RANGES = {
    "grid_n": (2, None),
    "n_paths": (1, None),
    "n_samples": (1, None),
    "record_points": (2, None),
    "n_sample_paths": (0, None),
    "seed": (0, 2 ** 64),
    "sampler_seed": (0, 2 ** 64),
}


# float keys and the range each must lie in; every one must be finite
FLOAT_RANGES = {
    "as_threshold": ("> 0", lambda v: v > 0.0),
    "as_pass_fraction": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "u_bound": ("> 0", lambda v: v > 0.0),
    "explosion_horizon": ("> 0", lambda v: v > 0.0),
    "explosion_budget": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}
# numbers handed to make_preset, which checks their ranges; None means the
# preset's default
PRESET_FLOATS = ("dt", "tau", "t_final", "amplitude", "nu", "a", "b", "c",
                 "g_factor", "lam2")


# the largest run the CLI starts, in bytes of its arrays as _run_bytes
# counts them
MAX_RUN_BYTES = 8 * 2 ** 30
# the step index is a 64-bit word of the noise key
MAX_STEPS = 2 ** 63
# floats per grid point held by the problem's set-up (the initial-history
# check) or by one block of checker samples, whichever is larger; both
# measure about 840
SETUP_FLOATS_PER_POINT = 1024


class ConfigError(ValueError):
    pass


def _is_number(val):
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _check_window(key, val):
    """None, or [lo, hi] with 0 <= lo < hi."""
    if val is None:
        return
    if not (isinstance(val, list) and len(val) == 2
            and all(_is_number(v) for v in val) and 0 <= val[0] < val[1]):
        raise ConfigError("%s must be [lo, hi] with 0 <= lo < hi, got %r"
                          % (key, val))


def load_config(path=None, overrides=None) -> dict:
    """Assemble the resolved run configuration.

    path points at a JSON document with RunConfig keys (unknown keys are
    an error, listed by name); overrides (flag values) win over the file.
    Constraint violations are reported with the hypothesis they break.
    """
    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError("cannot read config file: %s" % err)
        except json.JSONDecodeError as err:
            raise ConfigError("config file is not valid JSON: %s" % err)
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(CONFIG_DEFAULTS))
        if unknown:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(unknown))
        cfg.update(doc)
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = val
    if "SEDES_OUT" in os.environ:
        cfg["output_dir"] = os.environ["SEDES_OUT"]

    if cfg["preset"] is None:
        raise ConfigError("a preset must be chosen (--preset or config key)")
    if cfg["preset"] == "custom":
        raise ConfigError(
            "preset 'custom' carries user callables and is only reachable "
            "through the Python API; the CLI runs the named presets: %s"
            % ", ".join(PRESET_NAMES))
    if cfg["preset"] not in PRESET_NAMES:
        raise ConfigError("unknown preset %r (choose from %s)"
                          % (cfg["preset"], ", ".join(PRESET_NAMES)))
    for key, (lo, hi) in INT_RANGES.items():
        val = cfg[key]
        if val is None and CONFIG_DEFAULTS[key] is None:
            continue
        # a JSON float such as 200.0 or a bool is rejected too
        if type(val) is not int or val < lo or (hi is not None and val >= hi):
            raise ConfigError("%s must be an integer >= %d%s, got %r"
                              % (key, lo, "" if hi is None
                                 else " and < 2^64", val))
    for key, (text, ok) in FLOAT_RANGES.items():
        if not (_is_number(cfg[key]) and ok(cfg[key])):
            raise ConfigError("%s must be a finite number %s, got %r"
                              % (key, text, cfg[key]))
    for key in PRESET_FLOATS:
        if cfg[key] is not None and not _is_number(cfg[key]):
            raise ConfigError("%s must be a finite number, got %r"
                              % (key, cfg[key]))
    ks = cfg["explosion_k_values"]
    if not (isinstance(ks, list) and ks
            and all(_is_number(k) and k > 0 for k in ks)
            and all(a < b for a, b in zip(ks, ks[1:]))):
        raise ConfigError("explosion_k_values must be a non-empty, "
                          "increasing list of positive numbers, got %r"
                          % (ks,))
    for key in ("as_window", "fit_window"):
        _check_window(key, cfg[key])
    if cfg["decay_solver"] is None:
        cfg["decay_solver"] = cfg["preset"] == "eq24"

    if cfg["preset"] == "eq24" and not cfg["allow_unstable"]:
        nu, a, b, c = (float(cfg["nu"]), float(cfg["a"]), float(cfg["b"]),
                       float(cfg["c"]))
        failed = eq24_failed_requirement(nu, a, b, c)
        if failed == "b":
            raise ConfigError(
                "eq24 parameters rejected: requires nu-a > b^2 > 0 "
                "(nu=%g, a=%g, b=%g); pass --allow-unstable to run anyway"
                % (nu, a, b))
        if failed == "c":
            raise ConfigError(
                "eq24 parameters rejected: requires c^4 < 2 "
                "(c=%g gives c^4=%g); pass --allow-unstable to run anyway"
                % (c, c ** 4))
    if cfg["decay_solver"] and cfg["preset"] != "eq24":
        raise ConfigError(
            "decay_solver needs the exponential-stability constants, which "
            "only the eq24 preset defines")
    return cfg


def _grid_numbers(cfg):
    """(n, m, steps, scan_steps) from the config numbers alone: grid points,
    steps per delay before ProblemSpec rounds it up to an integer, and the
    steps to t_final and to the explosion horizon.  In floats, so no count
    overflows; None when a number is one make_preset rejects anyway."""
    d = PRESET_DEFAULTS[cfg["preset"]]
    n, dt, tau, t_final = (float(d[k] if cfg[k] is None else cfg[k])
                           for k in ("grid_n", "dt", "tau", "t_final"))
    if not (n >= 2 and dt > 0 and tau > 0 and t_final > 0):
        return None
    m = max(tau / dt, 1.0)
    return n, m, t_final * m / tau, cfg["explosion_horizon"] * m / tau


def _run_bytes(cfg):
    """Bytes of the arrays a run allocates, counted in floats from the
    config numbers alone: the set-up; for the ensemble one path chunk's
    delay ring (m+1, chunk, n) and the norms its reducers keep at the record
    points; for the explosion scan a chunk's ring and its per-step trace of
    n_steps + 1 norms per path.  None when a number is one make_preset
    rejects anyway."""
    nums = _grid_numbers(cfg)
    if nums is None:
        return None
    n, m, steps, scan_steps = nums
    B = float(cfg["n_paths"])
    ring = (m + 1.0) * min(float(PATH_CHUNK), B) * n
    floats = SETUP_FLOATS_PER_POINT * n
    if cfg["ms_ensemble"] or cfg["as_stats"]:
        # default_record_times keeps at most record_points steps
        records = min(steps + 1.0, float(cfg["record_points"]))
        floats += ring + (B + min(cfg["n_sample_paths"], B) + 1.0) * records
    if cfg["explosion_scan"]:
        floats += ring + (B + 1.0) * (scan_steps + 1.0)
    return 8.0 * floats


def _build_preset(cfg):
    nums = _grid_numbers(cfg)
    if nums is not None and nums[2] >= MAX_STEPS:
        raise ConfigError(
            "t_final / dt gives about %.3g steps; a step index is a 64-bit "
            "word of the noise key, so a run has fewer than 2^63 steps"
            % nums[2])
    size = _run_bytes(cfg)
    if size is not None and size > MAX_RUN_BYTES:
        raise ConfigError(
            "run needs about %.3g GiB of arrays (a path chunk's delay ring, "
            "recorded norms, set-up), above the limit of %g GiB; lower "
            "n_paths, grid_n, tau/dt, t_final or the explosion horizon"
            % (size / 2 ** 30, MAX_RUN_BYTES / 2 ** 30))
    try:
        return make_preset(
            cfg["preset"], grid_n=cfg["grid_n"], dt=cfg["dt"],
            tau=cfg["tau"], t_final=cfg["t_final"], seed=cfg["seed"],
            amplitude=cfg["amplitude"], nu=cfg["nu"], a=cfg["a"],
            b=cfg["b"], c=cfg["c"], sign_variant=cfg["sign_variant"],
            g_factor=cfg["g_factor"], lam2=cfg["lam2"],
            enforce_constraints=not cfg["allow_unstable"])
    except ValueError as err:
        raise ConfigError(str(err)) from err


_CHECKERS = {
    "heat": (("khasminskii", check_khasminskii), ("lasalle", check_lasalle)),
    "eq16": (("khasminskii", check_khasminskii),),
    "eq6": (("lasalle", check_lasalle),),
    "eq24": (("exponential", check_exponential),),
}


def _fmt(x):
    return "%.17g" % float(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run(cfg) -> int:
    """Execute the enabled analyses and write the artifacts.

    Returns the process exit code; the report is written even when a
    check fails or the explosion budget is blown."""
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)

    preset = _build_preset(cfg)
    p = preset.problem
    if cfg["as_window"] is not None and \
            cfg["as_window"][1] > p.t_final + 1e-12:
        raise ConfigError("as_window %r must sit inside [0, t_final=%g]"
                          % (cfg["as_window"], p.t_final))
    resolved = dict(cfg)
    resolved.update(grid_n=p.grid.n_interior, dt=p.dt, tau=p.tau,
                    t_final=p.t_final, amplitude=preset.params["amplitude"])
    resolved["dt_requested"] = p.dt_requested
    resolved["dt_adjusted"] = p.dt_adjusted
    resolved["m_delay"] = p.m_delay
    if p.dt_adjusted:
        print("note: dt adjusted from %g to %g so tau = %d * dt"
              % (p.dt_requested, p.dt, p.m_delay))
    with open(os.path.join(out_dir, "config.resolved.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")

    checks = {}
    reports = []
    if cfg["check_conditions"]:
        sampler = FourierSampler(p.grid, seed=cfg["sampler_seed"],
                                 t_max=p.t_final,
                                 n_modes=min(8, p.grid.n_interior))
        for nm, fn in _CHECKERS[cfg["preset"]]:
            rep = fn(p, preset.lyapunov, sampler, int(cfg["n_samples"]))
            reports.append(rep)
            print("condition %-12s %s (max violation %.3e over %d samples)"
                  % (nm, "PASS" if rep.passed else "FAIL",
                     rep.max_violation, rep.n_samples))
        checks["conditions"] = all(r.passed for r in reports)
    with open(os.path.join(out_dir, "conditions.json"), "w") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")

    decay = None
    if cfg["decay_solver"]:
        L = preset.lyapunov
        if None in (L.alpha1, L.alpha2, L.alpha3, L.alpha4):
            raise ConfigError("decay solver needs alpha1..alpha4")
        try:
            decay = solve_decay(L.alpha1, L.alpha2, L.alpha3, L.alpha4,
                                p.tau,
                                mu=L.mu if L.mu is not None else math.inf)
            print("decay solver: eps1=%.6g eps2=%.6g bound=%.6g"
                  % (decay.eps1, decay.eps2, decay.bound))
        except ValueError as err:
            # reachable only with --allow-unstable constants
            checks["decay_solver"] = False
            print("decay solver FAIL: %s" % err)

    curve = None
    fitted = half_width = None
    fit_window_used = None
    as_stats = None
    explosion_rows = None
    numerical_failure = False
    if cfg["ms_ensemble"] or cfg["as_stats"]:
        n_paths = cfg["n_paths"]
        record_times = default_record_times(p, int(cfg["record_points"]))
        steps = record_steps(p, record_times)
        res = run_ensemble(
            p, range(n_paths), record_steps=steps,
            record_v=int(cfg["n_sample_paths"]), clamp=cfg["clamp"],
            window=as_window(p, cfg["as_window"])[1] if cfg["as_stats"]
            else None)
        if cfg["ms_ensemble"]:
            try:
                curve = ms_curve_from_batch(res, p, record_times)
            except RuntimeError as err:
                numerical_failure = True
                print("numerical failure: %s" % err)
            if curve is not None and \
                    curve.explosion_fraction > cfg["explosion_budget"]:
                numerical_failure = True
                print("numerical failure: %d/%d paths exploded (budget %g)"
                      % (curve.n_exploded, n_paths, cfg["explosion_budget"]))
            if curve is not None:
                try:
                    fitted, half_width, fit_window_used = \
                        fit_decay_rate_adaptive(curve, cfg["fit_window"])
                    print("fitted decay rate %.6g +/- %.3g on window [%g, %g]"
                          % (fitted, half_width, fit_window_used[0],
                             fit_window_used[1]))
                except ValueError as err:
                    print("decay fit skipped: %s" % err)
            if decay is not None and fitted is not None:
                slack = 2.0 * half_width + 0.05
                checks["rate_vs_bound"] = fitted <= decay.bound + slack
                print("rate check: fitted %.4g <= bound %.4g + slack %.4g: %s"
                      % (fitted, decay.bound, slack,
                         "PASS" if checks["rate_vs_bound"] else "FAIL"))
        if cfg["as_stats"]:
            as_stats = as_stats_from_batch(
                res, p, threshold=cfg["as_threshold"],
                window=cfg["as_window"], u_bound=cfg["u_bound"])
            ok = (as_stats.fraction >= cfg["as_pass_fraction"]
                  and as_stats.u_bounded_fraction == 1.0)
            checks["as_stats"] = ok
            print("a.s. stability proxy: fraction %.3f (bar %.3f), "
                  "bounded-energy fraction %.3f: %s"
                  % (as_stats.fraction, cfg["as_pass_fraction"],
                     as_stats.u_bounded_fraction, "PASS" if ok else "FAIL"))

        # sample-path table from the same batch
        n_show = min(int(cfg["n_sample_paths"]), n_paths)
        rows = []
        for j, t in zip(res.columns(steps), steps * p.dt):
            for pid in range(n_show):
                h = res.h_norms[pid, j]
                v = res.v_norms[pid, j]
                if np.isfinite(h):
                    rows.append((t, pid, h, v))
        _write_csv(os.path.join(out_dir, "paths_sample.csv"),
                   ["t", "path_id", "h_norm", "v_norm"], rows)

    if curve is not None:
        _write_csv(os.path.join(out_dir, "ms_curve.csv"),
                   ["t", "mean_h_norm_sq", "std_err", "n_alive"],
                   zip(curve.times, curve.mean, curve.stderr, curve.n_alive))

    if cfg["explosion_scan"]:
        if cfg["explosion_horizon"] != p.t_final:
            print("note: explosion scan runs to horizon %g, not t_final %g"
                  % (cfg["explosion_horizon"], p.t_final))
        try:
            explosion_rows = explosion_scan(p, cfg["explosion_k_values"],
                                            cfg["n_paths"],
                                            cfg["explosion_horizon"])
        except ValueError as err:
            # a radius inside the initial data's ball
            raise ConfigError(str(err)) from err
        monotone = all(
            b.probability <= a.probability + 2.0 * (a.stderr + b.stderr)
            for a, b in zip(explosion_rows, explosion_rows[1:]))
        checks["explosion_monotone"] = monotone
        print("explosion scan: "
              + "  ".join("P(sigma_%g<=%g)=%.3f" % (r.k,
                                                    cfg["explosion_horizon"],
                                                    r.probability)
                          for r in explosion_rows)
              + "  monotone: %s" % ("PASS" if monotone else "FAIL"))

    report = StabilityReport(
        ms_curve=curve, fitted_rate=fitted, rate_half_width=half_width,
        fit_window=fit_window_used, decay=decay, as_stats=as_stats,
        explosion_rows=explosion_rows, n_paths=cfg["n_paths"],
        seed=int(cfg["seed"]),
        metadata={
            "scheme": SCHEME,
            "gaussian": GAUSSIAN_METHOD,
            "version": __version__,
            "preset": cfg["preset"],
            "grid_n": p.grid.n_interior,
            "dt": p.dt,
            "dt_requested": p.dt_requested,
            "dt_adjusted": p.dt_adjusted,
            "m_delay": p.m_delay,
            "tau": p.tau,
            "t_final": p.t_final,
            "lambda1h": lambda_min(p.grid),
            "seed": int(cfg["seed"]),
            "sampler_seed": int(cfg["sampler_seed"]),
            "explosion_limit": p.explosion_limit,
            "explosion_horizon": cfg["explosion_horizon"],
        })
    doc = report.to_dict()
    doc["conditions"] = [r.to_dict() for r in reports]
    doc["checks"] = checks
    if numerical_failure:
        code = EXIT_NUMERICAL_FAILURE
    elif checks and not all(checks.values()):
        code = EXIT_CHECK_FAILURE
    else:
        code = EXIT_OK
    doc["exit_code"] = code
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print("wrote artifacts to %s (exit %d)" % (out_dir, code))
    return code


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sedes",
        description="Simulate and stability-check stochastic delay "
                    "evolution equations on (0, pi).")
    ap.add_argument("--config", metavar="PATH", help="JSON run configuration")
    ap.add_argument("--preset", choices=PRESET_NAMES)
    ap.add_argument("--grid-n", type=int, dest="grid_n")
    ap.add_argument("--dt", type=float)
    ap.add_argument("--tau", type=float)
    ap.add_argument("--t-final", type=float, dest="t_final")
    ap.add_argument("--paths", type=int, dest="n_paths")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out-dir", dest="output_dir")
    ap.add_argument("--allow-unstable", action="store_true", default=None)
    ap.add_argument("--clamp", action="store_true", default=None)
    ap.add_argument("--amplitude", type=float)
    ap.add_argument("--nu", type=float)
    ap.add_argument("--a", type=float)
    ap.add_argument("--b", type=float)
    ap.add_argument("--c", type=float)
    ap.add_argument("--sign-variant", dest="sign_variant",
                    action="store_true", default=None)
    ap.add_argument("--g-factor", type=float, dest="g_factor")
    ap.add_argument("--lam2", type=float)
    ap.add_argument("--n-samples", type=int, dest="n_samples")
    ap.add_argument("--sampler-seed", type=int, dest="sampler_seed")
    for toggle in ("check-conditions", "ms-ensemble", "as-stats",
                   "explosion-scan", "decay-solver"):
        ap.add_argument("--" + toggle, dest=toggle.replace("-", "_"),
                        action=argparse.BooleanOptionalAction, default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        cfg = load_config(args.config, overrides)
        return run(cfg)
    except ConfigError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
