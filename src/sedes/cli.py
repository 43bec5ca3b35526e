"""Command-line front end: configuration, run orchestration, artifacts.

A run is described by a JSON document whose keys are exactly those of
the KEYS table below; command-line flags override file values, and the
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
# importable from here though no analysis calls it
from .integrator import PATH_CHUNK, run_ensemble, simulate_paths  # noqa: F401
from .lyapunov import (FourierSampler, check_exponential, check_khasminskii,
                       check_lasalle)
from .presets import (DEFAULTS as PRESET_DEFAULTS, PRESET_NAMES,
                      eq24_failed_requirement, make_preset)
from .stability import (as_stats_from_batch, as_window, default_record_steps,
                        explosion_scan, fit_decay_rate_adaptive,
                        ms_curve_from_batch, solve_decay)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 2
EXIT_NUMERICAL_FAILURE = 3
EXIT_CONFIG_ERROR = 4

SCHEME = "imex_euler_maruyama"
GAUSSIAN_METHOD = "box_muller_counter_keyed"

# the largest run the CLI starts, in bytes of its arrays as _run_bytes
# counts them
MAX_RUN_BYTES = 8 * 2 ** 30
# the step index is a 64-bit word of the noise key
MAX_STEPS = 2 ** 63
# floats per grid point held by the problem's set-up (the initial-history
# check) or by a check, one block of samples at a time, whichever is
# larger; tracemalloc measures 835 and 915 at grid 31, 570 and 815 at 63
SETUP_FLOATS_PER_POINT = 1024
# floats per path that the explosion scan's reducers and bookkeeping hold
# (ids, explosion times, peak norms), an upper bound: tracemalloc measures
# 3; its exit test adds two (radii, paths) boolean masks, counted apart
SCAN_FLOATS_PER_PATH = 8


class ConfigError(ValueError):
    pass


def _is_number(val):
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _int(lo, hi=None):
    # a JSON float such as 200.0 or a bool is not an integer
    return ("an integer >= %d%s" % (lo, "" if hi is None else " and < 2^64"),
            lambda v: type(v) is int and lo <= v and (hi is None or v < hi))


NUMBER = ("a finite number", _is_number)
POSITIVE = ("a finite number > 0", lambda v: _is_number(v) and v > 0.0)
FRACTION = ("a finite number in [0, 1]",
            lambda v: _is_number(v) and 0.0 <= v <= 1.0)
BOOL = ("true or false", lambda v: isinstance(v, bool))
TEXT = ("a string", lambda v: isinstance(v, str))
WINDOW = ("[lo, hi] with 0 <= lo < hi",
          lambda v: isinstance(v, list) and len(v) == 2
          and all(_is_number(x) for x in v) and 0 <= v[0] < v[1])
K_VALUES = ("a non-empty, increasing list of positive numbers",
            lambda v: isinstance(v, list) and len(v) > 0
            and all(_is_number(k) and k > 0 for k in v)
            and all(a < b for a, b in zip(v, v[1:])))

# Every config key: (default, (what it must be, predicate), flag or None
# for a key set in the config file only).  A key whose default is None
# (preset decides, or derived at run time) may stay unset.  A number flag
# parses as its check's kind, a true-or-false key's flag is store_true, and
# "--[no-]x" gives both --x and --no-x.  Seeds are hashed as 64-bit words;
# make_preset checks the preset numbers' ranges, run() the windows' ends.
KEYS = {
    "preset": (None, ("one of %s (custom problems run through the Python "
                      "API)" % ", ".join(PRESET_NAMES),
                      lambda v: v in PRESET_NAMES), "--preset"),
    "grid_n": (None, _int(2), "--grid-n"),
    "dt": (None, NUMBER, "--dt"),
    "tau": (None, NUMBER, "--tau"),
    "t_final": (None, NUMBER, "--t-final"),
    "n_paths": (200, _int(1), "--paths"),
    "seed": (0, _int(0, 2 ** 64), "--seed"),
    "output_dir": ("sedes-out", TEXT, "--out-dir"),
    "allow_unstable": (False, BOOL, "--allow-unstable"),
    "amplitude": (None, NUMBER, "--amplitude"),
    "nu": (2.0, NUMBER, "--nu"),
    "a": (0.5, NUMBER, "--a"),
    "b": (1.0, NUMBER, "--b"),
    "c": (1.0, NUMBER, "--c"),
    "sign_variant": (False, BOOL, "--sign-variant"),
    "g_factor": (1.0, NUMBER, "--g-factor"),
    "lam2": (None, NUMBER, "--lam2"),
    "n_samples": (10000, _int(1), "--n-samples"),
    "sampler_seed": (0, _int(0, 2 ** 64), "--sampler-seed"),
    "check_conditions": (True, BOOL, "--[no-]check-conditions"),
    "ms_ensemble": (True, BOOL, "--[no-]ms-ensemble"),
    "as_stats": (False, BOOL, "--[no-]as-stats"),
    "explosion_scan": (False, BOOL, "--[no-]explosion-scan"),
    "decay_solver": (None, BOOL, "--[no-]decay-solver"),  # True for eq24
    "as_threshold": (1e-2, POSITIVE, None),
    "as_window": (None, WINDOW, None),  # [t_final - 5, t_final]
    "as_pass_fraction": (0.99, FRACTION, None),
    "u_bound": (1e6, POSITIVE, None),
    "fit_window": (None, WINDOW, None),
    "explosion_k_values": ([2.0, 4.0, 8.0, 16.0], K_VALUES, None),
    "explosion_horizon": (5.0, POSITIVE, None),
    "explosion_budget": (0.01, FRACTION, None),
    "record_points": (501, _int(2), None),  # at least 0 and t_final
    "n_sample_paths": (8, _int(0), None),
}
# keys of config.resolved.json that run() derives; a replay drops them
DERIVED_KEYS = ("dt_adjusted", "dt_requested", "m_delay")


def load_config(path=None, overrides=None) -> dict:
    """Assemble the resolved run configuration.

    path points at a JSON document with KEYS keys (unknown keys are an
    error, listed by name; DERIVED_KEYS are dropped, so config.resolved.json
    replays); overrides (flag values) win over the file.  Constraint
    violations are reported with the hypothesis they break.
    """
    cfg = {key: row[0] for key, row in KEYS.items()}
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
        unknown = sorted(set(doc) - set(KEYS) - set(DERIVED_KEYS))
        if unknown:
            raise ConfigError("unknown config keys: %s"
                              % ", ".join(unknown))
        cfg.update((k, v) for k, v in doc.items() if k in KEYS)
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = val
    if "SEDES_OUT" in os.environ:
        cfg["output_dir"] = os.environ["SEDES_OUT"]

    if cfg["preset"] is None:
        raise ConfigError("a preset must be chosen (--preset or config key)")
    for key, (default, (what, ok), _) in KEYS.items():
        if not (ok(cfg[key]) or cfg[key] is None and default is None):
            raise ConfigError("%s must be %s, got %r" % (key, what, cfg[key]))
    if cfg["decay_solver"] is None:
        cfg["decay_solver"] = cfg["preset"] == "eq24"

    if cfg["preset"] == "eq24" and not cfg["allow_unstable"]:
        nu, a, b, c = (float(cfg[k]) for k in ("nu", "a", "b", "c"))
        failed = eq24_failed_requirement(nu, a, b, c)
        if failed is not None:
            raise ConfigError("eq24 parameters rejected: requires %s; pass "
                              "--allow-unstable to run anyway" % failed)
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
    points; for the explosion scan a chunk's ring, a few floats per path
    and two bytes per path and radius, whatever the horizon.  The per-chunk
    fixed arrays (step solver, noise block, validation grids) are not
    counted, so at small grids this undercounts: tracemalloc measures
    748 KB for a 256-path eq16 scan at grid 15 (tau 0.01, horizon 0.02,
    four radii) against 479 KB counted.
    None when a number is one make_preset rejects anyway."""
    nums = _grid_numbers(cfg)
    if nums is None:
        return None
    n, m, steps, _ = nums
    B = float(cfg["n_paths"])
    ring = (m + 1.0) * min(float(PATH_CHUNK), B) * n
    floats = SETUP_FLOATS_PER_POINT * n
    if cfg["ms_ensemble"] or cfg["as_stats"]:
        # default_record_steps keeps at most record_points steps
        records = min(steps + 1.0, float(cfg["record_points"]))
        floats += ring + (B + min(cfg["n_sample_paths"], B) + 1.0) * records
    if cfg["explosion_scan"]:
        # two one-byte masks per radius, in 8-byte floats
        masks = 2.0 * len(cfg["explosion_k_values"]) / 8.0
        floats += ring + (SCAN_FLOATS_PER_PATH + masks) * B
    return 8.0 * floats


def _build_preset(cfg):
    nums = _grid_numbers(cfg)
    # the scan's size does not grow with its horizon, so only the step
    # limit keeps a horizon such as 1e300 from starting
    longest = None if nums is None else max(
        nums[2], nums[3] if cfg["explosion_scan"] else 0.0)
    if longest is not None and longest >= MAX_STEPS:
        raise ConfigError(
            "t_final or the scan's horizon over dt gives about %.3g steps; a "
            "step index is a 64-bit word of the noise key, so a run has "
            "fewer than 2^63 steps" % longest)
    size = _run_bytes(cfg)
    if size is not None and size > MAX_RUN_BYTES:
        raise ConfigError(
            "run needs about %.3g GiB of arrays (a path chunk's delay ring, "
            "recorded norms, set-up), above the limit of %g GiB; lower "
            "n_paths, grid_n, tau/dt or t_final"
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError("cannot create output directory: %s" % err)

    preset = _build_preset(cfg)
    p = preset.problem
    for key in ("as_window", "fit_window"):
        if cfg[key] is not None and cfg[key][1] > p.t_final + 1e-12:
            raise ConfigError("%s %r must sit inside [0, t_final=%g]"
                              % (key, cfg[key], p.t_final))
    resolved = dict(cfg)
    resolved.update(grid_n=p.grid.n_interior, dt=p.dt, tau=p.tau,
                    t_final=p.t_final, amplitude=preset.amplitude,
                    dt_requested=p.dt_requested, dt_adjusted=p.dt_adjusted,
                    m_delay=p.m_delay)
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
            try:
                rep = fn(p, preset.lyapunov, sampler, int(cfg["n_samples"]))
            except ValueError as err:
                # LU overflow, a NaN margin or a bad shape, named once
                msg = str(err).removeprefix("check_%s: " % nm)
                raise ConfigError("check_%s: %s" % (nm, msg)) from err
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
        # load_config allows the solver for eq24 alone, and make_preset
        # sets its alpha1..alpha4 and mu
        L = preset.lyapunov
        try:
            decay = solve_decay(L.alpha1, L.alpha2, L.alpha3, L.alpha4,
                                p.tau, mu=L.mu)
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
        res = run_ensemble(
            p, range(n_paths),
            record_steps=default_record_steps(p, int(cfg["record_points"])),
            record_v=int(cfg["n_sample_paths"]),
            window=as_window(p, cfg["as_window"])[1] if cfg["as_stats"]
            else None)
        n_exploded = int(np.count_nonzero(res.exploded))
        if n_exploded / n_paths > cfg["explosion_budget"]:
            numerical_failure = True
            print("numerical failure: %d/%d paths exploded (budget %g)"
                  % (n_exploded, n_paths, cfg["explosion_budget"]))
        if cfg["ms_ensemble"]:
            try:
                curve = ms_curve_from_batch(res, p)
            except RuntimeError as err:
                numerical_failure = True
                print("numerical failure: %s" % err)
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
        for j, t in enumerate(res.times):
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

    doc = {
        "fitted_rate": fitted,
        "rate_half_width": half_width,
        "fit_window": list(fit_window_used) if fit_window_used else None,
        "theoretical_bound": None if decay is None else decay.bound,
        "decay": None if decay is None else decay.to_dict(),
        "as_stats": None if as_stats is None else as_stats.to_dict(),
        "explosion_scan": ([r.to_dict() for r in explosion_rows]
                           if explosion_rows else None),
        "ms_curve": None if curve is None else curve.to_dict(),
        "n_paths": cfg["n_paths"],
        "seed": int(cfg["seed"]),
        "metadata": {
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
        },
        "conditions": [r.to_dict() for r in reports],
        "checks": checks,
    }
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


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error (exit 4), as a
    malformed config file is, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    ap = _Parser(
        prog="sedes",
        description="Simulate and stability-check stochastic delay "
                    "evolution equations on (0, pi).")
    ap.add_argument("--config", metavar="PATH", help="JSON run configuration")
    # every flag defaults to None, so an unset flag leaves the file's value
    for key, (_, check, flag) in KEYS.items():
        if flag is None:
            continue
        kw = {"dest": key}
        if flag.startswith("--[no-]"):
            flag = "--" + flag[len("--[no-]"):]
            kw.update(action=argparse.BooleanOptionalAction, default=None)
        elif check is BOOL:
            kw.update(action="store_true", default=None)
        elif key == "preset":
            kw["choices"] = PRESET_NAMES
        elif check is not TEXT:
            kw["type"] = int if check[0].startswith("an integer") else float
        ap.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k != "config"}
        cfg = load_config(args.config, overrides)
        return run(cfg)
    except ConfigError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
