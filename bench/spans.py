"""Spans and counters wrapped around the calls into each sedes module.

Nothing inside sedes is changed: install() replaces the names that
sedes.cli and sedes.stability call with wrappers that open a span, and
hands the integrator instrumented drift, diffusion and noise objects
through ProblemSpec.replace.  Every wrapper returns exactly what the
wrapped call returned, so a traced run computes the same bits as an
untraced one (run.py checks this on the artifacts and on result_digest of
every ensemble).

A span is (id, parent id, name, start, end).  Work that happens once per
step or sample (coefficient evaluation, noise, the checker's sampler) is
accumulated in counters instead, since a span per step would cost more
than the work it measures.
"""

import hashlib
import time
from contextlib import contextmanager

from sedes import cli, stability

MB = 1e6
COEFF_COUNTERS = ("integrator.coeff_eval_s", "integrator.coeff_calls")


def result_digest(res):
    """SHA-256 of an ensemble's per-step norms and path statuses."""
    h = hashlib.sha256()
    for arr in (res.h_norms, res.v_norms):
        if arr is not None:
            h.update(arr.tobytes())
    h.update(repr(res.statuses).encode())
    return h.hexdigest()


def digest_results(digests):
    """Make cli and stability record result_digest of every ensemble."""
    real = cli.simulate_paths

    def simulate_paths(*args, **kw):
        res = real(*args, **kw)
        digests.append(result_digest(res))
        return res
    cli.simulate_paths = stability.simulate_paths = simulate_paths


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = {}
        self.maxima = {}
        self.result_digests = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def add(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def _totals(self):
        """Inclusive and self time per span name, and child counts."""
        incl, child_cover, children = {}, {}, {}
        for sid, parent, name, t0, t1 in self.spans:
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            if parent is not None:
                child_cover[parent] = child_cover.get(parent, 0.0) + (t1 - t0)
                pname = self.spans[parent][2]
                key = (pname, name)
                children[key] = children.get(key, 0) + 1
        self_t = {}
        for sid, parent, name, t0, t1 in self.spans:
            self_t[name] = (self_t.get(name, 0.0) + (t1 - t0)
                            - child_cover.get(sid, 0.0))
        return incl, self_t, children

    def layer_metrics(self):
        incl, self_t, children = self._totals()
        c = self.counters

        def s(name):
            return incl.get(name, 0.0)

        sim_s = s("integrator.simulate_paths")
        batch_steps = c.get("integrator.batch_steps", 0)
        samples = c.get("lyapunov.samples", 0)
        check_s = {nm: s("lyapunov.check." + nm)
                   for nm in ("khasminskii", "lasalle", "exponential")}
        gaussians = c.get("noise.gaussians", 0)
        noise_s = c.get("noise.increments_s", 0.0)
        coeff_s = c.get("integrator.coeff_eval_s", 0.0)
        out = {
            "presets.make_preset_s": s("presets.make_preset"),
            "cli.self_s": self_t.get("cli.run", 0.0),
            "integrator.simulate_paths_s": sim_s,
            "integrator.us_per_step":
                1e6 * sim_s / batch_steps if batch_steps else 0.0,
            "integrator.path_steps": c.get("integrator.path_steps", 0),
            "integrator.exploded_paths": c.get("integrator.exploded_paths", 0),
            "integrator.coeff_eval_s": coeff_s,
            "integrator.coeff_calls": c.get("integrator.coeff_calls", 0),
            "integrator.step_rest_s": sim_s - coeff_s - noise_s,
            "integrator.ring_mb": self.maxima.get("integrator.ring_mb", 0.0),
            "integrator.trace_mb": self.maxima.get("integrator.trace_mb", 0.0),
            "noise.increments_s": noise_s,
            "noise.gaussians": gaussians,
            "noise.gaussians_per_s": gaussians / noise_s if noise_s else 0.0,
            "lyapunov.us_per_sample":
                1e6 * sum(check_s.values()) / samples if samples else 0.0,
            "lyapunov.samples": samples,
            "lyapunov.sampler_s": c.get("lyapunov.sampler_s", 0.0),
            "stability.solve_decay_s": s("stability.solve_decay"),
            "stability.ms_curve_s": s("stability.ms_curve"),
            "stability.fit_s": s("stability.fit"),
            "stability.as_stats_s": s("stability.as_stats"),
            "stability.explosion_scan_s": s("stability.explosion_scan"),
            "stability.scan_passes": children.get(
                ("stability.explosion_scan", "integrator.simulate_paths"), 0),
        }
        for nm, v in check_s.items():
            out["lyapunov.check_s." + nm] = v
        return out


class TimedCoeff:
    """Drift or diffusion object that times its inner evaluate().

    Only the drift counts calls, so coeff_calls is one per step and pass.
    """

    def __init__(self, inner, tracer, count_calls):
        self.inner = inner
        self.field_level = getattr(inner, "field_level", False)
        self._tracer = tracer
        self._count = count_calls

    def evaluate(self, t, x, y, dx):
        t0 = time.perf_counter()
        out = self.inner.evaluate(t, x, y, dx)
        self._tracer.add("integrator.coeff_eval_s", time.perf_counter() - t0)
        if self._count:
            self._tracer.add("integrator.coeff_calls", 1)
        return out


class TimedNoise:
    """NoiseModel whose increments() is timed and counted."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def increments(self, path_ids, step_index, dt):
        t0 = time.perf_counter()
        z = self._inner.increments(path_ids, step_index, dt)
        self._tracer.add("noise.increments_s", time.perf_counter() - t0)
        self._tracer.add("noise.gaussians", z.size)
        return z


class TimedSampler:
    """FourierSampler whose sample() is timed and counted."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def sample(self, i):
        t0 = time.perf_counter()
        out = self._inner.sample(i)
        self._tracer.add("lyapunov.sampler_s", time.perf_counter() - t0)
        self._tracer.add("lyapunov.samples", 1)
        return out


def _spanned(tracer, name, fn):
    def wrapper(*args, **kw):
        with tracer.span(name):
            return fn(*args, **kw)
    return wrapper


def _traced_simulate_paths(tracer, real):
    def simulate_paths(p, path_ids, record_v=None, clamp=False,
                       snapshot_steps=()):
        # replace() revalidates the problem, which evaluates the
        # coefficients: that work is the tracer's, so it gets a span of its
        # own and its coefficient counts are dropped
        with tracer.span("trace.wrap"):
            before = {k: tracer.counters.get(k, 0) for k in COEFF_COUNTERS}
            q = p.replace(drift=TimedCoeff(p.drift, tracer, True),
                          diffusion=TimedCoeff(p.diffusion, tracer, False),
                          noise=TimedNoise(p.noise, tracer))
            tracer.counters.update(before)
            ids = list(path_ids)
        with tracer.span("integrator.simulate_paths"):
            res = real(q, ids, record_v=record_v, clamp=clamp,
                       snapshot_steps=snapshot_steps)
        with tracer.span("trace.wrap"):
            tracer.result_digests.append(result_digest(res))
        B, n, m = len(ids), q.grid.n_interior, q.m_delay
        n_v = B if record_v is None else min(record_v, B)
        tracer.add("integrator.path_steps", B * q.n_steps)
        tracer.add("integrator.batch_steps", q.n_steps)
        tracer.add("integrator.exploded_paths",
                   sum(s == "exploded" for s in res.statuses))
        tracer.peak("integrator.ring_mb", (m + 1) * B * n * 8 / MB)
        tracer.peak("integrator.trace_mb",
                    (B + n_v) * (q.n_steps + 1) * 8 / MB)
        return res
    return simulate_paths


def install(tracer):
    """Route the calls sedes.cli and sedes.stability make through spans."""
    traced_sim = _traced_simulate_paths(tracer, cli.simulate_paths)
    cli.simulate_paths = traced_sim
    stability.simulate_paths = traced_sim
    cli.run = _spanned(tracer, "cli.run", cli.run)
    cli.make_preset = _spanned(tracer, "presets.make_preset", cli.make_preset)
    cli.solve_decay = _spanned(tracer, "stability.solve_decay",
                               cli.solve_decay)
    cli.ms_curve_from_batch = _spanned(tracer, "stability.ms_curve",
                                       cli.ms_curve_from_batch)
    cli.fit_decay_rate_adaptive = _spanned(tracer, "stability.fit",
                                           cli.fit_decay_rate_adaptive)
    cli.as_stats_from_batch = _spanned(tracer, "stability.as_stats",
                                       cli.as_stats_from_batch)
    cli.explosion_scan = _spanned(tracer, "stability.explosion_scan",
                                  cli.explosion_scan)
    real_sampler = cli.FourierSampler
    cli.FourierSampler = lambda *a, **kw: TimedSampler(real_sampler(*a, **kw),
                                                       tracer)
    # cli dispatches the checkers through its preset table, which holds
    # the functions themselves, so the table's entries are the call sites
    for preset, entries in list(cli._CHECKERS.items()):
        cli._CHECKERS[preset] = tuple(
            (nm, _spanned(tracer, "lyapunov.check." + nm, fn))
            for nm, fn in entries)
