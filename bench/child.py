"""One measured process of the benchmark; started by run.py, never by hand.

    python3 bench/child.py MODE OUT_JSON [ARG ...]

MODE is one of

  run     run the sedes CLI once per ARG (a JSON list of CLI arguments)
          in this process, recording only when make_preset returned;
  setup   the same, but stop each invocation as soon as make_preset
          returns, so the process measures set-up alone;
  digest  like run, and also record a digest of every ensemble result;
  trace   run the invocations with spans and counters wrapped around the
          calls into each sedes module (see spans.py), recording the same
          digests;
  sweep   time simulate_paths on eq24 at several batch sizes under one
          fixed path-step budget (ARG: budget, then the batch sizes).

Times are CLOCK_MONOTONIC readings (time.monotonic), which the parent can
compare with its own.  The result, with the process's peak RSS from
getrusage, is written as JSON to OUT_JSON.
"""

import json
import platform
import resource
import sys
import time

import numpy as np

import sedes
from sedes import cli


class _SetupDone(Exception):
    """Raised by the set-up probe to stop an invocation after make_preset."""


def _mark_make_preset(marks, stop):
    real = cli.make_preset

    def make_preset(*args, **kw):
        preset = real(*args, **kw)
        marks.append(time.monotonic())
        if stop:
            raise _SetupDone
        return preset
    return make_preset


def run_invocations(invocations, stop_after_setup):
    """cli.main for each argument list; returns segments and exit codes.

    A segment is (main entered, make_preset returned) for one invocation."""
    marks = []
    cli.make_preset = _mark_make_preset(marks, stop_after_setup)
    segments, codes = [], []
    for argv in invocations:
        t0 = time.monotonic()
        try:
            codes.append(cli.main(argv))
        except _SetupDone:
            codes.append(0)
        segments.append((t0, marks[-1] if len(marks) > len(segments)
                         else None))
    return {"segments": segments, "exit_codes": codes}


def trace_invocations(invocations):
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    codes = [cli.main(argv) for argv in invocations]
    return {"exit_codes": codes, "layers": tracer.layer_metrics(),
            "spans": tracer.spans,
            "result_digests": tracer.result_digests}


def sweep(budget, batches):
    """Step-loop throughput of eq24 per batch size, history build excluded.

    Each batch size B runs budget // B steps, so every point does the same
    number of path-steps.  The delay ring is built by history_values before
    the first step; its time is measured on the problem object and
    subtracted, so the figure is the rate of the step loop alone."""
    from sedes.integrator import simulate_paths
    from sedes.presets import make_preset

    out = {}
    for b in batches:
        p = make_preset("eq24").problem
        steps = budget // b
        p = p.replace(t_final=steps * p.dt)
        assert p.n_steps == steps, (p.n_steps, steps)
        hist = []
        real_history = p.history_values

        def history_values(batch=1, _real=real_history, _acc=hist):
            t = time.perf_counter()
            ring = _real(batch)
            _acc.append(time.perf_counter() - t)
            return ring
        p.history_values = history_values
        t = time.perf_counter()
        res = simulate_paths(p, range(b), record_v=0)
        total = time.perf_counter() - t
        if any(s != "completed" for s in res.statuses):
            raise RuntimeError("sweep path did not complete at B=%d" % b)
        del res
        out[str(b)] = {"path_steps": b * steps, "simulate_s": total,
                       "history_s": sum(hist),
                       "path_steps_per_s": b * steps / (total - sum(hist))}
    return out


def main(argv):
    mode, out_path, args = argv[0], argv[1], argv[2:]
    if mode in ("run", "setup"):
        result = run_invocations([json.loads(a) for a in args],
                                 stop_after_setup=mode == "setup")
    elif mode == "digest":
        import spans

        digests = []
        spans.digest_results(digests)
        result = run_invocations([json.loads(a) for a in args], False)
        result["result_digests"] = digests
    elif mode == "trace":
        result = trace_invocations([json.loads(a) for a in args])
    elif mode == "sweep":
        result = {"sweep": sweep(int(args[0]), [int(b) for b in args[1:]])}
    else:
        raise SystemExit("unknown mode %r" % mode)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        python=platform.python_version(), numpy=np.__version__,
        sedes_file=sedes.__file__)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
