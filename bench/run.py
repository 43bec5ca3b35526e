"""Benchmark of the sedes command line: three workloads, each run as the
shipped CLI in fresh single-threaded processes.

    python3 bench/run.py --workload desk_eq24 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Run it from the root of a sedes source tree; the package is imported from
./src, never from an installed copy.  The seed is passed to the CLI as
both --seed and --sampler-seed.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --workload
all its metric names carry the workload as a prefix.  The lines before it
give each metric with its unit and sample count, fail_share (failed
processes over attempted ones), and the machine: cores, Python, numpy, L2
and L3, git commit, and src_lines, the line count of src/sedes.

--trace 0 repeats the workload, each time in a new process, as often as
fits in --seconds (at least once), after a few processes that stop right
after set-up.  It reports medians of the end-to-end metrics:

  wall_s       wall time of the process, from spawn to exit;
  setup_s      spawn, imports, config resolution and make_preset, up to
               the end of make_preset (summed over the CLI invocations of
               the process); median over every process of the run;
  peak_rss_mb  the process's own high-water mark from getrusage;

and prints, without a bound of its own, the throughput derived from them:

  work_per_s   the workload's nominal work divided by (wall_s - setup_s):
               path-steps on the ensemble workloads, checker samples on
               checks_all.  Nominal means fixed by the inputs, so a program
               that skips work raises it.  As the nominal work is fixed,
               its bound is that of wall_s.

--trace 1 runs the workload once untraced and once with spans wrapped
around the calls into each sedes module (spans.py), checks that both
wrote the same artifacts and integrated the same ensembles bit for bit,
runs a batch-size sweep of the eq24 integrator (child.py), and reports
the per-layer metrics named in BENCHMARK.json; it does not use --seconds.
trace.overhead_s is the traced process's wall time minus the untraced
one's.

Every process passes a correctness gate: exit code 0, the expected checks
in report.json all true, and the digests of ms_curve.csv,
paths_sample.csv, conditions.json and the explosion-scan table equal
across every run of the same sources, workload and seed (kept in
.bench_work/digests.json).  A process that misses any of these counts as
failed.  Every result is appended, with the machine it ran on (and, when
traced, every span), to .bench_work/results.jsonl.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = ".bench_work"
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170             # a whole run of one workload
SWEEP_BUDGET = 240_000          # path-steps per batch size
SWEEP_BATCHES = (50, 200, 1000, 2000)
# every library that might start worker threads is held to one
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
}
ARTIFACTS = ("ms_curve.csv", "paths_sample.csv", "conditions.json")


class Workload:
    """CLI invocations run in one process, and what they must produce."""

    def __init__(self, invocations, checks, artifacts, work, work_unit):
        self.invocations = invocations   # CLI argument lists, one process
        self.checks = checks             # expected report.json check keys
        self.artifacts = artifacts       # files every invocation must write
        self.work = work                 # nominal work per process
        self.work_unit = work_unit


# The integrator steps at dt = 1e-3 in every workload, so a horizon of T
# is 1000 T steps per path.  Why each workload is here is in
# BENCHMARK.json.
WORKLOADS = {
    "desk_eq24": Workload(
        [["--preset", "eq24", "--t-final", "10", "--as-stats",
          "--n-samples", "2000"]],
        [{"conditions", "rate_vs_bound", "as_stats"}],
        ARTIFACTS, 200 * 10_000, "path_steps"),
    "checks_all": Workload(
        [["--preset", name, "--n-samples", "5000", "--no-ms-ensemble"]
         for name in ("eq16", "eq6", "eq24")],
        [{"conditions"}] * 3,
        ("conditions.json",), 3 * 5000, "samples"),
    # no flag sets the explosion horizon, hence the config file
    "exit_eq16": Workload(
        [["--config", os.path.join("bench", "exit_eq16.json")]],
        [{"explosion_monotone"}],
        ("conditions.json",), 4 * 100 * 2_500, "path_steps"),
}


def declared(kind):
    """(name, unit) of the metrics BENCHMARK.json lists under kind."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def machine(root):
    """What every result is recorded with: the host and the sources."""
    caches = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches["L" + level] = size
    try:
        # the ceiling keeps git from taking the commit of an enclosing tree
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
                root))).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "sedes", "**",
                                              "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        src_lines += data.count(b"\n")
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return {"cores": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "L2": caches.get("L2"), "L3": caches.get("L3"),
            "git_commit": commit, "src_lines": src_lines,
            "src_sha256": digest.hexdigest()}


def child_env(root):
    env = {k: v for k, v in os.environ.items() if k != "SEDES_OUT"}
    env.update(SINGLE_THREAD_ENV, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(root, "src"))
    return env


def spawn(root, mode, args, out_dir, deadline):
    """Run child.py once, killed at the deadline (a time.monotonic value).

    Returns (result dict or None, spawn time, exit time, exit code)."""
    os.makedirs(out_dir, exist_ok=True)
    out_json = os.path.join(out_dir, "child.json")
    with open(os.path.join(out_dir, "child.log"), "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, out_json] + list(args), cwd=root,
            env=child_env(root), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic()
    result = None
    if code == 0 and os.path.exists(out_json):
        with open(out_json) as fh:
            result = json.load(fh)
        expected = os.path.join(root, "src", "sedes")
        if os.path.dirname(result["sedes_file"]) != expected:
            raise BenchError("sedes was imported from %s, not from %s"
                             % (result["sedes_file"], expected))
    return result, t_spawn, t_exit, code


def setup_time(result, t_spawn):
    """Spawn to the first make_preset, plus main-to-make_preset after."""
    segs = result["segments"]
    if any(end is None for _, end in segs):
        return None
    return (segs[0][1] - t_spawn) + sum(end - start for start, end in segs[1:])


def invocation_args(wl, seed, out_dir):
    return [a + ["--seed", str(seed), "--sampler-seed", str(seed),
                 "--out-dir", os.path.join(out_dir, "inv%d" % i)]
            for i, a in enumerate(wl.invocations)]


def gate(wl, out_dir):
    """Problems with one process's artifacts, and their digests."""
    problems, digests = [], {}
    for i, expected in enumerate(wl.checks):
        inv = os.path.join(out_dir, "inv%d" % i)
        try:
            with open(os.path.join(inv, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as err:
            problems.append("invocation %d: no report.json (%s)" % (i, err))
            continue
        if report.get("exit_code") != 0:
            problems.append("invocation %d: report exit_code %r"
                            % (i, report.get("exit_code")))
        checks = report.get("checks", {})
        if set(checks) != expected or not all(checks.values()):
            problems.append("invocation %d: checks %r, expected %s all true"
                            % (i, checks, sorted(expected)))
        for name in ARTIFACTS:
            path = os.path.join(inv, name)
            if os.path.exists(path):
                digests["inv%d/%s" % (i, name)] = sha256_file(path)
            elif name in wl.artifacts:
                problems.append("invocation %d: %s missing" % (i, name))
        if report.get("explosion_scan") is not None:
            table = json.dumps(report["explosion_scan"], sort_keys=True)
            digests["inv%d/explosion_scan" % i] = \
                hashlib.sha256(table.encode()).hexdigest()
    return problems, digests


def run_process(root, wl, seed, mode, out_dir, deadline):
    """One workload process with its gate; returns a measurement dict."""
    result, t_spawn, t_exit, code = spawn(
        root, mode, [json.dumps(a) for a in invocation_args(wl, seed, out_dir)],
        out_dir, deadline)
    if result is None:
        return {"problems": ["process exit code %r, see %s"
                             % (code, os.path.join(out_dir, "child.log"))]}
    problems, digests = gate(wl, out_dir)
    codes = result["exit_codes"]
    if any(c != 0 for c in codes):
        problems.insert(0, "CLI exit codes %r" % codes)
    m = {"problems": problems, "digests": digests, "child": result,
         "wall_s": t_exit - t_spawn, "peak_rss_mb": result["peak_rss_mb"]}
    if mode != "trace":
        setup = setup_time(result, t_spawn)
        if setup is None:
            problems.append("an invocation ended before make_preset")
        else:
            m["setup_s"] = setup
            m["work_per_s"] = wl.work / (m["wall_s"] - setup)
    return m


class DigestStore:
    """Artifact digests per (sources, workload, seed), across runs."""

    def __init__(self, root):
        self.path = os.path.join(root, WORK_DIR, "digests.json")
        try:
            with open(self.path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, key, digests):
        """Problems if digests differ from the first ones stored for key."""
        ref = self.data.setdefault(key, digests)
        if ref == digests:
            return []
        return ["artifact digests differ from an earlier run: %s"
                % ", ".join(sorted(k for k in set(ref) | set(digests)
                                   if ref.get(k) != digests.get(k)))]

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def measure(root, name, seed, seconds, trace, host):
    wl = WORKLOADS[name]
    work = os.path.join(root, WORK_DIR, "%s-seed%d-%d" % (name, seed,
                                                         os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    store = DigestStore(root)
    key = "%s/%s/seed%d" % (host["src_sha256"], name, seed)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = []

    def process(mode, tag):
        m = run_process(root, wl, seed, mode, os.path.join(work, tag),
                        deadline)
        if "digests" in m:
            m["problems"] += store.check(key, m["digests"])
        for p in m["problems"]:
            print("FAILED %s %s: %s" % (name, tag, p), file=sys.stderr)
        runs.append(m)
        return m

    try:
        if trace:
            metrics = traced(root, work, process, deadline)
        else:
            metrics = untraced(root, wl, seed, seconds, work, process,
                               deadline)
    finally:
        store.save()
    failed = sum(1 for m in runs if m["problems"])
    res = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
           "metrics": metrics}
    if trace:
        res["spans"] = next(m["child"]["spans"] for m in runs
                            if "spans" in m.get("child", {}))
    if failed:
        print("artifacts and logs of the run kept in %s" % work,
              file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
    child = next((m["child"] for m in runs if "child" in m), {})
    return res, dict(host, numpy=child.get("numpy"))


def untraced(root, wl, seed, seconds, work, process, deadline):
    # the first probe also compiles the bytecode caches; it is not counted
    setups = []
    for i in range(SETUP_PROBES + 1):
        out = os.path.join(work, "probe%d" % i)
        result, t_spawn, _, code = spawn(
            root, "setup",
            [json.dumps(a) for a in invocation_args(wl, seed, out)], out,
            deadline)
        if result is None:
            raise BenchError("set-up probe failed (exit %r), see %s"
                             % (code, os.path.join(out, "child.log")))
        if i:
            setups.append(setup_time(result, t_spawn))
    # another process starts only if it can end within the time budget,
    # judged by the slowest one so far; the first always runs
    t0 = time.monotonic()
    good, slowest = [], 0.0
    while True:
        t_start = time.monotonic()
        m = process("run", "run%d" % len(good))
        if "setup_s" in m:
            good.append(m)
            setups.append(m["setup_s"])
        slowest = max(slowest, time.monotonic() - t_start)
        if time.monotonic() - t0 + slowest > seconds:
            break
    if not good:
        raise BenchError("no workload process finished")
    raw = {k: [m[k] for m in good] for k in ("wall_s", "work_per_s",
                                              "peak_rss_mb")}
    raw["setup_s"] = setups
    return {k: {"value": statistics.median(raw[k]), "unit": unit,
                "samples": raw[k]}
            for k, unit in declared("end_to_end") + [("work_per_s", "1/s")]}


def traced(root, work, process, deadline):
    plain = process("digest", "untraced")
    tr = process("trace", "traced")
    if "wall_s" not in plain or "wall_s" not in tr:
        raise BenchError("a workload process did not finish")
    if plain["digests"] != tr["digests"]:
        tr["problems"].append("traced artifacts differ from untraced ones")
    if plain["child"]["result_digests"] != tr["child"]["result_digests"]:
        tr["problems"].append("traced ensembles differ from untraced ones")
    sweep_out = os.path.join(work, "sweep")
    result, _, _, code = spawn(
        root, "sweep", [str(SWEEP_BUDGET)] + [str(b) for b in SWEEP_BATCHES],
        sweep_out, deadline)
    if result is None:
        raise BenchError("batch-size sweep failed (exit %r), see %s"
                         % (code, os.path.join(sweep_out, "child.log")))
    values = dict(tr["child"]["layers"])
    values["trace.overhead_s"] = tr["wall_s"] - plain["wall_s"]
    for b, point in result["sweep"].items():
        values["integrator.path_steps_per_s.B%s" % b] = \
            point["path_steps_per_s"]
    return {k: {"value": values[k], "unit": unit}
            for k, unit in declared("per_layer")}


def print_result(name, res):
    wl = WORKLOADS[name]
    print("%-11s %-44s %14.6g %-12s  %d of %d processes"
          % (name, "fail_share", res["failed"] / res["attempted"], "",
             res["failed"], res["attempted"]))
    for k, m in res["metrics"].items():
        label = k
        if k == "work_per_s":
            label = "work_per_s (%s_per_s)" % wl.work_unit
        extra = ("  median of %d" % len(m["samples"])
                 if "samples" in m else "")
        print("%-11s %-44s %14.6g %-12s%s"
              % (name, label, m["value"], m["unit"], extra))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops the process it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sedes", "cli.py")):
        print("error: run from the root of a sedes source tree "
              "(src/sedes/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    host = machine(root)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reported = {n for n, _ in declared("per_layer" if args.trace
                                       else "end_to_end")}
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res, host = measure(root, name, args.seed, args.seconds,
                                bool(args.trace), host)
        except BenchError as err:
            print("error: %s: %s" % (name, err), file=sys.stderr)
            return 1
        print_result(name, res)
        with open(os.path.join(root, WORK_DIR, "results.jsonl"), "a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed,
                                 "seconds": args.seconds,
                                 "trace": args.trace, "machine": host,
                                 "result": res}) + "\n")
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            if k in reported:
                total["metrics"][k if len(names) == 1 else name + "." + k] = \
                    {"value": m["value"], "unit": m["unit"]}
    print("machine " + json.dumps(host, sort_keys=True))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
