"""Timed repetitions of one workload, their checks, and the metrics they give.

``run.py`` is the entry point; it sets the thread environment and puts
``src/`` on the path before this module (and numpy) is imported.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy
import scipy

import layers
import workloads
from gapeig import cli
from gapeig.errors import GapeigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
CHILD_TIMEOUT = 60.0
SETUP_PROBE = "import sys\nfrom gapeig import cli\ncli.build_problem(cli.load_config(sys.argv[1]))\n"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ref_err": "1"}


def spawn(cmd, log):
    """Run one child to completion: (wall seconds, max RSS in KiB, CPU seconds, exit code).

    A child still running after CHILD_TIMEOUT seconds is killed, so a hung
    program shows as a failed repetition instead of a benchmark that never ends.
    """
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=f, stderr=subprocess.STDOUT,
                             cwd=os.path.dirname(log))
        killer = threading.Timer(CHILD_TIMEOUT, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_maxrss, ru.ru_utime + ru.ru_stime, p.returncode


def run_cli(steps, config, work, seconds):
    """Untraced repetitions: the workload's steps as fresh CLI processes."""
    probe = [sys.executable, "-c", SETUP_PROBE, config]
    # The first child compiles bytecode and warms the file cache; not timed.
    spawn(probe, os.path.join(work, "warmup.log"))
    reps, setup = [], []
    t_start = time.perf_counter()
    while not reps or _room_for_another(len(reps), t_start, seconds):
        out = os.path.join(work, "rep%d" % len(reps))
        os.makedirs(out)
        rep = {"out": out, "steps": [], "error": None}
        for step in steps:
            cmd = [sys.executable, "-m", "gapeig.cli", step, "--config", config, "--out", out]
            wall, rss, cpu, code = spawn(cmd, os.path.join(out, step + ".log"))
            rep["steps"].append({"step": step, "wall_s": wall, "maxrss_kb": rss, "cpu_s": cpu,
                                 "exit": code})
            if code != 0:
                rep["error"] = "%s exited with code %d" % (step, code)
                break
        rep["wall_s"] = sum(s["wall_s"] for s in rep["steps"])
        rep["peak_rss_mb"] = max(s["maxrss_kb"] for s in rep["steps"]) / 1024.0
        reps.append(rep)
        # Set-up probes are spread over the run so they see the same machine.
        setup.append(spawn(probe, os.path.join(work, "probe%d.log" % len(setup)))[0])
    while len(setup) < SETUP_PROBES:
        setup.append(spawn(probe, os.path.join(work, "probe%d.log" % len(setup)))[0])
    return reps, setup


def _room_for_another(done, t_start, seconds):
    """True while one more iteration of the mean length still ends within the budget."""
    elapsed = time.perf_counter() - t_start
    return elapsed + elapsed / done <= seconds


def run_in_process(steps, config, work, seconds, tracer):
    """In-process repetitions through cli.main, untraced and traced in turn."""
    reps = []
    t_start = time.perf_counter()
    while not reps or _room_for_another(len(reps) // 2, t_start, seconds):
        for traced in (False, True):
            out = os.path.join(work, "pass%d" % len(reps))
            rep = {"out": out, "traced": traced, "error": None}
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            if traced:
                rep["run_id"] = tracer.begin_run()
                with tracer.install():
                    codes = _cli_steps(steps, config, out)
            else:
                codes = _cli_steps(steps, config, out)
            rep["wall_s"] = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            rep["cpu_s"] = ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
            if codes[-1] != 0:
                rep["error"] = "%s returned %d" % (steps[len(codes) - 1], codes[-1])
            reps.append(rep)
    return reps


def _cli_steps(steps, config, out):
    """Exit codes of the steps run through cli.main, up to the first failure.

    An exception escaping cli.main counts as exit code 1, as it would for
    the CLI process, so the run goes on and reports the repetition as failed.
    """
    codes = []
    for step in steps:
        try:
            codes.append(cli.main([step, "--config", config, "--out", out]))
        except Exception:
            traceback.print_exc()
            codes.append(1)
        if codes[-1] != 0:
            break
    return codes


def check_reps(workload, config, reps):
    """Check each repetition's outputs, setting rep["ref_err"] or rep["error"]."""
    refs = None
    for rep in reps:
        if rep["error"]:
            continue
        try:
            if refs is None:
                refs = workloads.references(workload, config, workloads.read_window(rep["out"]))
            rep["ref_err"] = workloads.CHECKS[workload](rep["out"], refs)
        except (workloads.CheckFailed, GapeigError) as e:
            rep["error"] = "check failed: %s" % e


def end_to_end_samples(reps, setup, n_steps):
    ok = [r for r in reps if not r["error"]]
    return {
        "wall_s": [r["wall_s"] for r in ok],
        "setup_s": [s * n_steps for s in setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "ref_err": [r["ref_err"] for r in ok],
    }


def per_layer_samples(reps, tracer):
    runs = []
    for r in reps:
        if r["traced"] and not r["error"]:
            spans = [s for s in tracer.spans if s[5] == r["run_id"]]
            m = layers.run_metrics(spans, tracer.counters[r["run_id"]])
            m["trace.wall_s"] = r["wall_s"]
            m["process.cpu_s"] = r["cpu_s"]
            runs.append(m)
    plain = [r["wall_s"] for r in reps if not r["traced"] and not r["error"]]
    if not runs or not plain:
        return {}
    samples = {k: [m[k] for m in runs] for k in runs[0]}
    samples["trace.untraced_wall_s"] = plain
    samples["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"]) - statistics.median(plain)]
    return samples


def metadata(workload, seed, trace, cfg):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cli_threads": cfg.get("threads", 1),
        "steps": workloads.WORKLOADS[workload]["steps"],
        "config": cfg,
    }


def git_commit():
    """HEAD commit of the checkout, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run(workload, seed, seconds, trace):
    """Run one workload and print its metadata line and result line; return the exit code."""
    if workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    steps = workloads.WORKLOADS[workload]["steps"]
    work = os.path.join(OUT, "work-%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work)
    tracer = layers.Tracer()
    try:
        config = workloads.write_config(workload, seed, os.path.join(work, "config.json"))
        meta = metadata(workload, seed, trace, workloads.make_config(workload, seed))
        if trace:
            reps = run_in_process(steps, config, work, seconds, tracer)
        else:
            reps, setup = run_cli(steps, config, work, seconds)
        check_reps(workload, config, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        samples = per_layer_samples(reps, tracer)
        units = {k: layers.unit(k) for k in samples}
    else:
        samples = end_to_end_samples(reps, setup, len(steps))
        units = END_TO_END_UNITS
    failed = sum(1 for r in reps if r["error"])
    record = {
        "meta": meta,
        "attempted": len(reps),
        "failed": failed,
        "errors": [r["error"] for r in reps if r["error"]],
        "samples": samples,
        "reps": [{k: v for k, v in r.items() if k != "out"} for r in reps],
    }
    if trace:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)
    for err in record["errors"]:
        print("failed: %s" % err, file=sys.stderr)
    if not samples or not all(samples[k] for k in units):
        print("error: no repetition passed its checks", file=sys.stderr)
        return 1
    metrics = {k: {"value": statistics.median(samples[k]), "unit": units[k]} for k in sorted(units)}
    print(json.dumps(meta))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0
