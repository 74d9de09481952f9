"""Run the benchmark over several seeds and summarize each metric per workload.

Run from the repository root:

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --seeds 1-5 --trace 1

Each (workload, seed) is one ``run.py`` process, with the workloads and
``run_seconds`` of ``BENCHMARK.json``.  The workloads take turns within each
seed, so that a machine that speeds up or slows down during the report
affects every workload alike.  For every metric the
report prints the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (q3 - q1) as a
share of the median, and the sample count, plus the runs attempted and
failed.  The summary is also written to ``.bench_out/report.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    report = {name: {"attempted": 0, "failed": 0, "incorrect": 0, "metrics": {}} for name in names}
    for seed in args.seeds:
        for workload in names:
            runs = report[workload]
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
                runs["incorrect"] += 1
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            runs["attempted"] += result["attempted"]
            runs["failed"] += result["failed"]
            runs["incorrect"] += not result["correct"]
            for name, m in result["metrics"].items():
                runs["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for workload, runs in report.items():
        print("%s: %d repetitions attempted, %d failed, %d runs not correct"
              % (workload, runs["attempted"], runs["failed"], runs["incorrect"]))
        for name, m in sorted(runs["metrics"].items()):
            m.update(summarize(m["values"]))
            bound = bounds.get(name)
            print("  %-30s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s  n=%d"
                  % (name, m["unit"], m["median"], m["q1"], m["q3"], m["spread"],
                     " (bound %g)" % bound if bound is not None else "", m["n"]))
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "report.json"), "w") as f:
        json.dump({"seeds": args.seeds, "seconds": spec["run_seconds"], "trace": args.trace,
                   "workloads": report}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
