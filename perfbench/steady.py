#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs the benchmark command of BENCHMARK.json ten times on every workload
and records for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, next
to the metric's bound, with the machine, the Go version and nproc. Run i
uses seed i (1..10). Run it from anywhere:

    python3 perfbench/steady.py --out perfbench/steadiness.json

If --out already holds sets, the new set is appended, and its medians are
compared with those of every earlier set made with the same run length: two
sets agree when each median differs from the other's by at most the
metric's bound, in either direction.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10  # runs per workload and set


def machine():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="", help="append the set to this JSON record")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, RUNS + 1))
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    record = {
        "machine": machine(),
        "go": go,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    worst = 0.0
    for w in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, " ".join(f"{k}={m['value']:.4f}" for k, m in sorted(res["metrics"].items())), flush=True)
        summary = {}
        for name, vs in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": vs}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {w:12s} {name:18s} median {med:10.4f}  spread {spread:7.2%}  bound {bounds[name]:.0%}")
        record["workloads"][w] = summary
    print(f"largest spread / bound (setup_s aside): {worst:.2f}")
    if args.out:
        doc = {"sets": [], "comparisons": []}
        if os.path.exists(args.out):
            with open(args.out) as f:
                doc = json.load(f)
        doc["sets"].append(record)
        new = len(doc["sets"]) - 1
        for i, old in enumerate(doc["sets"][:new]):
            if old["run_seconds"] == record["run_seconds"]:
                doc["comparisons"].append(compare(i, old, new, record))
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


def compare(i, old, j, cur):
    """Compares set j's medians with set i's as the change relative to set
    i's median; the sets agree when no change exceeds the metric's bound."""
    metrics, ok = {}, True
    for w, ms in cur["workloads"].items():
        for name, m in ms.items():
            before = old["workloads"].get(w, {}).get(name)
            if before is None:
                continue
            change = (m["median"] - before["median"]) / before["median"]
            within = abs(change) <= m["bound"]
            ok = ok and within
            metrics[f"{w}/{name}"] = {"change": change, "bound": m["bound"], "within": within}
            print(f"  set {j} vs {i}  {w:12s} {name:18s} median changed {change:+7.2%}  bound {m['bound']:.0%}  {'ok' if within else 'OUT'}")
    print(f"set {j} {'agrees' if ok else 'does NOT agree'} with set {i} within every bound")
    return {"sets": [i, j], "metrics": metrics, "agree": ok}


if __name__ == "__main__":
    main()
