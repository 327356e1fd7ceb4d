"""Run the benchmark several times per workload and report its spread.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets a,b --out perfbench/results

Each workload runs --runs times per set, each run with another seed; the
runs of the sets alternate, so both see the same host. For every
end-to-end metric the script prints each set's median and the distance
between its first and third quartile as a share of the median, the
figure BENCHMARK.json's bound must exceed, and how far each later set's
median lies from the first set's. Every run's record lines, metric lines
and JSON result are appended to <out>/set-<name>/<workload>.jsonl, and
the figures go to <out>/summary.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "record": [l for l in lines if l.startswith("record ")],
        "text": [l for l in lines if l.startswith("metric ")],
        "result": json.loads(lines[-1]),
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", default="a")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = args.sets.split(",")
    summary = {}
    for w in names:
        runs = {s: [] for s in sets}
        for i in range(args.runs):
            for k, s in enumerate(sets):
                # Each set takes its own seeds: set k runs seeds
                # first-seed + k*runs onwards.
                r = run_once(w, args.first_seed + k * args.runs + i, bench["run_seconds"], 0)
                if not r["result"]["correct"]:
                    sys.exit(f"{w} seed {r['seed']}: outputs not correct: {r['result']}")
                d = os.path.join(args.out, "set-" + s)
                os.makedirs(d, exist_ok=True)
                with open(os.path.join(d, w + ".jsonl"), "a") as log:
                    log.write(json.dumps(r) + "\n")
                runs[s].append(r)
        summary[w] = {}
        for m, bound in bounds.items():
            summary[w][m] = {"bound": bound}
            first = None
            for s in sets:
                vals = [r["result"]["metrics"][m]["value"] for r in runs[s]]
                med, sp = spread(vals)
                first = first or med
                drift = med / first - 1
                summary[w][m][s] = {"median": med, "spread": sp, "drift": drift}
                flag = "ok" if sp < bound / 3 else ("WITHIN BOUND" if sp <= bound else "TOO WIDE")
                dflag = "" if drift <= bound else " DRIFT PAST BOUND"
                print(f"{w:18s} {m:12s} set {s} median {med:12.6g} spread {sp:7.4f} drift {drift:+.4f} bound {bound:.3f} {flag}{dflag}", flush=True)
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
