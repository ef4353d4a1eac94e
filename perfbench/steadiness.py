#!/usr/bin/env python3
"""Checks that two sets of benchmark runs of the same code agree.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs set A and set B of every workload, alternating run by run (A, B, A, B,
...), each pair on its own seed and both sets on the same seeds. For every
end-to-end metric it prints each set's median and quartiles and the quartile
spread as a share of the median, and says whether the sets agree within the
bounds in BENCHMARK.json: every spread except setup_s within its bound, set
B's median no worse than set A's by more than the bound, the same share of
failed operations, and identical simulated values for identical seeds.
Exits 1 when they do not. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (status %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    sim = next((json.loads(l)["sim"] for l in lines if l.startswith('{"rounds"')), None)
    return result, sim


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--workloads", default="", help="comma-separated subset")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + i for i in range(args.runs)]

    # results[workload][set] = list of (result, sim) in seed order
    results = {w: {"A": [], "B": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
            for w in workloads:
                results[w][s].append(run_once(w, seed, seconds))
                r = results[w][s][-1][0]
                print("run %2d set %s %-32s seed %3d  %s" % (
                    i, s, w, seed, " ".join("%s=%.6g" % (k, v["value"])
                                            for k, v in r["metrics"].items())), flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs per set)" % (w, args.runs))
        sets = results[w]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = "%-18s" % name
            medians = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r, _ in sets[s]]
                q1, q2, q3 = quartiles(vals)
                medians[s] = q2
                spread = (q3 - q1) / q2 if q2 else float("inf")
                line += "  %s: median %-11.6g q1 %-11.6g q3 %-11.6g spread %6.2f%%" % (
                    s, q2, q1, q3, 100 * spread)
                if name != "setup_s" and spread > bound:
                    ok = False
                    line += " (over bound)"
            worse = medians["B"] - medians["A"] if m["better"] == "lower" else \
                medians["A"] - medians["B"]
            shift = worse / medians["A"] if medians["A"] else 0.0
            agree = shift <= bound
            ok &= agree
            line += "  B vs A %+6.2f%% (bound %.0f%%) %s" % (
                100 * shift, 100 * bound, "agree" if agree else "DISAGREE")
            print(line)
        share = {s: sum(r["failed"] for r, _ in sets[s]) / sum(r["attempted"] for r, _ in sets[s])
                 for s in ("A", "B")}
        same_share = share["A"] == share["B"]
        same_sim = all(a[1] == b[1] for a, b in zip(sets["A"], sets["B"]))
        ok &= same_share and same_sim
        print("failed share A %.6f B %.6f %s; simulated values per seed %s" % (
            share["A"], share["B"], "equal" if same_share else "DIFFER",
            "identical" if same_sim else "DIFFER"))
    print("\nsteadiness: %s" % ("sets agree" if ok else "sets DISAGREE"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
