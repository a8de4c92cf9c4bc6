#!/usr/bin/env bash
# A/A check: two sets of N runs per workload on the same build, each run
# with another seed, as the acceptance procedure does. Prints each
# end-to-end metric's median, quartiles and relative spread (distance
# between the quartiles as a share of the median) per workload and set,
# and exits non-zero if a spread exceeds the metric's bound (setup_s is
# exempt from the spread rule) or if the second set's median is worse
# than the first's by more than the bound.
#
#   bench/aa.sh [N=3] [workload ...]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

exec python3 - "$@" <<'EOF'
import json, statistics, subprocess, sys, time

n = int(sys.argv[1]) if len(sys.argv) > 1 else 3
spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
if n < 2:
    sys.exit("aa: N must be at least 2 (quartiles need two values)")

def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"aa: {workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"aa: {workload} seed {seed} reported failures: {res}")
    print(f"aa: {workload} seed {seed}: {time.time() - start:.1f} s, {res['attempted']} attempted", file=sys.stderr, flush=True)
    return {k: v["value"] for k, v in res["metrics"].items()}

bad = []
for w in workloads:
    sets = []
    for s in range(2):
        runs = [run(w, 1000 * (s + 1) + i) for i in range(n)]
        sets.append(runs)
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        meds = []
        for s, runs in enumerate(sets):
            vals = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            meds.append(med)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  SPREAD EXCEEDS BOUND"
                bad.append(f"{w} {name} set {s + 1}: spread {spread:.1%} > bound {bound:.0%}")
            print(f"{w:18s} {name:22s} set {s + 1}: median {med:12.4f} {m['unit']:4s} q1 {q1:12.4f} q3 {q3:12.4f} "
                  f"spread {spread:6.2%} (bound {bound:.0%}){flag}")
        worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
        flag = ""
        if worse > bound:
            flag = "  SECOND SET WORSE THAN BOUND"
            bad.append(f"{w} {name}: second median worse by {worse:.1%} > bound {bound:.0%}")
        print(f"{w:18s} {name:22s} second median worse by {worse:+7.2%}{flag}")
if bad:
    print("aa: FAILED\n  " + "\n  ".join(bad))
    sys.exit(1)
print("aa: every spread and both medians within bounds")
EOF
