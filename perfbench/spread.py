"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload scenarios --runs 10
    python3 perfbench/spread.py --runs 10 --baseline perfbench/baseline_seed.json

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json; a spread must stay below
the bound (``setup_s`` excepted) for the benchmark to tell changes
apart.  Runs are sequential, one process at a time, with seeds
1..runs.  ``--baseline`` also writes the medians, quartiles and run
context to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workload or names:
        results = [run(workload, seed, args.seconds, 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        rows = {}
        print(f"{workload}: {args.runs} runs, "
              f"failed {[r['failed'] for r in results]}, "
              f"correct {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < bound / 3
            ok = ok and steady
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": results[0]["metrics"][name]["unit"]}
            print(f"  {name:14s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {'ok' if steady else 'NOT STEADY'}")
        report[workload] = {"runs": args.runs, "seconds": args.seconds,
                            "attempted": [r["attempted"] for r in results],
                            "failed": [r["failed"] for r in results],
                            "metrics": rows}
    if args.baseline:
        first = next(iter(report))
        details = json.loads((ROOT / "perfbench" / "results" /
                              f"{first}-seed{args.first_seed}-trace0.json").read_text())
        with open(args.baseline, "w") as fh:
            json.dump({"context": details["context"], "workloads": report},
                      fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
