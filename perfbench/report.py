"""Print every benchmark metric of every workload and record them as a baseline.

Usage: python3 perfbench/report.py [--seed N]

For each workload this runs perfbench/run.py once untraced and twice traced
(seeds N and N + 1), with the run length from BENCHMARK.json.  It prints
the end-to-end metrics with their units and sample counts, the per-layer
metrics and the tracing overhead, checks that the exact counts repeat
between the two traced runs, and writes everything to
perfbench/baseline.json.  Exits 1 if a run fails, a job fails its output
checks, or an exact count differs between the traced runs.
"""

import argparse
import json
import subprocess
import sys

from run import BENCH, EXACT_COUNTS, ROOT, WORKLOADS


def bench(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    details, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(details)["details"], json.loads(result)


def line(name, value, unit, samples):
    """One metric row with the number of samples behind it."""
    shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
    return f"  {name:40s} {shown:>16s} {unit:<15s} n={samples}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    ok = True
    baseline = {"seed": args.seed, "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        details, result = bench(workload, args.seed, seconds, 0)
        traced = [bench(workload, args.seed + k, seconds, 1) for k in (0, 1)]
        (layer_details, layers), (_, again) = traced
        repeats = {name: layers["metrics"][name]["value"] == again["metrics"][name]["value"]
                   for name in EXACT_COUNTS}
        samples = details["samples"]
        end_to_end = {name: dict(metric, samples=samples[name])
                      for name, metric in result["metrics"].items()}
        entry = {
            "end_to_end": end_to_end,
            "unscaled": details["unscaled"],
            "failed_ratio": details["failed_ratio"],
            "probes": {p["job"]: ("pass" if not p["problems"] else "; ".join(p["problems"]))
                       for p in details["probes"]},
            "per_layer": layers["metrics"],
            "exact_counts_repeat": repeats,
            "checks": {"correct": all(r["correct"] for r in (result, layers, again)),
                       "attempted": sum(r["attempted"] for r in (result, layers, again)),
                       "failed": sum(r["failed"] for r in (result, layers, again))},
        }
        baseline["machine"] = details["machine"]
        baseline["workloads"][workload] = entry
        ok = ok and entry["checks"]["correct"] and all(repeats.values())

        print(f"== {workload} (seed {args.seed}, {seconds} s)")
        for name, metric in end_to_end.items():
            print(line(name, metric["value"], metric["unit"], metric["samples"]))
        for name, value in details["unscaled"].items():
            print(line(f"unscaled {name}", value, "s", samples[name]))
        print(line("failed_ratio", details["failed_ratio"], "ratio", samples["pass_ratio"]))
        for probe, outcome in entry["probes"].items():
            print(f"  {probe:40s} {outcome}")
        for name, metric in layers["metrics"].items():
            print(line(name, metric["value"], metric["unit"],
                       layer_details["samples"][name]))
        print(f"  exact counts repeat: {repeats}")
        print(f"  output checks: {entry['checks']}")

    print(f"machine: {json.dumps(baseline['machine'], sort_keys=True)}")
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
