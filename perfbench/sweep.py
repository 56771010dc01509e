"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --seeds 10 [--first-seed 1] [--workloads a,b]
                               [--out FILE] [--against FILE]

Runs ``run.py`` once per seed and workload, one run at a time, taking the
workloads round-robin so that a slow spell on the host spreads over all of
them.  For every metric it prints the median and the quartiles of the runs
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  ``--against`` compares the medians with an earlier
``--out`` file and flags any metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--against", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    specs = {m["name"]: m for m in spec["end_to_end"]}
    results: dict = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    summary: dict = {}
    worse = 0
    for name, runs in results.items():
        summary[name] = {"correct": all(r["correct"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs),
                         "failed": sum(r["failed"] for r in runs), "metrics": {}}
        print(f"\n{name}: {len(runs)} runs, {summary[name]['attempted']} samples, "
              f"{summary[name]['failed']} failed")
        for metric in runs[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            summary[name]["metrics"][metric] = stats
            spec_metric = specs.get(metric)
            line = (f"  {metric:30s} median {stats['median']:12.5g}  "
                    f"q1 {stats['q1']:12.5g}  q3 {stats['q3']:12.5g}  "
                    f"spread {stats['spread']:7.2%}")
            if spec_metric is not None:
                line += f"  bound {spec_metric['bound']:.0%}"
            before = earlier.get(name, {}).get("metrics", {}).get(metric)
            if before is not None and spec_metric is not None:
                change = stats["median"] / before["median"] - 1
                line += f"  vs earlier {change:+.2%}"
                if (change if spec_metric["better"] == "lower" else -change) > spec_metric["bound"]:
                    line += "  WORSE"
                    worse += 1
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
