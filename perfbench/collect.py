"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/baseline.json

Each run is ``perfbench/run.py`` in a fresh process, one after another, from
the root of the checkout, on every workload of BENCHMARK.json and for its
``run_seconds``, so that every recorded set has the same run length.  For
every metric, end-to-end and named, the summary gives the values, their
median, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median.
With ``--traced`` one traced run per workload (the first seed) is added.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    prefixed = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines[:-1] if " {" in line}
    return {"seed": seed, **json.loads(lines[-1]), "env": prefixed.get("env"), "details": prefixed.get("details")}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (values[0],) * 3
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for source in ("metrics", "details"):
        for name, entry in runs[0][source].items():
            values = [run[source][name]["value"] for run in runs]
            summary.setdefault(name, {"unit": entry["unit"], **spread(values)})
    return summary


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "env": None, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        report["env"] = report["env"] or runs[0]["env"]
        entry = {"summary": summarize(runs), "runs": runs}
        report["workloads"][workload] = entry
        failed = sum(run["failed"] for run in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed checks")
        for name, stats in entry["summary"].items():
            bound = bounds.get(name)
            mark = "" if bound is None or stats["spread"] is None else f"  bound {bound}" + ("" if stats["spread"] < bound / 3 else "  WIDE")
            shown = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {name:24s} median {stats['median']:.6g} {stats['unit']:6s} spread {shown}{mark}")
        if args.traced:
            traced = entry["traced"] = run_once(workload, args.seeds[0], seconds, 1)
            print(f"{workload}: traced run, seed {args.seeds[0]}, {traced['failed']} failed checks")
            for name, metric in traced["metrics"].items():
                print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
