"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload train-copy --seeds 0-9 --seconds 25 \
        [--trace 0] [--out bench/baseline/train-copy.json]

Runs bench/run.py once per seed, one run after another, and prints for
every metric the median, the quartiles from statistics.quantiles(values,
n=4), and the spread (q3 - q1) / median. --out also writes, as JSON, the
summary and every run's environment, named report, digests and result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    """{"env", "report", "digests", "result"} of one run of bench/run.py."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("seed %d exited %d: %s" % (seed, proc.returncode,
                                                      proc.stderr.strip()))
    run = {"result": json.loads(lines[-1])}
    for line in lines[:-1]:
        tag, _, body = line.partition(" {")
        if tag in ("# bench env", "# bench report", "# bench digests"):
            run[tag.split()[-1]] = json.loads("{" + body)
    return run


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None}
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,7")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write runs and summary to this JSON file")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        p.error("need at least two seeds for quartiles")

    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, args.seconds, args.trace))
        print("seed %d done: correct=%s"
              % (seed, runs[-1]["result"]["correct"]), file=sys.stderr)
    results = [run["result"] for run in runs]
    summary = summarize(results)
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else "%.4f" % s["spread"]
        print("%-40s median %-14.6g %-9s spread %s"
              % (name, s["median"], s["unit"], spread))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "seeds": seeds, "runs": runs,
             "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
