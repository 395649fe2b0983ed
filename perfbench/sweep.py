"""Run the benchmark over several seeds and workloads and summarize it.

    python3 perfbench/sweep.py --workloads oov-small,large-vocab,loss-text \\
        --seeds 1-10 --seconds 30 --trace 0 --out results.json

Each (workload, seed) runs in its own process (run.py), from the current
directory, which must be the root of a hanjoint checkout.  For every
workload and metric the summary gives the median, the quartiles and the
spread: the distance between the quartiles as a share of the median.  The
exit code is 1 if any run failed a check or exited with another code
than 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="oov-small,large-vocab,loss-text")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = parser.parse_args()

    runs = []
    ok = True
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                facts = json.loads(lines[-2])["facts"]
            except (IndexError, ValueError, KeyError):
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         "result": result, "facts": facts})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} exit {proc.returncode} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)

    summary: dict[str, dict[str, dict]] = {}
    for run in runs:
        for name, entry in run["result"]["metrics"].items():
            metric = summary.setdefault(run["workload"], {}).setdefault(name, {"unit": entry["unit"], "values": []})
            metric["values"].append(entry["value"])
    for workload, metrics in summary.items():
        for name, metric in metrics.items():
            metric.update(summarize(metric["values"]))
            print(f"{workload:12s} {name:32s} median {metric['median']:14.6g} {metric['unit']:14s} "
                  f"q1 {metric['q1']:12.6g} q3 {metric['q3']:12.6g} spread {metric['spread']:.4f}")

    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1, ensure_ascii=False) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
