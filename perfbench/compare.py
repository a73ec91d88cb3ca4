"""Parent-vs-change comparison: alternate runs of two checkouts, same seeds.

    python3 perfbench/compare.py --base ../monoseq-parent --change . \
        --workload count --pairs 10 [--seconds 25] [--trace 0]

Both checkouts must hold the same perfbench/ and BENCHMARK.json.  Pair i
runs both sides with seed first-seed + i, the base first on even i and the change first
on odd i.  For every metric it prints each side's median and quartiles, the
share of pairs the change won, and a verdict: "gain" when the change won at
least 9 in 10 pairs and the medians differ by more than the base's own
quartile spread; "regression" when the change's median is worse than the
base's by more than the bound in BENCHMARK.json; otherwise "same" (or
"unresolved" when the base's spread is wider than the bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} jobs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}
    base: dict[str, list[float]] = {name: [] for name in metrics}
    change: dict[str, list[float]] = {name: [] for name in metrics}
    for i in range(args.pairs):
        order = [("base", args.base), ("change", args.change)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            values = run_once(checkout, args.workload, args.first_seed + i, seconds, args.trace)
            for name in metrics:
                (base if side == "base" else change)[name].append(values[name])
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    header = f"{'base median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>5}"
    print(f"{'metric':48} {header}  verdict")
    for name, m in metrics.items():
        b, c = base[name], change[name]
        bq, cq = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c)) / len(b)
        worse = (cq[1] - bq[1]) if lower else (bq[1] - cq[1])
        spread = bq[2] - bq[0]
        bound = m.get("bound")
        if wins >= 0.9 and abs(cq[1] - bq[1]) > spread and worse < 0:
            verdict = "gain"
        elif bound is not None and worse > bound * abs(bq[1]):
            verdict = "regression"
        elif bound is not None and spread > bound * abs(bq[1]):
            verdict = "unresolved"
        else:
            verdict = "same"
        print(f"{name:48} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] {cq[1]:>12.6g} "
              f"[{cq[0]:.6g}, {cq[2]:.6g}] {wins:>5.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
