"""monoseq benchmark: one workload, one process, results as one JSON line.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
``--trace 1`` prints the per-layer metrics from a run that alternates
untraced and traced passes.  Either way the exact counts (states and posets
visited, heuristic evaluations) are printed on the line before the result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7


def _load_library() -> None:
    """Import monoseq from this checkout's src/, never from anywhere else."""
    if not (SRC / "monoseq" / "__init__.py").is_file():
        raise SystemExit(f"error: no monoseq sources under {SRC}; run from a monoseq checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import monoseq

    if Path(monoseq.__file__).resolve().parent != SRC / "monoseq":
        raise SystemExit(f"error: imported monoseq from {monoseq.__file__}, not {SRC}")


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter until it has imported monoseq
    and generated the inputs, once per sample, in child processes run one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {code}")
        out.append(elapsed)
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=["theorem", "probe", "count", "poset"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_library()
    import workloads

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    if args.setup_only:
        workloads.make_inputs(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    import runner as runner_mod
    import spans
    import traced

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    session = workloads.Session()
    inputs = workloads.make_inputs(args.workload, args.seed, workdir)
    runner = runner_mod.Runner(workloads.build_jobs(args.workload, inputs, session))

    if args.trace:
        metrics = traced.run_traced(runner, args.seconds, session, workdir)
    else:
        runner_mod.run_untraced(runner, args.seconds, lambda: spans.patched(session.tap))
        metrics = {
            "wall_s": {"value": runner_mod.median_sum(runner.times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    for name, times in runner.times.items():
        if times:
            print(f"job {statistics.median(times):9.4f} s  x{len(times)}  {name}", file=sys.stderr)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "times.json").write_text(json.dumps(runner.times))
    print("exact " + json.dumps(runner.exact_counts(), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
