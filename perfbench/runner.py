"""Job execution shared by the untraced and the traced runs."""

from __future__ import annotations

import statistics
import sys
import time


class Runner:
    """Runs jobs, times them, checks every output outside the timed region."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times: dict[str, list[float]] = {j.name: [] for j in jobs}
        self.first: dict[str, object] = {}
        self.exact: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def run_job(self, job, times: dict[str, list[float]]) -> float:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a raising job counts as failed; the run goes on
            times[job.name].append(time.perf_counter() - t0)
            self._fail(job, f"raised {type(exc).__name__}: {exc}")
            return times[job.name][-1]
        elapsed = time.perf_counter() - t0
        times[job.name].append(elapsed)
        try:
            if job.name not in self.first:
                job.check(out)
                self.first[job.name] = out
                self.exact[job.name] = job.exact(out)
            elif out != self.first[job.name]:
                raise AssertionError("output differs from the first pass")
        except Exception as exc:
            self._fail(job, f"check failed: {exc}")
        return elapsed

    def _fail(self, job, message: str) -> None:
        self.failed += 1
        print(f"FAILED {job.name}: {message}", file=sys.stderr)

    def exact_counts(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for counts in self.exact.values():
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))


def median_sum(times: dict[str, list[float]], names=None) -> float:
    """Estimated seconds for one pass: the sum over jobs of each job's median time."""
    return sum(statistics.median(times[n]) for n in (names or times) if times[n])


def run_untraced(runner: Runner, seconds: float, patch) -> None:
    """Cycle through the jobs until ``seconds`` run out, after one full pass.

    A job is started only if its median so far still fits before the deadline.
    """
    deadline = time.perf_counter() + seconds
    with patch():
        for job in runner.jobs:
            runner.run_job(job, runner.times)
        while True:
            for job in runner.jobs:
                if time.perf_counter() + statistics.median(runner.times[job.name]) > deadline:
                    return
                runner.run_job(job, runner.times)
