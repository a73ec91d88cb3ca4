"""The traced run: alternate untraced and traced passes, derive per-layer metrics.

Every public function of every layer is wrapped (see :mod:`spans`), so
``self_s`` of a function is the time spent in its own body, and the self
times of one pass add up to the time its spans cover, with nothing counted
twice.  The rest of a traced pass is the benchmark's own job loop, reported
as ``trace.unattributed_s``.  All per-layer values are per pass (means over
the traced passes); a layer a workload does not run reports 0.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import spans
from runner import median_sum

SMALL_N = 64  # count_monotone calls at or below this length are the per-call latency class


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _cache_tag(key):
    return lambda *a, **kw: key in _first_arg(a, kw, "P")._cache


def _kind_tag(*a, **kw):
    return "general" if _first_arg(a, kw, "P").witness is None else "dim2"


def _count_tag(*a, **kw):
    p = _first_arg(a, kw, "p")
    k = a[1] if len(a) > 1 else kw["k"]
    return (p.n, k)


TAGS = {
    "counting.count_monotone": _count_tag,
    "posets.height": _cache_tag("height"),
    "posets.width": _cache_tag("width"),
    "decomposition.decompose": _cache_tag("decomposition"),
    "posets.count_chains_of_size": _kind_tag,
    "posets.count_antichains_of_size": _kind_tag,
}

# name -> (unit, better), in output order; the traced run reports exactly these.
PER_LAYER = {
    "search.exhaustive_min.self_s": ("s", "lower"),
    "search.states_visited": ("count", "lower"),
    "search.states_per_s": ("1/s", "higher"),
    "search.tree_fraction": ("ratio", "lower"),
    "search.parallel_efficiency": ("ratio", "higher"),
    "search.min_hk_over_posets.self_s": ("s", "lower"),
    "search.posets_visited": ("count", "lower"),
    "search.posets_per_s": ("1/s", "higher"),
    "search.heuristic_min.self_s": ("s", "lower"),
    "search.heuristic_evaluations": ("count", "lower"),
    "perms.canonical_form.calls": ("count", "lower"),
    "perms.canonical_form.self_s": ("s", "lower"),
    "perms.Permutation.calls": ("count", "lower"),
    "perms.Permutation.self_s": ("s", "lower"),
    "counting.count_monotone.calls": ("count", "lower"),
    "counting.count_monotone.self_s": ("s", "lower"),
    "counting.count_increasing_exact.self_s": ("s", "lower"),
    "counting.count_monotone.layer_elems_per_s": ("1/s", "higher"),
    "counting.count_monotone.small_p50_us": ("us", "lower"),
    "counting.count_monotone.small_p99_us": ("us", "lower"),
    "counting.length_profile.self_s": ("s", "lower"),
    "counting.brute_force_count.calls": ("count", "lower"),
    "counting.brute_force_count.self_s": ("s", "lower"),
    "posets.poset_from_perm.self_s": ("s", "lower"),
    "posets.poset_from_relation.self_s": ("s", "lower"),
    "posets.width.self_s": ("s", "lower"),
    "posets.max_bipartite_matching_pairs.self_s": ("s", "lower"),
    "posets.level_of_each.self_s": ("s", "lower"),
    "posets.dual.calls": ("count", "lower"),
    "posets.dual.self_s": ("s", "lower"),
    "posets.count_chains_of_size.dim2.self_s": ("s", "lower"),
    "posets.count_chains_of_size.general.self_s": ("s", "lower"),
    "posets.count_antichains_of_size.dim2.self_s": ("s", "lower"),
    "posets.count_antichains_of_size.general.self_s": ("s", "lower"),
    "posets.cache_hit_ratio": ("ratio", "higher"),
    "decomposition.decompose.self_s": ("s", "lower"),
    "decomposition.index_sets.self_s": ("s", "lower"),
    "decomposition.verify_example_structure.self_s": ("s", "lower"),
    "cuts.prune.self_s": ("s", "lower"),
    "cuts.min_height_reducing_set.calls": ("count", "lower"),
    "cuts.min_height_reducing_set.self_s": ("s", "lower"),
    "lemmas.surplus_conclusion_check.self_s": ("s", "lower"),
    "lemmas.signature_bound_check.self_s": ("s", "lower"),
    "cli.dispatch.calls": ("count", "lower"),
    "cli.dispatch.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def tree_nodes(n: int) -> int:
    """Nodes below the root of the unpruned prefix tree over S_n."""
    return sum(math.perm(n, d) for d in range(1, n + 1))


def run_traced(runner, seconds: float, session, workdir: Path) -> dict:
    """Alternate an untraced and a traced pass until ``seconds`` run out (one of each at least)."""
    traced_jobs = [j for j in runner.jobs if j.traced]
    untraced_times = {j.name: [] for j in runner.jobs}
    traced_times = {j.name: [] for j in traced_jobs}
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        with spans.patched(session.tap):
            for job in runner.jobs:
                runner.run_job(job, untraced_times)
        rec = spans.Recorder()
        mark = len(session.tapped)

        def replace(name, fn):
            return rec.wrap(name, session.tap(name, fn) or fn, TAGS.get(name))

        with spans.patched(replace):
            job_seconds = sum(runner.run_job(job, traced_times) for job in traced_jobs)
        passes.append({"spans": rec.spans, "wall": job_seconds, "results": session.tapped[mark:]})
        t2 = time.perf_counter()
        if t2 + (t2 - t0) > deadline:
            break
    _write_spans(passes, workdir)
    return _metrics(passes, untraced_times, traced_times)


def _write_spans(passes: list[dict], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    with open(workdir / "spans.jsonl", "w") as fh:
        for idx, p in enumerate(passes):
            for s in p["spans"]:
                fh.write(json.dumps([idx, *s]) + "\n")


def _pass_stats(spans_list: list) -> dict:
    selfs = spans.self_times(spans_list)
    children: dict[int, list[int]] = {}
    for idx, s in enumerate(spans_list):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(idx)

    def counting_time(idx: int) -> float:
        # the span's own body plus its counting-layer descendants
        total, todo = 0.0, [idx]
        while todo:
            i = todo.pop()
            total += selfs[i]
            todo.extend(c for c in children.get(i, ()) if spans_list[c][0].startswith("counting."))
        return total

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    cache_calls = cache_hits = 0
    elems = elem_time = 0.0
    small_us: list[float] = []
    for idx, (name, start, end, _parent, tag) in enumerate(spans_list):
        calls[name] = calls.get(name, 0) + 1
        key = f"{name}.{tag}" if tag in ("dim2", "general") else name
        self_s[key] = self_s.get(key, 0.0) + selfs[idx]
        if name in ("posets.height", "posets.width", "decomposition.decompose"):
            cache_calls += 1
            cache_hits += bool(tag)
        if name == "counting.count_monotone":
            n, k = tag
            if n <= SMALL_N:
                small_us.append((end - start) * 1e6)
            else:
                elems += n * (k + 1)
                elem_time += counting_time(idx)
    return {
        "calls": calls,
        "self_s": self_s,
        "cache": (cache_hits, cache_calls),
        "elems": (elems, elem_time),
        "small_us": small_us,
        "self_total": sum(selfs),
    }


def _metrics(passes: list[dict], untraced_times: dict, traced_times: dict) -> dict:
    stats = [_pass_stats(p["spans"]) for p in passes]
    count = len(passes)

    def mean_calls(name: str) -> float:
        total = sum(s["calls"].get(name, 0) for s in stats)
        return total // count if total % count == 0 else total / count

    def mean_self(key: str) -> float:
        return sum(s["self_s"].get(key, 0.0) for s in stats) / count

    def results(name: str) -> list:
        return [r for p in passes for fn, r in p["results"] if fn == name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    searches = results("search.exhaustive_min")
    states = sum(r.states_visited for r in searches)
    posets = sum(r.posets_visited for r in results("search.min_hk_over_posets"))
    evaluations = sum(r.states_visited for r in results("search.heuristic_min"))
    search_incl = sum(
        s[2] - s[1] for p in passes for s in p["spans"] if s[0] == "search.exhaustive_min"
    )
    hits = sum(s["cache"][0] for s in stats)
    cache_calls = sum(s["cache"][1] for s in stats)
    elems = sum(s["elems"][0] for s in stats)
    elem_time = sum(s["elems"][1] for s in stats)
    small = sorted(us for s in stats for us in s["small_us"])

    w1 = untraced_times.get("verify_theorem(10,3,w=1)")
    w2 = untraced_times.get("verify_theorem(10,3,w=2)")
    efficiency = statistics.median(w1) / (2 * statistics.median(w2)) if w1 and w2 else 0.0

    wall = sum(p["wall"] for p in passes) / count
    self_total = sum(s["self_total"] for s in stats) / count
    names = list(traced_times)
    overhead = ratio(median_sum(traced_times, names), median_sum(untraced_times, names)) - 1.0

    values = {
        "search.states_visited": ratio(states, count),
        "search.states_per_s": ratio(states, search_incl),
        "search.tree_fraction": ratio(states, sum(tree_nodes(r.n) for r in searches)),
        "search.parallel_efficiency": efficiency,
        "search.posets_visited": ratio(posets, count),
        "search.posets_per_s": ratio(posets, count * mean_self("search.min_hk_over_posets")),
        "search.heuristic_evaluations": ratio(evaluations, count),
        "counting.count_monotone.layer_elems_per_s": ratio(elems, elem_time),
        "counting.count_monotone.small_p50_us": statistics.median(small) if small else 0.0,
        "counting.count_monotone.small_p99_us": (
            statistics.quantiles(small, n=100)[98] if len(small) >= 2 else sum(small)
        ),
        "posets.cache_hit_ratio": ratio(hits, cache_calls),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - self_total,
        "trace.overhead": overhead,
    }
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for s in stats for k, v in s["self_s"].items() if k.startswith(layer + ".")
        ) / count
    out = {}
    for name, (unit, _better) in PER_LAYER.items():
        if name not in values:
            base, _, what = name.rpartition(".")
            values[name] = mean_calls(base) if what == "calls" else mean_self(base)
        value = values[name]
        if isinstance(value, float) and value.is_integer() and unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
