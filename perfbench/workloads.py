"""Seeded inputs, job lists and output checks for the four workloads.

A workload is a list of jobs.  A job's ``run`` is the only code inside the
timed region; its ``check`` runs afterwards and raises :class:`CheckError`
on a wrong output.  Inputs come from ``random.Random(f"{workload}:{seed}")``,
so a seed fixes every input while the amount of work per job stays the same
for every seed (sizes are constants; only the content is drawn).

Library calls go through the ``monoseq`` package namespace at call time, so
the wrappers that :mod:`spans` installs there see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import monoseq as M
from monoseq import cli

WORKLOADS = ("theorem", "probe", "count", "poset")

# (n, k, workers).  The workers=2 row repeats (10, 3) for the parallel path.
THEOREM_ROWS = ((9, 2, 1), (10, 2, 1), (9, 3, 1), (10, 3, 1), (10, 3, 2))
# (minimizing orbit representatives, how many of them are mixed-type),
# as measured when the benchmark was defined.
THEOREM_WITNESSES = {(9, 2): (36, 33), (10, 2): (10, 7), (9, 3): (237, 0), (10, 3): (1140, 0)}

PROBE_N, PROBE_K = 8, 2

# count/bulk: (n, k) per family, plus one large job on the near-identity family.
BULK_SIZES = ((1000, 2), (10000, 2), (3000, 8), (1000, 20))
BULK_EXTRA = ("near_identity", 10000, 20)
FAMILIES = ("uniform", "tau", "near_identity", "reversed_blocks")
# count/swarm: seeded hill climbs at n = 40, k = 3, many short restarts per
# run so that the number of evaluations barely depends on the seed.
SWARM_RUNS, SWARM_N, SWARM_K, SWARM_TRIALS, SWARM_STEPS = 4, 40, 3, 16, 25

# poset/dim-2: queried with k = 3 and surplus parameter t = 1.
DIM2_SIZES = (250, 500, 1000)
PRUNE_SIZES = (40, 80)
POSET_K, SURPLUS_T, PRUNE_T = 3, 1, 3
SIGMA_KS = (3, 4, 5)
# poset/general: random DAGs (n, edge probability), sized so that h_k stays
# far inside the default antichain budget.
GENERAL_DAGS = tuple((n, 0.08) for n in (60, 70, 80, 90, 100)) * 4
GENERAL_ACTIONS = ("decompose", "hk", "surplus")


class CheckError(Exception):
    """A job returned a wrong output."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    traced: bool = True  # False: skipped in traced passes (spans in pool children are lost)
    exact: Callable[[object], dict] = field(default=lambda out: {})


# Search results the benchmark reads from inside the library: verify_theorem
# drops its SearchResult, and the traced run counts states and posets visited.
TAPPED = ("search.exhaustive_min", "search.min_hk_over_posets", "search.heuristic_min")


@dataclass
class Session:
    """Per-run state shared by the jobs: (name, result) of every tapped search call."""

    tapped: list = field(default_factory=list)

    def tap(self, name: str, fn: Callable) -> Callable | None:
        """A stand-in for ``fn`` that records its results, or None if ``name`` is not tapped."""
        if name not in TAPPED:
            return None
        tapped = self.tapped

        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            tapped.append((name, result))
            return result

        return capture

    def last(self, name: str):
        return next(r for fn, r in reversed(self.tapped) if fn == name)


# ---------------------------------------------------------------- inputs


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled(rng: random.Random, n: int) -> M.Permutation:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return M.Permutation(tuple(vals))


def family_perm(rng: random.Random, family: str, n: int, k: int) -> M.Permutation:
    if family == "uniform":
        return _shuffled(rng, n)
    if family == "tau":
        return M.build_tau(k, n)
    if family == "near_identity":
        vals = list(range(1, n + 1))
        for _ in range(max(1, n // 500)):
            i, j = rng.randrange(n), rng.randrange(n)
            vals[i], vals[j] = vals[j], vals[i]
        return M.Permutation(tuple(vals))
    if family == "reversed_blocks":
        vals: list[int] = []
        low = 1
        while low <= n:
            size = min(n - low + 1, rng.randint(1, 2 * k + 2))
            vals.extend(range(low + size - 1, low - 1, -1))
            low += size
        return M.Permutation(tuple(vals))
    raise ValueError(f"unknown family {family!r}")


def random_dag(rng: random.Random, n: int, p: float) -> dict:
    """Poset JSON for a random DAG on shuffled ids, with no witness."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    pairs = [
        [label[i], label[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return {"n": n, "relation": pairs}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Everything the jobs read; the poset workload also writes its CLI input files."""
    rng = rng_for(workload, seed)
    if workload in ("theorem", "probe"):
        return {}
    if workload == "count":
        bulk = [
            (family, n, k, family_perm(rng, family, n, k))
            for family in FAMILIES
            for n, k in BULK_SIZES
        ]
        family, n, k = BULK_EXTRA
        bulk.append((family, n, k, family_perm(rng, family, n, k)))
        swarm_seeds = [rng.randrange(2**32) for _ in range(SWARM_RUNS)]
        return {"bulk": bulk, "swarm_seeds": swarm_seeds}
    if workload == "poset":
        dim2 = [_shuffled(rng, n) for n in DIM2_SIZES]
        prune = [_shuffled(rng, n) for n in PRUNE_SIZES]
        workdir.mkdir(parents=True, exist_ok=True)
        general = []
        for idx, (n, p) in enumerate(GENERAL_DAGS):
            path = workdir / f"dag{idx:02d}.json"
            path.write_text(json.dumps(random_dag(rng, n, p)))
            general.append((n, path))
        return {"dim2": dim2, "prune": prune, "general": general}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- jobs


def build_jobs(workload: str, inputs: dict, session: Session) -> list[Job]:
    return {
        "theorem": _theorem_jobs,
        "probe": _probe_jobs,
        "count": _count_jobs,
        "poset": _poset_jobs,
    }[workload](inputs, session)


def _theorem_jobs(inputs: dict, session: Session) -> list[Job]:
    jobs = []
    checked: dict = {}  # (n, k) -> the output of the row's first checked run
    for n, k, workers in THEOREM_ROWS:

        def run(n=n, k=k, workers=workers):
            report = M.verify_theorem(n, k, workers=workers)
            return report, session.last("search.exhaustive_min").states_visited

        def check(out, n=n, k=k):
            report, _ = out
            expect(report.exhaustive_minimum == M.m_tau_formula(k, n), f"({n},{k}) minimum")
            witnesses = report.single_type_count + report.mixed_count
            expect(
                (witnesses, report.mixed_count) == THEOREM_WITNESSES[(n, k)],
                f"({n},{k}) witnesses/mixed {witnesses}/{report.mixed_count}",
            )
            first = checked.setdefault((n, k), out)
            expect(first == out, f"({n},{k}) differs across worker counts")

        jobs.append(
            Job(
                name=f"verify_theorem({n},{k},w={workers})",
                run=run,
                check=check,
                traced=workers == 1,
                exact=lambda out, w=workers: {"states_visited": out[1]} if w == 1 else {},
            )
        )
    return jobs


def _probe_jobs(inputs: dict, session: Session) -> list[Job]:
    budgets = M.DEFAULT_BUDGETS.with_overrides(poset_enum_max_n=PROBE_N)

    def check(res):
        expect(res.permutation_minimum == M.m_tau_formula(PROBE_K, PROBE_N), "permutation minimum")
        expect(res.minimum == res.permutation_minimum, "poset minimum != permutation minimum")

    return [
        Job(
            name=f"min_hk_over_posets({PROBE_N},{PROBE_K})",
            run=lambda: M.min_hk_over_posets(PROBE_N, PROBE_K, budgets),
            check=check,
            exact=lambda res: {"posets_visited": res.posets_visited},
        )
    ]


def _count_jobs(inputs: dict, session: Session) -> list[Job]:
    jobs = []
    for family, n, k, p in inputs["bulk"]:

        def check_count(rep, family=family, n=n, k=k, p=p):
            if family == "tau":
                expect(rep.total == M.m_tau_formula(k, n), f"tau({k},{n}) total")
            mirrored = M.count_increasing_exact(p.complement().reverse(), k + 1)
            expect(rep.increasing == mirrored, f"{family} n={n} k={k}: inc(p) != dec(complement)")

        def check_profile(prof, n=n, k=k, p=p):
            inc, dec = prof.per_length[k + 1]
            expect(inc == M.count_increasing_exact(p, k + 1), f"profile n={n} L={k + 1} increasing")
            expect(
                dec == M.count_increasing_exact(p.reverse(), k + 1),
                f"profile n={n} L={k + 1} decreasing",
            )

        tag = f"{family},n={n},k={k}"
        jobs.append(
            Job(f"count_monotone({tag})", lambda p=p, k=k: M.count_monotone(p, k), check_count)
        )
        if (family, n, k) != BULK_EXTRA:
            jobs.append(
                Job(
                    f"length_profile({tag})",
                    lambda p=p, k=k: M.length_profile(p, k + 1),
                    check_profile,
                )
            )
    for idx, seed in enumerate(inputs["swarm_seeds"]):

        def check_swarm(res):
            w = res.witnesses[0]
            expect(res.minimum == M.count_monotone(w, SWARM_K).total, "heuristic value")
            expect(res.minimum == M.brute_force_count(w, SWARM_K).total, "value vs oracle")
            expect(res.minimum <= M.m_tau_formula(SWARM_K, SWARM_N), "above the block bound")

        jobs.append(
            Job(
                f"heuristic_min({SWARM_N},{SWARM_K},#{idx})",
                lambda seed=seed: M.heuristic_min(
                    SWARM_N, SWARM_K, trials=SWARM_TRIALS, seed=seed, max_steps=SWARM_STEPS
                ),
                check_swarm,
                exact=lambda res: {"heuristic_evaluations": res.states_visited},
            )
        )
    return jobs


def _dim2_queries(p: M.Permutation) -> dict:
    P = M.poset_from_perm(p)
    dec = M.decompose(P)
    h = M.height(P)
    return {
        "poset": P,
        "levels": dec.levels,
        "index_sets": M.index_sets(P, POSET_K),
        "width": M.width(P),
        "height": h,
        "h_k": M.h_k(P, POSET_K),
        "surplus": M.surplus_conclusion_check(P, POSET_K, SURPLUS_T),
        "signature": M.signature_bound_check(P, h - 1, 1) if h >= 2 else None,
    }


def _check_levels(levels, n: int, height: int) -> None:
    flat = sorted(x for lvl in levels for x in lvl)
    expect(flat == list(range(n)), "levels do not partition the ground set")
    expect(len(levels) == height, "level count != height")


def _poset_jobs(inputs: dict, session: Session) -> list[Job]:
    jobs = []
    for p in inputs["dim2"]:

        def check_dim2(out, p=p):
            P = out["poset"]
            expect(out["h_k"] == M.count_monotone(p, POSET_K).total, f"n={p.n}: h_k != count")
            expect(out["width"] == M.height(M.dual(P)), f"n={p.n}: width != height(dual)")
            _check_levels(out["levels"], p.n, out["height"])
            expect(out["surplus"].homogenous_count == out["h_k"], "surplus check count")
            sig = out["signature"]
            expect(sig is None or sig.satisfied is not False, "signature bound violated")

        jobs.append(Job(f"dim2(n={p.n})", lambda p=p: _dim2_queries(p), check_dim2))
    for p in inputs["prune"]:

        def check_prune(res):
            Q = res.poset
            if res.rounds:
                expect(res.rounds[-1].size_after == Q.n, "prune: final size")
            expect(Q.n == 0 or M.height(Q) >= M.width(Q), "prune: fixpoint has height < width")

        jobs.append(
            Job(
                f"prune(n={p.n},t={PRUNE_T})",
                lambda p=p: M.prune(M.poset_from_perm(p), POSET_K, PRUNE_T),
                check_prune,
            )
        )

    def sigma_examples():
        return [
            M.verify_example_structure(M.poset_from_perm(M.build_sigma_extremal(k, v)), k)
            for k in SIGMA_KS
            for v in (1, 2)
        ]

    def check_sigma(reports):
        expect(all(r.passed for r in reports), "sigma example structure failed")

    jobs.append(Job("verify_example_structure(sigma)", sigma_examples, check_sigma))

    for n, path in inputs["general"]:
        decomposed: dict = {}
        for action in GENERAL_ACTIONS:
            argv = ["poset", action, "--k", str(POSET_K), "--input", str(path)]

            def run(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.dispatch(argv)
                return code, buf.getvalue()

            def check(out, action=action, n=n, decomposed=decomposed):
                code, text = out
                expect(code == 0, f"{action} on n={n}: exit code {code}")
                data = json.loads(text)
                if action == "decompose":
                    levels = [[x - 1 for x in lvl] for lvl in data["levels"]]
                    _check_levels(levels, n, data["height"])
                    decomposed.update(data)
                elif action == "hk":
                    expect(int(data["h_k"]) > 0, "h_k")
                else:
                    expect(data["height"] == decomposed.get("height"), "surplus height")
                    expect(data["surplus"] == n - data["height"] * POSET_K, "surplus value")

            jobs.append(Job(f"cli poset {action} ({path.name})", run, check))
    return jobs
