"""Quick tests for the benchmark's own code (span arithmetic, inputs, patching).

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import monoseq as M
import runner
import spans
import traced
import workloads


def test_self_times_on_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    # self times partition the time covered by the top-level span
    assert sum(spans.self_times(tree)) == 10.0


def test_self_times_clip_overlapping_children():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 2.0, 6.0, 0, None],
        ["b", 4.0, 12.0, 0, None],
    ]
    assert spans.self_times(tree)[0] == 2.0


def _inputs(workload, seed, tmp_path):
    return workloads.make_inputs(workload, seed, tmp_path / f"{workload}-{seed}")


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = _inputs("count", 7, tmp_path / "a")
    b = _inputs("count", 7, tmp_path / "b")
    c = _inputs("count", 8, tmp_path / "c")
    assert a == b
    assert a != c
    assert [(f, n, k) for f, n, k, _ in a["bulk"]] == [(f, n, k) for f, n, k, _ in c["bulk"]]

    p = _inputs("poset", 7, tmp_path / "a")
    q = _inputs("poset", 7, tmp_path / "b")
    r = _inputs("poset", 8, tmp_path / "c")
    assert p["dim2"] == q["dim2"] and p["prune"] == q["prune"]
    assert [path.read_bytes() for _, path in p["general"]] == [
        path.read_bytes() for _, path in q["general"]
    ]
    assert p["dim2"] != r["dim2"]
    assert [json.loads(path.read_text())["n"] for _, path in r["general"]] == [
        n for n, _ in workloads.GENERAL_DAGS
    ]


def _snapshot():
    state = {
        (name, attr): value
        for name, mod in spans.monoseq_modules().items()
        for attr, value in vars(mod).items()
    }
    state[("Permutation", "__post_init__")] = M.Permutation.__dict__["__post_init__"]
    return state


def test_patcher_reaches_every_namespace_and_restores_it():
    import monoseq.cuts as cuts
    import monoseq.posets as posets

    before = _snapshot()
    rec = spans.Recorder()
    with spans.patched(lambda name, fn: rec.wrap(name, fn)) as replaced:
        assert replaced > len(spans.public_functions())
        assert cuts.width is posets.width and hasattr(cuts.width, "__wrapped__")
        M.prune(M.poset_from_perm(M.Permutation((3, 1, 4, 2, 5))), 2, 1)
    names = {s[0] for s in rec.spans}
    parents = {rec.spans[s[3]][0] for s in rec.spans if s[0] == "posets.width" and s[3] >= 0}
    assert {"cuts.prune", "cuts.min_height_reducing_set", "perms.Permutation"} <= names
    assert "cuts.prune" in parents  # the copy of width bound in cuts was wrapped too
    assert _snapshot() == before

    with pytest.raises(RuntimeError):
        with spans.patched(lambda name, fn: rec.wrap(name, fn)):
            raise RuntimeError("boom")
    assert _snapshot() == before


def _small_runner(workload, tmp_path):
    session = workloads.Session()
    inputs = workloads.make_inputs(workload, 0, tmp_path)
    return session, runner.Runner(workloads.build_jobs(workload, inputs, session))


def test_exact_counts_agree_between_traced_and_untraced_runs(monkeypatch, tmp_path):
    rows = ((6, 2, 1), (7, 3, 1))
    expected = {}
    for n, k, _ in rows:
        report = M.verify_theorem(n, k)
        expected[(n, k)] = (report.single_type_count + report.mixed_count, report.mixed_count)
    monkeypatch.setattr(workloads, "THEOREM_ROWS", rows)
    monkeypatch.setattr(workloads, "THEOREM_WITNESSES", expected)
    monkeypatch.setattr(workloads, "PROBE_N", 5)

    for workload, key, per_layer in (
        ("theorem", "states_visited", "search.states_visited"),
        ("probe", "posets_visited", "search.posets_visited"),
    ):
        session, plain = _small_runner(workload, tmp_path)
        runner.run_untraced(plain, 0.0, lambda: spans.patched(session.tap))
        session, trc = _small_runner(workload, tmp_path)
        metrics = traced.run_traced(trc, 0.0, session, tmp_path)
        assert plain.failed == trc.failed == 0
        assert plain.exact_counts()[key] == metrics[per_layer]["value"] > 0
        assert set(metrics) == set(traced.PER_LAYER)


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == traced.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
