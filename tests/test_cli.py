import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monoseq import cli
from monoseq.cli import (
    _LEMMAS,
    _POSET_ACTIONS,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    SURPLUS_T_MAX,
    build_parser,
    dispatch,
)
from monoseq.perms import (
    build_sigma_extremal,
    build_tau,
    delta_formula,
    m_tau_formula,
    mu,
    parse_permutation,
)
from monoseq.posets import poset_from_perm

# An integer literal of 5,001 digits, past the interpreter's default limit of
# 4,300 digits for converting between int and str.
HUGE_INT = "1" + "0" * 5000


def run_cli(argv, stdin_text=""):
    """Invoke the dispatcher in-process, capturing stdout."""
    buf = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(buf):
            code = dispatch(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def load_schema(name):
    path = resources.files("monoseq") / "schemas" / name
    return json.loads(path.read_text())


def poset_input(P):
    """A poset as CLI input text, checked against the documented poset schema."""
    data = P.to_json_dict()
    jsonschema.validate(data, load_schema("poset.schema.json"))
    return json.dumps(data)


class TestConstruct:
    def test_tau_line_output(self):
        code, out = run_cli(["construct", "tau", "--k", "3", "--n", "13"])
        assert code == EXIT_OK
        assert out.strip() == "9 10 11 12 13 5 6 7 8 1 2 3 4"

    def test_sigma_json_output(self):
        code, out = run_cli(["construct", "sigma", "--k", "3", "--variant", "2", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["values"] == list(build_sigma_extremal(3, 2).values)
        jsonschema.validate(
            {"n": payload["n"], "values": payload["values"]},
            load_schema("permutation.schema.json"),
        )

    def test_missing_n_is_validation_error(self):
        code, _ = run_cli(["construct", "tau", "--k", "3"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "sigma", "--k", "20000"],
            ["construct", "tau", "--k", "3", "--n", "100000000"],
        ],
        ids=["sigma", "tau"],
    )
    def test_past_the_size_cap_exits_3_before_building(self, argv, capsys):
        # Both sizes would take gigabytes if built; the cap refuses them first.
        assert run_cli(argv) == (EXIT_BUDGET, "")
        assert "construct size cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, flags, code",
        [
            ("tau", ["--k", "3", "--n", "100"], EXIT_OK),
            ("tau", ["--k", "3", "--n", "101"], EXIT_BUDGET),
            ("sigma", ["--k", "9"], EXIT_OK),  # n = 91
            ("sigma", ["--k", "10"], EXIT_BUDGET),  # n = 111
        ],
    )
    def test_size_cap_boundary(self, monkeypatch, family, flags, code):
        monkeypatch.setattr(cli, "CONSTRUCT_MAX_N", 100)
        assert run_cli(["construct", family, *flags])[0] == code

    def test_sigma_below_k_2_stays_a_validation_error(self):
        assert run_cli(["construct", "sigma", "--k", "-20000"])[0] == EXIT_VALIDATION


class TestFormula:
    def test_example_payload(self):
        code, out = run_cli(["formula", "--k", "3", "--n", "13"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["m_tau"] == 7 and payload["ell"] == 1 and payload["q"] == 1
        jsonschema.validate(payload, load_schema("formula.schema.json"))

    def test_subcritical_payload(self):
        code, out = run_cli(["formula", "--k", "3", "--n", "9"])
        payload = json.loads(out)
        assert payload["subcritical"] and "delta" not in payload

    def test_result_past_the_integer_digit_limit_exits_3(self, capsys):
        # mu's denominator has more digits than the interpreter will print.
        assert run_cli(["formula", "--k", "1300", "--n", "1691300"]) == (EXIT_BUDGET, "")
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "PYTHONINTMAXSTRDIGITS=0" in err
        assert run_cli(["formula", "--k", "1200", "--n", "1441200"])[0] == EXIT_OK

    @pytest.mark.parametrize(
        "k, n", [(200_000, 40_000_000_001), (100_000, 10**12), (500_000, 250_000_000_001)]
    )
    def test_unprintable_result_exits_3_before_it_is_computed(self, capsys, k, n):
        start = time.perf_counter()
        assert run_cli(["formula", "--k", str(k), "--n", str(n)]) == (EXIT_BUDGET, "")
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err == (
            "result too large: an integer has over 4300 digits; set PYTHONINTMAXSTRDIGITS=0\n"
        )

    def test_early_exit_only_where_printing_fails(self):
        # At the least digit limit, each (k, n) exits 3 exactly when one of
        # its integers has more digits than the limit allows.  At (30, 3e22),
        # C(n, 31) has more digits than that but m_tau and mu do not.
        old, limit = sys.get_int_max_str_digits(), 640
        cases = [(k, k * k + d) for k in (60, 150, 300) for d in (-1, 0, 1, k + 1, 5 * k * k)]
        cases.append((30, 3 * 10**22))
        codes = []
        try:
            for k, n in cases:
                sys.set_int_max_str_digits(0)
                big = [m_tau_formula(k, n)]
                if n > k * k:
                    big.append(delta_formula(k, n))
                if n > k:
                    frac = mu(k, n, big[0])
                    big += [frac.numerator, frac.denominator]
                fails = any(len(str(x)) > limit for x in big)
                sys.set_int_max_str_digits(limit)
                codes.append(run_cli(["formula", "--k", str(k), "--n", str(n)])[0])
                assert codes[-1] == (EXIT_BUDGET if fails else EXIT_OK), (k, n)
        finally:
            sys.set_int_max_str_digits(old)
        assert {EXIT_OK, EXIT_BUDGET} <= set(codes)


class TestCount:
    def test_sigma_counts_from_stdin(self):
        line = build_sigma_extremal(3, 2).to_line()
        code, out = run_cli(["count", "--k", "3"], stdin_text=line)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["increasing"], payload["decreasing"], payload["total"]) == (5, 2, 7)
        jsonschema.validate(payload, load_schema("count.schema.json"))

    def test_oracle_and_profile_flags(self):
        code, out = run_cli(
            ["count", "--k", "2", "--oracle", "--profile", "3"], stdin_text="2 1 4 3"
        )
        payload = json.loads(out)
        assert payload["oracle_match"]
        assert payload["profile"]["2"] == {"increasing": 4, "decreasing": 2}

    def test_profile_past_n_is_validation_error(self, capsys):
        code, out = run_cli(["count", "--k", "2", "--profile", "4"], stdin_text="1 2 3")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "n = 3" in capsys.readouterr().err
        code, out = run_cli(["count", "--k", "2", "--profile", "3"], stdin_text="1 2 3")
        assert json.loads(out)["profile"]["3"] == {"increasing": 1, "decreasing": 0}

    @pytest.mark.parametrize("lmax", ["0", "1", "-2"])
    def test_profile_below_two_is_validation_error(self, lmax, capsys):
        code, out = run_cli(["count", "--k", "2", "--profile", lmax], stdin_text="1 2 3")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "Lmax must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_round_trip_reproduces_formula(self, k):
        for n in range(1, 21):
            _, line = run_cli(["construct", "tau", "--k", str(k), "--n", str(n)])
            code, out = run_cli(["count", "--k", str(k)], stdin_text=line)
            assert code == EXIT_OK
            payload = json.loads(out)
            assert payload["total"] == m_tau_formula(k, n), (k, n)

    def test_rejects_garbage(self, tmp_path):
        code, _ = run_cli(["count", "--k", "2"], stdin_text="1 1 2")
        assert code == EXIT_VALIDATION
        code, _ = run_cli(["count", "--k", "1"], stdin_text='{"values":[true]}')
        assert code == EXIT_VALIDATION
        code, _ = run_cli(["count", "--k", "1"], stdin_text='{"values":5}')
        assert code == EXIT_VALIDATION
        code, _ = run_cli(["count", "--k", "2"], stdin_text='{"values": ' + "[" * 200_000)
        assert code == EXIT_VALIDATION
        code, _ = run_cli(["count", "--k", "2"], stdin_text='{"values": [%s]}' % HUGE_INT)
        assert code == EXIT_VALIDATION
        code, _ = run_cli(["count", "--k", "1", "--input", str(tmp_path / "missing")])
        assert code == EXIT_VALIDATION


class TestPoset:
    def test_decompose_payload(self):
        P = poset_from_perm(build_sigma_extremal(3, 1))
        code, out = run_cli(
            ["poset", "decompose", "--k", "3"], stdin_text=poset_input(P)
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["height"] == 4 and payload["width"] == 4
        assert payload["index_sets"]["f"] == [1]
        assert [len(lvl) for lvl in payload["levels"]] == [4, 3, 3, 3]

    def test_hk_and_surplus(self):
        P = poset_from_perm(build_tau(3, 13))
        text = poset_input(P)
        _, out = run_cli(["poset", "hk", "--k", "3"], stdin_text=text)
        assert json.loads(out)["h_k"] == "7"
        _, out = run_cli(["poset", "surplus", "--k", "3"], stdin_text=text)
        assert json.loads(out)["surplus"] == -2

    def test_input_file_reads_like_stdin(self, tmp_path):
        text = poset_input(poset_from_perm(build_tau(2, 7)))
        path = tmp_path / "poset.json"
        path.write_text(text)
        from_file = run_cli(["poset", "hk", "--k", "2", "--input", str(path)])
        from_stdin = run_cli(["poset", "hk", "--k", "2"], stdin_text=text)
        assert from_file[0] == EXIT_OK
        # The embedded config names the --input file; nothing else differs.
        payload = json.loads(from_file[1])
        del payload["config"]["flags"]["input"]
        assert payload == json.loads(from_stdin[1])

    def test_action_without_its_flag_is_validation_error(self):
        text = poset_input(poset_from_perm(build_tau(2, 7)))
        assert run_cli(["poset", "hk"], stdin_text=text) == (EXIT_VALIDATION, "")

    @pytest.mark.parametrize("action, k", [("decompose", "-1"), ("verify-example", "1")])
    def test_k_out_of_range_is_validation_error(self, action, k):
        text = poset_input(poset_from_perm(build_sigma_extremal(3, 2)))
        assert run_cli(["poset", action, "--k", k], stdin_text=text) == (EXIT_VALIDATION, "")

    @pytest.mark.parametrize(
        "action, flag",
        [("decompose", "--k"), ("hk", "--k"), ("surplus", "--k"), ("verify-example", "--k"),
         ("prune", "--t")],
    )
    def test_zero_flag_reaches_the_range_check(self, action, flag, capsys):
        text = poset_input(poset_from_perm(build_sigma_extremal(3, 2)))
        assert run_cli(["poset", action, flag, "0"], stdin_text=text) == (EXIT_VALIDATION, "")
        assert "must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            pytest.param(["poset", "hk", "--k", "2"], '{"n": %d, "relation": []}' % 10**20,
                         id="hk"),
            pytest.param(["poset", "decompose"], '{"n": 20001, "relation": [], "witness": [1]}',
                         id="decompose-with-witness"),
            pytest.param(["lemma", "surplus-bound"],
                         '{"poset": {"n": %d}, "k": 2, "t": 1}' % 10**20, id="surplus-bound"),
            pytest.param(["lemma", "signature-bound"],
                         '{"poset": {"n": %d}, "k": 2, "ell": 1}' % 10**20, id="signature-bound"),
        ],
    )
    def test_poset_past_size_cap_is_budget_error(self, argv, stdin_text, capsys):
        assert run_cli(argv, stdin_text=stdin_text) == (EXIT_BUDGET, "")
        assert "poset size cap 20000" in capsys.readouterr().err

    def test_prune_trace(self):
        P = poset_from_perm(parse_permutation("1 2 3"))
        code, out = run_cli(
            ["poset", "prune", "--k", "2", "--t", "1"], stdin_text=poset_input(P)
        )
        payload = json.loads(out)
        assert payload["prune"]["final"]["n"] == 0
        jsonschema.validate(payload["prune"]["final"], load_schema("poset.schema.json"))
        assert len(payload["prune"]["rounds"]) == 3
        # Each round removes the bottom of what is left, id 1 in the relabeled poset.
        assert [r["removed"] for r in payload["prune"]["rounds"]] == [[1], [1], [1]]

    @pytest.mark.parametrize("k", ["-5", "0"])
    def test_prune_k_out_of_range_is_validation_error(self, k, capsys):
        text = poset_input(poset_from_perm(parse_permutation("1 2 3")))
        argv = ["poset", "prune", "--k", k, "--t", "1"]
        assert run_cli(argv, stdin_text=text) == (EXIT_VALIDATION, "")
        assert "k must be >= 1" in capsys.readouterr().err
        code, out = run_cli(["poset", "prune", "--t", "1"], stdin_text=text)
        assert code == EXIT_OK and "k" not in json.loads(out)["config"]["flags"]

    def test_verify_example(self):
        P = poset_from_perm(build_sigma_extremal(3, 2))
        code, out = run_cli(
            ["poset", "verify-example", "--k", "3"], stdin_text=poset_input(P)
        )
        payload = json.loads(out)
        assert payload["report"]["case"] == "ii" and payload["report"]["passed"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":2,"relation":[[1]]}',
            '{"n":"3"}',
            '{"n":3,"relation":[],"witness":5}',
            "{n: 3",
            '{"n":3,"relation":[[1,2]],"witness":[]}',
            '{"n":-1,"relation":[]}',
            '{"n":2,"relation":[[1,3]]}',
            '{"n":2,"relation":[],"witness":[1]}',
            pytest.param("[" * 200_000, id="nested-too-deeply-to-parse"),
            pytest.param('{"n": %s, "relation": []}' % HUGE_INT, id="integer-past-digit-limit"),
        ],
    )
    def test_malformed_json_is_validation_error(self, text):
        code, _ = run_cli(["poset", "hk", "--k", "2"], stdin_text=text)
        assert code == EXIT_VALIDATION


class TestLemma:
    def test_shadow(self):
        payload = {"ground_size": 4, "members": [[0, 1], [2, 3]], "b": 1}
        code, out = run_cli(["lemma", "shadow"], stdin_text=json.dumps(payload))
        assert json.loads(out)["shadow_size"] == 4

    def test_signatures(self):
        payload = {"domain": ["a"], "rows": [[0], [1]]}
        code, out = run_cli(["lemma", "signatures"], stdin_text=json.dumps(payload))
        assert json.loads(out)["sets"] == [[], ["a"]]

    def test_signatures_columns_of_one_type_each(self):
        payload = {"domain": [0, 1], "rows": [[1, "a"], [2, "b"]]}
        code, out = run_cli(["lemma", "signatures"], stdin_text=json.dumps(payload))
        assert code == EXIT_OK
        assert json.loads(out)["sets"] == [[], [0]]

    def test_connected(self):
        payload = {"t": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "c": 3}
        code, out = run_cli(["lemma", "connected"], stdin_text=json.dumps(payload))
        assert json.loads(out)["count"] == "3"

    def test_signature_bound(self):
        P = poset_from_perm(parse_permutation("1 2 3 4 5 6 7 8 9 10"))
        payload = {"poset": P.to_json_dict(), "k": 8, "ell": 2}
        code, out = run_cli(["lemma", "signature-bound"], stdin_text=json.dumps(payload))
        report = json.loads(out)["report"]
        assert report["preconditions_hold"] and report["satisfied"]

    def test_signature_bound_anchor_off_every_maximum_chain(self):
        # Height 3 through 2 < 3 < 4; the element at position 3 lies only below 4.
        P = poset_from_perm(parse_permutation("2 3 1 4"))
        payload = {"poset": P.to_json_dict(), "k": 2, "ell": 1, "anchor": 3}
        code, out = run_cli(["lemma", "signature-bound"], stdin_text=json.dumps(payload))
        report = json.loads(out)["report"]
        assert code == EXIT_OK
        assert report["max_chain_count"] == "0" and not report["preconditions_hold"]
        assert report["precondition_detail"] == "no maximum chains (M = 0)"

    def test_surplus_bound_at_a_threshold_the_float_seed_missed(self):
        # t = 108 is the least t whose 2 ** (sqrt(t) - 1) ceiling a float
        # seed with rational log2 bounds failed to certify.
        P = poset_from_perm(parse_permutation("3 2 1"))
        payload = {"poset": P.to_json_dict(), "k": 2, "t": 108}
        code, out = run_cli(["lemma", "surplus-bound"], stdin_text=json.dumps(payload))
        assert code == EXIT_OK
        assert json.loads(out)["report"]["threshold"] == "672"

    def test_surplus_bound_rejects_t_past_its_cap(self):
        P = poset_from_perm(parse_permutation("3 2 1"))
        for t, expected in ((SURPLUS_T_MAX, EXIT_OK), (SURPLUS_T_MAX + 1, EXIT_VALIDATION)):
            payload = {"poset": P.to_json_dict(), "k": 2, "t": t}
            code, _ = run_cli(["lemma", "surplus-bound"], stdin_text=json.dumps(payload))
            assert code == expected, t

    def test_surplus_bound(self):
        P = poset_from_perm(parse_permutation("3 2 1"))
        payload = {"poset": P.to_json_dict(), "k": 2, "t": 1}
        code, out = run_cli(["lemma", "surplus-bound"], stdin_text=json.dumps(payload))
        assert json.loads(out)["report"]["verdict"] is None

    def test_shadow_of_empty_family_with_huge_b(self):
        # The bound min(|F|, 2^(b+1)) must not build 2^(b+1) to find |F| = 0.
        payload = {"ground_size": 0, "members": [], "b": 10**12}
        start = time.perf_counter()
        code, out = run_cli(["lemma", "shadow"], stdin_text=json.dumps(payload))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and json.loads(out)["shadow_size"] == 0

    @pytest.mark.parametrize(
        "lemma, text",
        [
            ("shadow", '{"x": 1}'),
            ("connected", "[1,2]"),
            ("connected", '{"t":3,"edges":[[0]],"c":1}'),
            ("signature-bound", '{"poset":{"n":2},"k":"1","ell":1}'),
            ("signature-bound", '{"poset":{"n":2},"k":1,"ell":1,"anchor":"1"}'),
            ("signatures", '{"domain":[[0]],"rows":[[1]]}'),
            # Values that cannot be ordered against each other: in one column,
            # or among the domain points.
            ("signatures", '{"domain":[0],"rows":[[1],[null]]}'),
            ("signatures", '{"domain":[0,1],"rows":[[1,"a"],[2,"b"],["x",3]]}'),
            (
                "signatures",
                '{"domain":[0,"a"],"rows":[[1,1],[1,2],[1,3],[2,1],[2,2],[3,1],[3,3],[4,4]]}',
            ),
            ("surplus-bound", '{"poset":{"n":3},"k":2}'),
            ("shadow", '{"ground_size":-1,"members":[],"b":1}'),
            ("shadow", '{"ground_size":2,"members":[[0,5]],"b":1}'),
            ("shadow", '{"ground_size":2,"members":[],"b":0}'),
            ("signatures", '{"domain":[0,0],"rows":[[1,2]]}'),
            ("signatures", '{"domain":[0],"rows":[[1,2]]}'),
            ("connected", '{"t":0,"edges":[],"c":1}'),
            ("connected", '{"t":2,"edges":[[0,5]],"c":1}'),
            ("connected", '{"t":4,"edges":[[0,1],[1,2],[2,0]],"c":1}'),
            ("signature-bound", '{"poset":{"n":2,"relation":[]},"k":0,"ell":1}'),
            ("signature-bound", '{"poset":{"n":2,"relation":[[1,2]]},"k":1,"ell":1,"anchor":5}'),
            ("surplus-bound", '{"poset":{"n":3,"relation":[]},"k":2,"t":0}'),
            pytest.param("shadow", "[" * 200_000, id="shadow-nested-too-deeply-to-parse"),
        ],
    )
    def test_malformed_payload_is_validation_error(self, lemma, text):
        code, _ = run_cli(["lemma", lemma], stdin_text=text)
        assert code == EXIT_VALIDATION


class TestSearch:
    def test_exhaustive_json(self):
        code, out = run_cli(["search", "exhaustive", "--n", "6", "--k", "2"])
        payload = json.loads(out)
        assert payload["minimum"] == "2" and payload["match"]
        jsonschema.validate(payload, load_schema("search.schema.json"))

    def test_exhaustive_csv(self):
        code, out = run_cli(["search", "exhaustive", "--n", "6", "--k", "2", "--format", "csv"])
        assert out.splitlines() == ["n,k,minimum,formula,match", "6,2,2,2,True"]

    @pytest.mark.parametrize("mode", ["heuristic", "posets"])
    def test_csv_is_for_exhaustive_only(self, mode):
        code, out = run_cli(["search", mode, "--n", "5", "--k", "2", "--format", "csv"])
        assert (code, out) == (EXIT_VALIDATION, "")

    def test_posets_mode(self):
        code, out = run_cli(["search", "posets", "--n", "5", "--k", "2"])
        payload = json.loads(out)
        assert payload["minimum"] == "1" and payload["permutation_minimum"] == "1"
        jsonschema.validate(payload, load_schema("search.schema.json"))

    def test_heuristic_mode(self):
        code, out = run_cli(
            ["search", "heuristic", "--n", "13", "--k", "3", "--trials", "2", "--seed", "5"]
        )
        payload = json.loads(out)
        assert payload["is_upper_bound"] and int(payload["minimum"]) <= 7

    def test_heuristic_negative_trials_is_validation_error(self):
        code, out = run_cli(["search", "heuristic", "--n", "5", "--k", "2", "--trials", "-1"])
        assert (code, out) == (EXIT_VALIDATION, "")

    def test_heuristic_with_k_far_past_n(self):
        code, out = run_cli(["search", "heuristic", "--n", "12", "--k", "1000000000"])
        assert code == EXIT_OK and json.loads(out)["minimum"] == "0"

    def test_budget_exit_code(self):
        code, _ = run_cli(["--budget", "10", "search", "exhaustive", "--n", "8", "--k", "2"])
        assert code == EXIT_BUDGET

    def test_negative_budget_is_validation_error(self, monkeypatch, capsys):
        code, out = run_cli(["--budget", "-5", "formula", "--k", "3", "--n", "13"])
        assert (code, out) == (EXIT_VALIDATION, "")
        monkeypatch.setenv("MONOSEQ_BUDGET", "-5")
        code, out = run_cli(["search", "exhaustive", "--n", "5", "--k", "2"])
        assert (code, out) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err.count("search budget must be >= 0") == 2
        # A budget of 0 is valid; it only fails a run that visits a node.
        monkeypatch.setenv("MONOSEQ_BUDGET", "0")
        code, out = run_cli(["formula", "--k", "3", "--n", "13"])
        assert code == EXIT_OK
        assert json.loads(out)["config"]["budgets"] == {"search_state_budget": 0}

    def test_posets_k1_at_the_size_cap(self):
        code, out = run_cli(["search", "posets", "--n", "9", "--k", "1"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["minimum"] == "36" and payload["witness_relation"] == []
        assert payload["posets_visited"] == 0

    def test_posets_size_cap_exit_code(self):
        code, _ = run_cli(["search", "posets", "--n", "10", "--k", "2"])
        assert code == EXIT_BUDGET


class TestRepro:
    def test_quick_tables(self):
        code, out = run_cli(["repro", "--quick"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,k,exhaustive_min,formula,match,mixed_minimizer_count"
        assert "5,2,1,1,True,0" in lines
        assert "7,2,5,5,True,7" in lines
        assert "n,k,poset_min,perm_min,equal" in lines
        assert "5,2,1,1,True" in lines

    def test_out_files(self, tmp_path):
        out_path = tmp_path / "tables.csv"
        code, _ = run_cli(["repro", "--quick", "--out", str(out_path)])
        assert code == EXIT_OK
        assert out_path.exists() and Path(str(out_path) + ".q1.csv").exists()


class TestContracts:
    def test_usage_error_exit_code(self):
        code, _ = run_cli(["no-such-command"])
        assert code == EXIT_USAGE
        code, _ = run_cli(["count", "--wat"])
        assert code == EXIT_USAGE

    def test_parser_is_built_once_and_keeps_no_arguments(self, capsys):
        assert build_parser() is build_parser()
        text = poset_input(poset_from_perm(build_tau(2, 7)))
        assert run_cli(["poset", "hk", "--k", "3"], stdin_text=text)[0] == EXIT_OK
        assert run_cli(["poset", "hk"], stdin_text=text) == (EXIT_VALIDATION, "")
        assert "requires --k" in capsys.readouterr().err
        code, out = run_cli(["--help"])
        assert code == EXIT_OK and out.startswith("usage: monoseq")

    def test_byte_identical_reruns(self):
        a = run_cli(["search", "exhaustive", "--n", "6", "--k", "2"])
        b = run_cli(["search", "exhaustive", "--n", "6", "--k", "2"])
        assert a == b
        a = run_cli(["formula", "--k", "2", "--n", "9"])
        b = run_cli(["formula", "--k", "2", "--n", "9"])
        assert a == b

    def test_env_variable_precedence(self, monkeypatch):
        monkeypatch.setenv("MONOSEQ_BUDGET", "10")
        code, _ = run_cli(["search", "exhaustive", "--n", "8", "--k", "2"])
        assert code == EXIT_BUDGET
        # An explicit flag beats the environment.
        code, _ = run_cli(
            ["--budget", "100000000", "search", "exhaustive", "--n", "8", "--k", "2"]
        )
        assert code == EXIT_OK

    def test_config_header_reports_resolved_values(self, monkeypatch):
        _, out = run_cli(["--workers", "2", "formula", "--k", "2", "--n", "5"])
        payload = json.loads(out)
        assert payload["config"]["workers"] == 2
        assert payload["config"]["subcommand"] == "formula"
        # A budget from the environment is the one reported.
        monkeypatch.setenv("MONOSEQ_BUDGET", "123456")
        _, out = run_cli(["search", "exhaustive", "--n", "5", "--k", "2"])
        assert json.loads(out)["config"]["budgets"] == {"search_state_budget": 123456}

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "monoseq.cli", "construct", "tau", "--k", "2", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3 4 5 1 2"

    def test_unwritable_out_is_validation_error(self, tmp_path):
        argv = ["formula", "--k", "2", "--n", "5", "--out", str(tmp_path / "missing" / "x")]
        assert run_cli(argv) == (EXIT_VALIDATION, "")

    def test_malformed_environment_fails_before_the_command_runs(self, monkeypatch):
        monkeypatch.setenv("MONOSEQ_WORKERS", "x")
        # The oracle on n = 40 would exceed its subset budget (exit 3).
        line = " ".join(map(str, range(40, 0, -1)))
        assert run_cli(["count", "--k", "10", "--oracle"], line) == (EXIT_VALIDATION, "")
        # Text output embeds no config, and still fails the same way.
        argv = ["construct", "tau", "--k", "2", "--n", "5"]
        assert run_cli(argv) == (EXIT_VALIDATION, "")

    @pytest.mark.parametrize(
        "argv, stdin_text",
        [
            (["count", "--k", "2", "--oracle"], "2 1 4 3"),
            (["construct", "tau", "--k", "3", "--n", "13"], ""),
            (["construct", "tau", "--k", "3", "--n", "13", "--json"], ""),
            (["formula", "--k", "3", "--n", "13"], ""),
            (["poset", "decompose", "--k", "2"], '{"n":2,"relation":[[1,2]],"witness":[1,2]}'),
            (["lemma", "shadow"], '{"ground_size": 4, "members": [[0, 1], [2, 3]], "b": 1}'),
            (["search", "exhaustive", "--n", "6", "--k", "2"], ""),
            (["search", "exhaustive", "--n", "6", "--k", "2", "--format", "csv"], ""),
        ],
    )
    def test_out_file_holds_what_stdout_gets(self, tmp_path, argv, stdin_text):
        code, out = run_cli(argv, stdin_text)
        path = tmp_path / "out"
        code_file, printed = run_cli(argv + ["--out", str(path)], stdin_text)
        assert (code, code_file, printed) == (EXIT_OK, EXIT_OK, "")
        expected = out
        if out.startswith("{"):
            # The embedded config names the --out file too; nothing else differs.
            payload = json.loads(out)
            payload["config"]["flags"]["out"] = str(path)
            expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()


# Fuzzing the whole boundary: drawn flags, environment and stdin, in-process.
_small = st.integers(-1, 7)
_KEYS = ["n", "relation", "witness", "values", "domain", "rows", "ground_size", "members",
         "b", "t", "edges", "c", "poset", "k", "ell", "anchor"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)
_stdin = (
    _json_values.map(json.dumps)
    | st.lists(st.integers(0, 8), max_size=8).map(lambda v: " ".join(map(str, v)))
    | st.text(max_size=20)
    | st.sampled_from(_KEYS).map(lambda key: '{"%s": %s}' % (key, HUGE_INT))
    | st.just('{"n": %d, "relation": []}' % 10**20)
)


def _opt(flag, values):
    """Either nothing or the flag with a drawn value."""
    return st.none() | values.map(lambda v: [flag, str(v)])


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps if p for x in p])


_k = st.integers(-1, 3)
_SUBCOMMANDS = st.one_of(
    _argv(st.just(["count"]), _opt("--k", _k), st.sampled_from([[], ["--oracle"]]),
          _opt("--profile", _small)),
    _argv(st.just(["construct"]), st.sampled_from([["tau"], ["sigma"]]), _opt("--k", _k),
          _opt("--n", _small), _opt("--variant", st.integers(0, 2)),
          st.sampled_from([[], ["--json"]])),
    _argv(st.just(["formula"]), _opt("--k", _k), _opt("--n", _small))
    # Rarely, a result past the integer digit limit.
    | st.just(["formula", "--k", "1300", "--n", "1691300"]),
    _argv(st.just(["poset"]), st.sampled_from(list(_POSET_ACTIONS)).map(lambda a: [a]),
          _opt("--k", _k), _opt("--t", st.integers(-1, 3))),
    _argv(st.just(["lemma"]), st.sampled_from(list(_LEMMAS)).map(lambda a: [a])),
    _argv(st.just(["search"]), st.sampled_from([["exhaustive"], ["heuristic"], ["posets"]]),
          _opt("--n", _small), _opt("--k", _k), _opt("--seed", st.integers(-1, 3)),
          _opt("--trials", st.integers(-1, 3)), _opt("--format", st.sampled_from(["json", "csv"]))),
    _argv(st.just(["repro", "--quick"])),
)
_GLOBAL = _argv(_opt("--workers", st.integers(-1, 2)),
                _opt("--budget", st.sampled_from([-1, 0, 10, 10_000, 10**9])))
_BAD_ENV = ["x", "", "1.5"]


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    glob=_GLOBAL,
    sub=_SUBCOMMANDS,
    extra=st.sampled_from([[], [], [], ["--out"], ["--wat"]]),
    stdin_text=_stdin,
    workers_env=st.sampled_from([None, "1", "2"] + _BAD_ENV),
    budget_env=st.sampled_from([None, "0", "100"] + _BAD_ENV),
)
@example(
    glob=[],
    sub=["lemma", "signatures"],
    extra=[],
    stdin_text='{"domain":[0],"rows":[[1],[null]]}',
    workers_env=None,
    budget_env=None,
)
def test_fuzzed_invocations_keep_the_exit_code_contract(
    glob, sub, extra, stdin_text, workers_env, budget_env
):
    env = {"MONOSEQ_WORKERS": workers_env, "MONOSEQ_BUDGET": budget_env}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        for name, value in env.items():
            os.environ.pop(name, None)
            if value is not None:
                os.environ[name] = value
        if extra == ["--out"]:
            extra = ["--out", os.path.join(tmp, "out")]
        code, _ = run_cli(glob + sub + extra, stdin_text)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_BUDGET, EXIT_USAGE)
