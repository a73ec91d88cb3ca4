"""Single command-line entry point for every engine in the package.

Output contract: JSON results are emitted with sorted keys and embed the
fully resolved run configuration, so identical invocations are
byte-identical (volatile wall-clock timings are therefore kept out of the
payload).  Exit codes: 0 success, 2 input validation, 3 budget exhaustion,
64 usage errors.  Flags beat the MONOSEQ_WORKERS / MONOSEQ_BUDGET
environment variables, which beat defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional, Sequence

from .config import DEFAULT_BUDGETS, Budgets
from .counting import brute_force_count, count_monotone, length_profile
from .cuts import prune
from .decomposition import decompose, index_sets, verify_example_structure
from .errors import BudgetExceededError, ValidationError
from .lemmas import (
    FunctionTable,
    LabeledTree,
    SetFamily,
    count_connected_subsets,
    distinguishing_sets,
    lower_shadow,
    signature_bound_check,
    surplus_conclusion_check,
)
from .perms import (
    build_sigma_extremal,
    build_tau,
    delta_formula,
    m_tau_formula,
    mu,
    param_split,
    parse_permutation,
    permutation_from_json,
)
from .posets import h_k, height, poset_from_json, surplus, width
from .search import exhaustive_min, heuristic_min, min_hk_over_posets, verify_theorem

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc


def _resolve_runtime(args) -> tuple[int, Budgets]:
    workers = args.workers if args.workers is not None else _env_int("MONOSEQ_WORKERS", 1)
    budget = (
        args.budget
        if args.budget is not None
        else _env_int("MONOSEQ_BUDGET", DEFAULT_BUDGETS.search_state_budget)
    )
    return workers, DEFAULT_BUDGETS.with_overrides(search_state_budget=budget)


def _config(args) -> dict:
    """The run configuration as resolved from flags, environment and defaults."""
    workers, budgets = _resolve_runtime(args)
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"func", "workers"} and value is not None and not callable(value)
    }
    return {
        "subcommand": args.subcommand,
        "flags": {k: (list(v) if isinstance(v, tuple) else v) for k, v in flags.items()},
        "output_format": getattr(args, "format", "json"),
        "seed": getattr(args, "seed", 0) or 0,
        "workers": workers,
        "budgets": {"search_state_budget": budgets.search_state_budget},
    }


def _write(text: str, path: Optional[str]) -> None:
    """Write text to the named file, or to stdout when no file is named."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)


def _read_input(args) -> str:
    """The text of the --input file, or of stdin when no file is named."""
    path = getattr(args, "input", None)
    try:
        if path:
            with open(path) as fh:
                return fh.read()
        return sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path or 'stdin'}: {exc}") from exc


def _is_int(value) -> bool:
    return type(value) is int  # unlike isinstance, rejects bool


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(x) for x in value)


_ints = _list_of(_is_int)
_scalars = _list_of(lambda x: not isinstance(x, (list, dict)))

# The keys each lemma payload must carry, with a check on each value.
_LEMMA_KEYS = {
    "shadow": {"ground_size": _is_int, "members": _list_of(_ints), "b": _is_int},
    "signatures": {"domain": _scalars, "rows": _list_of(_scalars)},
    "connected": {
        "t": _is_int,
        "edges": _list_of(lambda e: _ints(e) and len(e) == 2),
        "c": _is_int,
    },
    "signature-bound": {"poset": lambda v: isinstance(v, dict), "k": _is_int, "ell": _is_int},
    "surplus-bound": {"poset": lambda v: isinstance(v, dict), "k": _is_int, "t": _is_int},
}


def _read_lemma_payload(args) -> dict:
    data = json.loads(_read_input(args))
    keys = _LEMMA_KEYS[args.lemma]
    if not isinstance(data, dict):
        raise ValidationError(f"lemma {args.lemma} input must be an object with {sorted(keys)}")
    for key, check in keys.items():
        if key not in data or not check(data[key]):
            raise ValidationError(f"lemma {args.lemma} input lacks a well-formed {key!r}")
    if data.get("anchor") is not None and not _is_int(data["anchor"]):
        raise ValidationError("lemma anchor must be an integer")
    return data


def _cmd_count(args) -> int:
    _, budgets = _resolve_runtime(args)
    text = _read_input(args).strip()
    p = permutation_from_json(text) if text.startswith("{") else parse_permutation(text)
    report = count_monotone(p, args.k)
    payload = report.to_json_dict()
    payload["n"] = p.n
    if args.oracle:
        oracle = brute_force_count(p, args.k, budgets)
        payload["oracle"] = oracle.to_json_dict()
        payload["oracle_match"] = (
            oracle.increasing == report.increasing and oracle.decreasing == report.decreasing
        )
    if args.profile:
        payload["profile"] = length_profile(p, args.profile).to_json_dict()
    payload["config"] = _config(args)
    _emit(payload, args)
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.family == "tau":
        if args.n is None:
            raise ValidationError("construct tau requires --n")
        p = build_tau(args.k, args.n)
    else:
        p = build_sigma_extremal(args.k, args.variant)
    if args.json:
        payload = p.to_json_dict()
        payload["config"] = _config(args)
        _emit(payload, args)
    else:
        _write(p.to_line() + "\n", args.out)
    return EXIT_OK


def _cmd_formula(args) -> int:
    split = param_split(args.k, args.n)
    payload = {
        "m_tau": m_tau_formula(args.k, args.n),
        "ell": split.ell,
        "q": split.q,
        "r": split.r,
        "subcritical": split.subcritical,
    }
    if not split.subcritical:
        payload["delta"] = delta_formula(args.k, args.n)
    if args.n >= args.k + 1:
        frac = mu(args.k, args.n, payload["m_tau"])
        payload["mu"] = {"numerator": frac.numerator, "denominator": frac.denominator}
    payload["config"] = _config(args)
    _emit(payload, args)
    return EXIT_OK


def _cmd_poset(args) -> int:
    _, budgets = _resolve_runtime(args)
    P = poset_from_json(_read_input(args))
    payload: dict = {"n": P.n}
    if args.action == "decompose":
        dec = decompose(P)
        payload.update(
            {
                "height": height(P),
                "width": width(P),
                "levels": [sorted(x + 1 for x in lvl) for lvl in dec.levels],
                "u": [str(v) for v in dec.u],
                "sigma": [str(s) for s in dec.sigma],
                "a_prime": [sorted(x + 1 for x in lvl) for lvl in dec.a_prime],
                "a_double_prime": [sorted(x + 1 for x in lvl) for lvl in dec.a_double_prime],
                "b": [sorted(x + 1 for x in lvl) for lvl in dec.b],
                "c": [sorted(x + 1 for x in lvl) for lvl in dec.c],
                "d": [sorted(x + 1 for x in lvl) for lvl in dec.d],
            }
        )
        if args.k:
            ix = index_sets(P, args.k)
            payload["index_sets"] = {
                "f": sorted(ix.f),
                "f_prime": sorted(ix.f_prime),
                "f_double_prime": sorted(ix.f_double_prime),
                "s": None if ix.s is None else str(ix.s),
                "surplus": ix.surplus,
            }
    elif args.action == "hk":
        if not args.k:
            raise ValidationError("poset hk requires --k")
        payload["h_k"] = str(h_k(P, args.k, budgets))
    elif args.action == "surplus":
        if not args.k:
            raise ValidationError("poset surplus requires --k")
        payload["surplus"] = surplus(P, args.k)
        payload["height"] = height(P)
    elif args.action == "prune":
        if not args.t:
            raise ValidationError("poset prune requires --t")
        result = prune(P, args.k or 1, args.t)
        payload["prune"] = result.to_json_dict()
    elif args.action == "verify-example":
        if not args.k:
            raise ValidationError("poset verify-example requires --k")
        payload["report"] = verify_example_structure(P, args.k).to_json_dict()
    payload["config"] = _config(args)
    _emit(payload, args)
    return EXIT_OK


def _cmd_lemma(args) -> int:
    data = _read_lemma_payload(args)
    payload: dict
    if args.lemma == "shadow":
        family = SetFamily.from_lists(data["ground_size"], data["members"])
        shadow = lower_shadow(family, data["b"])
        payload = {
            "shadow_size": len(shadow.members),
            "members": sorted(sorted(m) for m in shadow.members),
        }
    elif args.lemma == "signatures":
        table = FunctionTable(
            domain=tuple(data["domain"]), rows=tuple(tuple(r) for r in data["rows"])
        )
        sets = distinguishing_sets(table)
        payload = {"sets": [sorted(s) for s in sets]}
    elif args.lemma == "connected":
        tree = LabeledTree(data["t"], frozenset((a, b) for a, b in data["edges"]))
        payload = {"count": str(count_connected_subsets(tree, data["c"]))}
    elif args.lemma == "signature-bound":
        P = poset_from_json(data["poset"])
        anchor = data.get("anchor")
        report = signature_bound_check(
            P, data["k"], data["ell"], None if anchor is None else anchor - 1
        )
        payload = {"report": report.to_json_dict()}
    else:  # surplus-bound
        P = poset_from_json(data["poset"])
        report = surplus_conclusion_check(P, data["k"], data["t"])
        payload = {"report": report.to_json_dict()}
    payload["config"] = _config(args)
    _emit(payload, args)
    return EXIT_OK


def _cmd_search(args) -> int:
    workers, budgets = _resolve_runtime(args)
    if args.mode == "exhaustive":
        result = exhaustive_min(args.n, args.k, budgets, workers)
        payload = result.to_json_dict()
        payload["formula"] = str(m_tau_formula(args.k, args.n))
        payload["match"] = result.minimum == m_tau_formula(args.k, args.n)
    elif args.mode == "heuristic":
        result = heuristic_min(args.n, args.k, trials=args.trials, seed=args.seed)
        payload = result.to_json_dict()
    else:  # posets
        result = min_hk_over_posets(args.n, args.k, budgets)
        payload = result.to_json_dict()
    payload["config"] = _config(args)

    if args.format == "csv" and args.mode == "exhaustive":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "k", "minimum", "formula", "match"])
        writer.writerow([args.n, args.k, payload["minimum"], payload["formula"], payload["match"]])
        _write(buf.getvalue(), args.out)
        return EXIT_OK
    _emit(payload, args)
    return EXIT_OK


def _cmd_repro(args) -> int:
    workers, budgets = _resolve_runtime(args)
    quick = args.quick
    theorem_rows = [(n, 2) for n in range(5, 8 if quick else 11)]
    if not quick:
        theorem_rows += [(10, 3), (11, 3)]
    probe_rows = [5] if quick else [5, 6, 7, 8, 9]

    main_buf = io.StringIO()
    writer = csv.writer(main_buf)
    writer.writerow(["n", "k", "exhaustive_min", "formula", "match", "mixed_minimizer_count"])
    for n, k in theorem_rows:
        rep = verify_theorem(n, k, budgets, workers)
        writer.writerow(
            [n, k, rep.exhaustive_minimum, rep.formula_value, rep.match, rep.mixed_count]
        )

    probe_buf = io.StringIO()
    pwriter = csv.writer(probe_buf)
    pwriter.writerow(["n", "k", "poset_min", "perm_min", "equal"])
    for n in probe_rows:
        res = min_hk_over_posets(n, 2, budgets)
        pwriter.writerow(
            [n, 2, res.minimum, res.permutation_minimum, res.minimum == res.permutation_minimum]
        )

    _write(main_buf.getvalue(), args.out)
    _write(probe_buf.getvalue(), args.out and args.out + ".q1.csv")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monoseq", description=__doc__)
    parser.add_argument("--workers", type=int, default=None, help="parallel workers for search")
    parser.add_argument("--budget", type=int, default=None, help="search node budget")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", parents=[], help="count monotone subsequences")
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--profile", type=int, default=None, metavar="LMAX")
    p_count.add_argument("--oracle", action="store_true")
    p_count.add_argument("--input", default=None)
    p_count.add_argument("--out", default=None)
    p_count.set_defaults(func=_cmd_count)

    p_con = sub.add_parser("construct", help="build the extremal permutations")
    p_con.add_argument("family", choices=["tau", "sigma"])
    p_con.add_argument("--k", type=int, required=True)
    p_con.add_argument("--n", type=int, default=None)
    p_con.add_argument("--variant", type=int, default=1, choices=[1, 2])
    p_con.add_argument("--json", action="store_true")
    p_con.add_argument("--out", default=None)
    p_con.set_defaults(func=_cmd_construct)

    p_for = sub.add_parser("formula", help="closed-form counts and the (ell, q, r) split")
    p_for.add_argument("--k", type=int, required=True)
    p_for.add_argument("--n", type=int, required=True)
    p_for.add_argument("--out", default=None)
    p_for.set_defaults(func=_cmd_formula)

    p_pos = sub.add_parser("poset", help="decomposition and poset statistics")
    p_pos.add_argument(
        "action", choices=["decompose", "hk", "surplus", "prune", "verify-example"]
    )
    p_pos.add_argument("--k", type=int, default=None)
    p_pos.add_argument("--t", type=int, default=None)
    p_pos.add_argument("--input", default=None)
    p_pos.add_argument("--out", default=None)
    p_pos.set_defaults(func=_cmd_poset)

    p_lem = sub.add_parser("lemma", help="auxiliary bound checkers")
    p_lem.add_argument(
        "lemma",
        choices=["shadow", "signatures", "connected", "signature-bound", "surplus-bound"],
    )
    p_lem.add_argument("--input", default=None)
    p_lem.add_argument("--out", default=None)
    p_lem.set_defaults(func=_cmd_lemma)

    p_sea = sub.add_parser("search", help="minimize over permutations or posets")
    p_sea.add_argument("mode", choices=["exhaustive", "heuristic", "posets"])
    p_sea.add_argument("--n", type=int, required=True)
    p_sea.add_argument("--k", type=int, required=True)
    p_sea.add_argument("--seed", type=int, default=0)
    p_sea.add_argument("--trials", type=int, default=100)
    p_sea.add_argument("--format", choices=["json", "csv"], default="json")
    p_sea.add_argument("--out", default=None)
    p_sea.set_defaults(func=_cmd_search)

    p_rep = sub.add_parser("repro", help="emit the verification tables")
    p_rep.add_argument("--quick", action="store_true", help="small smoke subset")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_repro)

    return parser


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
