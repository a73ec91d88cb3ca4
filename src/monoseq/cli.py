"""Single command-line entry point for every engine in the package.

Output contract: JSON results are emitted with sorted keys and embed the
fully resolved run configuration, so identical invocations are
byte-identical (volatile wall-clock timings are therefore kept out of the
payload).  Exit codes: 0 success, 2 input validation, 3 budget exhaustion
or a result integer too long to print, 64 usage errors.  Flags beat the
MONOSEQ_WORKERS / MONOSEQ_BUDGET environment variables, which beat defaults.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Optional, Sequence

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
from .numeric import log2_lower, log2_upper
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
from .search import (
    DEFAULT_BUDGETS,
    Budgets,
    exhaustive_min,
    heuristic_min,
    min_hk_over_posets,
    verify_theorem,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
# Largest t that lemma surplus-bound accepts.
SURPLUS_T_MAX = 1_000_000
# Longest permutation that construct builds or search heuristic starts from.
CONSTRUCT_MAX_N = 1_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _flag_or_env(flag: Optional[int], name: str, default: int) -> int:
    """The flag's value, else the named environment variable's, else the default."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {raw!r}") from exc


def _resolve_runtime(args) -> tuple[int, Budgets]:
    workers = _flag_or_env(args.workers, "MONOSEQ_WORKERS", 1)
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    budget = _flag_or_env(args.budget, "MONOSEQ_BUDGET", DEFAULT_BUDGETS.search_state_budget)
    return workers, DEFAULT_BUDGETS.with_overrides(search_state_budget=budget)


def _config(args) -> dict:
    """The run configuration as resolved from flags, environment and defaults."""
    workers, budgets = args.runtime
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in {"func", "workers", "runtime"}
        and value is not None
        and not callable(value)
    }
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "output_format": getattr(args, "format", "json"),
        "seed": getattr(args, "seed", 0) or 0,
        "workers": workers,
        "budgets": {"search_state_budget": budgets.search_state_budget},
    }


def _write(text: str, path: Optional[str]) -> None:
    """Write text to the named file, or to stdout when no file is named."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


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


def _json(text: str):
    """Parse JSON input; malformed text, too deep nesting or an integer literal
    past the interpreter's digit limit is a validation error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed JSON input: {exc}") from exc


def _is_int(value) -> bool:
    return type(value) is int  # unlike isinstance, rejects bool


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(x) for x in value)


_ints = _list_of(_is_int)
_scalars = _list_of(lambda x: not isinstance(x, (list, dict)))


def _is_dict(value) -> bool:
    return isinstance(value, dict)


def _cmd_count(args) -> dict:
    text = _read_input(args).strip()
    p = permutation_from_json(_json(text)) if text.startswith("{") else parse_permutation(text)
    report = count_monotone(p, args.k)
    payload = report.to_json_dict()
    payload["n"] = p.n
    if args.oracle:
        oracle = brute_force_count(p, args.k)
        payload["oracle"] = oracle.to_json_dict()
        payload["oracle_match"] = (
            oracle.increasing == report.increasing and oracle.decreasing == report.decreasing
        )
    if args.profile is not None:
        if args.profile > p.n:
            raise ValidationError(f"--profile {args.profile} exceeds the length n = {p.n}")
        payload["profile"] = length_profile(p, args.profile).to_json_dict()
    return payload


def _refuse_past_construct_cap(n: int) -> None:
    """Refuse a permutation longer than CONSTRUCT_MAX_N before building it."""
    if n > CONSTRUCT_MAX_N:
        message = f"n = {n} exceeds the construct size cap {CONSTRUCT_MAX_N}"
        raise BudgetExceededError(message, needed=n, budget=CONSTRUCT_MAX_N)


def _cmd_construct(args) -> dict | str:
    if args.family == "tau":
        if args.n is None:
            raise ValidationError("construct tau requires --n")
        n = args.n
    else:
        n = args.k * args.k + args.k + 1 if args.k >= 2 else 0  # k < 2 fails in the builder
    _refuse_past_construct_cap(n)
    p = build_tau(args.k, n) if args.family == "tau" else build_sigma_extremal(args.k, args.variant)
    return p.to_json_dict() if args.json else p.to_line() + "\n"


def _refuse_unprintable(x: int, m: int, shift: int) -> None:
    """Raise now the ValueError that printing an integer of at least
    C(x, m) / 2**shift would raise once built, from C(x, m) >= (x/m')**m'
    with m' = min(m, x - m)."""
    limit, m = sys.get_int_max_str_digits(), min(m, x - m)
    if limit and m > 0 and m * (log2_lower(x) - log2_upper(m)) - shift > limit * log2_upper(10):
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer string conversion")


def _cmd_formula(args) -> dict:
    """Each integer is bounded from below before it is computed, so one too
    long to print fails at once: m_tau >= C(n//k, k+1) and mu's reduced
    denominator is at least C(n, k+1) / m_tau."""
    k, n = args.k, args.n
    split = param_split(k, n)
    _refuse_unprintable(n // k, k + 1, 0)
    m_tau = m_tau_formula(k, n)
    payload = {
        "m_tau": m_tau,
        "ell": split.ell,
        "q": split.q,
        "r": split.r,
        "subcritical": split.subcritical,
    }
    if not split.subcritical:
        _refuse_unprintable(k + split.ell, k, 0)
        payload["delta"] = delta_formula(k, n)
    if n >= k + 1:
        if m_tau:
            _refuse_unprintable(n, k + 1, m_tau.bit_length())
        frac = mu(k, n, m_tau)
        payload["mu"] = {"numerator": frac.numerator, "denominator": frac.denominator}
    return payload


def _ids(groups) -> list:
    """Each group of 0-based ids as a sorted list of 1-based ids."""
    return [sorted(x + 1 for x in group) for group in groups]


def _decompose(P, k) -> dict:
    dec = decompose(P)
    payload = {
        "height": dec.h,
        "width": width(P),
        "levels": _ids(dec.levels),
        "u": [str(v) for v in dec.u],
        "sigma": [str(s) for s in dec.sigma],
        "a_prime": _ids(dec.a_prime),
        "a_double_prime": _ids(dec.a_double_prime),
        "b": _ids(dec.b),
        "c": _ids(dec.c),
        "d": _ids(dec.d),
    }
    if k is not None:
        ix = index_sets(P, k)
        payload["index_sets"] = {
            "f": sorted(ix.f),
            "f_prime": sorted(ix.f_prime),
            "f_double_prime": sorted(ix.f_double_prime),
            "s": None if ix.s is None else str(ix.s),
            "surplus": ix.surplus,
        }
    return payload


# Each poset action: the flag it requires (None if none) and its fields.
_POSET_ACTIONS = {
    "decompose": (None, lambda P, a: _decompose(P, a.k)),
    "hk": ("k", lambda P, a: {"h_k": str(h_k(P, a.k))}),
    "surplus": ("k", lambda P, a: {"surplus": surplus(P, a.k), "height": height(P)}),
    "prune": (
        "t",
        lambda P, a: {"prune": prune(P, 1 if a.k is None else a.k, a.t).to_json_dict()},
    ),
    "verify-example": (
        "k",
        lambda P, a: {"report": verify_example_structure(P, a.k).to_json_dict()},
    ),
}


def _cmd_poset(args) -> dict:
    P = poset_from_json(_json(_read_input(args)))
    needs, fields = _POSET_ACTIONS[args.action]
    if needs and getattr(args, needs) is None:
        raise ValidationError(f"poset {args.action} requires --{needs}")
    return {"n": P.n, **fields(P, args)}


def _shadow(data) -> dict:
    shadow = lower_shadow(SetFamily.from_lists(data["ground_size"], data["members"]), data["b"])
    return {
        "shadow_size": len(shadow.members),
        "members": sorted(sorted(m) for m in shadow.members),
    }


def _signatures(data) -> dict:
    table = FunctionTable(domain=tuple(data["domain"]), rows=tuple(map(tuple, data["rows"])))
    return {"sets": [sorted(s) for s in distinguishing_sets(table)]}


def _connected(data) -> dict:
    tree = LabeledTree(data["t"], frozenset((a, b) for a, b in data["edges"]))
    return {"count": str(count_connected_subsets(tree, data["c"]))}


def _signature_bound(data) -> dict:
    P = poset_from_json(data["poset"])
    anchor = None if data.get("anchor") is None else data["anchor"] - 1
    return {"report": signature_bound_check(P, data["k"], data["ell"], anchor).to_json_dict()}


def _surplus_bound(data) -> dict:
    # The threshold's cost grows with t alone; the preconditions need
    # 3t <= surplus <= n, so a larger t fits only posets past 3,000,000.
    if data["t"] > SURPLUS_T_MAX:
        raise ValidationError(f"lemma surplus-bound takes t <= {SURPLUS_T_MAX}")
    report = surplus_conclusion_check(poset_from_json(data["poset"]), data["k"], data["t"])
    return {"report": report.to_json_dict()}


# Each lemma: the keys its payload must carry, with a check on each value,
# and the runner that turns a checked payload into its result.
_LEMMAS = {
    "shadow": ({"ground_size": _is_int, "members": _list_of(_ints), "b": _is_int}, _shadow),
    "signatures": ({"domain": _scalars, "rows": _list_of(_scalars)}, _signatures),
    "connected": (
        {"t": _is_int, "edges": _list_of(lambda e: _ints(e) and len(e) == 2), "c": _is_int},
        _connected,
    ),
    "signature-bound": ({"poset": _is_dict, "k": _is_int, "ell": _is_int}, _signature_bound),
    "surplus-bound": ({"poset": _is_dict, "k": _is_int, "t": _is_int}, _surplus_bound),
}


def _cmd_lemma(args) -> dict:
    keys, run = _LEMMAS[args.lemma]
    data = _json(_read_input(args))
    if not isinstance(data, dict):
        raise ValidationError(f"lemma {args.lemma} input must be an object with {sorted(keys)}")
    for key, check in keys.items():
        if key not in data or not check(data[key]):
            raise ValidationError(f"lemma {args.lemma} input lacks a well-formed {key!r}")
    if data.get("anchor") is not None and not _is_int(data["anchor"]):
        raise ValidationError("lemma anchor must be an integer")
    return run(data)


def _cmd_search(args) -> dict | str:
    if args.format == "csv" and args.mode != "exhaustive":
        raise ValidationError("--format csv applies to search exhaustive only")
    workers, budgets = args.runtime
    if args.mode == "heuristic":
        _refuse_past_construct_cap(args.n)
        return heuristic_min(args.n, args.k, trials=args.trials, seed=args.seed).to_json_dict()
    if args.mode == "posets":
        return min_hk_over_posets(args.n, args.k, budgets).to_json_dict()
    result = exhaustive_min(args.n, args.k, budgets, workers)
    formula = m_tau_formula(args.k, args.n)
    match = result.minimum == formula
    if args.format == "csv":
        header = ["n", "k", "minimum", "formula", "match"]
        return _csv([header, [args.n, args.k, result.minimum, formula, match]])
    return {**result.to_json_dict(), "formula": str(formula), "match": match}


def _cmd_repro(args) -> None:
    """Writes the theorem table to --out (or stdout) and the probe table
    next to it, so unlike the other commands it returns nothing."""
    workers, budgets = args.runtime
    quick = args.quick
    theorem_rows = [(n, 2) for n in range(5, 8 if quick else 11)]
    if not quick:
        theorem_rows += [(10, 3), (11, 3)]
    probe_rows = [5] if quick else [5, 6, 7, 8, 9]

    table = [["n", "k", "exhaustive_min", "formula", "match", "mixed_minimizer_count"]]
    for n, k in theorem_rows:
        rep = verify_theorem(n, k, budgets, workers)
        table.append([n, k, rep.exhaustive_minimum, rep.formula_value, rep.match, rep.mixed_count])
    probe = [["n", "k", "poset_min", "perm_min", "equal"]]
    for n in probe_rows:
        res = min_hk_over_posets(n, 2, budgets)
        probe.append(
            [n, 2, res.minimum, res.permutation_minimum, res.minimum == res.permutation_minimum]
        )

    _write(_csv(table), args.out)
    _write(_csv(probe), args.out and args.out + ".q1.csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monoseq", description=__doc__)
    parser.add_argument("--workers", type=int, default=None, help="parallel workers for search")
    parser.add_argument("--budget", type=int, default=None, help="search node budget")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_count = sub.add_parser("count", help="count monotone subsequences")
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
    p_pos.add_argument("action", choices=list(_POSET_ACTIONS))
    p_pos.add_argument("--k", type=int, default=None)
    p_pos.add_argument("--t", type=int, default=None)
    p_pos.add_argument("--input", default=None)
    p_pos.add_argument("--out", default=None)
    p_pos.set_defaults(func=_cmd_poset)

    p_lem = sub.add_parser("lemma", help="auxiliary bound checkers")
    p_lem.add_argument("lemma", choices=list(_LEMMAS))
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
    """Run one command.  Workers and budget are resolved before it runs, so
    a malformed MONOSEQ_WORKERS or MONOSEQ_BUDGET fails before any work.
    A command returns a JSON payload (a dict), which gets the run config
    embedded, or text; either goes to --out or stdout.  The parser is built
    once per process; each parse returns a fresh namespace."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.runtime = _resolve_runtime(args)
        result = args.func(args)
        if isinstance(result, dict):
            result["config"] = _config(args)
            result = json.dumps(result, sort_keys=True, indent=2) + "\n"
        if result is not None:
            _write(result, args.out)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # a result too long to print
            raise
        limit = sys.get_int_max_str_digits()
        sys.stderr.write(
            f"result too large: an integer has over {limit} digits; set PYTHONINTMAXSTRDIGITS=0\n"
        )
        return EXIT_BUDGET
    return EXIT_OK


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
