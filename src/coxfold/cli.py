"""Command-line interface.

Subcommands:

* ``series``     -- unfolding series of a registered family, brute force
                    and/or closed form, with a match verdict.
* ``verify``     -- run the oracle-vs-formula grid and write a report.
* ``reiner``     -- end-generator distribution of an affine B/C group,
                    brute force vs formula, optional substitution preview.
* ``bruhat-dot`` -- Bruhat order Hasse diagram as Graphviz DOT text,
                    optionally highlighting a folded subgroup in red.
* ``catalog``    -- the machine-readable formula manifest.

Exit codes: 0 on success/match, 1 on mismatch, a failed verify case or
an exhausted element budget, 2 on usage errors (unknown families, bad
parameters, empty grids, a path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys

from .closed_forms import catalog, reiner_distribution, unfolding_closed_form
from .coxeter import DEFAULT_BUDGET, build_system
from .dot import bruhat_dot
from .errors import CoxfoldError, InvalidParameters, ResourceLimit
from .folding import (
    FAMILY_NAMES,
    FamilyId,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)
from .qseries import Monomial, substitute
from .verifier import (
    VerificationJob,
    default_cache_dir,
    default_cases,
    run_job,
)

__all__ = ["main"]


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _family_from_args(args) -> FamilyId:
    if args.family not in FAMILY_NAMES:
        raise InvalidParameters(f"unknown family {args.family!r}")
    if args.n is None:
        raise InvalidParameters("--n is required")
    return FamilyId(args.family, args.n, args.m)


def _series_csv(series) -> str:
    lines = ["degree,coefficient"]
    lines += [f"{k},{c}" for k, c in enumerate(series.coeffs)]
    return "\n".join(lines) + "\n"


def _stat_csv(stats) -> str:
    lines = ["a,b,q,coefficient"]
    lines += [f"{i},{j},{k},{c}" for (i, j, k), c in stats.terms()]
    return "\n".join(lines) + "\n"


def cmd_series(args) -> int:
    family = _family_from_args(args)
    if family.is_affine and args.max_len is None:
        return _usage_error(f"{family.name} is affine: --max-len is required")
    L = args.max_len
    results = {}
    if args.source in ("bruteforce", "both"):
        results["bruteforce"] = unfolding_series_bruteforce(
            standard_folding(family), L, budget=args.budget
        )
    if args.source in ("formula", "both"):
        results["formula"] = unfolding_closed_form(family, L, "product")

    match = None
    if len(results) == 2:
        match = results["bruteforce"] == results["formula"]

    if args.format == "json":
        payload = {
            "family": family.name,
            "n": family.n,
            "m": family.m,
            "L": L,
            **{k: v.to_json() for k, v in results.items()},
        }
        if match is not None:
            payload["match"] = match
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        key = "bruteforce" if "bruteforce" in results else "formula"
        _write(_series_csv(results[key]), args.out)
    else:
        lines = [f"{k}: {v}" for k, v in results.items()]
        if match is not None:
            lines.append(f"match: {'PASS' if match else 'FAIL'}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if match in (None, True) else 1


def cmd_verify(args) -> int:
    families = args.family if args.family else None
    if families:
        unknown = [f for f in families if not default_cases([f])]
        if unknown:
            return _usage_error(f"unknown families: {', '.join(unknown)}")
    cases = default_cases(families)
    if args.n:
        cases = [c for c in cases if c.param("n") in args.n]
    if not cases:
        return _usage_error("the requested grid is empty")
    job = VerificationJob(cases, budget=args.budget)
    cache_dir = args.cache if args.cache else default_cache_dir()
    report = run_job(job, cache_dir=cache_dir)
    for line in report.summary_lines():
        print(line)
    print(f"{sum(c['status'] == 'pass' for c in report.cases)}/{len(report.cases)} passed")
    if args.out:
        _write(report.to_json(include_timings=args.timings), args.out)
    return 0 if report.passed else 1


_SUBST_TOKENS = {"1": Monomial(1, 0), "0": Monomial(0, 0)}


def _parse_monomial(text: str) -> Monomial:
    if text in _SUBST_TOKENS:
        return _SUBST_TOKENS[text]
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if text == "q":
        return Monomial(sign, 1)
    if text.startswith("q^") and text[2:].removeprefix("-").isdecimal():
        return Monomial(sign, int(text[2:]))
    raise InvalidParameters(f"cannot parse substitution value {text!r}")


def _parse_substitution(text: str) -> dict:
    out = {}
    for item in text.split(","):
        var, _, value = item.partition("=")
        var = var.strip()
        if var not in ("a", "b", "q"):
            raise InvalidParameters(f"unknown substitution variable {var!r}")
        out[var] = _parse_monomial(value.strip())
    return out


def cmd_reiner(args) -> int:
    if args.type not in ("affB", "affC"):
        return _usage_error("--type must be affB or affC")
    label = f"affine-B{args.n}" if args.type == "affB" else f"affine-C{args.n}"
    system = build_system(label)
    brute = reiner_stats_bruteforce(system, args.max_len, budget=args.budget)
    formula = reiner_distribution(args.type, args.n, args.max_len)
    match = brute == formula

    preview = None
    if args.subst:
        values = _parse_substitution(args.subst)
        preview = substitute(
            formula,
            values.get("a", Monomial(1, 0)),
            values.get("b", Monomial(1, 0)),
            values.get("q", Monomial(1, 1)),
            args.max_len,
        )

    if args.format == "json":
        payload = {
            "type": args.type,
            "n": args.n,
            "L": args.max_len,
            "bruteforce": brute.to_json(),
            "formula": formula.to_json(),
            "match": match,
        }
        if preview is not None:
            payload["substituted"] = preview.to_json()
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        _write(_stat_csv(formula), args.out)
    else:
        lines = [f"bruteforce: {brute}", f"formula: {formula}"]
        lines.append(f"match: {'PASS' if match else 'FAIL'}")
        if preview is not None:
            lines.append(f"substituted: {preview}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if match else 1


def _resolve_folding(group_label: str, folding_arg: str, n, m):
    if folding_arg in FAMILY_NAMES:
        if n is None:
            raise InvalidParameters("--n is required with a family name")
        family = FamilyId(folding_arg, n, m)
        if family.target_label() != group_label and not (
            family.name == "Bn-Dn+1" and family.n == 2 and group_label == "A3"
        ):
            raise InvalidParameters(
                f"{family.name} (n={n}) targets {family.target_label()}, not {group_label}"
            )
        return standard_folding(family)
    # otherwise interpret the argument as a source group label
    for name in FAMILY_NAMES:
        takes_m = name == "affA-affA"
        for cand_n in range(2, 40):
            try:
                family = FamilyId(name, cand_n, 2 if takes_m else None)
            except InvalidParameters:
                continue
            if family.target_label() == group_label and family.source_label() == folding_arg:
                return standard_folding(family)
    raise InvalidParameters(
        f"no registered folding of {folding_arg} into {group_label}"
    )


def cmd_bruhat_dot(args) -> int:
    system = build_system(args.group)
    if args.group.startswith("affine-") and args.max_len is None:
        return _usage_error(f"{args.group} is infinite: --max-len is required")
    folding = None
    if args.folding:
        folding = _resolve_folding(args.group, args.folding, args.n, args.m)
    _write(bruhat_dot(system, folding, args.max_len, budget=args.budget), args.out)
    return 0


def cmd_catalog(args) -> int:
    entries = catalog()
    if args.format == "text":
        lines = [f"{e['tag']}: {e['formula']}  {e['parameters']}" for e in entries]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(json.dumps(entries, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _add_common(p, with_format=True):
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="element budget")
    p.add_argument(
        "--workers", type=int, default=1, help="accepted; enumeration is single-threaded"
    )
    if with_format:
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", help="output format"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxfold",
        description="Exact unfolding series of folded Coxeter group embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="unfolding series of a registered family")
    p.add_argument("--family", required=True, help="family name, e.g. Bn-A2n-1")
    p.add_argument("--n", type=int, help="family parameter n")
    p.add_argument("--m", type=int, help="family parameter m (affA-affA only)")
    p.add_argument("--max-len", type=int, dest="max_len", help="truncation order")
    p.add_argument(
        "--source",
        choices=("bruteforce", "formula", "both"),
        default="both",
        help="which side(s) to compute",
    )
    _add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run oracle-vs-formula verification")
    p.add_argument(
        "--family", action="append", help="restrict to a family or formula tag (repeatable)"
    )
    p.add_argument("--n", type=int, action="append", help="restrict to these n (repeatable)")
    p.add_argument("--cache", help="cache directory (default: $COXFOLD_CACHE)")
    p.add_argument("--timings", action="store_true", help="include wall-clock in the report")
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reiner", help="end-generator distribution of an affine B/C group")
    p.add_argument("--type", required=True, help="affB or affC")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, dest="max_len", required=True)
    p.add_argument("--subst", help="substitution preview, e.g. 'a=q' or 'a=1,b=q^-1,q=q^2'")
    _add_common(p)
    p.set_defaults(func=cmd_reiner)

    p = sub.add_parser("bruhat-dot", help="Bruhat order Hasse diagram as DOT")
    p.add_argument(
        "--group", required=True, help="group label, e.g. A3; affine groups need --max-len"
    )
    p.add_argument("--folding", help="family name or source group label, e.g. B2")
    p.add_argument("--n", type=int, help="family parameter n (with a family name)")
    p.add_argument("--m", type=int, help="family parameter m")
    p.add_argument("--max-len", type=int, dest="max_len", help="restrict to lengths <= this")
    _add_common(p, with_format=False)
    p.set_defaults(func=cmd_bruhat_dot)

    p = sub.add_parser("catalog", help="formula manifest")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        return _usage_error("--workers must be at least 1")
    if getattr(args, "max_len", None) is not None and args.max_len < 0:
        return _usage_error("--max-len must be non-negative")
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CoxfoldError, OSError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
