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
parameters, empty grids, a path that cannot be written).  Every usage
error is an exception that leaves through ``main``, which prints it as
one ``error:`` line; a subcommand only returns 0 or 1.  ``main`` returns
the code and never exits, except through argparse's own ``SystemExit``
for help and for a command line it cannot parse.  ``run``, the entry
point of the ``coxfold`` script and of ``python -m coxfold.cli``, calls
``main``, flushes stdout and stderr, runs the ``atexit`` callbacks and
ends the process with ``os._exit``, so a finished command skips the
interpreter's teardown.

The command line parses arguments and prints.  A parameter is checked
once, by the library record or table row that owns it: ``FamilyId``
checks the family name, n and m, ``default_cases`` the verify families,
``VerificationJob`` an empty grid, and ``reiner_stats_bruteforce`` and
``reiner_distribution`` the Reiner kind and n.  The subcommands pass
their arguments through unchanged.  What stays here are the checks of
the options themselves (``--workers``, ``--budget``, a negative
``--max-len``, ``--out``) and the refusal of an affine ``series`` or
``bruhat-dot`` without ``--max-len``, whose walk would run to the budget.

Importing this module loads only what ``bruhat-dot`` runs: ``coxeter``,
``folding`` and ``dot``; argparse loads when ``main`` builds its parser.
The names the other subcommands read from ``closed_forms``, ``qseries``
and ``verifier`` are listed in ``_LAZY``, and a command binds the ones
it reads, with ``_load``, when it runs; code outside reads them through
the module ``__getattr__``.  Either way a name bound already stays, so a
wrapper set on this module before ``main`` runs sees every call.
``json`` loads only for json output.
"""

from __future__ import annotations

# the package's modules compile from source when no bytecode is cached;
# compiling them before the standard library loads keeps the process's
# peak memory lower
from .coxeter import DEFAULT_BUDGET, build_system
from .dot import bruhat_dot
from .errors import CoxfoldError, InvalidParameters, ResourceLimit, _check_int
from .folding import (
    _FAMILIES,
    FAMILY_NAMES,
    FamilyId,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)

import atexit
import os
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run"]

# the names commands read from the modules that a bruhat-dot run never loads
_LAZY = {
    **dict.fromkeys(
        ("_reiner", "catalog", "reiner_distribution", "unfolding_closed_form"), "closed_forms"
    ),
    "Monomial": "qseries",
    **dict.fromkeys(
        ("VerificationJob", "default_cache_dir", "default_cases", "run_job"), "verifier"
    ),
}


def __getattr__(name):
    """Load a name of ``_LAZY`` on first use (PEP 562) and bind it here.

    A command reads these names as globals, which skip this hook, so it
    calls ``_load`` first; either way a name bound already, such as a
    wrapper set on this module, stays in place.
    """
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __package__)
    return globals().setdefault(name, getattr(module, name))


def _load(*names):
    for name in names:
        __getattr__(name)


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _write_result(args, header: dict, results: dict, match, csv: str, after=None) -> int:
    """Write a comparison in ``args.format`` and return its exit code.

    ``results`` maps names to series in print order; the text form puts
    the match verdict (None when only one side was computed) after them,
    then the entries of ``after``.  The json form holds the header
    fields, every series and the verdict; the csv form is ``csv``.
    """
    after = after or {}
    if args.format == "json":
        import json  # only the json forms and catalog read it
        payload = {**header, **{k: v.to_json() for k, v in {**results, **after}.items()}}
        if match is not None:
            payload["match"] = match
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = csv
    else:
        verdict = {} if match is None else {"match": "PASS" if match else "FAIL"}
        text = "".join(f"{k}: {v}\n" for k, v in {**results, **verdict, **after}.items())
    _write(text, args.out)
    return 0 if match in (None, True) else 1


def cmd_series(args) -> int:
    _load("unfolding_closed_form")
    family = FamilyId(args.family, args.n, args.m)
    if family.is_affine and args.max_len is None:
        raise InvalidParameters(f"{family.name} is affine: --max-len is required")
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
    header = {"family": family.name, "n": family.n, "m": family.m, "L": L}
    # the csv form is the first series computed: brute force when there is one
    csv = _csv("degree,coefficient", enumerate(next(iter(results.values())).coeffs))
    return _write_result(args, header, results, match, csv)


def cmd_verify(args) -> int:
    _load("VerificationJob", "default_cache_dir", "default_cases", "run_job")
    cases = default_cases(args.family)
    if args.n:
        cases = [c for c in cases if c.param("n") in args.n]
    job = VerificationJob(cases, budget=args.budget)
    cache_dir = args.cache if args.cache else default_cache_dir()
    report = run_job(job, cache_dir=cache_dir)
    for line, case in zip(report.summary_lines(), report.cases):
        print(f"{line} ({case['millis']} ms)" if args.timings else line)
    print(f"{sum(c['status'] == 'pass' for c in report.cases)}/{len(report.cases)} passed")
    if args.out:
        _write(report.to_json(include_timings=args.timings), args.out)
    return 0 if report.passed else 1


def _parse_monomial(text: str) -> Monomial:
    sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
    if body in ("0", "1"):
        return Monomial(sign * int(body), 0)
    if body == "q":
        return Monomial(sign, 1)
    if body.startswith("q^") and body[2:].removeprefix("-").isdecimal():
        return Monomial(sign, int(body[2:]))
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
    _load("_reiner", "reiner_distribution", "Monomial")
    formula = reiner_distribution(args.type, args.n, args.max_len)
    brute = reiner_stats_bruteforce(args.type, args.n, args.max_len, budget=args.budget)

    after = {}
    if args.subst:
        values = _parse_substitution(args.subst)
        after["substituted"] = _reiner(
            args.type,
            values.get("a", Monomial(1, 0)),
            values.get("b", Monomial(1, 0)),
            values.get("q", Monomial(1, 1)),
            args.n,
            None,
            args.max_len,
        )
    header = {"type": args.type, "n": args.n, "L": args.max_len}
    results = {"bruteforce": brute, "formula": formula}
    csv = _csv("a,b,q,coefficient", ((*key, c) for key, c in formula.terms()))
    return _write_result(args, header, results, brute == formula, csv, after)


def _resolve_folding(group, folding_arg: str, n, m):
    group_label = group.label
    if folding_arg in FAMILY_NAMES:
        family = FamilyId(folding_arg, n, m)
        if family.target_label() != group_label:
            raise InvalidParameters(
                f"{family.name} (n={n}) targets {family.target_label()}, not {group_label}"
            )
        return standard_folding(family)
    # otherwise a source group label; a family's n is at most its target's
    # rank, and affA-affA, the one family taking m, has a target of rank mn
    for name, row in _FAMILIES.items():
        for cand_n in range(row.min_n, group.rank + 1):
            for cand_m in range(2, group.rank // cand_n + 1) if row.takes_m else (None,):
                source, target, _ = row.build(cand_n, cand_m)
                if (source, target) == (folding_arg, group_label):
                    return standard_folding(FamilyId(name, cand_n, cand_m))
    raise InvalidParameters(
        f"no registered folding of {folding_arg} into {group_label}"
    )


def cmd_bruhat_dot(args) -> int:
    system = build_system(args.group)
    if args.group.startswith("affine-") and args.max_len is None:
        raise InvalidParameters(f"{args.group} is infinite: --max-len is required")
    folding = None
    if args.folding:
        folding = _resolve_folding(system, args.folding, args.n, args.m)
    _write(bruhat_dot(system, folding, args.max_len, budget=args.budget), args.out)
    return 0


def cmd_catalog(args) -> int:
    _load("catalog")
    entries = catalog()
    if args.format == "text":
        lines = [f"{e['tag']}: {e['formula']}  {e['parameters']}" for e in entries]
        _write("\n".join(lines) + "\n", args.out)
    else:
        import json
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
    import argparse  # with gettext and locale; only a process that parses loads them

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
    p.add_argument("--timings", action="store_true", help="print and report wall-clock")
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
    try:
        _check_int(getattr(args, "workers", 1), 1, "--workers must be at least 1")
        _check_int(getattr(args, "budget", 1), 1, "--budget must be at least 1")
        if getattr(args, "max_len", None) is not None:
            _check_int(args.max_len, 0, "--max-len must be non-negative")
        out = Path(args.out) if getattr(args, "out", None) else None
        if out is not None and (out.is_dir() or not out.parent.is_dir()):
            raise InvalidParameters(f"cannot write {out}: not a file in an existing directory")
        return args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CoxfoldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry point: ``main`` on ``sys.argv``, then exit with its code.

    It flushes stdout and stderr, runs the ``atexit`` callbacks and
    flushes again, then ends the process with ``os._exit``, skipping the
    interpreter's teardown of a process that is about to die.  A flush
    that fails (a closed pipe) falls back to ``sys.exit``, and so to the
    interpreter's own handling.  What ``main`` raises, such as argparse's
    ``SystemExit``, propagates unchanged.
    """
    code = main()
    try:
        _flush()
        atexit._run_exitfuncs()
        _flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


def _flush():
    # a stream is None when its descriptor was closed before start-up
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


if __name__ == "__main__":
    run()
