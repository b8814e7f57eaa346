"""Oracle-versus-formula verification jobs and their reports.

A job is a list of cases; each case names a folding family (or formula
tag), its parameters, a truncation order and a route.  Running a case
computes the brute-force side and the closed-form side independently and
compares them coefficient by coefficient; the outcome is a report entry,
never an exception (budget blowups and formula errors become entries of
status ``resource-limit`` / ``error:...``).

The verify families are one ordered table, ``_CHECKS``, with one row per
family: its default grid of (L, params) and one runner giving the two
series and the number of elements enumerated.  Every folding family
shares one runner, and so do the whole-group histograms (Poincare and
Bott).  ``default_cases`` and ``run_job`` read the table; the default
grid is every row but ``Thm1.5-literal``, which runs only when named,
and ``default_cases`` rejects a family with no row.  The runners check
no parameter: each evaluates its closed-form side first, whose library
function checks the case's parameters before any walk, so a bad one
becomes an ``error:...`` entry at once.  A walk takes the case's L as
its cutoff, and ``corollary_identity`` truncates both sides of ``Cor1.4`` at it.

Reports serialize to canonical JSON (sorted keys, sorted cases, no
whitespace) so that reruns produce byte-identical files.  Wall-clock
times are therefore only emitted when explicitly requested.

A brute-force series is computed once per job and keyed without the
route, so both routes of a family share it.  It can be cached on disk,
content-addressed by that key with an embedded checksum and written
atomically; a corrupted entry raises CorruptCache on read and is
recomputed and overwritten.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from ._record import FrozenRecord, Record, set_field
from .closed_forms import (
    _COSET_PARTS,
    closed_form,
    corollary_identity,
    coset_factor,
    poincare_a,
    poincare_b,
    reiner_distribution,
    unfolding_closed_form,
)
from .coxeter import DEFAULT_BUDGET, build_system, enumerate_up_to
from .errors import CorruptCache, CoxfoldError, InvalidParameters, ResourceLimit, _check_budget
from .folding import (
    FamilyId,
    coset_series_bruteforce,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)
from .qseries import QSeries

__all__ = [
    "VerificationCase",
    "VerificationJob",
    "VerificationReport",
    "default_cases",
    "run_job",
    "cache_key",
    "cache_get",
    "cache_put",
    "default_cache_dir",
]


class VerificationCase(FrozenRecord):
    __slots__ = ("family", "params", "max_len")

    def __init__(self, family: str, params: tuple, max_len: Optional[int]):
        # params: sorted (key, value) pairs
        set_field(self, "family", family)
        set_field(self, "params", params)
        set_field(self, "max_len", max_len)

    @staticmethod
    def make(family: str, max_len: Optional[int] = None, **params) -> "VerificationCase":
        return VerificationCase(family, tuple(sorted(params.items())), max_len)

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def sort_key(self):
        return (self.family, self.params, -1 if self.max_len is None else self.max_len)


class VerificationJob(Record):
    __slots__ = ("cases", "budget")

    def __init__(self, cases: list, budget: int = DEFAULT_BUDGET):
        if not cases:
            raise CoxfoldError("verification job has an empty grid")
        _check_budget(budget)
        self.cases = cases
        self.budget = budget


class VerificationReport(Record):
    __slots__ = ("job", "cases")

    def __init__(self, job: dict, cases: Optional[list] = None):
        self.job = job
        self.cases = [] if cases is None else cases

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.cases)

    def to_json(self, include_timings: bool = False) -> str:
        cases = []
        for c in self.cases:
            c = dict(c)
            if not include_timings:
                c["millis"] = None
            cases.append(c)
        return json.dumps(
            {"job": self.job, "cases": cases},
            sort_keys=True,
            separators=(",", ":"),
        )

    def summary_lines(self):
        """One line per case, without timings, so reruns print the same bytes."""
        for c in self.cases:
            params = ", ".join(f"{k}={v}" for k, v in c["params"])
            L = "exact" if c["L"] is None else f"L={c['L']}"
            yield f"{c['status']:<24} {c['family']} [{params}] {L}"


# ---------------------------------------------------------------------------
# cache


def default_cache_dir() -> Optional[Path]:
    env = os.environ.get("COXFOLD_CACHE")
    return Path(env) if env else None


def cache_key(family: str, params: tuple, max_len: Optional[int]) -> str:
    p = ",".join(f"{k}={v}" for k, v in params)
    return f"{family}|{p}|L={'exact' if max_len is None else max_len}"


def _sha256(text: str) -> str:
    # imported here: OpenSSL's set-up costs every process that never touches the cache
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _series_payload(series) -> str:
    return json.dumps(series.to_json(), sort_keys=True, separators=(",", ":"))


def cache_put(cache_dir, key: str, series: QSeries) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = _series_payload(series)
    record = {
        "key": key,
        "series": series.to_json(),
        "checksum": _sha256(payload),
    }
    path = cache_dir / (_sha256(key) + ".json")
    # one temporary name per writing thread; the rename is atomic
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(record, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def cache_get(cache_dir, key: str) -> Optional[QSeries]:
    path = Path(cache_dir) / (_sha256(key) + ".json")
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
        series = QSeries.from_json(record["series"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCache(f"{path}: unreadable entry") from exc
    payload = _series_payload(series)
    if record.get("key") != key or _sha256(payload) != record.get("checksum"):
        raise CorruptCache(f"{path}: checksum mismatch")
    return series


# ---------------------------------------------------------------------------
# the table of verify families


def _cached_bruteforce(family: FamilyId, case: VerificationCase, budget, cache_dir, memo):
    params = tuple(p for p in case.params if p[0] != "route")
    key = cache_key(case.family, params, case.max_len)
    if key in memo:
        return memo[key]
    series = None
    if cache_dir is not None:
        try:
            series = cache_get(cache_dir, key)
        except CorruptCache:
            pass  # recompute and overwrite below
    if series is None:
        series = unfolding_series_bruteforce(standard_folding(family), case.max_len, budget=budget)
        if cache_dir is not None:
            cache_put(cache_dir, key, series)
    memo[key] = series
    return series


def _run_folding(case, budget, cache_dir, memo):
    family = FamilyId(case.family, case.param("n"), case.param("m"))
    rhs = unfolding_closed_form(family, case.max_len, case.param("route", "product"))
    lhs = _cached_bruteforce(family, case, budget, cache_dir, memo)
    return lhs, rhs, lhs.eval_at_one()


def _histogram(label, formula):
    """A runner comparing the length histogram of ``label(n)`` with ``formula(n, L)``."""

    def run(case, budget, cache_dir, memo):
        n, L = case.param("n"), case.max_len
        rhs = formula(n, L)
        lengths = (k for _, k in enumerate_up_to(build_system(label(n)), L, budget=budget))
        lhs = QSeries.from_lengths(lengths, L)
        return lhs, rhs, lhs.eval_at_one()

    return run


def _run_corollary(case, budget, cache_dir, memo):
    lhs, rhs = corollary_identity(case.param("n"), case.param("variant"), case.max_len)
    return lhs, rhs, 0


def _run_reiner(case, budget, cache_dir, memo):
    kind, n, L = case.family.split("-")[1], case.param("n"), case.max_len
    rhs = reiner_distribution(kind, n, L)
    lhs = reiner_stats_bruteforce(kind, n, L, budget=budget)
    return lhs, rhs, sum(lhs.coeffs.values())


def _run_coset(case, budget, cache_dir, memo):
    part, n = case.param("part"), case.param("n")
    rhs = coset_factor(part, n, case.max_len)
    f = standard_folding(FamilyId(_COSET_PARTS[part][0], n))
    lhs = coset_series_bruteforce(f, range(1, f.source.rank), case.max_len, budget=budget)
    return lhs, rhs, lhs.eval_at_one()


def _run_literal(case, budget, cache_dir, memo):
    rhs = closed_form("Thm1.5", case.param("n"), case.param("m"), case.max_len, literal=True)
    return rhs, rhs, 0  # unreachable: the literal factor divides by zero


class _Check(NamedTuple):
    grid: tuple  # the (L, params) of each default case
    # (case, budget, cache_dir, memo) -> (lhs, rhs, elements enumerated)
    run: Callable


def _fold(grid) -> _Check:
    """The row of a folding family: each (n, m, L), on both routes when affine."""
    return _Check(tuple(
        (L, {"n": n, "route": route} if m is None else {"n": n, "m": m, "route": route})
        for n, m, L in grid
        for route in (("product",) if L is None else ("product", "substitution"))
    ), _run_folding)


_FINITE = [(n, None, None) for n in (2, 3, 4)]
_AFF_B = [(3, None, 14), (4, None, 10)]
_AFF_C = [(2, None, 12), (3, None, 10)]

# One row per verify family, in the order of the default grid.
_CHECKS = {
    "Bn-A2n-1": _fold(_FINITE),
    "Bn-A2n": _fold(_FINITE),
    "Bn-Dn+1": _fold(_FINITE),
    "I2-An": _fold((n, None, None) for n in range(3, 9)),
    "affA-affA": _fold([(2, 2, 14), (2, 3, 14), (3, 2, 14)]),
    "affB-affDn+1": _fold(_AFF_B),
    "affB-affD2n": _fold(_AFF_B),
    "affB-affD2n+1": _fold(_AFF_B),
    "affC-affA2n+1": _fold(_AFF_C),
    "affC-affA2n": _fold(_AFF_C),
    "affC-affA2n-1": _fold(_AFF_C),
    "affC-affBn+1": _fold(_AFF_C),
    "affC-affDn+2": _fold(_AFF_C),
    "affC-affC2n+1": _fold(_AFF_C),
    "affC-affC2n": _fold(_AFF_C),
    "Cor1.4": _Check(tuple(
        (None, {"n": n, "variant": v}) for n, v in ((3, "A2n-1"), (4, "A2n"), (5, "A2n-1"))
    ), _run_corollary),
    "Reiner-affB": _Check(((8, {"n": 3}),), _run_reiner),
    "Reiner-affC": _Check(((8, {"n": 2}),), _run_reiner),
    "Poincare-An": _Check(
        tuple((None, {"n": n}) for n in (1, 2, 3, 4)),
        _histogram(lambda n: f"A{n}", lambda n, L: poincare_a(n, None, L)),
    ),
    "Poincare-Bn": _Check(
        ((None, {"n": 2}), (None, {"n": 3})),
        _histogram(lambda n: f"B{n}", lambda n, L: poincare_b(n, None, L)),
    ),
    "Bott-affA": _Check(
        ((14, {"n": 2}), (14, {"n": 3})),
        _histogram(
            lambda n: f"affine-A{n - 1}", lambda n, L: closed_form("Bott-affA", n, None, L)
        ),
    ),
    "CosetFactor-Lemma3.1": _Check(tuple(
        (None, {"part": part, "n": n}) for part, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    ), _run_coset),
    # left out of the default grid: it demonstrates a division by zero
    "Thm1.5-literal": _Check(((10, {"n": 2, "m": 2}),), _run_literal),
}


def default_cases(families: Optional[list] = None) -> list:
    """The registered default grid, optionally restricted to some families."""
    if families is None:
        families = [name for name in _CHECKS if name != "Thm1.5-literal"]
    unknown = [f for f in families if f not in _CHECKS]
    if unknown:
        raise InvalidParameters(f"unknown families: {', '.join(map(repr, unknown))}")
    return [
        VerificationCase.make(name, L, **params)
        for name, check in _CHECKS.items()
        if name in families
        for L, params in check.grid
    ]


# ---------------------------------------------------------------------------
# execution


def run_job(job: VerificationJob, cache_dir=None) -> VerificationReport:
    """Run every case and collect a deterministic report.

    Case failures become report entries: ``coefficient-mismatch``
    carries the first differing degree with both values,
    ``resource-limit`` and ``error:<kind>`` record aborted cases.
    """
    report = VerificationReport(
        job={
            "budget": job.budget,
            "case_count": len(job.cases),
        }
    )
    memo: dict = {}  # brute-force series of this job, by cache key
    for case in sorted(job.cases, key=VerificationCase.sort_key):
        t0 = time.monotonic()
        entry = {
            "family": case.family,
            "params": [list(p) for p in case.params],
            "L": case.max_len,
            "lhs": None,
            "rhs": None,
            "first_mismatch": None,
            "elements_enumerated": 0,
            "millis": None,
        }
        try:
            if case.family not in _CHECKS:
                raise CoxfoldError(f"unknown verification family {case.family!r}")
            lhs, rhs, count = _CHECKS[case.family].run(case, job.budget, cache_dir, memo)
            entry["lhs"] = lhs.to_json()
            entry["rhs"] = rhs.to_json()
            entry["elements_enumerated"] = count
            mismatch = lhs.first_mismatch(rhs)
            if mismatch is None:
                entry["status"] = "pass"
            else:
                entry["status"] = "coefficient-mismatch"
                where, a, b = mismatch
                entry["first_mismatch"] = {
                    "at": list(where) if isinstance(where, tuple) else where,
                    "lhs": a,
                    "rhs": b,
                }
        except ResourceLimit:
            entry["status"] = "resource-limit"
        except CoxfoldError as exc:
            entry["status"] = f"error:{type(exc).__name__}"
            entry["detail"] = str(exc)
        entry["millis"] = int((time.monotonic() - t0) * 1000)
        report.cases.append(entry)
    return report
