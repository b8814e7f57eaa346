"""Oracle-versus-formula verification jobs and their reports.

A job is a list of cases; each case names a folding family (or formula
tag), its parameters, a truncation order and a route.  Running a case
computes the brute-force side and the closed-form side independently and
compares them coefficient by coefficient; the outcome is a report entry,
never an exception (budget blowups and formula errors become entries of
status ``resource-limit`` / ``error:...``).

Reports serialize to canonical JSON (sorted keys, sorted cases, no
whitespace) so that reruns produce byte-identical files.  Wall-clock
times are therefore only emitted when explicitly requested.  A job's
``workers`` count is accepted for compatibility and ignored: enumeration
is single-threaded, and the count is not part of the report.

A brute-force series is computed once per job and keyed without the
route, so both routes of a family share it.  It can be cached on disk,
content-addressed by that key with an embedded checksum and written
atomically; a corrupted entry raises CorruptCache on read and is
recomputed and overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .closed_forms import (
    closed_form,
    corollary_identity,
    coset_factor,
    poincare_a,
    poincare_b,
    reiner_distribution,
    unfolding_closed_form,
)
from .coxeter import DEFAULT_BUDGET, build_system, enumerate_up_to
from .errors import CorruptCache, CoxfoldError, ResourceLimit
from .folding import (
    FAMILY_NAMES,
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


@dataclass(frozen=True)
class VerificationCase:
    family: str
    params: tuple  # sorted (key, value) pairs
    max_len: Optional[int]

    @staticmethod
    def make(family: str, max_len: Optional[int] = None, **params) -> "VerificationCase":
        return VerificationCase(family, tuple(sorted(params.items())), max_len)

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def sort_key(self):
        return (self.family, self.params, -1 if self.max_len is None else self.max_len)


@dataclass
class VerificationJob:
    cases: list
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if not self.cases:
            raise CoxfoldError("verification job has an empty grid")


@dataclass
class VerificationReport:
    job: dict
    cases: list = field(default_factory=list)

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
        for c in self.cases:
            params = ", ".join(f"{k}={v}" for k, v in c["params"])
            L = "exact" if c["L"] is None else f"L={c['L']}"
            ms = f" ({c['millis']} ms)" if c.get("millis") is not None else ""
            yield f"{c['status']:<24} {c['family']} [{params}] {L}{ms}"


# ---------------------------------------------------------------------------
# cache


def default_cache_dir() -> Optional[Path]:
    env = os.environ.get("COXFOLD_CACHE")
    return Path(env) if env else None


def cache_key(family: str, params: tuple, max_len: Optional[int]) -> str:
    p = ",".join(f"{k}={v}" for k, v in params)
    return f"{family}|{p}|L={'exact' if max_len is None else max_len}"


def _series_payload(series) -> str:
    return json.dumps(series.to_json(), sort_keys=True, separators=(",", ":"))


def cache_put(cache_dir, key: str, series: QSeries) -> Path:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    payload = _series_payload(series)
    record = {
        "key": key,
        "series": series.to_json(),
        "checksum": hashlib.sha256(payload.encode()).hexdigest(),
    }
    path = cache_dir / (hashlib.sha256(key.encode()).hexdigest() + ".json")
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
    path = Path(cache_dir) / (hashlib.sha256(key.encode()).hexdigest() + ".json")
    if not path.exists():
        return None
    try:
        record = json.loads(path.read_text())
        series = QSeries.from_json(record["series"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptCache(f"{path}: unreadable entry") from exc
    payload = _series_payload(series)
    if record.get("key") != key or hashlib.sha256(payload.encode()).hexdigest() != record.get(
        "checksum"
    ):
        raise CorruptCache(f"{path}: checksum mismatch")
    return series


# ---------------------------------------------------------------------------
# the default acceptance grid

_AFFINE_DEFAULT_L = {
    "affA-affA": ((2, 2, 14), (2, 3, 14), (3, 2, 14)),
    "affB-affDn+1": ((3, None, 14), (4, None, 10)),
    "affB-affD2n": ((3, None, 14), (4, None, 10)),
    "affB-affD2n+1": ((3, None, 14), (4, None, 10)),
    "affC-affA2n+1": ((2, None, 12), (3, None, 10)),
    "affC-affA2n": ((2, None, 12), (3, None, 10)),
    "affC-affA2n-1": ((2, None, 12), (3, None, 10)),
    "affC-affBn+1": ((2, None, 12), (3, None, 10)),
    "affC-affDn+2": ((2, None, 12), (3, None, 10)),
    "affC-affC2n+1": ((2, None, 12), (3, None, 10)),
    "affC-affC2n": ((2, None, 12), (3, None, 10)),
}


def default_cases(families: Optional[list] = None) -> list:
    """The registered default grid, optionally restricted to some families."""
    out = []

    def want(name):
        return families is None or name in families

    for name in ("Bn-A2n-1", "Bn-A2n", "Bn-Dn+1"):
        if want(name):
            for n in (2, 3, 4):
                out.append(VerificationCase.make(name, None, n=n, route="product"))
    if want("I2-An"):
        for n in range(3, 9):
            out.append(VerificationCase.make("I2-An", None, n=n, route="product"))
    for name, grid in _AFFINE_DEFAULT_L.items():
        if want(name):
            for n, m, L in grid:
                for route in ("product", "substitution"):
                    if m is None:
                        out.append(VerificationCase.make(name, L, n=n, route=route))
                    else:
                        out.append(VerificationCase.make(name, L, n=n, m=m, route=route))
    if want("Cor1.4"):
        for n, variant in ((3, "A2n-1"), (4, "A2n"), (5, "A2n-1")):
            out.append(VerificationCase.make("Cor1.4", None, n=n, variant=variant))
    if want("Reiner-affB"):
        out.append(VerificationCase.make("Reiner-affB", 8, n=3))
    if want("Reiner-affC"):
        out.append(VerificationCase.make("Reiner-affC", 8, n=2))
    if want("Poincare-An"):
        for n in (1, 2, 3, 4):
            out.append(VerificationCase.make("Poincare-An", None, n=n))
    if want("Poincare-Bn"):
        for n in (2, 3):
            out.append(VerificationCase.make("Poincare-Bn", None, n=n))
    if want("Bott-affA"):
        for n in (2, 3):
            out.append(VerificationCase.make("Bott-affA", 14, n=n))
    if want("CosetFactor-Lemma3.1"):
        for part, n in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
            out.append(VerificationCase.make("CosetFactor-Lemma3.1", None, part=part, n=n))
    if families is not None and "Thm1.5-literal" in families:
        out.append(VerificationCase.make("Thm1.5-literal", 10, n=2, m=2))
    return out


# ---------------------------------------------------------------------------
# execution


def _histogram_series(label: str, max_len: Optional[int], budget: int):
    lengths = (k for _, k in enumerate_up_to(build_system(label), max_len, budget=budget))
    series = QSeries.from_lengths(lengths, max_len)
    return series, series.eval_at_one()


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


def _execute(case: VerificationCase, budget: int, cache_dir, memo: dict):
    fam = case.family
    L = case.max_len
    if fam in FAMILY_NAMES:
        family = FamilyId(fam, case.param("n"), case.param("m"))
        lhs = _cached_bruteforce(family, case, budget, cache_dir, memo)
        rhs = unfolding_closed_form(family, L, case.param("route", "product"))
        return lhs, rhs, lhs.eval_at_one()
    if fam == "Cor1.4":
        lhs, rhs = corollary_identity(case.param("n"), case.param("variant"))
        return lhs, rhs, 0
    if fam == "Thm1.5-literal":
        rhs = closed_form("Thm1.5", case.param("n"), case.param("m"), L, literal=True)
        return rhs, rhs, 0  # unreachable: the literal factor divides by zero
    if fam in ("Reiner-affB", "Reiner-affC"):
        n = case.param("n")
        label = f"affine-B{n}" if fam == "Reiner-affB" else f"affine-C{n}"
        lhs = reiner_stats_bruteforce(build_system(label), L, budget=budget)
        rhs = reiner_distribution(fam.split("-")[1], n, L)
        count = sum(lhs.coeffs.values())
        return lhs, rhs, count
    if fam == "Poincare-An":
        n = case.param("n")
        lhs, count = _histogram_series(f"A{n}", None, budget)
        return lhs, poincare_a(n), count
    if fam == "Poincare-Bn":
        n = case.param("n")
        lhs, count = _histogram_series(f"B{n}", None, budget)
        return lhs, poincare_b(n), count
    if fam == "Bott-affA":
        n = case.param("n")
        lhs, count = _histogram_series(f"affine-A{n - 1}", L, budget)
        return lhs, closed_form("Bott-affA", n, None, L), count
    if fam == "CosetFactor-Lemma3.1":
        part, n = case.param("part"), case.param("n")
        tag = {1: "Bn-A2n-1", 2: "Bn-A2n", 3: "Bn-Dn+1"}[part]
        f = standard_folding(FamilyId(tag, n))
        j_hat = list(range(1, f.source.rank))
        lhs = coset_series_bruteforce(f, j_hat, None, budget=budget)
        return lhs, coset_factor(part, n), lhs.eval_at_one()
    raise CoxfoldError(f"unknown verification family {fam!r}")


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
            lhs, rhs, count = _execute(case, job.budget, cache_dir, memo)
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
