"""Work that perfbench/run.py runs in a fresh interpreter.

Usage: python3 perfbench/child.py <task> <spec.json>

Tasks:

* ``setup``  import coxfold and build every system and folding that the
             workload named in the spec uses;
* ``run``    run the spec's operations in this process, optionally with
             tracing spans around every layer boundary;
* ``probe``  seeded probes of each module's public functions.

``src`` must be on PYTHONPATH.  The last line of stdout is one JSON
object; span records go to the file the spec names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
import tracemalloc
from collections import Counter

import coxfold.cli
import coxfold.closed_forms
import coxfold.dot
import coxfold.folding
import coxfold.qseries
import coxfold.verifier
from coxfold import (
    FamilyId,
    QSeries,
    StatSeries,
    apply_generator,
    build_system,
    default_cases,
    element_from_word,
    enumerate_up_to,
    shortlex_normal_form,
    standard_folding,
    unfolding_closed_form,
    unfolding_series_bruteforce,
)
from coxfold.cli import main as cli_main
from coxfold.closed_forms import reiner_distribution
from coxfold.folding import FAMILY_NAMES
from coxfold.qseries import Monomial, divide_by_unit, substitute

THIS = sys.modules[__name__]


def series_sha(series) -> str:
    payload = json.dumps(series.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def family_of(op) -> FamilyId:
    return FamilyId(op["family"], op["n"], op.get("m"))


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans around the public functions each layer calls in the next.

    A span is ``[name, start, end, parent, op, note]``; ``parent`` is the
    index of the enclosing span or -1.  Every name is patched in the
    module that calls it, so only calls across a layer boundary are seen.
    ``standard_folding`` is one span with the systems and parabolics it
    builds, because that is the per-case set-up the verifier pays.
    Generator functions get a leaf span from the first item to exhaustion.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._saved: list = []

    def open_span(self, name, leaf=False):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op, None]
        self.spans.append(rec)
        if not leaf:
            self.stack.append(len(self.spans) - 1)
        return rec

    def close_span(self, rec, leaf=False):
        rec[2] = time.perf_counter()
        if not leaf:
            self.stack.pop()

    def wrap(self, name, fn, note=None):
        """Span around ``fn``; ``note(args, result)`` annotates the span."""

        def traced(*args, **kwargs):
            rec = self.open_span(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(rec)
                if note:
                    rec[5] = note(args, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            rec = self.open_span(name, leaf=True)
            try:
                yield from fn(*args, **kwargs)
            finally:
                self.close_span(rec, leaf=True)

        return traced

    def wrap_count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr, wrapped):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self):
        cli, ver, fold = coxfold.cli, coxfold.verifier, coxfold.folding
        dot, cf, qs = coxfold.dot, coxfold.closed_forms, coxfold.qseries

        def bruteforce_key(args, result):
            fam = args[0].family
            return f"{fam.name}|{fam.n}|{fam.m}|{args[1]}"

        def cache_outcome(args, result):
            return "miss" if result is None else "hit"

        notes = {
            "unfolding_series_bruteforce": bruteforce_key,
            "cache_get": cache_outcome,
        }

        spans = [
            (THIS, "cli_main", "cli.main"),
            (THIS, "standard_folding", "folding.standard_folding"),
            (THIS, "unfolding_series_bruteforce", "folding.unfolding_series_bruteforce"),
            (THIS, "unfolding_closed_form", "closed_forms.unfolding_closed_form"),
            (cli, "run_job", "verifier.run_job"),
            (cli, "bruhat_dot", "dot.bruhat_dot"),
            (cli, "build_system", "coxeter.build_system"),
            (cli, "standard_folding", "folding.standard_folding"),
            (ver, "cache_get", "verifier.cache_get"),
            (ver, "cache_put", "verifier.cache_put"),
            (ver.VerificationReport, "to_json", "verifier.report_json"),
            (ver, "standard_folding", "folding.standard_folding"),
            (ver, "unfolding_series_bruteforce", "folding.unfolding_series_bruteforce"),
            (ver, "reiner_stats_bruteforce", "folding.reiner_stats_bruteforce"),
            (ver, "coset_series_bruteforce", "folding.coset_series_bruteforce"),
            (ver, "build_system", "coxeter.build_system"),
            (ver, "unfolding_closed_form", "closed_forms.unfolding_closed_form"),
            (ver, "closed_form", "closed_forms.closed_form"),
            (ver, "corollary_identity", "closed_forms.corollary_identity"),
            (ver, "coset_factor", "closed_forms.coset_factor"),
            (ver, "poincare_a", "closed_forms.poincare_a"),
            (ver, "poincare_b", "closed_forms.poincare_b"),
            (ver, "reiner_distribution", "closed_forms.reiner_distribution"),
            (dot, "covering_relations", "dot.covering_relations"),
            (cf, "reiner_distribution", "closed_forms.reiner_distribution"),
            (cf, "divide_by_unit", "qseries.divide_by_unit"),
            (cf, "substitute", "qseries.substitute"),
            (cf, "q_integer", "qseries.q_integer"),
            (cf, "q_factorial", "qseries.q_factorial"),
            (qs.QSeries, "__mul__", "qseries.QSeries.mul"),
            (qs.StatSeries, "__mul__", "qseries.StatSeries.mul"),
            (qs.StatSeries, "geometric_divide", "qseries.StatSeries.geometric_divide"),
        ]
        generators = [
            (ver, "enumerate_up_to", "coxeter.enumerate_up_to"),
            (fold, "enumerate_with_words", "coxeter.enumerate_with_words"),
            (dot, "enumerate_with_words", "coxeter.enumerate_with_words"),
            (dot, "_source_records", "folding.source_records"),
        ]
        for owner, attr, name in spans:
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr), notes.get(attr)))
        for owner, attr, name in generators:
            self.patch(owner, attr, self.wrap_generator(name, getattr(owner, attr)))
        self.patch(dot, "bruhat_leq", self.wrap_count("dot.bruhat_leq", dot.bruhat_leq))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# operations


def run_op(op) -> dict:
    """Run one operation; return its output hash and whether it passed."""
    kind = op["kind"]
    if kind == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(list(op["argv"]))
        return {"ok": code == 0, "sha": file_sha(op["out"])}
    family = family_of(op)
    if kind == "formula":
        series = unfolding_closed_form(family, op["L"], op["route"])
        return {"ok": True, "sha": series_sha(series)}
    if kind == "stretch":
        brute = unfolding_series_bruteforce(standard_folding(family), op["L"])
        formula = unfolding_closed_form(family, op["L"], "product")
        return {"ok": brute == formula, "sha": series_sha(brute)}
    raise ValueError(f"unknown operation kind {kind!r}")


def task_run(spec) -> dict:
    tracer = Tracer() if spec.get("trace") else None
    if tracer:
        tracer.install()
    results = []
    try:
        for op in spec["ops"]:
            if tracer:
                tracer.op = op["key"]
                rec = tracer.open_span("bench.op")
            t0 = time.perf_counter()
            out = run_op(op)
            out["wall"] = time.perf_counter() - t0
            if tracer:
                tracer.close_span(rec)
            out["key"] = op["key"]
            results.append(out)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        with open(spec["spans_out"], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return {"ops": results}


def task_setup(spec) -> dict:
    """Build every system and folding the workload's operations use."""
    labels, families = set(), set()
    for op in spec["ops"]:
        if op["kind"] == "stretch":
            families.add(family_of(op))
        elif op["kind"] == "cli" and op["argv"][0] == "bruhat-dot":
            labels.add(op["group"])
            families.add(family_of(op))
        elif op["kind"] == "cli" and op["argv"][0] == "verify":
            argv = op["argv"]
            wanted = [argv[i + 1] for i, a in enumerate(argv) if a == "--family"]
            for case in default_cases(wanted or None):
                n = case.param("n")
                if case.family in FAMILY_NAMES:
                    families.add(FamilyId(case.family, n, case.param("m")))
                elif case.family == "CosetFactor-Lemma3.1":
                    tag = {1: "Bn-A2n-1", 2: "Bn-A2n", 3: "Bn-Dn+1"}[case.param("part")]
                    families.add(FamilyId(tag, n))
                elif case.family in ("Poincare-An", "Poincare-Bn"):
                    labels.add(f"{case.family[-2]}{n}")
                elif case.family == "Bott-affA":
                    labels.add(f"affine-A{n - 1}")
                elif case.family.startswith("Reiner-"):
                    labels.add(f"affine-{case.family[-1]}{n}")
    for label in sorted(labels):
        build_system(label)
    for family in sorted(families, key=repr):
        standard_folding(family)
    return {"systems": len(labels), "foldings": len(families)}


# ---------------------------------------------------------------------------
# probes


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000, result


def _random_series(rng, order):
    return QSeries([rng.randint(-10**6, 10**6) for _ in range(order + 1)], order)


def _random_stat(rng, order, span):
    coeffs = {}
    for i in range(span):
        for j in range(span):
            for k in range(order + 1):
                if rng.random() < 0.5:
                    coeffs[(i, j, k)] = rng.randint(-1000, 1000)
    return StatSeries(coeffs, order)


def task_probe(spec) -> dict:
    """Seeded probes; returns ``{metric: [value, samples]}`` and failures."""
    rng = random.Random(spec["seed"])
    p = spec["sizes"]
    out: dict = {}
    failures: list = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # coxeter: generator applications along seeded random words
    applied, elapsed = 0, 0.0
    for label in ("A7", "B6", "affine-C3"):
        system = build_system(label)
        words = [
            [rng.randrange(system.rank) for _ in range(p["word_len"])] for _ in range(p["words"])
        ]
        t0 = time.perf_counter()
        for word in words:
            w = system.identity()
            for i in word:
                w = apply_generator(system, w, i)
            check(w.length % 2 == len(word) % 2, f"apply parity {label}")
        elapsed += time.perf_counter() - t0
        applied += len(words) * p["word_len"]
    out["coxeter.apply_per_s"] = [applied / elapsed, applied]

    label, expected = p["enum_group"]
    t0 = time.perf_counter()
    count = sum(1 for _ in enumerate_up_to(build_system(label), None))
    out["coxeter.enum_elements_per_s"] = [count / (time.perf_counter() - t0), count]
    check(count == expected, f"enumerate {label}")

    label, expected = p["bytes_group"]
    system = build_system(label)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_up_to(system, None))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["coxeter.enum_bytes_per_element"] = [peak / count, count]
    check(count == expected, f"enumerate {label}")

    elements, words = [], []
    for label in ("A5", "B4", "D5"):
        system = build_system(label)
        for _ in range(p["shortlex"]):
            word = [rng.randrange(system.rank) for _ in range(20)]
            elements.append((system, element_from_word(system, word)))
    t0 = time.perf_counter()
    for system, w in elements:
        words.append(shortlex_normal_form(system, w))
    out["coxeter.shortlex_per_s"] = [len(elements) / (time.perf_counter() - t0), len(elements)]
    for (system, w), word in list(zip(elements, words))[::10]:
        check(element_from_word(system, word).data == w.data, "shortlex round trip")

    per_label = []
    for label in p["build_labels"]:
        per_label.append(_median_ms(lambda: build_system(label), 3)[0])
    out["coxeter.build_system_ms"] = [statistics.fmean(per_label), 3 * len(per_label)]

    # folding: the brute-force unfolding at one and two workers
    family = FamilyId(*p["bruteforce_family"])
    fold = standard_folding(family)
    expected = unfolding_closed_form(family)
    walls = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        series = unfolding_series_bruteforce(fold, None, workers=workers)
        walls[workers] = time.perf_counter() - t0
        check(series == expected, f"bruteforce workers={workers}")
    n_src = expected.eval_at_one()
    out["folding.source_elements_per_s"] = [n_src / walls[1], n_src]
    out["folding.w2_over_w1"] = [walls[2] / walls[1], 2]

    # closed_forms: every affine family at n=3, both routes
    affine = [name for name in FAMILY_NAMES if name.startswith("aff")]
    low = min(p["product_L"], p["substitution_L"])
    totals = {}
    series = {}
    for route in ("product", "substitution"):
        L = p[f"{route}_L"]
        t0 = time.perf_counter()
        for name in affine:
            fam = FamilyId(name, 3, 2 if name == "affA-affA" else None)
            series[(name, route)] = unfolding_closed_form(fam, L, route)
        totals[route] = (time.perf_counter() - t0) * 1000
    for name in affine:
        check(
            series[(name, "product")].truncate(low) == series[(name, "substitution")].truncate(low),
            f"routes agree {name}",
        )
    out["closed_forms.product_ms"] = [totals["product"], len(affine)]
    out["closed_forms.substitution_ms"] = [totals["substitution"], len(affine)]
    ms, _ = _median_ms(
        lambda: (
            reiner_distribution("affB", 3, p["reiner_L"]),
            reiner_distribution("affC", 3, p["reiner_L"]),
        ),
        3,
    )
    out["closed_forms.reiner_distribution_ms"] = [ms, 3]

    # qseries: seeded operands
    order = p["qseries_order"]
    a, b = _random_series(rng, order), _random_series(rng, order)
    d = QSeries([1, *_random_series(rng, order).coeffs[1:]], order)
    ms, prod = _median_ms(lambda: a * b, p["reps"])
    out["qseries.mul_ms"] = [ms, p["reps"]]
    ms, quotient = _median_ms(lambda: divide_by_unit(a, d), p["reps"])
    out["qseries.divide_by_unit_ms"] = [ms, p["reps"]]
    check(quotient * d == a, "divide_by_unit round trip")
    check(prod == b * a, "mul commutes")

    order = p["stat_order"]
    big = _random_stat(rng, order, 3)
    small = StatSeries(
        {(0, 0, 0): 1, (1, 0, rng.randint(1, 4)): 1, (0, 1, rng.randint(1, 4)): -1}, order
    )
    ms, _ = _median_ms(lambda: big * small, p["reps"])
    out["qseries.statseries_mul_ms"] = [ms, p["reps"]]
    term = Monomial(1, rng.randint(3, 6), a_exp=1, b_exp=1)
    ms, quotient = _median_ms(lambda: big.geometric_divide(term), p["stat_reps"])
    out["qseries.geometric_divide_ms"] = [ms, p["stat_reps"]]
    check(
        quotient - quotient * StatSeries.from_monomial(term, order) == big,
        "geometric_divide round trip",
    )
    q, qinv, q2 = Monomial(1, 1), Monomial(1, -1), Monomial(1, 2)
    # b = q^-1 needs q-degree >= b-degree to keep every term non-negative
    shifted = StatSeries({(i, j, k + j): c for (i, j, k), c in big.coeffs.items()}, order)
    ms, _ = _median_ms(lambda: substitute(shifted, q, qinv, q2, order), p["reps"])
    out["qseries.substitute_ms"] = [ms, p["reps"]]
    return {"metrics": out, "failures": failures}


TASKS = {"setup": task_setup, "run": task_run, "probe": task_probe}


if __name__ == "__main__":
    task, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    print(json.dumps(TASKS[task](spec)))
