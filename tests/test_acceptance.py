"""Acceptance gate: one test per registered criterion.

Every comparison is exact integer equality (series compared coefficient
by coefficient up to their stated truncation).  Each test prints a
single pass line with its runtime and asserts the stated wall-clock
budget; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they pass.
"""

import io
import re
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout

import pytest

from coxfold.cli import main as cli_main
from coxfold.closed_forms import (
    _literal_affine_a,
    closed_form,
    corollary_identity,
    poincare_a,
    poincare_b,
    substitution_route,
    unfolding_closed_form,
)
from coxfold.coxeter import (
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    shortlex_normal_form,
    word_string,
)
from coxfold.dot import bruhat_dot
from coxfold.errors import NonUnitDivisor
from coxfold.folding import (
    FamilyId,
    coset_series_bruteforce,
    length_additivity_check,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)
from coxfold.closed_forms import reiner_distribution
from coxfold.qseries import QSeries
from coxfold.verifier import VerificationJob, default_cases, run_job

from oracles import (
    all_reduced_words,
    bruhat_dominance_leq,
    dihedral_histogram,
    is_right_descent_data,
    reference_factorization,
    symmetric_histogram,
)


@contextmanager
def budget(number, label, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s "
          f"(budget {seconds}s)")
    assert elapsed < seconds, f"criterion {number} exceeded its {seconds}s budget"


def brute(name, n, m=None, L=None, **kw):
    return unfolding_series_bruteforce(standard_folding(FamilyId(name, n, m)), L, **kw)


def test_criterion_01_rank_two_example_exact():
    with budget(1, "rank-two unfolding polynomial", 1):
        series = brute("Bn-A2n-1", 2)
        assert list(series.coeffs) == [1, 1, 1, 2, 1, 1, 1]
        assert series.order is None
        assert series == closed_form("Thm1.3-1", 2)


def test_criterion_02_classical_families_exact():
    with budget(2, "classical families n=2..4", 30):
        for part, name in ((1, "Bn-A2n-1"), (2, "Bn-A2n"), (3, "Bn-Dn+1")):
            for n in (2, 3, 4):
                assert brute(name, n) == closed_form(f"Thm1.3-{part}", n), (part, n)


def test_criterion_03_dihedral_families_exact():
    with budget(3, "dihedral families n=3..8", 10):
        for n in range(3, 9):
            series = brute("I2-An", n)
            assert series == unfolding_closed_form(FamilyId("I2-An", n)), n
            assert series.eval_at_one() == 2 * (n + 1), n


def test_criterion_04_signed_product_identity():
    with budget(4, "signed product identity n=3..5", 10):
        printed = QSeries([1, -1, 1, 0, -2, 2, -2, 0, 1, -1, 1])
        lhs, rhs = corollary_identity(3, "A2n-1")
        assert lhs == rhs == printed
        assert poincare_b(2).eval_at_one() ** 2 == 64
        assert poincare_a(3).eval_at_one() * poincare_b(2).eval_at_one() == 192
        for n, variant in ((4, "A2n"), (5, "A2n-1")):
            lhs, rhs = corollary_identity(n, variant)
            assert lhs == rhs, n


def test_criterion_05_affine_a_series_and_erratum():
    with budget(5, "affine A family to q^14", 60):
        for n, m in ((2, 2), (2, 3), (3, 2)):
            assert brute("affA-affA", n, m, 14) == closed_form("Thm1.5", n, m, 14), (n, m)
        with pytest.raises(NonUnitDivisor):
            _literal_affine_a(2, 2, 14)


def test_criterion_06_affine_b_series_both_routes():
    with budget(6, "affine B families", 120):
        for part, name in ((1, "affB-affDn+1"), (2, "affB-affD2n"), (3, "affB-affD2n+1")):
            for n, L in ((3, 14), (4, 10)):
                series = brute(name, n, None, L)
                assert series == closed_form(f"Thm1.6-{part}", n, None, L), (part, n)
                assert series == substitution_route(FamilyId(name, n), L), (part, n)


def test_criterion_07_affine_c_series_both_routes():
    with budget(7, "affine C families", 300):
        names = (
            "affC-affA2n+1",
            "affC-affA2n",
            "affC-affA2n-1",
            "affC-affBn+1",
            "affC-affDn+2",
            "affC-affC2n+1",
            "affC-affC2n",
        )
        for part, name in enumerate(names, start=1):
            for n, L in ((2, 12), (3, 10)):
                series = brute(name, n, None, L)
                assert series == closed_form(f"Thm1.7-{part}", n, None, L), (part, n)
                assert series == substitution_route(FamilyId(name, n), L), (part, n)
        # the doubled-chain target pairs end generators across the diagram
        # flip; the winning block table is recorded in the verify report
        f = standard_folding(FamilyId("affC-affC2n+1", 2))
        assert f.unfold_letters[0] == (0, 5)
        report = run_job(VerificationJob(default_cases(["affC-affC2n+1"])))
        assert report.passed
        assert all(c["first_mismatch"] is None for c in report.cases)


def test_criterion_08_two_variable_distribution_oracle():
    with budget(8, "two-variable distributions to q^8", 60):
        stats_b = reiner_stats_bruteforce("affB", 3, 8)
        assert stats_b == reiner_distribution("affB", 3, 8)
        stats_c = reiner_stats_bruteforce("affC", 2, 8)
        assert stats_c == reiner_distribution("affC", 2, 8)


REGISTERED = [
    FamilyId("Bn-A2n-1", 2), FamilyId("Bn-A2n-1", 3), FamilyId("Bn-A2n-1", 4),
    FamilyId("Bn-A2n", 2), FamilyId("Bn-A2n", 3), FamilyId("Bn-A2n", 4),
    FamilyId("Bn-Dn+1", 2), FamilyId("Bn-Dn+1", 3), FamilyId("Bn-Dn+1", 4),
    FamilyId("I2-An", 3), FamilyId("I2-An", 4), FamilyId("I2-An", 5),
    FamilyId("I2-An", 6), FamilyId("I2-An", 7), FamilyId("I2-An", 8),
    FamilyId("affA-affA", 2, 2), FamilyId("affA-affA", 2, 3), FamilyId("affA-affA", 3, 2),
    FamilyId("affB-affDn+1", 3), FamilyId("affB-affDn+1", 4),
    FamilyId("affB-affD2n", 3), FamilyId("affB-affD2n", 4),
    FamilyId("affB-affD2n+1", 3), FamilyId("affB-affD2n+1", 4),
    FamilyId("affC-affA2n+1", 2), FamilyId("affC-affA2n+1", 3),
    FamilyId("affC-affA2n", 2), FamilyId("affC-affA2n", 3),
    FamilyId("affC-affA2n-1", 2), FamilyId("affC-affA2n-1", 3),
    FamilyId("affC-affBn+1", 2), FamilyId("affC-affBn+1", 3),
    FamilyId("affC-affDn+2", 2), FamilyId("affC-affDn+2", 3),
    FamilyId("affC-affC2n+1", 2), FamilyId("affC-affC2n+1", 3),
    FamilyId("affC-affC2n", 2), FamilyId("affC-affC2n", 3),
]


def test_criterion_09a_length_additivity_and_descent_transfer():
    from coxfold.folding import _source_records

    with budget("9a", "length additivity and descent transfer to 10", 120):
        for fam in REGISTERED:
            f = standard_folding(fam)
            letter_lengths = [el.length for el in f.unfold_elements]
            for key, word, (data, length) in _source_records(f, ambient_cutoff=10):
                assert length == sum(letter_lengths[r] for r in word), fam
                for r, block in enumerate(f.blocks):
                    down = is_right_descent_data(f.source, key, r)
                    for s in block:
                        assert is_right_descent_data(f.target, data, s) == down, fam


def test_criterion_09b_parabolic_factorization_of_series():
    with budget("9b", "series factorization over coset minima", 60):
        for name in ("Bn-A2n-1", "Bn-A2n", "Bn-Dn+1"):
            for n in (2, 3):
                f = standard_folding(FamilyId(name, n))
                j_hat = list(range(1, f.source.rank))
                assert length_additivity_check(f, None) is None, (name, n)
                reference = reference_factorization(f, j_hat, None)
                assert reference.passed, (name, n)
                full = reference.coset_series * reference.parabolic_series
                assert unfolding_series_bruteforce(f, None) == full, (name, n)
                assert coset_series_bruteforce(f, j_hat, None) == reference.coset_series


def test_criterion_09c_admissibility_to_cutoff_ten():
    with budget("9c", "admissibility of all standard foldings", 120):
        for fam in REGISTERED:
            assert length_additivity_check(standard_folding(fam), 10) is None, fam


def test_criterion_09d_statistics_well_defined_exhaustively():
    with budget("9d", "occurrence counts across all reduced words", 60):
        for label, tracked in (("affine-C2", (0, 2)), ("affine-B3", (0,))):
            system = build_system(label)
            for el, _ in enumerate_with_words(system, 8):
                counts = {
                    tuple(w.count(t) for t in tracked)
                    for w in all_reduced_words(system, el)
                }
                assert len(counts) == 1, (label, el)


def test_criterion_09e_poincare_products_and_palindromicity():
    with budget("9e", "length histograms of the finite groups", 60):
        for n in (1, 2, 3, 4):
            hist = Counter(k for _, k in enumerate_up_to(build_system(f"A{n}"), None))
            assert hist == symmetric_histogram(n + 1)
            poly = poincare_a(n)
            assert [hist.get(k, 0) for k in range(poly.degree() + 1)] == list(poly.coeffs)
        for n in (2, 3):
            hist = Counter(k for _, k in enumerate_up_to(build_system(f"B{n}"), None))
            poly = poincare_b(n)
            assert [hist.get(k, 0) for k in range(poly.degree() + 1)] == list(poly.coeffs)
        hist = Counter(k for _, k in enumerate_up_to(build_system("D4"), None))
        assert sum(hist.values()) == 192
        coeffs = [hist.get(k, 0) for k in range(max(hist) + 1)]
        assert coeffs == coeffs[::-1]
        for m in range(3, 9):
            hist = Counter(k for _, k in enumerate_up_to(build_system(f"I2({m})"), None))
            assert hist == dihedral_histogram(m)
            coeffs = [hist.get(k, 0) for k in range(m + 1)]
            assert coeffs == coeffs[::-1]


def test_criterion_09f_deterministic_reports_across_workers(tmp_path):
    # --workers is accepted by the CLI and ignored; the report must not move
    with budget("9f", "byte-identical reports for 1/2/4 workers", 120):
        blobs = set()
        for w in ("1", "2", "4"):
            out = tmp_path / f"report{w}.json"
            with redirect_stdout(io.StringIO()):
                assert cli_main(["verify", "--workers", w, "--out", str(out)]) == 0
            blobs.add(out.read_bytes())
        assert len(blobs) == 1


FIGURE_WORDS = [
    (),
    (1,),
    (0, 2),
    (1, 0, 2),
    (0, 2, 1),
    (0, 2, 1, 0, 2),
    (1, 0, 2, 1),
    (0, 2, 1, 0, 2, 1),
]


def test_criterion_10_hasse_diagram_with_highlighted_subgroup():
    with budget(10, "highlighted Hasse diagram", 30):
        system = build_system("A3")
        folding = standard_folding(FamilyId("Bn-A2n-1", 2))
        text = bruhat_dot(system, folding)

        nodes = re.findall(r'^  "([^"]+)"((?: \[color=red\])?);$', text, re.M)
        edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', text, re.M)
        assert len(nodes) == 24

        red = {label for label, attr in nodes if attr}
        expected_red = {
            word_string(system, shortlex_normal_form(system, element_from_word(system, w)))
            for w in FIGURE_WORDS
        }
        assert len(expected_red) == 8
        assert red == expected_red

        # covering relations against the dominance-order oracle on all pairs
        def perm(word):
            p = list(range(4))
            for i in word:
                p[i], p[i + 1] = p[i + 1], p[i]
            return tuple(p)

        labelled = [
            (el, word, word_string(system, word))
            for el, word in enumerate_with_words(system, None)
        ]
        expected_edges = set()
        for v, vw, vs in labelled:
            for w, ww, ws in labelled:
                if w.length == v.length + 1 and bruhat_dominance_leq(perm(vw), perm(ww)):
                    expected_edges.add((vs, ws))
        assert set(edges) == expected_edges
        assert len(edges) == len(expected_edges)
