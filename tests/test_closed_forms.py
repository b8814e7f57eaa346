import pytest

from coxfold.closed_forms import (
    FORMULA_TAGS,
    catalog,
    closed_form,
    corollary_identity,
    coset_factor,
    poincare_a,
    poincare_b,
    reiner_distribution,
    substitution_route,
    unfolding_closed_form,
)
from coxfold.errors import InvalidParameters, NonUnitDivisor
from coxfold.folding import (
    FAMILY_NAMES,
    FamilyId,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)
from coxfold.coxeter import build_system
from coxfold.qseries import Monomial, QSeries, StatSeries, q_factorial, q_integer, substitute

from oracles import poly_mul, poly_qint


class TestFinitePolynomials:
    def test_rank_two_classical(self):
        got = closed_form("Thm1.3-1", 2)
        assert list(got.coeffs) == [1, 1, 1, 2, 1, 1, 1]

    def test_alternating_product_matches_direct_expansion(self):
        expected = [1]
        for k in range(1, 7):
            expected = poly_mul(expected, poly_qint(k, 1 if k % 2 == 0 else -1))
        assert list(closed_form("Thm1.3-1", 3).coeffs) == expected

    def test_even_dihedral(self):
        got = closed_form("Thm1.3-4", 4)
        expected = poly_mul(poly_qint(2, 1, 2), poly_qint(5, 1, 2))
        assert list(got.coeffs) == expected

    def test_odd_dihedral(self):
        got = closed_form("Thm1.3-5", 3)
        expected = poly_mul(poly_mul(poly_qint(2), poly_qint(2, 1, 2)), poly_qint(2, 1, 3))
        assert list(got.coeffs) == expected
        # coincides with the rank-two classical polynomial
        assert got == closed_form("Thm1.3-1", 2)

    def test_dihedral_parity_checks(self):
        with pytest.raises(InvalidParameters):
            closed_form("Thm1.3-4", 3)
        with pytest.raises(InvalidParameters):
            closed_form("Thm1.3-5", 4)

    @pytest.mark.parametrize("part,n", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
    def test_matches_bruteforce(self, part, n):
        fam = {1: "Bn-A2n-1", 2: "Bn-A2n", 3: "Bn-Dn+1"}[part]
        brute = unfolding_series_bruteforce(standard_folding(FamilyId(fam, n)), None)
        assert closed_form(f"Thm1.3-{part}", n) == brute

    @pytest.mark.parametrize("n", range(3, 9))
    def test_dihedral_family_matches_bruteforce(self, n):
        brute = unfolding_series_bruteforce(standard_folding(FamilyId("I2-An", n)), None)
        got = unfolding_closed_form(FamilyId("I2-An", n))
        assert got == brute
        assert got.eval_at_one() == 2 * (n + 1)


class TestAffineSeries:
    def test_doubled_infinite_dihedral(self):
        got = closed_form("Thm1.5", 2, 2, 8)
        assert list(got.coeffs) == [1, 0, 2, 0, 2, 0, 2, 0, 2]

    def test_literal_first_factor_divides_by_zero(self):
        with pytest.raises(NonUnitDivisor):
            closed_form("Thm1.5", 2, 2, 8, literal=True)
        with pytest.raises(NonUnitDivisor):
            closed_form("Bott-affA", 2, None, 8, literal=True)

    def test_affine_tags_require_truncation(self):
        with pytest.raises(InvalidParameters):
            closed_form("Thm1.6-1", 3)

    @pytest.mark.parametrize("part", [1, 2, 3])
    def test_affine_b_matches_bruteforce(self, part):
        fam = {1: "affB-affDn+1", 2: "affB-affD2n", 3: "affB-affD2n+1"}[part]
        brute = unfolding_series_bruteforce(standard_folding(FamilyId(fam, 3)), 10)
        assert closed_form(f"Thm1.6-{part}", 3, None, 10) == brute

    @pytest.mark.parametrize("part", [1, 2, 3, 4, 5, 6, 7])
    def test_affine_c_matches_bruteforce(self, part):
        fam = {
            1: "affC-affA2n+1",
            2: "affC-affA2n",
            3: "affC-affA2n-1",
            4: "affC-affBn+1",
            5: "affC-affDn+2",
            6: "affC-affC2n+1",
            7: "affC-affC2n",
        }[part]
        brute = unfolding_series_bruteforce(standard_folding(FamilyId(fam, 2)), 10)
        assert closed_form(f"Thm1.7-{part}", 2, None, 10) == brute

    def test_bott_matches_enumeration(self):
        from collections import Counter

        from coxfold.coxeter import enumerate_up_to

        for n in (2, 3):
            hist = Counter(k for _, k in enumerate_up_to(build_system(f"affine-A{n-1}"), 12))
            series = QSeries([hist.get(k, 0) for k in range(13)], 12)
            assert closed_form("Bott-affA", n, None, 12) == series


def _registered(name, n, m):
    try:
        return FamilyId(name, n, m)
    except InvalidParameters:
        return None


# every affine family at every registered n in 2..5 (affine A at m = 2, 3)
AFFINE_FAMILIES = [
    fam
    for name in FAMILY_NAMES
    if name.startswith("aff")
    for n in range(2, 6)
    for m in ((2, 3) if name == "affA-affA" else (None,))
    if (fam := _registered(name, n, m)) is not None
]


class TestDualRoutes:
    """Product formulas versus distribution substitutions, formula-only."""

    @pytest.mark.parametrize(
        "name", ["affB-affDn+1", "affB-affD2n", "affB-affD2n+1"]
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_affine_b(self, name, n):
        fam = FamilyId(name, n)
        assert unfolding_closed_form(fam, 14, "product") == substitution_route(fam, 14)

    @pytest.mark.parametrize(
        "name",
        [
            "affC-affA2n+1",
            "affC-affA2n",
            "affC-affA2n-1",
            "affC-affBn+1",
            "affC-affDn+2",
            "affC-affC2n+1",
            "affC-affC2n",
        ],
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_affine_c(self, name, n):
        fam = FamilyId(name, n)
        assert unfolding_closed_form(fam, 14, "product") == substitution_route(fam, 14)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_affine_a(self, n, m):
        fam = FamilyId("affA-affA", n, m)
        assert unfolding_closed_form(fam, 14, "product") == substitution_route(fam, 14)

    @pytest.mark.parametrize("fam", AFFINE_FAMILIES, ids=lambda f: f"{f.name}-{f.n}-{f.m}")
    def test_every_affine_family(self, fam):
        # L = 40 reaches the highest denominators, e.g. 1 - q^{2(n+k)+1}
        product = unfolding_closed_form(fam, 40, "product")
        assert product.order == 40
        assert product == substitution_route(fam, 40)

    def test_substitution_route_needs_affine(self):
        with pytest.raises(InvalidParameters):
            unfolding_closed_form(FamilyId("Bn-A2n", 2), None, "substitution")


AFFINE_TAGS = [
    "Thm1.5", "Thm1.6-1", "Thm1.6-2", "Thm1.6-3", "Bott-affA",
    *(f"Thm1.7-{part}" for part in range(1, 8)),
]
FINITE_TAGS = [
    ("Thm1.3-1", 3), ("Thm1.3-2", 3), ("Thm1.3-3", 4), ("Thm1.3-4", 4), ("Thm1.3-5", 5),
    ("Poincare-An", 3), ("Poincare-Bn", 3),
]


class TestFormulaTable:
    @pytest.mark.parametrize("tag", AFFINE_TAGS)
    @pytest.mark.parametrize("n", [3, 4])
    def test_truncation_is_consistent(self, tag, n):
        assert closed_form(tag, n, 2, 30).truncate(12).to_json() == closed_form(
            tag, n, 2, 12
        ).to_json()

    @pytest.mark.parametrize("tag", AFFINE_TAGS)
    def test_affine_tags_need_an_order(self, tag):
        with pytest.raises(InvalidParameters):
            closed_form(tag, 3, 2)

    @pytest.mark.parametrize("tag,n", FINITE_TAGS)
    @pytest.mark.parametrize("max_len", [None, 0, 3, 50])
    def test_finite_tags_are_exact(self, tag, n, max_len):
        got = closed_form(tag, n, None, max_len)
        assert got.order is None
        assert got == closed_form(tag, n)

    def test_tags_split_into_affine_finite_and_other(self):
        other = {"Cor1.4", "Reiner-affB", "Reiner-affC", "CosetFactor-Lemma3.1"}
        finite = {tag for tag, _ in FINITE_TAGS}
        assert set(FORMULA_TAGS) == set(AFFINE_TAGS) | finite | other

    @pytest.mark.parametrize(
        "tag,n,max_len",
        [
            ("Thm1.3-", 2, None),
            ("Thm1.7-x", 2, 5),
            ("Thm1.6-", 3, 5),
            ("Thm1.3-9", 2, None),
            ("Cor1.4", 3, None),
            ("Reiner-affC", 2, 5),
        ],
    )
    def test_malformed_or_non_series_tags(self, tag, n, max_len):
        with pytest.raises(InvalidParameters):
            closed_form(tag, n, None, max_len)


class TestCoefficientPositivity:
    """Unfolding series count group elements, so every coefficient is >= 0."""

    @pytest.mark.parametrize(
        "fam",
        [
            FamilyId("Bn-A2n-1", 4),
            FamilyId("Bn-A2n", 4),
            FamilyId("Bn-Dn+1", 4),
            FamilyId("I2-An", 8),
            FamilyId("affA-affA", 3, 2),
            FamilyId("affB-affD2n", 4),
            FamilyId("affC-affA2n+1", 3),
            FamilyId("affC-affBn+1", 3),
            FamilyId("affC-affC2n", 3),
        ],
        ids=lambda f: f.name,
    )
    def test_closed_forms_are_nonnegative(self, fam):
        L = None if not fam.is_affine else 20
        series = unfolding_closed_form(fam, L)
        assert all(c >= 0 for c in series.coeffs)


class TestReinerDistribution:
    def test_constant_term(self):
        dist = reiner_distribution("affC", 2, 5)
        assert dist.coeffs[(0, 0, 0)] == 1

    def test_matches_bruteforce_small(self):
        brute = reiner_stats_bruteforce(build_system("affine-C2"), 3)
        assert reiner_distribution("affC", 2, 3) == brute

    def test_parameter_floors(self):
        with pytest.raises(InvalidParameters):
            reiner_distribution("affB", 2, 5)
        with pytest.raises(InvalidParameters):
            reiner_distribution("affC", 1, 5)
        with pytest.raises(InvalidParameters):
            reiner_distribution("affD", 3, 5)

    def test_a_to_zero_is_signed_permutation_distribution(self):
        # killing the a-variable leaves the finite hyperoctahedral
        # distribution (-bq;q)_n [n]_q!
        n, L = 3, 24
        dist = reiner_distribution("affC", n, L).specialize_a(Monomial(0, 0))
        expected = StatSeries.one(L)
        for k in range(n):
            expected = expected * (
                StatSeries.one(L)
                + StatSeries.from_monomial(Monomial(1, k + 1, b_exp=1), L)
            )
        fact = q_factorial(n, Monomial(1, 1))
        expected = expected * StatSeries(
            {(0, 0, k): c for k, c in enumerate(fact.coeffs) if c}, L
        )
        assert dist == expected

    def test_finite_specializations_recover_unfolding_polynomials(self):
        # (b, q) substitutions into the a->0 slice give the three finite
        # series; the correct pairing is b->1/q for the odd-rank linear
        # target and b->q for the even one (doubling vs tripling of the
        # end generator), with q->q^2 in both, and b->q, q->q for the
        # fork target.
        n, L = 3, 30
        one = Monomial(1, 0)
        sliced = reiner_distribution("affC", n, L).specialize_a(Monomial(0, 0))
        cases = [
            ("Thm1.3-1", Monomial(1, -1), Monomial(1, 2)),
            ("Thm1.3-2", Monomial(1, 1), Monomial(1, 2)),
            ("Thm1.3-3", Monomial(1, 1), Monomial(1, 1)),
        ]
        for tag, b_val, q_val in cases:
            got = substitute(sliced, one, b_val, q_val, L)
            assert got == closed_form(tag, n).truncate(L), tag


class TestCorollaryIdentity:
    def test_printed_polynomial(self):
        lhs, rhs = corollary_identity(3, "A2n-1")
        expected = QSeries([1, -1, 1, 0, -2, 2, -2, 0, 1, -1, 1])
        assert lhs == expected and rhs == expected

    @pytest.mark.parametrize("n,variant", [(3, "A2n-1"), (4, "A2n"), (5, "A2n-1")])
    def test_sides_agree(self, n, variant):
        lhs, rhs = corollary_identity(n, variant)
        assert lhs == rhs

    def test_summation_set_sizes(self):
        assert poincare_b(2).eval_at_one() ** 2 == 64
        assert poincare_a(3).eval_at_one() * poincare_b(2).eval_at_one() == 192

    def test_parity_validation(self):
        with pytest.raises(InvalidParameters):
            corollary_identity(4, "A2n-1")
        with pytest.raises(InvalidParameters):
            corollary_identity(3, "A2n")
        with pytest.raises(InvalidParameters):
            corollary_identity(2, "A2n")


class TestPoincare:
    @pytest.mark.parametrize("n,order", [(1, 2), (2, 6), (3, 24), (4, 120)])
    def test_type_a_order(self, n, order):
        assert poincare_a(n).eval_at_one() == order

    @pytest.mark.parametrize("n,order", [(2, 8), (3, 48)])
    def test_type_b_order(self, n, order):
        assert poincare_b(n).eval_at_one() == order

    def test_palindromic(self):
        for p in (poincare_a(4), poincare_b(3)):
            c = list(p.coeffs)
            assert c == c[::-1]


class TestCosetFactor:
    def test_linear_odd(self):
        assert coset_factor(1, 2) == q_integer(3, Monomial(-1, 1)) * q_integer(
            4, Monomial(1, 1)
        )

    def test_linear_even(self):
        assert coset_factor(2, 2) == q_integer(4, Monomial(1, 1)) * q_integer(
            5, Monomial(-1, 1)
        )

    def test_fork(self):
        assert list(coset_factor(3, 3).coeffs) == [1, 1, 1, 0, 1, 1, 1]

    def test_floors(self):
        with pytest.raises(InvalidParameters):
            coset_factor(3, 2)
        with pytest.raises(InvalidParameters):
            coset_factor(4, 3)


class TestCatalog:
    def test_covers_all_tags(self):
        tags = {entry["tag"] for entry in catalog()}
        assert tags == set(FORMULA_TAGS)

    def test_serializable(self):
        import json

        text = json.dumps(catalog())
        assert "Thm1.7-6" in text
