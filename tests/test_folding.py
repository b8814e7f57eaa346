import math

import pytest

from coxfold.coxeter import (
    build_system,
    element_from_word,
    enumerate_with_words,
    multiply,
    word_string,
)
from coxfold.errors import IndexOutOfRange, InvalidParameters, ResourceLimit
from coxfold.folding import (
    FAMILY_NAMES,
    FamilyId,
    Folding,
    check_admissible,
    coset_series_bruteforce,
    folding_factorization_check,
    reiner_stats_bruteforce,
    standard_folding,
    unfold,
    unfold_word,
    unfolded_image,
    unfolding_series_bruteforce,
)
from coxfold.qseries import QSeries

# one small parameter choice per family, used by the property suites
SMALL_FAMILIES = [
    FamilyId("Bn-A2n-1", 2),
    FamilyId("Bn-A2n", 2),
    FamilyId("Bn-Dn+1", 2),
    FamilyId("Bn-Dn+1", 3),
    FamilyId("I2-An", 4),
    FamilyId("affA-affA", 2, 2),
    FamilyId("affA-affA", 3, 2),
    FamilyId("affB-affDn+1", 3),
    FamilyId("affB-affD2n", 3),
    FamilyId("affB-affD2n+1", 3),
    FamilyId("affC-affA2n+1", 2),
    FamilyId("affC-affA2n", 2),
    FamilyId("affC-affA2n-1", 2),
    FamilyId("affC-affBn+1", 2),
    FamilyId("affC-affDn+2", 2),
    FamilyId("affC-affC2n+1", 2),
    FamilyId("affC-affC2n", 2),
]


def family_label(fam):
    return f"{fam.name}-n{fam.n}" + (f"-m{fam.m}" if fam.m else "")


class TestFamilyId:
    def test_unknown_name(self):
        with pytest.raises(InvalidParameters):
            FamilyId("Bn-E8", 2)

    @pytest.mark.parametrize(
        "name,n", [("Bn-A2n-1", 1), ("I2-An", 1), ("affB-affD2n", 2), ("affC-affC2n", 1)]
    )
    def test_parameter_floors(self, name, n):
        with pytest.raises(InvalidParameters):
            FamilyId(name, n)

    def test_m_handling(self):
        with pytest.raises(InvalidParameters):
            FamilyId("affA-affA", 2)  # missing m
        with pytest.raises(InvalidParameters):
            FamilyId("affA-affA", 2, 1)
        with pytest.raises(InvalidParameters):
            FamilyId("Bn-A2n", 2, 2)  # spurious m

    def test_all_names_registered(self):
        assert len(FAMILY_NAMES) == 15


class TestRegistry:
    def test_classical_rank_two(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert [word_string(f.target, w) for w in f.unfold_letters] == ["s1 s3", "s2"]

    def test_doubled_linear_target(self):
        f = standard_folding(FamilyId("Bn-A2n", 2))
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s1 s4",
            "s2 s3 s2",
        ]

    def test_fork_target(self):
        f = standard_folding(FamilyId("Bn-Dn+1", 3))
        assert f.target.label == "D4"
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s1",
            "s2",
            "s3 s4",
        ]

    def test_rank_two_fork_aliases_to_linear(self):
        f = standard_folding(FamilyId("Bn-Dn+1", 2))
        assert f.target.label == "A3"
        assert f.family.name == "Bn-Dn+1"
        assert [word_string(f.target, w) for w in f.unfold_letters] == ["s1 s3", "s2"]

    def test_dihedral_family_words(self):
        f = standard_folding(FamilyId("I2-An", 4))
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s1 s3",
            "s2 s4",
        ]

    def test_affine_a_blocks(self):
        f = standard_folding(FamilyId("affA-affA", 2, 2))
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s0 s2",
            "s1 s3",
        ]

    def test_affine_b_to_doubled_fork_blocks(self):
        # the block table follows the diagram symmetry: the 4-bond end of
        # the source pairs with the fixed middle node of the target
        f = standard_folding(FamilyId("affB-affD2n", 3))
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s3",
            "s2 s4",
            "s1 s5",
            "s0 s6",
        ]

    def test_affine_c_to_affine_c_blocks(self):
        f = standard_folding(FamilyId("affC-affC2n+1", 2))
        assert [word_string(f.target, w) for w in f.unfold_letters] == [
            "s0 s5",
            "s1 s4",
            "s2 s3 s2",
        ]

    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_unfolded_generators_are_involutions(self, fam):
        f = standard_folding(fam)
        for elem in f.unfold_elements:
            assert f.target.is_identity(f.target.multiply(elem, elem))


class TestFoldingValidation:
    def test_blocks_must_cover(self):
        with pytest.raises(ValueError):
            Folding(build_system("B2"), build_system("A3"), [(0, 2), ()])

    def test_blocks_must_not_overlap(self):
        with pytest.raises(ValueError):
            Folding(build_system("B2"), build_system("A3"), [(0, 1), (1, 2)])

    def test_word_must_be_block_longest_element(self):
        # (s1, s2) is not the longest element of the parabolic on {s1, s2}
        with pytest.raises(ValueError):
            Folding(build_system("I2(3)"), build_system("A3"), [(0, 1), (2,)])

    def test_letters_in_range(self):
        with pytest.raises(IndexOutOfRange):
            Folding(build_system("B2"), build_system("A3"), [(0, 5), (1,)])


class TestUnfoldWord:
    def test_empty(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert unfold_word(f, ()) == ()

    def test_full_diagonal(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        word = unfold_word(f, (0, 1, 0, 1))
        assert word == (0, 2, 1, 0, 2, 1)
        assert element_from_word(f.target, word).length == 6

    def test_short_prefix(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        word = unfold_word(f, (0, 1))
        assert element_from_word(f.target, word).length == 3

    def test_out_of_range_letter(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        with pytest.raises(IndexOutOfRange):
            unfold_word(f, (0, 7))


class TestBruteforceSeries:
    def test_rank_two_classical(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        series = unfolding_series_bruteforce(f, None)
        assert series.order is None
        assert list(series.coeffs) == [1, 1, 1, 2, 1, 1, 1]

    def test_cutoff_zero(self):
        f = standard_folding(FamilyId("affC-affC2n", 2))
        assert list(unfolding_series_bruteforce(f, 0).coeffs) == [1]

    def test_doubling_affine_source(self):
        f = standard_folding(FamilyId("affA-affA", 2, 2))
        series = unfolding_series_bruteforce(f, 8)
        assert list(series.coeffs) == [1, 0, 2, 0, 2, 0, 2, 0, 2]

    @pytest.mark.parametrize(
        "fam",
        [f for f in SMALL_FAMILIES if not f.is_affine],
        ids=family_label,
    )
    def test_coefficient_sum_is_source_order(self, fam):
        f = standard_folding(fam)
        series = unfolding_series_bruteforce(f, None)
        if fam.name.startswith("Bn"):
            expected = 2**fam.n * math.factorial(fam.n)
        else:
            expected = 2 * (fam.n + 1)
        assert series.eval_at_one() == expected

    @pytest.mark.parametrize(
        "fam",
        [f for f in SMALL_FAMILIES if not f.is_affine],
        ids=family_label,
    )
    def test_degree_is_unfolded_longest_length(self, fam):
        f = standard_folding(fam)
        series = unfolding_series_bruteforce(f, None)
        longest = max(
            (el for el, _ in enumerate_with_words(f.source, None)),
            key=lambda e: e.length,
        )
        assert series.degree() == unfold(f, longest).length

    def test_budget(self):
        f = standard_folding(FamilyId("affC-affC2n", 2))
        with pytest.raises(ResourceLimit):
            unfolding_series_bruteforce(f, 20, budget=10)

    def test_worker_counts_agree(self):
        f = standard_folding(FamilyId("affB-affDn+1", 3))
        runs = [
            list(unfolding_series_bruteforce(f, 8, workers=w).coeffs) for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_image_size(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert len(unfolded_image(f)) == 8


class TestAdmissibility:
    def test_identity_cutoff(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert check_admissible(f, 0).passed

    def test_whole_rank_two_group(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        report = check_admissible(f, 4)
        assert report.passed and report.elements_checked == 8

    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_standard_foldings_admissible(self, fam):
        assert check_admissible(standard_folding(fam), 6).passed

    def test_non_commuting_block_fails(self):
        # grouping two adjacent generators of the linear group is not an
        # admissible partition; an explicit witness must be reported
        bad = Folding(build_system("I2(3)"), build_system("A3"), [(0, 1, 0), (2,)])
        report = check_admissible(bad, 3)
        assert not report.passed
        assert report.violations

    def test_first_violations_in_shortlex_order(self):
        # with more witnesses than max_violations, the first ones in
        # ShortLex order are reported, whatever the element encoding
        bad = Folding(
            build_system("A3"), build_system("A5"), [(0, 1, 0), (2, 3, 2), (4,)]
        )
        report = check_admissible(bad, 3, max_violations=2)
        assert [v["source_word"] for v in report.violations] == ["s1 s2", "s2 s1"]


class TestTransferProperties:
    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_length_additivity(self, fam):
        f = standard_folding(fam)
        letter_lengths = [el.length for el in f.unfold_elements]
        for src, word, tgt in _records(f, 8):
            assert tgt.length == sum(letter_lengths[r] for r in word)

    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_descent_transfer(self, fam):
        f = standard_folding(fam)
        for src, word, tgt in _records(f, 8):
            for r, block in enumerate(f.blocks):
                src_descends = f.source._is_right_descent_data(src.data, r)
                for s in block:
                    assert (
                        f.target._is_right_descent_data(tgt.data, s) == src_descends
                    )

    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_homomorphism(self, fam):
        f = standard_folding(fam)
        ball = [(el, tgt) for el, _, tgt in _records(f, 6)]
        small = [(el, tgt) for el, tgt in ball if el.length <= 2]
        for w, tw in small:
            for v, tv in small:
                prod = multiply(f.source, w, v)
                assert unfold(f, prod).data == multiply(f.target, tw, tv).data


def _records(f, ambient_cutoff):
    from coxfold.folding import _source_records

    return list(_source_records(f, ambient_cutoff=ambient_cutoff))


class TestReinerStats:
    def test_cutoff_zero(self):
        stats = reiner_stats_bruteforce(build_system("affine-C2"), 0)
        assert stats.coeffs == {(0, 0, 0): 1}

    def test_small_ball_terms(self):
        stats = reiner_stats_bruteforce(build_system("affine-C2"), 2)
        assert stats.coeffs == {
            (0, 0, 0): 1,
            (1, 0, 1): 1,
            (0, 0, 1): 1,
            (0, 1, 1): 1,
            (1, 0, 2): 2,
            (1, 1, 2): 1,
            (0, 1, 2): 2,
        }

    def test_affine_b_has_no_b_exponent(self):
        stats = reiner_stats_bruteforce(build_system("affine-B3"), 4)
        assert all(j == 0 for (_, j, _) in stats.coeffs)

    def test_wrong_type_rejected(self):
        with pytest.raises(InvalidParameters):
            reiner_stats_bruteforce(build_system("affine-A2"), 3)

    def test_below_range_label_rejected(self):
        from coxfold.errors import UnsupportedLabel

        with pytest.raises(UnsupportedLabel):
            build_system("affine-B2")

    @pytest.mark.parametrize(
        "label,tracked",
        [("affine-C2", (0, 2)), ("affine-B3", (0,))],
    )
    def test_statistic_well_defined_across_reduced_words(self, label, tracked):
        from coxfold.coxeter import all_reduced_words

        system = build_system(label)
        for el, _ in enumerate_with_words(system, 5):
            counts = {
                tuple(w.count(t) for t in tracked)
                for w in all_reduced_words(system, el)
            }
            assert len(counts) == 1


class TestFactorization:
    def test_empty_subset_trivial(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        report = folding_factorization_check(f, [], None)
        assert report.passed
        assert report.parabolic_series == QSeries([1])

    def test_rank_two_split(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        report = folding_factorization_check(f, [1], None)
        assert report.passed
        assert list(report.coset_series.coeffs) == [1, 0, 1, 1, 0, 1]
        assert list(report.parabolic_series.coeffs) == [1, 1]
        assert report.full_series == report.coset_series * report.parabolic_series

    def test_rank_three_coset_factor(self):
        from coxfold.qseries import Monomial, q_integer

        f = standard_folding(FamilyId("Bn-A2n-1", 3))
        series = coset_series_bruteforce(f, [1, 2], None)
        expected = q_integer(5, Monomial(-1, 1)) * q_integer(6, Monomial(1, 1))
        assert series == expected

    def test_affine_factorization_with_cutoff(self):
        f = standard_folding(FamilyId("affC-affBn+1", 2))
        report = folding_factorization_check(f, [1, 2], 8)
        assert report.passed
