import gc
import math

import pytest

import coxfold.coxeter
import coxfold.folding
from coxfold.closed_forms import unfolding_closed_form
from coxfold.coxeter import (
    Element,
    build_system,
    element_from_word,
    enumerate_parabolic,
    enumerate_up_to,
    enumerate_with_words,
    minimal_coset_reps,
    multiply,
    right_descents,
    shortlex_normal_form,
    word_string,
)
from coxfold.errors import IndexOutOfRange, InvalidParameters, ResourceLimit
from coxfold.folding import (
    _FAMILIES,
    FAMILY_NAMES,
    FactorizationReport,
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

from oracles import is_kernel, is_right_descent_data

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


def table_families(extra):
    """Every row of the family table at n = min_n .. min_n + extra (m = 2, 3 if it takes m)."""
    return [
        FamilyId(name, n, m)
        for name, row in _FAMILIES.items()
        for n in range(row.min_n, row.min_n + extra + 1)
        for m in ((2, 3) if row.takes_m else (None,))
    ]


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

    @pytest.mark.parametrize("fam", table_families(2), ids=family_label)
    def test_labels_match_built_folding(self, fam):
        f = standard_folding(fam)
        assert (fam.source_label(), fam.target_label()) == (f.source.label, f.target.label)


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
            assert f.target.is_identity(multiply(f.target, elem, elem))


class TestFoldingValidation:
    def test_one_word_per_source_generator(self):
        # one longest word covering A3 would pass every other check
        with pytest.raises(ValueError, match="one unfold word"):
            Folding(build_system("B2"), build_system("A3"), [(0, 1, 0, 2, 1, 0)])

    def test_blocks_must_cover(self):
        with pytest.raises(ValueError):
            Folding(build_system("B2"), build_system("A3"), [(0, 2), ()])
        # s1 and s3 are longest elements of their blocks; only s2 is missing
        with pytest.raises(ValueError, match="do not cover"):
            Folding(build_system("B2"), build_system("A3"), [(0,), (2,)])

    def test_blocks_must_not_overlap(self):
        with pytest.raises(ValueError):
            Folding(build_system("B2"), build_system("A3"), [(0, 1), (1, 2)])
        # both words are longest elements of their blocks, which cover A3
        with pytest.raises(ValueError, match="overlap"):
            Folding(build_system("B2"), build_system("A3"), [(0, 1, 0), (1, 2, 1)])

    def test_word_must_be_block_longest_element(self):
        # (s1, s2) is not the longest element of the parabolic on {s1, s2}
        with pytest.raises(ValueError):
            Folding(build_system("I2(3)"), build_system("A3"), [(0, 1), (2,)])

    def test_block_with_infinite_parabolic(self):
        # {s0, s1} of affine A1 generates an infinite group with no longest element
        with pytest.raises(ValueError):
            Folding(build_system("A1"), build_system("affine-A1"), [(0, 1)])

    def test_letters_in_range(self):
        # a letter is checked before the blocks are counted
        for letters in ([(0, 5), (1,)], [(5,), (1,)], [(-1,), (1,)]):
            with pytest.raises(IndexOutOfRange):
                Folding(build_system("B2"), build_system("A3"), letters)

    def test_empty_unfold_word(self):
        # the other block covers A1, so only the empty word itself is wrong
        with pytest.raises(ValueError, match="generator 1 is empty"):
            Folding(build_system("I2(3)"), build_system("A1"), [(0,), ()])


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
        # (budget, layer, stored) where the walk stops: nodes pruned by the
        # cutoff are not counted, and the budget is checked per stored node
        cases = [
            (FamilyId("affC-affC2n", 2), 20, 10, (10, 3, 11)),
            (FamilyId("Bn-Dn+1", 4), None, 100, (100, 6, 101)),
            (FamilyId("affB-affDn+1", 3), 12, 50, (50, 4, 51)),
        ]
        for family, L, budget, expected in cases:
            f = standard_folding(family)
            with pytest.raises(ResourceLimit) as info:
                unfolding_series_bruteforce(f, L, budget=budget)
            stop = info.value
            assert (stop.budget, stop.layer, stop.stored) == expected, family

    def test_unfolded_length_is_measured_not_summed(self):
        # s1 s2 s1 unfolds to a word of 7 letters, s1 s2 s1 s3 s1 s2 s1,
        # whose element is the reflection in a1 + a2 + a3, of length 5
        bad = Folding(build_system("I2(3)"), build_system("A3"), [(0, 1, 0), (2,)])
        assert list(unfolding_series_bruteforce(bad, None).coeffs) == [1, 1, 0, 1, 2, 1]

    def test_worker_counts_agree(self):
        f = standard_folding(FamilyId("affB-affDn+1", 3))
        runs = [
            list(unfolding_series_bruteforce(f, 8, workers=w).coeffs) for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_image_size(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert len(unfolded_image(f)) == 8

    def test_walks_with_nothing_to_filter_pass_no_filter(self, monkeypatch):
        # an exact series and the unfolded image have no cutoff and no
        # source filter, so the walk gets keep=None; a cutoff needs one
        keeps = []
        bfs = coxfold.folding._bfs

        def recording(*args, keep=None, **kwargs):
            keeps.append(keep)
            return bfs(*args, keep=keep, **kwargs)

        monkeypatch.setattr(coxfold.folding, "_bfs", recording)
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        unfolding_series_bruteforce(f, None)
        unfolded_image(f)
        unfolding_series_bruteforce(f, 3)
        assert keeps[:2] == [None, None] and keeps[2] is not None


def test_unfolding_step_swaps_in_the_target_kernels():
    # B5 -> D6 stores 3,839 nodes beyond the root, past 500 per generator
    # of B5: the walk reads each source letter's step from the folding's
    # table, which the source's swap fills with the target's compiled
    # block kernels part way through, with the source's own tables.  No
    # step reads the target's tables, and they keep their primitives
    fam = FamilyId("Bn-Dn+1", 5)
    f = standard_folding(fam)
    source, target, kinds = f.source, f.target, set()

    class RecordingTable(list):
        def __getitem__(self, r):
            step = list.__getitem__(self, r)
            kinds.add(is_kernel(step))
            return step

    ((_, words, _),) = source._step_tables
    f._steps = RecordingTable(f._steps)
    source._step_tables[0] = (target, words, f._steps)
    assert unfolding_series_bruteforce(f, None) == unfolding_closed_form(fam)
    assert kinds == {True, False}
    assert all(map(is_kernel, f._steps + source._apply_table + source._child_table))
    assert not any(map(is_kernel, target._apply_table + target._child_table))


def test_check_admissible_swaps_in_the_block_kernels(monkeypatch):
    # the whole of B5 to source length 25: the walk of the source
    # compiles, and the report is the one the primitives give
    fam = FamilyId("Bn-Dn+1", 5)
    plain = standard_folding(fam)
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", 10**9)
    want = repr(check_admissible(plain, 25))
    monkeypatch.undo()
    assert not any(map(is_kernel, plain._steps + plain.source._apply_table))
    f = standard_folding(fam)
    report = check_admissible(f, 25)
    assert report.passed and report.elements_checked == 3840
    assert all(map(is_kernel, f._steps))
    assert repr(report) == want


def test_a_walk_made_after_the_swap_starts_compiled(monkeypatch):
    # a folding built on a source whose walks compiled already gets its
    # block kernels at once; a dihedral target keeps the primitives, so
    # does a dihedral source however far it walks
    source = build_system("B5")
    assert sum(1 for _ in enumerate_up_to(source, None)) == 3840
    f = Folding(source, build_system("D6"), [(i,) for i in range(4)] + [(4, 5)])
    assert all(map(is_kernel, f._steps))
    assert not any(map(is_kernel, f.target._apply_table))
    f = standard_folding(FamilyId("I2-An", 2))
    assert f.target.backend == "dihedral"
    assert unfolding_series_bruteforce(f, None) == unfolding_closed_form(FamilyId("I2-An", 2))
    assert not any(map(is_kernel, f._steps))
    # a weight A1 source swaps at its first letter, but its I2(3) target has no kernels
    f = Folding(build_system("A1"), build_system("I2(3)"), [(0, 1, 0)])
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", 0)
    assert unfolding_series_bruteforce(f, None) == QSeries([1, 0, 0, 1])
    assert is_kernel(f.source._apply_table[0]) and not any(map(is_kernel, f._steps))


@pytest.mark.parametrize("paused", [False, True])
@pytest.mark.parametrize("budget", [10**6, 20])
def test_series_walk_pauses_the_collector_only_for_itself(paused, budget):
    # the walk runs with the cyclic collector off and puts back the
    # caller's state, after a ResourceLimit too; a caller that paused it
    # keeps it paused
    f = standard_folding(FamilyId("Bn-A2n", 3))
    seen = []

    def keep(key, payload):
        seen.append(gc.isenabled())
        return True

    if paused:
        gc.disable()
    try:
        if budget == 20:
            with pytest.raises(ResourceLimit):
                coxfold.folding._series(f, None, keep, budget)
        else:
            assert coxfold.folding._series(f, None, keep, budget).eval_at_one() == 48
        assert gc.isenabled() is not paused
    finally:
        gc.enable()
    assert seen and not any(seen)


B2_A3 = standard_folding(FamilyId("Bn-A2n-1", 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_up_to(build_system("A2"), -1)),
        lambda: list(enumerate_with_words(build_system("B3"), -1)),
        lambda: list(enumerate_parabolic(build_system("A3"), [0], -1)),
        lambda: list(minimal_coset_reps(build_system("affine-C2"), [0], -2)),
        lambda: check_admissible(B2_A3, -1),
        lambda: reiner_stats_bruteforce("affC", 2, -1),
        lambda: unfolding_series_bruteforce(B2_A3, -1),
        lambda: coset_series_bruteforce(B2_A3, [0], -1),
        lambda: folding_factorization_check(B2_A3, [0], -1),
    ],
    ids=[
        "enumerate_up_to", "enumerate_with_words", "enumerate_parabolic", "minimal_coset_reps",
        "check_admissible", "reiner_stats_bruteforce", "unfolding_series_bruteforce",
        "coset_series_bruteforce", "folding_factorization_check",
    ],
)
def test_negative_cutoff_raises(call):
    # the walk checks its length cutoff, and the folding walks their
    # ambient cutoff, before anything is enumerated
    with pytest.raises(InvalidParameters, match="must be a non-negative int"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_up_to(build_system("A2"), "5")),
        lambda: list(enumerate_up_to(build_system("A2"), 2.0)),
        lambda: check_admissible(B2_A3, "5"),
        lambda: unfolding_series_bruteforce(B2_A3, "5"),
        lambda: coset_series_bruteforce(B2_A3, [0], 2.0),
        lambda: list(enumerate_up_to(build_system("A2"), False)),
        lambda: unfolding_series_bruteforce(B2_A3, True),
    ],
    ids=[
        "enumerate_up_to-str", "enumerate_up_to-float", "check_admissible", "series", "coset",
        "enumerate_up_to-bool", "series-bool",
    ],
)
def test_non_int_cutoff_raises(call):
    # a cutoff that is not an int is refused like a negative one, before
    # any comparison with a length could raise TypeError; a bool is an int
    # to isinstance, but no cutoff
    with pytest.raises(InvalidParameters, match="must be a non-negative int"):
        call()


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

    @pytest.mark.parametrize("fam", table_families(1), ids=family_label)
    def test_every_table_row_builds_admissible(self, fam):
        assert check_admissible(standard_folding(fam), 4).passed

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

    def test_block_of_adjacent_generators_reports_its_witnesses(self):
        f = Folding(build_system("A2"), build_system("A3"), [(0,), (1, 2, 1)])
        report = check_admissible(f, 12)
        assert not report.passed
        assert report.elements_checked == 6
        assert report.violations == [
            {"source_word": "s2 s1", "generator": 1, "block": ["s2", "s3"]},
            {"source_word": "s1 s2 s1", "generator": 1, "block": ["s2", "s3"]},
        ]


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
                src_descends = is_right_descent_data(f.source, src.data, r)
                for s in block:
                    assert (
                        is_right_descent_data(f.target, tgt.data, s) == src_descends
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
    """The raw records of ``_source_records``, with each side made an ``Element``."""
    from coxfold.folding import _source_records

    return [
        (Element(key, len(word)), word, Element(*ambient))
        for key, word, ambient in _source_records(f, ambient_cutoff=ambient_cutoff)
    ]


class TestReinerStats:
    def test_cutoff_zero(self):
        stats = reiner_stats_bruteforce("affC", 2, 0)
        assert stats.coeffs == {(0, 0, 0): 1}

    def test_small_ball_terms(self):
        stats = reiner_stats_bruteforce("affC", 2, 2)
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
        stats = reiner_stats_bruteforce("affB", 3, 4)
        assert all(j == 0 for (_, j, _) in stats.coeffs)

    def test_wrong_type_rejected(self):
        with pytest.raises(InvalidParameters):
            reiner_stats_bruteforce("affA", 2, 3)

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

    def test_out_of_range_subset(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        with pytest.raises(IndexOutOfRange):
            folding_factorization_check(f, [2], None)

    @staticmethod
    def _checks(report):
        return (
            report.passed,
            report.parabolic_in_parabolic,
            report.minima_in_minima,
            report.series_match,
        )

    def test_minima_unfold_outside_the_minima_for_an_inadmissible_block(self):
        f = Folding(build_system("A2"), build_system("A3"), [(0,), (1, 2, 1)])
        report = folding_factorization_check(f, {1}, 12)
        assert self._checks(report) == (False, True, False, False)

    def test_admissible_manual_folding_fails_only_the_series(self):
        g = Folding(build_system("A2"), build_system("A3"), [(1,), (0, 2)])
        assert check_admissible(g, 12).passed
        report = folding_factorization_check(g, {1}, 12)
        assert self._checks(report) == (False, True, True, False)

    def test_minima_fail_while_the_series_holds(self):
        f = Folding(build_system("I2(5)"), build_system("A5"), [(0, 2, 3, 2), (1, 4)])
        report = folding_factorization_check(f, {0}, 12)
        assert self._checks(report) == (False, True, False, True)


def _reference_factorization(f, J_hat, L):
    """The earlier algorithm: three walks, each element re-unfolded by its word."""
    J = {s for r in J_hat for s in f.blocks[r]}

    def images(elements):
        return [t for t in (unfold(f, w) for w in elements) if L is None or t.length <= L]

    full = images(el for el, _ in enumerate_up_to(f.source, L))
    par = images(el for el, _ in enumerate_parabolic(f.source, J_hat, L))
    cos = images(minimal_coset_reps(f.source, J_hat, L))
    full_s, par_s, cos_s = (
        QSeries.from_lengths((t.length for t in ts), L) for ts in (full, par, cos)
    )
    par_ok = all(set(shortlex_normal_form(f.target, t)) <= J for t in par)
    min_ok = not any(right_descents(f.target, t) & J for t in cos)
    series_ok = full_s == cos_s * par_s
    return FactorizationReport(
        par_ok and min_ok and series_ok, L, par_ok, min_ok, series_ok, full_s, cos_s, par_s
    )


def _exact(value):
    # series compare by coefficients and order, not by truncated equality
    return (value.coeffs, value.order) if isinstance(value, QSeries) else value


_REPORT_FIELDS = (
    "passed", "max_len", "parabolic_in_parabolic", "minima_in_minima", "series_match",
    "full_series", "coset_series", "parabolic_series",
)


def _fields(report):
    # every field is compared: the list must be the report's whole field tuple
    assert type(report).__slots__ == _REPORT_FIELDS
    return [_exact(getattr(report, name)) for name in _REPORT_FIELDS]


def _reference_cases():
    """Every family row at min_n and min_n + 1, and two manual foldings that are homomorphisms."""
    rows = [
        FamilyId(name, row.min_n + extra, 2 if row.takes_m else None)
        for extra in (0, 1)
        for name, row in _FAMILIES.items()
    ]
    manual = [("A2", "A3", [(0,), (1, 2, 1)]), ("I2(5)", "A5", [(0, 2, 3, 2), (1, 4)])]
    return [pytest.param(standard_folding(fam), id=family_label(fam)) for fam in rows] + [
        pytest.param(Folding(build_system(s), build_system(t), letters), id=f"manual-{s}-{t}")
        for s, t, letters in manual
    ]


@pytest.mark.parametrize("f", _reference_cases())
def test_one_walk_matches_the_reference_walks(f):
    last = f.source.rank - 1
    L = 7 if f.source.label.startswith("affine-") else None
    for J_hat in sorted({(), (0,), (last,), tuple(range(1, last + 1))}):
        expected = _reference_factorization(f, J_hat, L)
        assert _fields(folding_factorization_check(f, J_hat, L)) == _fields(expected), J_hat
        coset = coset_series_bruteforce(f, J_hat, L)
        assert _exact(coset) == _exact(expected.coset_series), J_hat
