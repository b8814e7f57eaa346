import gc
import inspect
import itertools
import math
from functools import partial

import pytest

import coxfold.coxeter
import coxfold.folding
from coxfold.closed_forms import unfolding_closed_form
from coxfold.coxeter import (
    DEFAULT_BUDGET,
    CoxeterMatrix,
    Element,
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    multiply,
    word_string,
)
from coxfold.errors import IndexOutOfRange, InvalidParameters, ResourceLimit
from coxfold.folding import (
    _FAMILIES,
    FAMILY_NAMES,
    FamilyId,
    Folding,
    coset_series_bruteforce,
    length_additivity_check,
    reiner_stats_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)
from coxfold.qseries import QSeries

from oracles import (
    admissibility_violations,
    all_reduced_words,
    bfs_all_generators,
    enumerate_parabolic,
    is_identity,
    is_right_descent_data,
    minimal_coset_reps,
    recording_loops,
    reference_factorization,
    source_label,
    unfold,
    unfold_word,
    unfolded_image,
)

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
        assert (source_label(fam), fam.target_label()) == (f.source.label, f.target.label)


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
            assert is_identity(f.target, multiply(f.target, elem, elem))


class TestFoldingValidation:
    def test_one_word_per_source_generator(self):
        # one longest word covering A3 would pass every other check
        with pytest.raises(InvalidParameters, match="one unfold word"):
            Folding(build_system("B2"), build_system("A3"), [(0, 1, 0, 2, 1, 0)])

    def test_blocks_must_cover(self):
        with pytest.raises(InvalidParameters):
            Folding(build_system("B2"), build_system("A3"), [(0, 2), ()])
        # s1 and s3 are longest elements of their blocks; only s2 is missing
        with pytest.raises(InvalidParameters, match="do not cover"):
            Folding(build_system("B2"), build_system("A3"), [(0,), (2,)])

    def test_blocks_must_not_overlap(self):
        with pytest.raises(InvalidParameters):
            Folding(build_system("B2"), build_system("A3"), [(0, 1), (1, 2)])
        # both words are longest elements of their blocks, which cover A3
        with pytest.raises(InvalidParameters, match="overlap"):
            Folding(build_system("B2"), build_system("A3"), [(0, 1, 0), (1, 2, 1)])

    def test_word_must_be_block_longest_element(self):
        # (s1, s2) is not the longest element of the parabolic on {s1, s2}
        with pytest.raises(InvalidParameters):
            Folding(build_system("I2(3)"), build_system("A3"), [(0, 1), (2,)])

    def test_block_with_infinite_parabolic(self):
        # {s0, s1} of affine A1 generates an infinite group with no longest element
        with pytest.raises(InvalidParameters):
            Folding(build_system("A1"), build_system("affine-A1"), [(0, 1)])

    def test_letters_in_range(self):
        # a letter is checked before the blocks are counted
        for letters in ([(0, 5), (1,)], [(5,), (1,)], [(-1,), (1,)]):
            with pytest.raises(IndexOutOfRange):
                Folding(build_system("B2"), build_system("A3"), letters)

    def test_empty_unfold_word(self):
        # the other block covers A1, so only the empty word itself is wrong
        with pytest.raises(InvalidParameters, match="generator 1 is empty"):
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
        # (budget, layer, stored) where the chain stops: each of its walks
        # follows the walk's budget rule, nodes pruned by the cutoff or the
        # coset filter are not counted, and the budget is checked per stored
        # node; the coset walks of the first two store 31 and 8 nodes
        cases = [
            (FamilyId("affC-affC2n", 2), 20, 10, (10, 6, 11)),
            (FamilyId("Bn-Dn+1", 4), None, 7, (7, 7, 8)),
            (FamilyId("affB-affDn+1", 3), 12, 25, (25, 8, 26)),
        ]
        for family, L, budget, expected in cases:
            f = standard_folding(family)
            with pytest.raises(ResourceLimit) as info:
                unfolding_series_bruteforce(f, L, budget=budget)
            stop = info.value
            assert (stop.budget, stop.layer, stop.stored) == expected, family

    def test_budget_bounds_each_walk_of_the_chain(self):
        # B4 -> D5 walks 8, 6, 4 and 2 coset minima: a budget of 8 bounds
        # each walk, not their sum
        fam = FamilyId("Bn-Dn+1", 4)
        assert unfolding_series_bruteforce(standard_folding(fam), None, budget=8) == (
            unfolding_closed_form(fam)
        )

    def test_full_walk_budget(self):
        # (budget, layer, stored) where the walk of the whole source stops
        cases = [
            (FamilyId("affC-affC2n", 2), 20, 10, (10, 3, 11)),
            (FamilyId("Bn-Dn+1", 4), None, 100, (100, 6, 101)),
            (FamilyId("affB-affDn+1", 3), 12, 50, (50, 4, 51)),
        ]
        for family, L, budget, expected in cases:
            f = standard_folding(family)
            with pytest.raises(ResourceLimit) as info:
                coxfold.folding._series(f, L, None, budget)
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
        # an exact walk of the whole source and the unfolded image have no
        # cutoff and no source filter, so their walks get neither; a cutoff
        # comes alone
        filters = []
        bfs = coxfold.folding._bfs
        signature = inspect.signature(bfs)

        def recording(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            filters.append((bound.arguments["cutoff"], bound.arguments["keep"]))
            return bfs(*args, **kwargs)

        monkeypatch.setattr(coxfold.folding, "_bfs", recording)
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        coxfold.folding._series(f, None, None, DEFAULT_BUDGET)
        unfolded_image(f)
        coxfold.folding._series(f, 3, None, DEFAULT_BUDGET)
        assert filters == [(None, None), (None, None), (3, None)]


def test_the_bucket_loop_makes_every_node_of_a_long_walk(monkeypatch):
    # B5 -> D6 stores 3,839 nodes beyond the root, each made by the
    # bucket loop of coxeter._loops.  Neither system keeps anything of the
    # walk
    fam = FamilyId("Bn-Dn+1", 5)
    f = standard_folding(fam)
    source, target, calls = f.source, f.target, []
    states = [dict(vars(source)), dict(vars(target))]
    monkeypatch.setattr(coxfold.coxeter, "_loops", recording_loops(calls))
    assert coxfold.folding._series(f, None, None, DEFAULT_BUDGET) == unfolding_closed_form(fam)
    assert sum(made for *_, made in calls) == 3839
    assert [vars(source), vars(target)] == states


def _non_injective():
    """Affine A1 x A1 onto A2 x A1, generator to generator: a weight source
    whose finite bonds hold, and whose s1 s2 s1 s2 unfolds to length 2."""
    source = build_system(CoxeterMatrix(((1, 0, 2), (0, 1, 2), (2, 2, 1))))
    target = build_system(CoxeterMatrix(((1, 3, 2), (3, 1, 2), (2, 2, 1))))
    return Folding(source, target, [(0,), (1,), (2,)])


def test_length_additivity_check_over_a_long_walk():
    # the check's walk of all of B5, to source length 25, stores 3,840
    # nodes and passes, as additivity read off each element's re-unfolded
    # word and the reference admissibility check do; a walk that fails at
    # length 4 reports the word whose image is shorter.  No source keeps
    # anything of the walk
    fam, failure = FamilyId("Bn-Dn+1", 5), ("length", 4, (0, 1, 0, 1))
    f, g = standard_folding(fam), _non_injective()
    states = [dict(vars(f.source)), dict(vars(g.source))]
    assert length_additivity_check(f, 25) is None
    assert all(
        unfold(f, el).length == len(unfold_word(f, word))
        for el, word in enumerate_with_words(f.source, None)
    )
    assert admissibility_violations(f, None) == []
    assert length_additivity_check(g, 25) == failure
    assert unfold(g, element_from_word(g.source, failure[2])).length == 2
    assert [vars(f.source), vars(g.source)] == states


@pytest.mark.parametrize("m", [3, 4, 6])
def test_length_additivity_check_finds_the_first_short_image(m):
    # affine A1 x A1 onto I2(m) x A1, generator to generator: the bonds
    # that must hold do, every element up to length m unfolds to its own
    # length, and the alternating word r0 r1 r0 ... of length m + 1, the
    # first of that length, unfolds to length m - 1
    source = build_system(CoxeterMatrix(((1, 0, 2), (0, 1, 2), (2, 2, 1))))
    target = build_system(CoxeterMatrix(((1, m, 2), (m, 1, 2), (2, 2, 1))))
    f = Folding(source, target, [(0,), (1,), (2,)])
    word = tuple(t % 2 for t in range(m + 1))
    assert length_additivity_check(f, 2 * m) == ("length", m + 1, word)
    assert all(unfold(f, el).length == k for el, k in enumerate_up_to(source, m))
    assert unfold(f, element_from_word(source, word)).length == m - 1


@pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=str)
def test_length_additivity_check_budgets_raise_as_the_reference_walk(fam):
    # the check's walk stores every source element to its cutoff, so a
    # budget gives the message of the reference walk of the source, or
    # none where both walks end within it
    f = standard_folding(fam)
    max_len = 6 if fam.name.startswith("aff") else None

    def message(run):
        try:
            run()
        except ResourceLimit as exc:
            return str(exc)
        return None

    for budget in (2, 5, 9, 17, 40):
        got = message(lambda: length_additivity_check(f, max_len, budget=budget))
        want = message(lambda: list(bfs_all_generators(f.source, max_len, budget)))
        assert got == want, budget


def test_series_walks_on_either_backend():
    # a weight source onto a weight target, a dihedral source onto a
    # dihedral target, and a weight source onto a dihedral target
    series = partial(coxfold.folding._series, ambient_cutoff=None, keep=None, budget=DEFAULT_BUDGET)
    f = Folding(build_system("B3"), build_system("D4"), [(0,), (1,), (2, 3)])
    assert series(f) == unfolding_closed_form(FamilyId("Bn-Dn+1", 3))
    f = standard_folding(FamilyId("I2-An", 2))
    assert f.source.backend == f.target.backend == "dihedral"
    assert series(f) == unfolding_closed_form(FamilyId("I2-An", 2))
    f = Folding(build_system("A1"), build_system("I2(3)"), [(0, 1, 0)])
    assert f.source.backend == "weight"
    assert series(f) == QSeries([1, 0, 0, 1])


@pytest.mark.parametrize("paused", [False, True])
@pytest.mark.parametrize("budget", [10**6, 20])
def test_series_walk_pauses_the_collector_only_for_itself(paused, budget):
    # the walk runs with the cyclic collector off and puts back the
    # caller's state, after a ResourceLimit too; a caller that paused it
    # keeps it paused
    f = standard_folding(FamilyId("Bn-A2n", 3))
    seen = []

    def keep(data):
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


@pytest.mark.parametrize("paused", [False, True])
@pytest.mark.parametrize("budget", [10**6, 20])
def test_additivity_check_pauses_the_collector_only_for_its_walk(monkeypatch, paused, budget):
    # as the series walk does: the collector is off at every bucket the
    # check's walk yields, and the caller's state is put back after, after
    # a ResourceLimit too
    f, seen = standard_folding(FamilyId("Bn-A2n", 3)), []

    def recording(*args, **kwargs):
        for bucket in coxfold.coxeter._bfs(*args, **kwargs):
            seen.append(gc.isenabled())
            yield bucket

    monkeypatch.setattr(coxfold.folding, "_bfs", recording)
    if paused:
        gc.disable()
    try:
        if budget == 20:
            with pytest.raises(ResourceLimit):
                length_additivity_check(f, None, budget=budget)
        else:
            assert length_additivity_check(f, None, budget=budget) is None
        assert gc.isenabled() is not paused
    finally:
        gc.enable()
    assert seen and not any(seen)


B2_A3 = standard_folding(FamilyId("Bn-A2n-1", 2))
# fails the structural check at its relations, before any walk
A2_A3 = Folding(build_system("A2"), build_system("A3"), [(1,), (0, 2)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_up_to(build_system("A2"), -1)),
        lambda: list(enumerate_with_words(build_system("B3"), -1)),
        lambda: list(enumerate_parabolic(build_system("A3"), [0], -1)),
        lambda: list(minimal_coset_reps(build_system("affine-C2"), [0], -2)),
        lambda: length_additivity_check(A2_A3, -1),
        lambda: reiner_stats_bruteforce("affC", 2, -1),
        lambda: unfolding_series_bruteforce(B2_A3, -1),
        lambda: coset_series_bruteforce(B2_A3, [0], -1),
    ],
    ids=[
        "enumerate_up_to", "enumerate_with_words", "enumerate_parabolic", "minimal_coset_reps",
        "length_additivity_check", "reiner_stats_bruteforce", "unfolding_series_bruteforce",
        "coset_series_bruteforce",
    ],
)
def test_negative_cutoff_raises(call):
    # the walk checks its length cutoff, and the folding walks their
    # ambient cutoff, before anything is enumerated; the structural check
    # checks its source cutoff before its first check
    with pytest.raises(InvalidParameters, match="must be a non-negative int"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(enumerate_up_to(build_system("A2"), "5")),
        lambda: list(enumerate_up_to(build_system("A2"), 2.0)),
        lambda: length_additivity_check(A2_A3, "5"),
        lambda: unfolding_series_bruteforce(B2_A3, "5"),
        lambda: coset_series_bruteforce(B2_A3, [0], 2.0),
        lambda: list(enumerate_up_to(build_system("A2"), False)),
        lambda: unfolding_series_bruteforce(B2_A3, True),
    ],
    ids=[
        "enumerate_up_to-str", "enumerate_up_to-float", "length_additivity_check", "series",
        "coset",
        "enumerate_up_to-bool", "series-bool",
    ],
)
def test_non_int_cutoff_raises(call):
    # a cutoff that is not an int is refused like a negative one, before
    # any comparison with a length could raise TypeError; a bool is an int
    # to isinstance, but no cutoff
    with pytest.raises(InvalidParameters, match="must be a non-negative int"):
        call()


BUDGET_CALLS = {
    "enumerate_up_to": lambda budget: list(enumerate_up_to(build_system("A3"), 3, budget=budget)),
    "unfolding_series_bruteforce": lambda budget: unfolding_series_bruteforce(
        B2_A3, None, budget=budget
    ),
    "length_additivity_check": lambda budget: length_additivity_check(A2_A3, 3, budget=budget),
    "reiner_stats_bruteforce": lambda budget: reiner_stats_bruteforce(
        "affC", 2, 4, budget=budget
    ),
}


@pytest.mark.parametrize("budget", ["10", None, 2.5, True, 0, -1], ids=repr)
@pytest.mark.parametrize("name", BUDGET_CALLS)
def test_bad_budget_raises(name, budget):
    # an element budget is an int >= 1: anything else is refused with the
    # one int rule before a node is stored, never a TypeError from a
    # comparison, nor a ResourceLimit at the root; the structural check
    # refuses it before its first check, on a folding that fails there
    with pytest.raises(InvalidParameters, match="element budget must be a positive int"):
        BUDGET_CALLS[name](budget)


@pytest.mark.parametrize("name", BUDGET_CALLS)
def test_least_budget_stores_the_root(name):
    # budget 1 holds the identity alone: each walk stops at its first
    # child, as it did before budgets were checked; the structural check
    # on a folding that fails its relations never walks
    if name == "length_additivity_check":
        assert BUDGET_CALLS[name](1) == ("relation", 0, 1)
        return
    with pytest.raises(ResourceLimit) as info:
        BUDGET_CALLS[name](1)
    assert (info.value.budget, info.value.layer, info.value.stored) == (1, 1, 2)


class TestAdmissibility:
    def test_identity_cutoff(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert length_additivity_check(f, 0) is None

    def test_whole_rank_two_group(self):
        # all 8 elements of B2 have source length <= 4
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        assert length_additivity_check(f, 4) is None
        assert length_additivity_check(f, None) is None
        assert admissibility_violations(f, None) == []

    @pytest.mark.parametrize("fam", SMALL_FAMILIES, ids=family_label)
    def test_standard_foldings_admissible(self, fam):
        assert length_additivity_check(standard_folding(fam), 6) is None

    @pytest.mark.parametrize("fam", table_families(1), ids=family_label)
    def test_every_table_row_builds_admissible(self, fam):
        assert length_additivity_check(standard_folding(fam), 4) is None

    def test_non_commuting_block_fails(self):
        # grouping two adjacent generators of the linear group is not an
        # admissible partition: the block of length 3 sits on an odd bond
        # beside one of length 1
        bad = Folding(build_system("I2(3)"), build_system("A3"), [(0, 1, 0), (2,)])
        assert length_additivity_check(bad, 3) == ("odd-bond", 0, 1)
        assert admissibility_violations(bad, 3)

    def test_first_violations_in_shortlex_order(self):
        # a failure is the first in ShortLex order, whatever the element
        # encoding: the first odd bond, and the first word of a layer
        bad = Folding(
            build_system("A3"), build_system("A5"), [(0, 1, 0), (2, 3, 2), (4,)]
        )
        assert length_additivity_check(bad, 3) == ("odd-bond", 1, 2)
        assert admissibility_violations(bad, 3)[:2] == [(0, 1), (1, 0)]
        assert length_additivity_check(_non_injective(), 6) == ("length", 4, (0, 1, 0, 1))

    def test_block_of_adjacent_generators_reports_its_witnesses(self):
        f = Folding(build_system("A2"), build_system("A3"), [(0,), (1, 2, 1)])
        assert length_additivity_check(f, 12) == ("odd-bond", 0, 1)
        assert admissibility_violations(f, 12) == [(1, 0), (0, 1, 0)]


# (source, target, unfold words, the failure of length_additivity_check)
WITNESSES = [
    ("A2", "A3", [(0,), (1, 2, 1)], ("odd-bond", 0, 1)),
    ("A2", "A3", [(1,), (0, 2)], ("relation", 0, 1)),
    ("I2(5)", "A5", [(0, 2, 3, 2), (1, 4)], ("odd-bond", 0, 1)),
    ("I2(3)", "A3", [(0, 1, 0), (2,)], ("odd-bond", 0, 1)),
    ("A3", "A5", [(0, 1, 0), (2, 3, 2), (4,)], ("odd-bond", 1, 2)),
    ("A3", "A3", [(1,), (0,), (2,)], ("relation", 0, 2)),
    # s1 s2 has order 3 in A2: (g_r g_s)^3 = e, but the bond asks for 6
    ("I2(6)", "A2", [(0,), (1,)], ("relation", 0, 1)),
]


def _witness_id(witness):
    source, target, letters, _ = witness
    return f"{source}-{target}-" + "-".join("".join(map(str, w)) for w in letters)


class TestLengthAdditivity:
    @pytest.mark.parametrize(
        "source, target, letters, failure", WITNESSES, ids=map(_witness_id, WITNESSES)
    )
    def test_pinned_witness_fails(self, source, target, letters, failure):
        f = Folding(build_system(source), build_system(target), letters)
        assert length_additivity_check(f, None) == failure

    def test_infinite_bond_folded_into_a_finite_group(self):
        # affine A1 onto A2: no finite bond to check, and s1 s2 s1 is the
        # longest element of A2, so the map stays additive up to length 3
        f = Folding(build_system("affine-A1"), build_system("A2"), [(0,), (1,)])
        assert length_additivity_check(f, 3) is None
        assert length_additivity_check(f, 6) == ("length", 4, (0, 1, 0, 1))


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
        assert length_additivity_check(f, None) is None
        reference = reference_factorization(f, [], None)
        assert reference.passed and reference.parabolic_series == QSeries([1])

    def test_rank_two_split(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        reference = reference_factorization(f, [1], None)
        assert reference.passed
        assert list(coset_series_bruteforce(f, [1], None).coeffs) == [1, 0, 1, 1, 0, 1]
        assert list(reference.coset_series.coeffs) == [1, 0, 1, 1, 0, 1]
        assert list(reference.parabolic_series.coeffs) == [1, 1]
        full = reference.coset_series * reference.parabolic_series
        assert unfolding_series_bruteforce(f, None) == full

    def test_rank_three_coset_factor(self):
        from coxfold.qseries import Monomial, q_integer

        f = standard_folding(FamilyId("Bn-A2n-1", 3))
        series = coset_series_bruteforce(f, [1, 2], None)
        expected = q_integer(5, Monomial(-1, 1)) * q_integer(6, Monomial(1, 1))
        assert series == expected

    def test_affine_factorization_with_cutoff(self):
        f = standard_folding(FamilyId("affC-affBn+1", 2))
        assert length_additivity_check(f, 8) is None
        assert reference_factorization(f, [1, 2], 8).passed

    def test_out_of_range_subset(self):
        f = standard_folding(FamilyId("Bn-A2n-1", 2))
        with pytest.raises(IndexOutOfRange):
            coset_series_bruteforce(f, [2], None)

    @staticmethod
    def _checks(reference):
        return (
            reference.passed,
            reference.parabolic_in_parabolic,
            reference.minima_in_minima,
            reference.series_match,
        )

    def test_minima_unfold_outside_the_minima_for_an_inadmissible_block(self):
        f = Folding(build_system("A2"), build_system("A3"), [(0,), (1, 2, 1)])
        assert self._checks(reference_factorization(f, {1}, 12)) == (False, True, False, False)
        assert length_additivity_check(f, 12) == ("odd-bond", 0, 1)

    def test_admissible_manual_folding_fails_only_the_series(self):
        g = Folding(build_system("A2"), build_system("A3"), [(1,), (0, 2)])
        assert admissibility_violations(g, 12) == []
        assert self._checks(reference_factorization(g, {1}, 12)) == (False, True, True, False)
        assert length_additivity_check(g, 12) == ("relation", 0, 1)

    def test_minima_fail_while_the_series_holds(self):
        f = Folding(build_system("I2(5)"), build_system("A5"), [(0, 2, 3, 2), (1, 4)])
        assert self._checks(reference_factorization(f, {0}, 12)) == (False, True, False, True)
        assert length_additivity_check(f, 12) == ("odd-bond", 0, 1)


def _exact(value):
    # series compare by coefficients and order, not by truncated equality
    return (value.coeffs, value.order) if isinstance(value, QSeries) else value


def _rows():
    """Every family row at min_n and min_n + 1, with m = 2 where it takes m."""
    return [
        FamilyId(name, row.min_n + extra, 2 if row.takes_m else None)
        for extra in (0, 1)
        for name, row in _FAMILIES.items()
    ]


def _reference_cases():
    """Every row of ``_rows``, and two manual foldings that are homomorphisms."""
    manual = [("A2", "A3", [(0,), (1, 2, 1)]), ("I2(5)", "A5", [(0, 2, 3, 2), (1, 4)])]
    return [pytest.param(standard_folding(fam), id=family_label(fam)) for fam in _rows()] + [
        pytest.param(Folding(build_system(s), build_system(t), letters), id=f"manual-{s}-{t}")
        for s, t, letters in manual
    ]


@pytest.mark.parametrize("f", _reference_cases())
def test_one_walk_matches_the_reference_walks(f):
    last = f.source.rank - 1
    L = 7 if f.source.label.startswith("affine-") else None
    for J_hat in sorted({(), (0,), (last,), tuple(range(1, last + 1))}):
        expected = reference_factorization(f, J_hat, L)
        assert _exact(coset_series_bruteforce(f, J_hat, L)) == _exact(expected.coset_series), J_hat
    assert _exact(unfolding_series_bruteforce(f, L)) == _exact(expected.full_series)


def _agreement_cases():
    """Every row of ``_rows``, and the first six witnesses."""
    return [pytest.param(standard_folding(fam), id=family_label(fam)) for fam in _rows()] + [
        pytest.param(Folding(build_system(w[0]), build_system(w[1]), w[2]), id=_witness_id(w))
        for w in WITNESSES[:6]
    ]


@pytest.mark.parametrize("f", _agreement_cases())
def test_check_agrees_with_the_reference_checks(f):
    # the check passes exactly when the partition is admissible and the
    # series factors at every J_hat; affine sources are cut at length 5
    L = 5 if f.source.label.startswith("affine-") else None
    rank = f.source.rank
    subsets = [J for k in range(rank + 1) for J in itertools.combinations(range(rank), k)]
    expected = not admissibility_violations(f, L) and all(
        reference_factorization(f, J_hat, L).passed for J_hat in subsets
    )
    assert (length_additivity_check(f, L) is None) == expected


# -- the chain of parabolics behind unfolding_series_bruteforce


def _full_walk(f, L, budget=DEFAULT_BUDGET):
    """The series of the walk of the whole source, or its ResourceLimit message."""
    try:
        return _exact(coxfold.folding._series(f, L, None, budget))
    except ResourceLimit as exc:
        return str(exc)


def _chained(f, L, budget=DEFAULT_BUDGET, series=unfolding_series_bruteforce):
    """``unfolding_series_bruteforce``, or ``series``, as ``_full_walk`` reports it."""
    try:
        return _exact(series(f, L, budget=budget))
    except ResourceLimit as exc:
        return str(exc)


def _down_the_chain(f, L, budget):
    """``folding._chain``, which a manual folding reaches only here."""
    return coxfold.folding._chain(f, L, budget)


CHAIN_ROWS = [
    FamilyId(name, row.min_n + extra, 2 if row.takes_m else None)
    for name, row in _FAMILIES.items()
    for extra in (0, 1, 2)
]


@pytest.mark.parametrize("fam", CHAIN_ROWS, ids=family_label)
def test_chain_equals_the_full_walk(fam):
    # by coefficients and order: exact for a finite row, at L = 16 and 30
    # for an affine one
    f = standard_folding(fam)
    for L in (16, 30) if fam.is_affine else (None,):
        assert _chained(f, L) == _full_walk(f, L), L


PRODUCT_ROWS = [
    (FamilyId(name, n), None)
    for name in FAMILY_NAMES
    if not name.startswith("aff")
    for n in (12, 30)
] + [
    (FamilyId(name, row.min_n, 2 if row.takes_m else None), 60)
    for name, row in _FAMILIES.items()
    if name.startswith("aff")
]


@pytest.mark.parametrize("fam, L", PRODUCT_ROWS, ids=str)
def test_chain_equals_the_product_formula(fam, L):
    # far past any full walk: n = 12 and 30 exact, and L = 60
    assert _chained(standard_folding(fam), L) == _exact(unfolding_closed_form(fam, L))


# A2 -> A3: unfolding is a homomorphism, but r2 r1, a coset minimum of
# J = {r2}, unfolds to s2 s3 s2 s1 = s3 s2 s1 s3, which ends in s3
UNCERTIFIED = Folding(build_system("A2"), build_system("A3"), [(0,), (1, 2, 1)])


def test_the_certificate_fails_at_a_coset_minimum():
    f = UNCERTIFIED
    assert coxfold.folding._relation_failure(f) is None
    keep = coxfold.coxeter._coset_child_filter(f.source, [1])
    walk = coxfold.coxeter._bfs(f.source, None, DEFAULT_BUDGET, f.target, f._words, None, keep)
    assert coxfold.folding._certified_lengths(f, walk, [1, 2]) is None
    # its parabolic, A1 onto the longest element of A2, passes
    g = f.restrict([1])
    assert g.source.rank == 1 and g.unfold_letters == ((0, 1, 0),)


def test_restrict_refuses_an_empty_J_before_building(monkeypatch):
    # the parabolic on no generators has no matrix; the chain never asks for it
    f, built = standard_folding(FamilyId("Bn-A2n-1", 3)), []
    monkeypatch.setattr(coxfold.folding, "build_system", lambda *args: built.append(args))
    with pytest.raises(InvalidParameters, match="J is empty"):
        f.restrict([])
    assert built == []


@pytest.mark.parametrize(
    "f, coeffs",
    [
        # without the certificate, the chain would read 1 + q + q^3 + 2q^4 + q^7
        (UNCERTIFIED, (1, 1, 0, 1, 2, 1)),
        # its relations fail; without the relation stage, the chain would read
        # 1 + q + q^2 + 2q^3 + q^5
        (A2_A3, (1, 1, 1, 2, 1)),
    ],
    ids=["certificate", "relation"],
)
def test_a_folding_that_fails_a_stage_is_walked_whole(f, coeffs, monkeypatch):
    walked = []
    series = coxfold.folding._series

    def recording(g, *args):
        walked.append(g)
        return series(g, *args)

    want = _full_walk(f, None)
    monkeypatch.setattr(coxfold.folding, "_series", recording)
    assert _chained(f, None, series=_down_the_chain) == want == (coeffs, None)
    assert walked == [f]


# a triangle of bonds 3, 6 and 6 onto A5, with blocks s2 s3 s2, s4 and s1 s5:
# its relations hold, but its lengths do not add, and cut at 4 its chain
# reads 5 at q^4 where the walk, which prunes there, reads 6
UNADDITIVE = Folding(
    build_system(CoxeterMatrix(((1, 3, 6), (3, 1, 6), (6, 6, 1)))),
    build_system("A5"),
    [(1, 2, 1), (3,), (0, 4)],
)


def test_a_manual_folding_is_walked_whole():
    f = UNADDITIVE
    assert coxfold.folding._relation_failure(f) is None
    assert _down_the_chain(f, 4, DEFAULT_BUDGET).coeffs == (1, 3, 4, 4, 5)
    assert _chained(f, 4) == _full_walk(f, 4) == ((1, 3, 4, 4, 6), 4)


def _manual_foldings():
    """Every manual folding of this file, with a cutoff for an infinite source."""
    manual = [(Folding(build_system(w[0]), build_system(w[1]), w[2]), None) for w in WITNESSES]
    manual += [(UNADDITIVE, L) for L in (3, 4, 6)]
    manual += [(f, L) for f in [UNCERTIFIED, _non_injective()] for L in (0, 2, 5, 9)]
    manual += [
        (Folding(build_system("affine-A1"), build_system("A2"), [(0,), (1,)]), L)
        for L in (2, 3, 6)
    ]
    manual += [
        (Folding(build_system("I2(5)"), build_system("A5"), [(0, 2, 3, 2), (1, 4)]), None),
        (Folding(build_system("I2(3)"), build_system("A3"), [(0, 1, 0), (2,)]), None),
        (Folding(build_system("B3"), build_system("D4"), [(0,), (1,), (2, 3)]), None),
        (Folding(build_system("A1"), build_system("I2(3)"), [(0, 1, 0)]), None),
    ]
    return [pytest.param(f, L, id=f"{f.source.label}-{f.target.label}-{t}-{L}")
            for t, (f, L) in enumerate(manual)]


@pytest.mark.parametrize("f, L", _manual_foldings())
def test_chain_equals_the_full_walk_on_manual_foldings(f, L):
    # a manual folding is walked whole, exact or cut; where the walk never
    # ends (affine A1 onto A2 stays within length 3), it runs out of budget.
    # Exact, its finite source goes down the chain as a registered one
    # would: certified or walked whole, the series is that of the walk
    assert _chained(f, L, 2000) == _full_walk(f, L, 2000)
    if L is None:
        assert _chained(f, None, 2000, series=_down_the_chain) == _full_walk(f, None, 2000)


@pytest.mark.parametrize(
    "f",
    [
        standard_folding(FamilyId("affA-affA", 2, 2)),
        Folding(build_system("affine-A1"), build_system("affine-A3"), [(0, 2), (1, 3)]),
    ],
    ids=["registered", "manual"],
)
def test_an_exact_series_of_an_infinite_source_runs_out_as_the_full_walk(f):
    # no chain: its coset walk, one node a layer, would test each child
    # through an inverse as long as its layer, and run out at layer 300,
    # over 200 times later at a budget of 3,000
    assert _chained(f, None, 300) == _full_walk(f, None, 300)
    assert _full_walk(f, None, 300).endswith("301 elements stored at layer 150")
