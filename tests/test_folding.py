import gc
import inspect
import itertools
import math

import pytest

import coxfold._kernels
import coxfold.coxeter
import coxfold.folding
from coxfold.closed_forms import unfolding_closed_form
from coxfold.coxeter import (
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
    unfold,
    unfold_word,
    unfolded_image,
    unfolding_series_bruteforce,
)
from coxfold.qseries import QSeries

from oracles import (
    admissibility_violations,
    enumerate_parabolic,
    is_right_descent_data,
    minimal_coset_reps,
    recording_loops,
    reference_factorization,
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
        # source filter, so their walks get neither; a cutoff comes alone
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
        unfolding_series_bruteforce(f, None)
        unfolded_image(f)
        unfolding_series_bruteforce(f, 3)
        assert filters == [(None, None), (None, None), (3, None)]


def test_primitive_loops_run_until_the_walk_swaps(monkeypatch):
    # B5 -> D6 stores 3,839 nodes beyond the root, past the trip's 1,500:
    # the walk makes its nodes with the loops of coxeter._loops until,
    # part way through, it swaps in the compiled bucket loops, and from
    # then on every bucket's children come from a compiled loop of the
    # target's block steps.  Neither system keeps anything of the walk
    fam = FamilyId("Bn-Dn+1", 5)
    f = standard_folding(fam)
    source, target, events = f.source, f.target, []
    states = [dict(vars(source)), dict(vars(target))]
    primitive_loops = coxfold.coxeter._loops

    def recorded(loop):
        def call(nodes):
            events.append("primitive")
            return loop(nodes)

        return call

    def loops(*args):
        return [tuple(map(recorded, pair)) for pair in primitive_loops(*args)]

    monkeypatch.setattr(coxfold.coxeter, "_loops", loops)
    monkeypatch.setattr(coxfold._kernels, "bucket_loops", recording_loops(events))
    monkeypatch.setattr(coxfold._kernels, "_KERNELS", {})  # this walk compiles its own loops
    assert unfolding_series_bruteforce(f, None) == unfolding_closed_form(fam)
    # events holds "primitive" per primitive loop call and a tuple per compiled one
    first = next(t for t, event in enumerate(events) if event != "primitive")
    assert first > 0 and "primitive" not in events[first:]
    assert [vars(source), vars(target)] == states


def _non_injective():
    """Affine A1 x A1 onto A2 x A1, generator to generator: a weight source
    whose finite bonds hold, and whose s1 s2 s1 s2 unfolds to length 2."""
    source = build_system(CoxeterMatrix(((1, 0, 2), (0, 1, 2), (2, 2, 1))))
    target = build_system(CoxeterMatrix(((1, 3, 2), (3, 1, 2), (2, 2, 1))))
    return Folding(source, target, [(0,), (1,), (2,)])


def test_length_additivity_check_agrees_past_the_compile_trip(monkeypatch):
    # the check's walk of all of B5, to source length 25, stores 1,255
    # nodes to length 10 and passes the trip's 1,500 at letter 1 of layer
    # 11: it swaps in bucket loops whose flat nodes carry the weight sum
    # there, from letter 2 on, and
    # a walk that fails at length 4 swaps after its first letter when the
    # trigger is 0: each verdict is the one the primitives give, and no
    # source keeps anything of the walk
    fam, failure = FamilyId("Bn-Dn+1", 5), ("length", 4, (0, 1, 0, 1))
    default, calls = coxfold.coxeter._COMPILE_AFTER, []
    monkeypatch.setattr(coxfold._kernels, "bucket_loops", recording_loops(calls))
    monkeypatch.setattr(coxfold._kernels, "_KERNELS", {})
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", 10**9)
    plain = [standard_folding(fam), _non_injective()]
    assert [length_additivity_check(f, 25) for f in plain] == [None, failure] and not calls
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", default)
    f = standard_folding(fam)
    f_state = dict(vars(f.source))
    assert length_additivity_check(f, 25) is None and calls[0][:2] == (11, 2)
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", 0)
    calls.clear()
    g = _non_injective()
    g_state = dict(vars(g.source))
    assert length_additivity_check(g, 25) == failure and calls[0][:2] == (1, 1)
    assert [vars(f.source), vars(g.source)] == [f_state, g_state]


def test_series_walks_compile_only_between_weight_systems(monkeypatch):
    # with the trigger at 0, a weight-to-weight series walk swaps at once,
    # and two foldings on the same matrices and words share one compile of
    # their loops; a dihedral source or target keeps the primitive loops,
    # a weight source onto a dihedral target among them, and compiles
    # nothing
    kernels, calls = {}, []
    monkeypatch.setattr(coxfold._kernels, "_KERNELS", kernels)
    monkeypatch.setattr(coxfold.coxeter, "_COMPILE_AFTER", 0)
    monkeypatch.setattr(coxfold._kernels, "bucket_loops", recording_loops(calls))
    fam = FamilyId("Bn-Dn+1", 3)
    for _ in range(2):
        f = Folding(build_system("B3"), build_system("D4"), [(0,), (1,), (2, 3)])
        assert unfolding_series_bruteforce(f, None) == unfolding_closed_form(fam)
        assert calls
    assert len(kernels) == 1
    calls.clear()
    f = standard_folding(FamilyId("I2-An", 2))
    assert f.source.backend == f.target.backend == "dihedral"
    assert unfolding_series_bruteforce(f, None) == unfolding_closed_form(FamilyId("I2-An", 2))
    f = Folding(build_system("A1"), build_system("I2(3)"), [(0, 1, 0)])
    assert f.source.backend == "weight"
    assert unfolding_series_bruteforce(f, None) == QSeries([1, 0, 0, 1])
    assert not calls and len(kernels) == 1


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
