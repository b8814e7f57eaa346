"""Differential tests of the walk that swaps in compiled loops.

Every walk makes its flat nodes with the loops of ``coxeter._loops`` on
the primitives.  Past its compile trip, the series walk of a folding
(``folding._series``, the walk of the whole source that
``unfolding_series_bruteforce`` falls back to, and, with a filter, its
coset walks) whose source and target both have the weight backend swaps in
``_kernels.bucket_loops``, which make each bucket's children with one
compiled loop over the same flat (source, target, length) nodes.  Every
folding row, at its two smallest n (affA-affA at m = 2 and 3), exact and
at an ambient cutoff, with and without the coset filter, is walked with
the trip at 0, at a value that trips part way through a layer, at the
default and at 10**9 (never), and must give the series of the walk that
never swaps and of the reference in ``oracles``.  Budgets on either
side of the trip, and budgets that run out inside a fused bucket, which
the walk then hands to its loop in slices, must raise the same
``ResourceLimit``, in every walk of a folding.  The walk of
``length_additivity_check``, whose flat nodes also carry the weight sum,
must give the verdict of the walk that never swaps, on every row and on
foldings that fail at a length past the trip, and the walk of
``_source_records``, whose flat nodes carry the source word, its records.
The plain walks of a system, ``enumerate_up_to`` and
``enumerate_with_words``, whose flat nodes are the element's data and
then its word, go through the same trips and budgets on every label
family of ``coxeter._GROUPS`` at its two smallest n, finite groups whole
and affine ones to length 8.
"""

import contextlib
from functools import lru_cache
from unittest import mock

import pytest

import coxfold._kernels
import coxfold.folding
from coxfold import coxeter
from coxfold.coxeter import (
    _GROUPS,
    CoxeterMatrix,
    _bfs,
    _coset_child_filter,
    build_system,
    enumerate_up_to,
    enumerate_with_words,
)
from coxfold.errors import InvalidParameters, ResourceLimit
from coxfold.folding import (
    _FAMILIES,
    FamilyId,
    Folding,
    _source_records,
    coset_series_bruteforce,
    length_additivity_check,
    standard_folding,
)

from oracles import recording_loops, reference_factorization, unfolded_image

FOLDINGS = [
    (name, n, m)
    for name, row in _FAMILIES.items()
    for n in (row.min_n, row.min_n + 1)
    for m in ((2, 3) if row.takes_m else (None,))
]

NEVER = 10**9
FINITE_CUTOFF, AFFINE_CUTOFF = 5, 9


def walks(case):
    """The (cutoff, J_hat) of each walk of a case: exact (finite rows) and cut,
    full and over the minima of the cosets of the first generator's subgroup."""
    cutoffs = [AFFINE_CUTOFF] if case[0].startswith("aff") else [None, FINITE_CUTOFF]
    return [(L, J_hat) for L in cutoffs for J_hat in (None, (0,))]


def fuses(case):
    f = standard_folding(FamilyId(*case))
    return f.source.backend == f.target.backend == "weight"


@contextlib.contextmanager
def recorded(after, calls, compiled=None):
    """Walks under the trip ``after``, with ``bucket_loops`` recording into
    ``calls`` and the kernel cache ``compiled``, empty by default, so that a
    walk compiles only at its trip."""
    with mock.patch.object(coxeter, "_COMPILE_AFTER", after), mock.patch.object(
        coxfold._kernels, "bucket_loops", recording_loops(calls)
    ), mock.patch.object(coxfold._kernels, "_KERNELS", {} if compiled is None else compiled):
        yield


def fused_walk(case, cutoff, J_hat, budget, after, compiled=None):
    """The series of a fresh folding's walk under ``after``, or its ResourceLimit
    message, and the (layer, letter) of each compiled loop call.  The walk
    sees the kernel cache ``compiled``, empty by default."""
    f, calls = standard_folding(FamilyId(*case)), []
    with recorded(after, calls, compiled):
        try:
            if J_hat is None:
                result = coxfold.folding._series(f, cutoff, None, budget)
            else:
                result = coset_series_bruteforce(f, J_hat, cutoff, budget=budget)
        except ResourceLimit as exc:
            result = str(exc)
    return result, [call[:2] for call in calls]


@lru_cache(maxsize=None)
def reference(case, cutoff, J_hat):
    result = reference_factorization(standard_folding(FamilyId(*case)), J_hat or (), cutoff)
    return result.full_series if J_hat is None else result.coset_series


@lru_cache(maxsize=None)
def mid_layer_trip(case, cutoff, J_hat):
    """The least ``_COMPILE_AFTER`` whose trip comes after a letter of a layer
    whose next letter makes nodes, and the stored count there; None where the
    walk never trips (a dihedral source) or no such value exists."""
    f = standard_folding(FamilyId(*case))
    source = f.source
    if source.backend != "weight":
        return None
    keep = None if J_hat is None else _coset_child_filter(source, J_hat)
    return trip_after_a_letter(source, _bfs(source, None, NEVER, f.target, f._words, cutoff, keep))


def trip_after_a_letter(system, walk, share=0):
    """The least ``_COMPILE_AFTER`` whose trip comes after a letter of a layer of
    ``walk``, a walk of ``system`` that never swaps, whose next letter makes
    nodes, and the stored count there; None where no such value exists.  The
    value is at least ``share`` of the walk's stored count, and at least 1."""
    sizes = {}
    for k, nodes in walk:
        d = next((d for d in range(system.rank) if nodes[0][d] < 0), system.rank)
        sizes[k, d] = len(nodes)
    stored, counts = 1, []  # the stored count after each letter of each layer
    for k in range(1, max(k for k, _ in sizes) + 1):
        for i in range(system.rank):
            stored += sizes.get((k, i), 0)
            counts.append(stored)
    for after in range(max(1, int(share * stored)), stored):
        at = next(t for t, count in enumerate(counts) if count > after)
        if (at + 1) % system.rank and counts[at + 1] > counts[at]:
            return after, counts[at]
    return None


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_fused_walk_agrees_with_the_primitive_walk_and_the_reference(case):
    weight = fuses(case)
    for cutoff, J_hat in walks(case):
        want, calls = fused_walk(case, cutoff, J_hat, coxeter.DEFAULT_BUDGET, NEVER)
        assert not calls and want == reference(case, cutoff, J_hat)
        mid = mid_layer_trip(case, cutoff, J_hat)
        afters = [0, coxeter._COMPILE_AFTER] + ([mid[0]] if mid else [])
        for after in afters:
            got, calls = fused_walk(case, cutoff, J_hat, coxeter.DEFAULT_BUDGET, after)
            assert got == want, (cutoff, J_hat, after)
            if after == 0 and weight and sum(want.coeffs) > 1:
                # the trip at 0 comes after letter 0 of layer 1
                assert calls and calls[0] == (1, 1)
            if mid and after == mid[0] and weight:
                # the first fused letter is not the first of its layer
                assert calls and calls[0][1] != 0


MID_LAYER_WALKS = [
    (case, cutoff, J_hat)
    for case in FOLDINGS
    if fuses(case)
    for cutoff, J_hat in walks(case)
    if mid_layer_trip(case, cutoff, J_hat)
]


def test_every_fusing_row_is_walked_across_a_mid_layer_trip():
    # full and coset walks alike
    rows = {case[0] for case in FOLDINGS if fuses(case)}
    for coset in (False, True):
        walked = {case[0] for case, _, J_hat in MID_LAYER_WALKS if (J_hat is not None) == coset}
        assert walked == rows


@pytest.mark.parametrize("case, cutoff, J_hat", MID_LAYER_WALKS, ids=str)
def test_budgets_around_the_trip_raise_as_the_primitive_walk(case, cutoff, J_hat):
    # the budget runs out in the letter that trips, just before the swap,
    # or in the first compiled loops, just after it; at a trip of 1, after - 1
    # is no budget, refused before the walk
    after, fused_at = mid_layer_trip(case, cutoff, J_hat)
    for budget in (after - 1, after, after + 1, fused_at - 1, fused_at, fused_at + 1, fused_at + 2):
        if budget < 1:
            with pytest.raises(InvalidParameters):
                fused_walk(case, cutoff, J_hat, budget, after)
            continue
        want, _ = fused_walk(case, cutoff, J_hat, budget, NEVER)
        got, calls = fused_walk(case, cutoff, J_hat, budget, after)
        assert got == want, budget
        assert bool(calls) == (budget >= fused_at)


PAST_THE_DEFAULT_TRIP = [
    (("Bn-Dn+1", 5, None), None, None),  # 3,840 source elements, 2,500 for the trip
    (("affB-affDn+1", 4, None), 14, None),  # 3,809 of 2,500
    (("affB-affDn+1", 4, None), 16, (0,)),  # 3,822 coset minima
]


@pytest.mark.parametrize("case, cutoff, J_hat", PAST_THE_DEFAULT_TRIP, ids=str)
def test_walks_past_the_default_trip_fuse_and_agree(case, cutoff, J_hat):
    want, calls = fused_walk(case, cutoff, J_hat, coxeter.DEFAULT_BUDGET, NEVER)
    assert not calls and want == reference(case, cutoff, J_hat)
    got, calls = fused_walk(case, cutoff, J_hat, coxeter.DEFAULT_BUDGET, coxeter._COMPILE_AFTER)
    assert got == want and calls


@pytest.mark.parametrize("case", [("Bn-Dn+1", 3, None), ("affC-affA2n+1", 2, None)], ids=str)
def test_fused_keep_sees_the_data_of_the_primitive_walk(case):
    # the coset filter reads the source data alone, so this filter records
    # every data it is shown, in order, and reads more than one entry;
    # the walk swaps in the compiled loops after a few nodes
    cutoff = None if case[0].startswith("B") else AFFINE_CUTOFF
    seen = {}
    for after in (1, NEVER):
        calls, loops = seen.setdefault(after, ([], []))

        def keep(data):
            calls.append(data)
            return data[-1] < 0 or sum(data) % 5 != 1

        with recorded(after, loops):
            f = standard_folding(FamilyId(*case))
            calls.append(coxfold.folding._series(f, cutoff, keep, coxeter.DEFAULT_BUDGET))
    assert seen[1][0] == seen[NEVER][0] and len(seen[1][0]) > 10
    assert seen[1][1] and not seen[NEVER][1]


def test_a_walk_on_compiled_loops_still_fuses_only_at_its_trip():
    # a walk on the same matrices and words, with a cutoff of another
    # value, reuses the loops an earlier walk compiled, but only once it
    # reaches its own trip; below the trip it stays on the primitive loops
    case, compiled = ("affB-affDn+1", 3, None), {}
    _, calls = fused_walk(case, AFFINE_CUTOFF, None, coxeter.DEFAULT_BUDGET, 0, compiled)
    assert calls and len(compiled) == 1
    got, calls = fused_walk(case, AFFINE_CUTOFF - 1, None, coxeter.DEFAULT_BUDGET, NEVER, compiled)
    assert not calls and got == reference(case, AFFINE_CUTOFF - 1, None)
    got, calls = fused_walk(case, AFFINE_CUTOFF - 1, None, coxeter.DEFAULT_BUDGET, 2, compiled)
    assert calls and calls[0] != (1, 1) and len(compiled) == 1
    assert got == reference(case, AFFINE_CUTOFF - 1, None)


def fused_check(f, max_len, budget, after):
    """``length_additivity_check`` of ``f`` under ``after``, or its ResourceLimit
    message, and the (layer, letter) of each compiled loop call."""
    calls = []
    with recorded(after, calls):
        try:
            result = length_additivity_check(f, max_len, budget=budget)
        except ResourceLimit as exc:
            result = str(exc)
    return result, [call[:2] for call in calls]


CHECK_AFTERS = [0, 1, 2, 3, 5, 8, coxeter._COMPILE_AFTER]


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_fused_additivity_check_agrees_with_the_primitive_walk(case):
    # the check's flat nodes carry the weight sum before the length; every
    # trip gives the verdict, and at every budget the message, of the walk
    # that never swaps
    f = standard_folding(FamilyId(*case))
    max_len = 6 if case[0].startswith("aff") else None
    want, calls = fused_check(f, max_len, coxeter.DEFAULT_BUDGET, NEVER)
    assert want is None and not calls
    for after in CHECK_AFTERS:
        got, calls = fused_check(f, max_len, coxeter.DEFAULT_BUDGET, after)
        assert got is None and (after or bool(calls) == fuses(case)), after
    for budget in (2, 5, 9, 17, 40):
        want, _ = fused_check(f, max_len, budget, NEVER)
        for after in (0, 1, 3):
            assert fused_check(f, max_len, budget, after)[0] == want, (budget, after)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_fused_additivity_check_finds_the_first_failure(m):
    # affine A1 x A1 onto I2(m) x A1, generator to generator: the bonds
    # that must hold do, and the alternating word r0 r1 r0 ... of length
    # m + 1, the first of that length, unfolds to length m - 1; fused at
    # any point, the walk reports that word, as the primitives do
    source = build_system(CoxeterMatrix(((1, 0, 2), (0, 1, 2), (2, 2, 1))))
    target = build_system(CoxeterMatrix(((1, m, 2), (m, 1, 2), (2, 2, 1))))
    f = Folding(source, target, [(0,), (1,), (2,)])
    failure = ("length", m + 1, tuple(t % 2 for t in range(m + 1)))
    assert fused_check(f, 2 * m, coxeter.DEFAULT_BUDGET, NEVER) == (failure, [])
    for after in CHECK_AFTERS:
        got, calls = fused_check(f, 2 * m, coxeter.DEFAULT_BUDGET, after)
        assert got == failure and (after > 3 or calls), after


def fused_records(f, cutoff, after, walk=None):
    """The records of ``_source_records`` (or of ``walk``) under ``after``, and the
    (layer, letter) of each compiled loop call."""
    calls = []
    with recorded(after, calls):
        result = list(_source_records(f, ambient_cutoff=cutoff)) if walk is None else walk(f)
    return result, [call[:2] for call in calls]


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_fused_source_records_agree_with_the_primitive_walk(case):
    # the records walk tags its flat nodes with the source word: every
    # trip gives the records of the walk that never swaps, in order
    f = standard_folding(FamilyId(*case))
    cutoff = AFFINE_CUTOFF if case[0].startswith("aff") else FINITE_CUTOFF
    want, calls = fused_records(f, cutoff, NEVER)
    assert not calls and len(want) > 1
    for after in (0, 1, 3):
        got, calls = fused_records(f, cutoff, after)
        assert got == want and (after or bool(calls) == fuses(case)), after


def test_unfolded_image_past_the_default_trip_fuses_and_agrees():
    # all of B5 unfolded into D6: 3,840 records, 2,500 for the trip
    f = standard_folding(FamilyId("Bn-Dn+1", 5))
    want, calls = fused_records(f, None, NEVER, unfolded_image)
    assert not calls and len(want) == 3840
    got, calls = fused_records(f, None, coxeter._COMPILE_AFTER, unfolded_image)
    assert got == want and calls


def test_the_walks_of_one_folding_compile_their_own_loops():
    # the series, the check and the records walks of one folding, exact
    # and sharing one cache, each compile their own loops (their nodes
    # differ in the tag), and each gives the result of its walk that
    # never swaps
    f, compiled, calls = standard_folding(FamilyId("Bn-Dn+1", 3)), {}, []
    walks = [
        lambda: coxfold.folding._series(f, None, None, coxeter.DEFAULT_BUDGET),
        lambda: length_additivity_check(f, None),
        lambda: list(_source_records(f)),
    ]
    with mock.patch.object(coxeter, "_COMPILE_AFTER", NEVER):
        wants = [walk() for walk in walks]
    with recorded(0, calls, compiled):
        assert [walk() for walk in walks] == wants
    assert len(compiled) == 3 and calls


# each fusing row one n past the largest of FOLDINGS, where even the
# coset filter leaves tested buckets of two children or more
FUSING_ROWS = [
    (name, row.min_n + 2, 2 if row.takes_m else None)
    for name, row in _FAMILIES.items()
    if fuses((name, row.min_n + 2, 2 if row.takes_m else None))
]


def cut_runs(case):
    """The walks of a case that a budget can cut, by name: the series and the
    coset series at an ambient cutoff, and the two tagged walks, the records
    and the additivity check's."""
    cutoff, max_len = 12, 6 if case[0].startswith("aff") else None
    return {
        "series": lambda f, budget: coxfold.folding._series(f, cutoff, None, budget),
        "coset": lambda f, budget: coset_series_bruteforce(f, (0,), cutoff, budget=budget),
        "records": lambda f, budget: list(_source_records(f, ambient_cutoff=cutoff, budget=budget)),
        "check": lambda f, budget: length_additivity_check(f, max_len, budget=budget),
    }


def cut_walk(case, run, budget, after):
    """The ResourceLimit message of ``run`` on a fresh folding under ``after``
    (None if none), the nodes its walk yielded, and (tested, children) per
    compiled loop call."""
    f, yielded, calls = standard_folding(FamilyId(*case)), [0], []

    def walk(*args, **kwargs):
        for bucket in coxeter._bfs(*args, **kwargs):
            yielded[0] += len(bucket[1])
            yield bucket

    with recorded(after, calls), mock.patch.object(coxfold.folding, "_bfs", walk):
        try:
            run(f, budget)
            message = None
        except ResourceLimit as exc:
            message = str(exc)
    return message, yielded[0], [call[2:] for call in calls]


def cut_budgets(fused_at, calls):
    """For the largest untested and the largest tested bucket of a walk fused at
    ``fused_at`` stored nodes, from its loop ``calls``: the children it made,
    the index of its call, and a budget half way through its children."""
    stored, largest = fused_at, {0: (1, 0, 0), 1: (1, 0, 0)}
    for at, (tested, made) in enumerate(calls):
        largest[tested] = max(largest[tested], (made, at, stored + made // 2))
        stored += made
    return largest.values()


@pytest.mark.parametrize("case", FUSING_ROWS, ids=str)
@pytest.mark.parametrize("name", ["series", "coset", "records", "check"])
def test_budgets_inside_a_fused_bucket_raise_as_the_primitive_walk(case, name):
    # fused from letter 1 of layer 1 on, each walk stores every node it
    # yields; a budget that runs out half way through the children of the
    # largest untested bucket, and one in the largest tested bucket, make
    # the walk hand that bucket to its loop in slices no longer than the
    # room left, and it raises the message of the walk that never swaps
    run = cut_runs(case)[name]
    _, total, calls = cut_walk(case, run, coxeter.DEFAULT_BUDGET, 0)
    fused_at = total - sum(made for _, made in calls)  # the stored count at the fuse
    for made, at, budget in cut_budgets(fused_at, calls):
        assert made >= 2
        want, _, _ = cut_walk(case, run, budget, NEVER)
        got, _, cut = cut_walk(case, run, budget, 0)
        assert want is not None and got == want, budget
        # that bucket took two calls or more (slices only add calls), and
        # the loops made one child past the budget, no more
        assert len(cut) >= at + 2 and fused_at + sum(made for _, made in cut) == budget + 1


# -- the plain walks of a system: enumerate_up_to and enumerate_with_words

PLAIN_GROUPS = [
    f"{family}{n}" for family, row in _GROUPS.items() for n in (row.min_n, row.min_n + 1)
]
STREAMS = {"up_to": enumerate_up_to, "with_words": enumerate_with_words}


def plain_cutoff(label):
    return 8 if label.startswith("affine") else None


def plain_walk(label, stream, budget, after, max_len="default"):
    """The elements, with their words for ``with_words``, that ``stream`` yields
    on a fresh system under ``after``, or its ResourceLimit message, and
    (tested, children made) per compiled loop call; finite groups whole,
    affine ones to length 8 by default."""
    W, calls = build_system(label), []
    max_len = plain_cutoff(label) if max_len == "default" else max_len
    with recorded(after, calls):
        try:
            result = list(STREAMS[stream](W, max_len, budget=budget))
        except ResourceLimit as exc:
            result = str(exc)
    return result, [call[2:] for call in calls]


@lru_cache(maxsize=None)
def plain_mid_layer_trip(label):
    """``mid_layer_trip`` of a plain walk, past half its nodes; None for a
    dihedral system."""
    W = build_system(label)
    if W.backend != "weight":
        return None
    return trip_after_a_letter(W, _bfs(W, plain_cutoff(label), NEVER), 0.5)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", PLAIN_GROUPS)
def test_plain_walk_agrees_with_the_walk_that_never_fuses(label, stream):
    # at a trip of 0 every weight system swaps after its first letter, and
    # but for A1, whose walk ends there, calls the compiled loops; a
    # dihedral one never swaps
    want, calls = plain_walk(label, stream, coxeter.DEFAULT_BUDGET, NEVER)
    assert not calls and len(want) > 1
    mid = plain_mid_layer_trip(label)
    for after in [0, coxeter._COMPILE_AFTER] + ([mid[0]] if mid else []):
        got, calls = plain_walk(label, stream, coxeter.DEFAULT_BUDGET, after)
        assert got == want, after
        if after == 0:
            W = build_system(label)
            assert bool(calls) == (W.backend == "weight" and W.rank > 1)
    assert (mid is None) == (build_system(label).backend != "weight" or label == "A1")


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", ["D6", "affine-C4", "affine-D5"])
def test_plain_walks_past_the_default_trip_fuse_and_agree(label, stream):
    # all of D6 (23,040 elements), affine C4 to length 12 (4,089) and
    # affine D5 to length 8 (2,463) pass the 1,500 stored nodes of the trip
    max_len = {"D6": None, "affine-C4": 12, "affine-D5": 8}[label]
    want, calls = plain_walk(label, stream, coxeter.DEFAULT_BUDGET, NEVER, max_len)
    assert not calls
    got, calls = plain_walk(label, stream, coxeter.DEFAULT_BUDGET, coxeter._COMPILE_AFTER, max_len)
    assert got == want and calls


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize(
    "label", [label for label in PLAIN_GROUPS if plain_mid_layer_trip(label)]
)
def test_plain_budgets_around_the_trip_raise_as_the_primitive_walk(label, stream):
    # the budget runs out in the letter that trips, past half the walk,
    # just before the swap, or in the first compiled loops, just after it
    after, fused_at = plain_mid_layer_trip(label)
    budgets = (after - 1, after, after + 1, fused_at - 1, fused_at, fused_at + 1, fused_at + 2)
    for budget in budgets:
        want, _ = plain_walk(label, stream, budget, NEVER)
        got, calls = plain_walk(label, stream, budget, after)
        assert got == want and isinstance(want, str), budget
        assert bool(calls) == (budget >= fused_at)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", ["D5", "affine-C3", "affine-D5"])
def test_plain_budgets_inside_a_fused_bucket_raise_as_the_primitive_walk(label, stream):
    # as for the folding walks: fused from letter 1 of layer 1 on, a
    # budget half way through the children of the largest untested bucket,
    # and one in the largest tested bucket, cut that bucket into slices no
    # longer than the room left, and the walk raises the message of the
    # walk that never swaps, with one child past the budget
    elements, calls = plain_walk(label, stream, coxeter.DEFAULT_BUDGET, 0)
    fused_at = len(elements) - sum(made for _, made in calls)
    for made, at, budget in cut_budgets(fused_at, calls):
        assert made >= 2
        want, _ = plain_walk(label, stream, budget, NEVER)
        got, cut = plain_walk(label, stream, budget, 0)
        assert isinstance(want, str) and got == want, budget
        assert len(cut) >= at + 2 and fused_at + sum(made for _, made in cut) == budget + 1
