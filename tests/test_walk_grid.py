"""Every walk, on every folding row and group family, against the references.

Every walk makes its children with the one bucket loop of
``coxeter._loops``, on the primitives, and counts them against its
budget itself.  Here each kind of walk runs on a grid of small cases and
must give what the references in ``oracles`` give, which re-unfold every
element from its word and try every generator on every node:

* the series walk of a folding (``folding._series``) and its coset walk
  (``coset_series_bruteforce``), on every folding row at its two smallest
  n (affA-affA at m = 2 and 3), exact and at an ambient cutoff;
* the walk of ``length_additivity_check``, whose nodes carry the weight
  sum, and the walk of ``_source_records``, whose nodes carry the source
  word, on the same rows;
* the plain walks of a system, ``enumerate_up_to`` and
  ``enumerate_with_words``, on every label family of ``coxeter._GROUPS``
  at its two smallest n, finite groups whole and affine ones to length 8.

Budgets that run out on either side of the boundary between two letters
of a layer, and budgets that run out half way through the children of
the largest bucket of a walk, must raise the reference walk's message,
with one node past the budget stored and no more.
"""

from functools import lru_cache
from unittest import mock

import pytest

from coxfold import coxeter
from coxfold.coxeter import (
    _GROUPS,
    DEFAULT_BUDGET,
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
)
from coxfold.errors import ResourceLimit
from coxfold.folding import (
    _FAMILIES,
    FamilyId,
    _series,
    _source_records,
    coset_series_bruteforce,
    length_additivity_check,
    standard_folding,
)

from oracles import (
    bfs_all_generators,
    bfs_unfolding,
    is_right_descent_data,
    recording_loops,
    reference_factorization,
    unfold,
    unfold_word,
    unfolding_series_reference,
)

FOLDINGS = [
    (name, n, m)
    for name, row in _FAMILIES.items()
    for n in (row.min_n, row.min_n + 1)
    for m in ((2, 3) if row.takes_m else (None,))
]

FINITE_CUTOFF, AFFINE_CUTOFF = 5, 9


def outcome(run):
    """What ``run()`` returns, or the message of the ResourceLimit it raises."""
    try:
        return run()
    except ResourceLimit as exc:
        return str(exc)


def drain(nodes):
    """Run a walk to its end; None, as a check that passes returns."""
    for _ in nodes:
        pass


def walks(case):
    """The (cutoff, J_hat) of each walk of a case: exact (finite rows) and cut,
    full and over the minima of the cosets of the first generator's subgroup."""
    cutoffs = [AFFINE_CUTOFF] if case[0].startswith("aff") else [None, FINITE_CUTOFF]
    return [(L, J_hat) for L in cutoffs for J_hat in (None, (0,))]


def folding_walk(case, cutoff, J_hat, budget):
    """The series of a fresh folding's series or coset walk, or its ResourceLimit message."""
    f = standard_folding(FamilyId(*case))
    if J_hat is None:
        return outcome(lambda: _series(f, cutoff, None, budget))
    return outcome(lambda: coset_series_bruteforce(f, J_hat, cutoff, budget=budget))


def reference_walk(case, cutoff, J_hat, budget):
    """``folding_walk`` on the reference walk of ``oracles``."""
    f = standard_folding(FamilyId(*case))
    return outcome(lambda: unfolding_series_reference(f, cutoff, budget, J_hat))


@lru_cache(maxsize=None)
def reference(case, cutoff, J_hat):
    result = reference_factorization(standard_folding(FamilyId(*case)), J_hat or (), cutoff)
    return result.full_series if J_hat is None else result.coset_series


def letter_boundary(system, nodes, share=0.0):
    """The stored counts after two letters i and i + 1 of one layer, both of
    which make nodes, at the first such pair whose first count is past
    ``share`` of the walk's stored count; None where no such pair exists.

    ``nodes`` are the (length, source data) of a whole walk, root first;
    the letter that made a node is the first of its ShortLex word.
    """
    sizes = {}
    for k, data in nodes:
        if k:
            i = system._reduced_word(data)[0]
            sizes[k, i] = sizes.get((k, i), 0) + 1
    stored, counts = 1, []  # (stored after letter i of layer k, letter i makes nodes)
    for k in range(1, max((k for k, _ in sizes), default=0) + 1):
        for i in range(system.rank):
            stored += sizes.get((k, i), 0)
            counts.append((stored, (k, i) in sizes))
    for t in range(len(counts) - 1):
        (after, made), (following, next_made) = counts[t], counts[t + 1]
        if (t + 1) % system.rank and made and next_made and after > share * stored:
            return after, following
    return None


def around(boundary):
    """Budgets that run out just before, at and just after each count of ``boundary``."""
    after, following = boundary
    return (after - 1, after, after + 1, following - 1, following, following + 1, following + 2)


@lru_cache(maxsize=None)
def folding_boundary(case, cutoff, J_hat):
    f = standard_folding(FamilyId(*case))
    walk = [(k, data) for k, data, _ in bfs_unfolding_of(f, cutoff, J_hat)]
    return letter_boundary(f.source, walk)


def bfs_unfolding_of(f, cutoff, J_hat):
    """The nodes of the reference walk of ``f``, over the coset minima for ``J_hat``."""
    if J_hat is None:
        return bfs_unfolding(f, cutoff, DEFAULT_BUDGET)

    def minimal(data):
        return not any(is_right_descent_data(f.source, data, j) for j in J_hat)

    return bfs_unfolding(f, cutoff, DEFAULT_BUDGET, keep=minimal)


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_folding_walks_agree_with_the_reference(case):
    for cutoff, J_hat in walks(case):
        got = folding_walk(case, cutoff, J_hat, DEFAULT_BUDGET)
        assert got == reference(case, cutoff, J_hat), (cutoff, J_hat)
        assert got == reference_walk(case, cutoff, J_hat, DEFAULT_BUDGET), (cutoff, J_hat)


BOUNDARY_WALKS = [
    (case, cutoff, J_hat)
    for case in FOLDINGS
    for cutoff, J_hat in walks(case)
    if folding_boundary(case, cutoff, J_hat)
]


def test_every_row_is_walked_across_a_letter_boundary():
    # full and coset walks alike, but for the coset walks of a rank-2
    # source, whose minima for J_hat = {0} are one per layer: the
    # alternating words that end in 1
    rows = {case[0] for case in FOLDINGS}
    ranked = {case[0] for case in FOLDINGS if standard_folding(FamilyId(*case)).source.rank > 2}
    for coset, want in ((False, rows), (True, ranked)):
        walked = {case[0] for case, _, J_hat in BOUNDARY_WALKS if (J_hat is not None) == coset}
        assert walked == want


@pytest.mark.parametrize("case, cutoff, J_hat", BOUNDARY_WALKS, ids=str)
def test_budgets_at_a_letter_boundary_raise_as_the_reference_walk(case, cutoff, J_hat):
    # the budget runs out in the last children of a letter, at the first
    # child of the next letter of that layer, or around the end of that
    # letter's children; the walk ends within the last budgets of the
    # last layer
    for budget in around(folding_boundary(case, cutoff, J_hat)):
        got = folding_walk(case, cutoff, J_hat, budget)
        assert got == reference_walk(case, cutoff, J_hat, budget), budget
    after, _ = folding_boundary(case, cutoff, J_hat)
    assert isinstance(folding_walk(case, cutoff, J_hat, after), str)


def check_cutoff(case):
    return 6 if case[0].startswith("aff") else None


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_additivity_check_agrees_with_the_reference(case):
    # every registered folding passes: each element's image, re-unfolded
    # from its word, has the weight sum of the word as its length; at a
    # budget around a letter boundary of the check's walk, which stores
    # every source element to the cutoff, the check raises the message of
    # the reference walk of the source
    f = standard_folding(FamilyId(*case))
    max_len = check_cutoff(case)
    weights = [element_from_word(f.target, word).length for word in f.unfold_letters]
    assert length_additivity_check(f, max_len) is None
    for el, word in enumerate_with_words(f.source, max_len):
        assert unfold(f, el).length == sum(weights[r] for r in word), word
    walk = list(bfs_all_generators(f.source, max_len, DEFAULT_BUDGET))
    for budget in around(letter_boundary(f.source, walk)):
        got = outcome(lambda: length_additivity_check(f, max_len, budget=budget))
        want = outcome(lambda: drain(bfs_all_generators(f.source, max_len, budget)))
        assert got == want, budget


def reference_records(f, cutoff, budget=DEFAULT_BUDGET):
    """The records of ``_source_records`` from the reference walk: each node's
    data, its ShortLex word, and its image re-unfolded from that word."""
    records = []
    for _, data, length in bfs_unfolding(f, cutoff, budget):
        word = f.source._reduced_word(data)
        image = element_from_word(f.target, unfold_word(f, word))
        assert image.length == length
        records.append((data, word, (image.data, image.length)))
    return records


@pytest.mark.parametrize("case", FOLDINGS, ids=str)
def test_source_records_agree_with_the_reference(case):
    # the records walk tags its nodes with the source word: it gives the
    # reference walk's records in order, and a budget raises its message
    f = standard_folding(FamilyId(*case))
    cutoff = AFFINE_CUTOFF if case[0].startswith("aff") else FINITE_CUTOFF
    want = reference_records(f, cutoff)
    assert list(_source_records(f, ambient_cutoff=cutoff)) == want and len(want) > 1
    for budget in (1, 2, 3, len(want) // 2, len(want) - 1, len(want)):
        got = outcome(lambda: list(_source_records(f, ambient_cutoff=cutoff, budget=budget)))
        assert got == outcome(lambda: reference_records(f, cutoff, budget)), budget


# each row with a weight source one n past the largest of FOLDINGS, where
# even the coset filter leaves tested buckets of two children or more
BUCKET_ROWS = [
    (name, row.min_n + 2, 2 if row.takes_m else None)
    for name, row in _FAMILIES.items()
    if standard_folding(FamilyId(name, row.min_n + 2, 2 if row.takes_m else None)).source.backend
    == "weight"
]


def cut_runs(case):
    """The walks of a case that a budget can cut, by name, each with its
    reference: the series and the coset series at an ambient cutoff, and the
    two tagged walks, the records and the additivity check's."""
    cutoff, max_len = 12, check_cutoff(case)
    return {
        "series": (
            lambda f, budget: _series(f, cutoff, None, budget),
            lambda f, budget: unfolding_series_reference(f, cutoff, budget),
        ),
        "coset": (
            lambda f, budget: coset_series_bruteforce(f, (0,), cutoff, budget=budget),
            lambda f, budget: unfolding_series_reference(f, cutoff, budget, (0,)),
        ),
        "records": (
            lambda f, budget: list(_source_records(f, ambient_cutoff=cutoff, budget=budget)),
            lambda f, budget: unfolding_series_reference(f, cutoff, budget),
        ),
        "check": (
            lambda f, budget: length_additivity_check(f, max_len, budget=budget),
            lambda f, budget: list(bfs_all_generators(f.source, max_len, budget)),
        ),
    }


def cut_walk(run, budget, make):
    """The outcome of ``run`` on a fresh ``make()`` at ``budget``, and the
    (layer, letter, tested, nodes handed in, children made) of each call of
    its bucket loop."""
    calls = []
    with mock.patch.object(coxeter, "_loops", recording_loops(calls)):
        result = outcome(lambda: run(make(), budget))
    return result, calls


def cut_budgets(calls):
    """For the largest untested and the largest tested bucket of a whole walk,
    from its loop ``calls``: the children it made, the index of its call, and
    a budget half way through its children."""
    stored, largest = 1, {False: (1, 0, 0), True: (1, 0, 0)}
    for at, (_, _, tested, _, made) in enumerate(calls):
        largest[tested] = max(largest[tested], (made, at, stored + made // 2))
        stored += made
    return largest.values()


def assert_cut_as_the_reference(run, reference_run, make):
    # a budget half way through the children of the largest untested
    # bucket, and one in the largest tested bucket, make the walk hand that
    # bucket to its loop in slices no longer than the room left; it raises
    # the reference walk's message, with one node past the budget stored,
    # and hands no node to the loop twice
    _, full = cut_walk(run, DEFAULT_BUDGET, make)
    for made, at, budget in cut_budgets(full):
        assert made >= 2
        got, cut = cut_walk(run, budget, make)
        want = outcome(lambda: reference_run(make(), budget))
        assert isinstance(want, str) and got == want, budget
        assert len(cut) >= at + 2 and 1 + sum(c[-1] for c in cut) == budget + 1
        assert sum(c[3] for c in cut) <= sum(c[3] for c in full[:at + 1])


@pytest.mark.parametrize("case", BUCKET_ROWS, ids=str)
@pytest.mark.parametrize("name", ["series", "coset", "records", "check"])
def test_budgets_inside_a_bucket_raise_as_the_reference_walk(case, name):
    run, reference_run = cut_runs(case)[name]
    assert_cut_as_the_reference(run, reference_run, lambda: standard_folding(FamilyId(*case)))


# -- the plain walks of a system: enumerate_up_to and enumerate_with_words

PLAIN_GROUPS = [
    f"{family}{n}" for family, row in _GROUPS.items() for n in (row.min_n, row.min_n + 1)
]
STREAMS = {"up_to": enumerate_up_to, "with_words": enumerate_with_words}


def plain_cutoff(label):
    return 8 if label.startswith("affine") else None


def plain_walk(W, stream, max_len, budget):
    """The (length, flat node) of each element that ``stream`` yields on ``W``,
    the node ending in the word for ``with_words``, or its ResourceLimit message."""
    if stream == "up_to":
        return outcome(lambda: [(k, el.data) for el, k in enumerate_up_to(W, max_len, budget=budget)])
    return outcome(
        lambda: [
            (el.length, el.data + (word,))
            for el, word in enumerate_with_words(W, max_len, budget=budget)
        ]
    )


def plain_reference(W, stream, max_len, budget):
    """``plain_walk`` on ``bfs_all_generators``, tagged with words for ``with_words``."""
    tag = None if stream == "up_to" else ((), tuple((i,) for i in range(W.rank)))
    return outcome(lambda: list(bfs_all_generators(W, max_len, budget, tag=tag)))


@lru_cache(maxsize=None)
def plain_boundary(label):
    """``letter_boundary`` of a plain walk, past half its nodes."""
    W = build_system(label)
    return letter_boundary(W, bfs_all_generators(W, plain_cutoff(label), DEFAULT_BUDGET), 0.5)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", PLAIN_GROUPS)
def test_plain_walk_agrees_with_the_reference(label, stream):
    W = build_system(label)
    want = plain_reference(W, stream, plain_cutoff(label), DEFAULT_BUDGET)
    assert plain_walk(W, stream, plain_cutoff(label), DEFAULT_BUDGET) == want
    assert len(want) > 1
    # a walk of rank 1 has a single letter, so no boundary between two
    assert (plain_boundary(label) is None) == (W.rank == 1)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", ["D6", "affine-C4", "affine-D5"])
def test_long_plain_walks_agree_with_the_reference(label, stream):
    # all of D6 (23,040 elements), affine C4 to length 12 (4,089) and
    # affine D5 to length 8 (2,463)
    max_len = {"D6": None, "affine-C4": 12, "affine-D5": 8}[label]
    W = build_system(label)
    want = plain_reference(W, stream, max_len, DEFAULT_BUDGET)
    assert plain_walk(W, stream, max_len, DEFAULT_BUDGET) == want and len(want) > 1500


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", [label for label in PLAIN_GROUPS if plain_boundary(label)])
def test_plain_budgets_at_a_letter_boundary_raise_as_the_reference_walk(label, stream):
    # past half the walk, the budget runs out around the end of one
    # letter's children or of the next one's in the same layer
    W, max_len = build_system(label), plain_cutoff(label)
    for budget in around(plain_boundary(label)):
        got = plain_walk(W, stream, max_len, budget)
        assert got == plain_reference(W, stream, max_len, budget), budget
    assert isinstance(plain_walk(W, stream, max_len, plain_boundary(label)[0]), str)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("label", ["D5", "affine-C3", "affine-D5"])
def test_plain_budgets_inside_a_bucket_raise_as_the_reference_walk(label, stream):
    max_len = plain_cutoff(label)
    assert_cut_as_the_reference(
        lambda W, budget: plain_walk(W, stream, max_len, budget),
        lambda W, budget: plain_reference(W, stream, max_len, budget),
        lambda: build_system(label),
    )
