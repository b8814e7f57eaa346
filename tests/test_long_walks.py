"""Walks of a few thousand nodes against the references in ``oracles``.

Every walk makes its children with the one bucket loop of
``coxeter._loops``, on the primitives, and counts them against its
budget itself.  The walks here store 1,500 nodes or more, so their
buckets hold hundreds of nodes: the series and coset walks of a
folding, a budget that runs out inside a bucket of such a walk, a
source filter that is shown the source data of each child in the
reference walk's order, the records of all of B5, and the ShortLex
words of all of D6.  The structural check over all of B5 is in
``test_folding``.
"""

from unittest import mock

import pytest

from coxfold import coxeter
from coxfold.coxeter import DEFAULT_BUDGET, build_system, element_from_word, enumerate_with_words
from coxfold.errors import ResourceLimit
from coxfold.folding import FamilyId, _series, coset_series_bruteforce, standard_folding
from coxfold.qseries import QSeries

from oracles import (
    bfs_all_generators,
    bfs_unfolding,
    recording_loops,
    unfold_word,
    unfolded_image,
    unfolding_series_reference,
)


@pytest.mark.parametrize(
    "case, cutoff, J",
    [
        (("Bn-Dn+1", 5), None, None),  # all of B5: 3,840 elements
        (("affB-affDn+1", 4), 14, None),  # 3,809 elements
        (("affB-affDn+1", 4), 16, (0,)),  # 3,822 coset minima
    ],
    ids=str,
)
def test_long_folding_walks_agree_with_the_reference(case, cutoff, J):
    f = standard_folding(FamilyId(*case))
    if J is None:
        got = _series(f, cutoff, None, DEFAULT_BUDGET)
    else:
        got = coset_series_bruteforce(f, J, cutoff)
    assert got == unfolding_series_reference(f, cutoff, J=J) and sum(got.coeffs) > 1500


def test_a_budget_inside_a_bucket_of_a_long_coset_walk():
    # the chain of affB-affDn+1 n=4 to ambient length 40 starts with a walk
    # of the coset minima of the parabolic on every generator but r0, which
    # stores 1,850 nodes.  A budget of 1,700 runs out inside a bucket: the
    # walk hands it to the loop in slices no longer than the room left, and
    # raises the reference walk's message, with one node past the budget
    # stored and no more
    f = standard_folding(FamilyId("affB-affDn+1", 4))
    J = range(1, f.source.rank)
    full, cut = [], []
    with mock.patch.object(coxeter, "_loops", recording_loops(full)):
        whole = coset_series_bruteforce(f, J, 40)
    assert whole == unfolding_series_reference(f, 40, J=J) and sum(whole.coeffs) == 1850
    with mock.patch.object(coxeter, "_loops", recording_loops(cut)):
        with pytest.raises(ResourceLimit) as raised:
            coset_series_bruteforce(f, J, 40, budget=1700)
    with pytest.raises(ResourceLimit) as want:
        unfolding_series_reference(f, 40, 1700, J)
    assert str(raised.value) == str(want.value)
    # the root and the children of every call: one past the budget
    assert 1 + sum(made for *_, made in cut) == 1701
    # the bucket of the full walk in which the children pass the budget
    # took two calls or more, the last handed one node that made one child,
    # and no node was handed to the loop twice
    at = next(t for t in range(len(full)) if 1 + sum(c[-1] for c in full[:t + 1]) > 1700)
    assert len(cut) >= at + 2 and cut[-1][3:] == (1, 1)
    assert sum(c[3] for c in cut) <= sum(c[3] for c in full[:at + 1])


@pytest.mark.parametrize(
    "case, cutoff", [(("Bn-Dn+1", 3), None), (("affC-affA2n+1", 2), 9)], ids=str
)
def test_keep_sees_the_source_data_of_the_reference_walk(case, cutoff):
    # the filter reads more than one entry of the data, and is not closed
    # under taking parents, so it prunes; the folding walk shows it the
    # source data of each child within the cutoff, in the order in which
    # the reference walk does, and stores the same nodes
    seen = {}

    def recording(name):
        calls = seen.setdefault(name, [])

        def keep(data):
            calls.append(data)
            return data[-1] < 0 or sum(data) % 5 != 1

        return keep

    f = standard_folding(FamilyId(*case))
    got = _series(f, cutoff, recording("walk"), DEFAULT_BUDGET)
    lengths = [length for *_, length in bfs_unfolding(f, cutoff, 10**6, keep=recording("ref"))]
    assert got == QSeries.from_lengths(lengths, cutoff)
    assert seen["walk"] == seen["ref"] and len(seen["walk"]) > 10
    assert {len(data) for data in seen["walk"]} == {f.source.rank}


def test_records_of_all_of_B5_re_unfold_from_their_words():
    # the records walk tags each node with its source word: 3,840 records,
    # in the order of the source's own walk, each image the product of
    # its unfolded word
    f = standard_folding(FamilyId("Bn-Dn+1", 5))
    image = unfolded_image(f)
    assert list(image.values()) == [word for _, word in enumerate_with_words(f.source, None)]
    assert len(image) == 3840
    for data, word in image.items():
        assert element_from_word(f.target, unfold_word(f, word)).data == data


def test_words_of_all_of_D6_are_the_reference_walks():
    # 23,040 elements, each with its ShortLex word as the walk's tag
    W = build_system("D6")
    tag = ((), tuple((i,) for i in range(W.rank)))
    want = [(k, node) for k, node in bfs_all_generators(W, None, DEFAULT_BUDGET, tag=tag)]
    got = [(el.length, el.data + (word,)) for el, word in enumerate_with_words(W, None)]
    assert got == want and len(got) == 23040
