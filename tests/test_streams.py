"""The ordering contract shared by every enumeration stream.

Reports and DOT output depend on it: lengths never decrease, elements
come in ShortLex order of their normal forms within each length (so the
order does not depend on how elements are encoded), no element repeats,
and every word a stream carries is the ShortLex normal form of its
element.
"""

import pytest

from coxfold.coxeter import (
    Element,
    _bfs,
    _prepend,
    enumerate_parabolic,
    enumerate_up_to,
    enumerate_with_words,
    minimal_coset_reps,
    shortlex_normal_form,
)
from coxfold.folding import FamilyId, _source_records, standard_folding

from oracles import is_right_descent_data


def _minimal_left_walk(system, J, max_len):
    # the tree walk behind minimal_coset_reps, with its words
    def minimal(key, payload):
        return not any(is_right_descent_data(system, key, j) for j in J)

    for k, key, word in _bfs(system, max_len, 10**6, start=(), step=_prepend, keep=minimal):
        yield k, key, word


STREAMS = {
    "enumerate_up_to": lambda s, L, f: (
        (k, el.data, None) for el, k in enumerate_up_to(s, L)
    ),
    "enumerate_with_words": lambda s, L, f: (
        (el.length, el.data, w) for el, w in enumerate_with_words(s, L)
    ),
    "enumerate_parabolic": lambda s, L, f: (
        (k, el.data, None) for el, k in enumerate_parabolic(s, [0, s.rank - 1], L)
    ),
    "minimal_coset_reps": lambda s, L, f: (
        (el.length, el.data, None) for el in minimal_coset_reps(s, [1], L)
    ),
    "minimal_coset_reps_words": lambda s, L, f: _minimal_left_walk(s, [1], L),
    "_source_records": lambda s, L, f: (
        (el.length, el.data, w) for el, w, _ in _source_records(f, ambient_cutoff=L)
    ),
}

# (folding, ambient cutoff): a finite exact case and an affine cutoff case;
# the plain streams walk the folding's source group up to the same cutoff
CASES = {
    "finite-exact": (FamilyId("Bn-A2n", 3), None),
    "affine-cutoff": (FamilyId("affC-affC2n", 2), 10),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_contract(stream, case):
    family, cutoff = CASES[case]
    f = standard_folding(family)
    system = f.source
    items = list(STREAMS[stream](system, cutoff, f))
    assert items[0][:2] == (0, system.identity().data)
    assert items[-1][0] >= 2
    keys = [key for _, key, _ in items]
    assert len(set(keys)) == len(keys)
    ranked = []
    for k, key, word in items:
        normal = shortlex_normal_form(system, Element(key, k))
        assert len(normal) == k
        if word is not None:
            assert word == normal
        ranked.append((k, normal))
    for (k0, word0), (k1, word1) in zip(ranked, ranked[1:]):
        assert k0 < k1 or (k0 == k1 and word0 < word1)

