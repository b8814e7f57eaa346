"""Property tests of the integer element kernel against independent models."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.coxeter import (
    INFINITE,
    CoxeterMatrix,
    _bfs,
    all_reduced_words,
    build_system,
    enumerate_with_words,
    shortlex_normal_form,
)
from coxfold.errors import CoxfoldError

from oracles import bfs_distances, inversions, type_b_generators, type_d_generators

PROPERTY = settings(max_examples=60, deadline=None)

AFFINE_G2 = CoxeterMatrix(((1, 6, 2), (6, 1, 3), (2, 3, 1)))


@lru_cache(maxsize=None)
def system(label):
    return build_system(AFFINE_G2 if label == "affine-G2" else label)


@lru_cache(maxsize=None)
def signed_distances(family, n):
    gens = type_b_generators(n) if family == "B" else type_d_generators(n)
    return gens, bfs_distances(tuple(range(1, n + 1)), gens)


def words(rank, max_size=16):
    return st.lists(st.integers(0, rank - 1), max_size=max_size)


@st.composite
def labelled_words(draw, labels):
    label = draw(st.sampled_from(labels))
    return label, draw(words(system(label).rank))


@PROPERTY
@given(st.data())
def test_type_a_length_is_inversion_count(data):
    n = data.draw(st.integers(1, 5), label="n")
    word = data.draw(words(n), label="word")
    perm = list(range(n + 1))
    for i in word:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    assert system(f"A{n}").assemble(word).length == inversions(tuple(perm))


@PROPERTY
@given(st.data())
def test_signed_length_is_bfs_distance(data):
    family = data.draw(st.sampled_from("BD"), label="family")
    n = data.draw(st.integers(2 if family == "B" else 3, 4), label="n")
    word = data.draw(words(n), label="word")
    gens, dist = signed_distances(family, n)
    point = tuple(range(1, n + 1))
    for i in word:
        point = gens[i](point)
    assert system(f"{family}{n}").assemble(word).length == dist[point]


@PROPERTY
@given(labelled_words(["B4", "affine-C3", "affine-B3", "affine-G2"]), st.data())
def test_left_apply_is_left_multiplication(lw, data):
    # the bonds of order 4 and 6 are not symmetric: a_ij != a_ji
    label, word = lw
    W = system(label)
    i = data.draw(st.integers(0, W.rank - 1), label="i")
    w = W.assemble(word)
    left = W.apply(w, i, "left")
    assert left.data == W.multiply(W.generator(i), w).data
    assert left.length == W.assemble((i,) + tuple(word)).length


@PROPERTY
@given(labelled_words(["A5", "B4", "D5", "affine-B3", "affine-C3", "affine-D4", "affine-G2"]))
def test_product_with_inverse_is_identity(lw):
    label, word = lw
    W = system(label)
    w = W.assemble(word)
    assert W.is_identity(W.multiply(w, W.inverse(w)))
    assert W.is_identity(W.multiply(W.inverse(w), w))


@st.composite
def coxeter_matrices(draw, bonds=(2, 3, 4, 5, 6, 7, INFINITE)):
    n = draw(st.integers(3, 4))
    rows = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(bonds))
    return tuple(map(tuple, rows))


@PROPERTY
@given(coxeter_matrices())
def test_random_matrix_builds_or_raises(entries):
    # every bond order allowed at rank >= 3 has Cartan integers; 5 and 7 do not
    try:
        W = build_system(CoxeterMatrix(entries))
    except CoxfoldError:
        assert any(m in (5, 7) for row in entries for m in row)
        return
    assert all(W.generator(i).length == 1 for i in range(W.rank))


def assert_shortlex_layers(W, stream):
    # each layer strictly increases in word, and each word is the normal form
    last = {}
    for element, word in stream:
        assert len(word) == element.length
        assert word == shortlex_normal_form(W, element)
        if element.length in last:
            assert last[element.length] < word
        last[element.length] = word


@settings(max_examples=25, deadline=None)
@given(coxeter_matrices(bonds=(2, 3, 4, 6, INFINITE)), st.data())
def test_layers_come_in_shortlex_order(entries, data):
    W = build_system(CoxeterMatrix(entries))
    J = data.draw(st.sets(st.integers(0, W.rank - 1), max_size=W.rank - 1), label="J")
    assert_shortlex_layers(W, enumerate_with_words(W, 5))

    def minimal(key):
        return not any(W._is_right_descent_data(key, j) for j in J)

    walk = _bfs(W, 5, 10**6, side="left", keep=minimal)
    assert_shortlex_layers(W, ((W.assemble(word), word) for _, _, word, _ in walk))


SMALL_LABELS = [f"I2({m})" for m in range(3, 13)] + [
    "affine-A1",
    "B3",
    "affine-C2",
    "affine-G2",
]


@PROPERTY
@given(labelled_words(SMALL_LABELS), st.data())
def test_operations_agree_with_words(lw, data):
    # Element equality compares both the data and the length
    label, word = lw
    W = system(label)
    w = W.assemble(word[:10])
    v = W.assemble(data.draw(words(W.rank), label="other"))
    i = data.draw(st.integers(0, W.rank - 1), label="i")
    normal = W.shortlex(w)
    assert normal == min(all_reduced_words(W, w))
    assert W.multiply(w, v) == W.assemble(normal + W.shortlex(v))
    assert W.inverse(w) == W.assemble(reversed(normal))
    assert W.apply(w, i, "left") == W.assemble((i,) + normal)
