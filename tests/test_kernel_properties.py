"""Property tests of the integer element kernel against independent models.

Besides the permutation models, ``oracles.ColumnKernel`` (the earlier
column-matrix kernel) is run side by side with the weight-vector kernel.
"""

from functools import lru_cache
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import coxfold._kernels
from coxfold import coxeter
from coxfold.coxeter import (
    INFINITE,
    _GROUPS,
    CoxeterMatrix,
    _bfs,
    _coset_minimal,
    _loops,
    all_reduced_words,
    apply_generator,
    bruhat_leq,
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    inverse,
    multiply,
    shortlex_normal_form,
)
from coxfold._kernels import bucket_loops
from coxfold.errors import CoxfoldError, ResourceLimit
from coxfold.folding import (
    _FAMILIES,
    FamilyId,
    coset_series_bruteforce,
    standard_folding,
    unfolding_series_bruteforce,
)

from oracles import (
    ColumnKernel,
    bfs_all_generators,
    bfs_distances,
    bruhat_leq_by_scan,
    dihedral_normal_form,
    inversions,
    is_right_descent_data,
    minimal_coset_reps,
    recording_loops,
    shortlex_child,
    type_b_generators,
    type_d_generators,
)

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
    assert element_from_word(system(f"A{n}"), word).length == inversions(tuple(perm))


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
    assert element_from_word(system(f"{family}{n}"), word).length == dist[point]


@PROPERTY
@given(labelled_words(["B4", "affine-C3", "affine-B3", "affine-G2"]), st.data())
def test_left_apply_is_left_multiplication(lw, data):
    # the bonds of order 4 and 6 are not symmetric: a_ij != a_ji
    label, word = lw
    W = system(label)
    i = data.draw(st.integers(0, W.rank - 1), label="i")
    w = element_from_word(W, word)
    left = apply_generator(W, w, i, "left")
    assert left.data == multiply(W, W.generator(i), w).data
    assert left.length == element_from_word(W, (i,) + tuple(word)).length


# the walk's tree test on every bond order: the classical and affine
# labels, affine G2 (bond 6), a rank-3 matrix with an infinite bond, and
# the dihedral backend for every I2(m) up to 12 and for m = infinity
CHILD_SYSTEMS = {
    **{label: label for label in ["A5", "B4", "D5", "affine-C3"]},
    "affine-G2": AFFINE_G2,
    "rank-3 infinite": CoxeterMatrix(((1, INFINITE, 3), (INFINITE, 1, 4), (3, 4, 1))),
    **{f"I2({m})": f"I2({m})" for m in range(3, 13)},
    "I2(inf)": CoxeterMatrix(((1, INFINITE), (INFINITE, 1))),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CHILD_SYSTEMS)), st.data())
def test_child_agrees_with_the_reference_tree_test(name, data):
    W = build_system(CHILD_SYSTEMS[name])
    word = data.draw(words(W.rank, 24), label="word")
    w = element_from_word(W, word)
    if W.backend == "dihedral":
        # a rank-2 element is (first ShortLex letter, or 0 at e, length)
        normal = dihedral_normal_form(W.m, word)
        assert w.data == (normal[0] if normal else 0, w.length) and w.length == len(normal)
        # the longest element has two reduced words and one key
        longest = {element_from_word(W, [(d + t) % 2 for t in range(W.m)]).data for d in (0, 1)}
        assert longest == {(0, W.m)}
    else:
        # x_j = rho(w^-1 alpha_j) is nonzero on every root, so the weight
        # backend's test "x_j - a_ij x_i < 0" reads the same with "<= 0"
        assert 0 not in w.data
    for i in range(W.rank):
        assert W._child(w.data, i) == shortlex_child(W, w.data, i)


@PROPERTY
@given(labelled_words(["A5", "B4", "D5", "affine-B3", "affine-C3", "affine-D4", "affine-G2"]))
def test_product_with_inverse_is_identity(lw):
    label, word = lw
    W = system(label)
    w = element_from_word(W, word)
    assert W.is_identity(multiply(W, w, inverse(W, w)))
    assert W.is_identity(multiply(W, inverse(W, w), w))


BRUHAT_LABELS = ["A4", "B4", "D5", "affine-C3", "affine-D4", "affine-G2", "I2(5)", "affine-A1"]
BRUHAT_BALL = 10


@lru_cache(maxsize=None)
def ball_layers(label):
    layers = {}
    for w, _ in enumerate_up_to(system(label), BRUHAT_BALL):
        layers.setdefault(w.length, []).append(w)
    return layers


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BRUHAT_LABELS),
    st.sampled_from(["words", "longer", "same length", "equal", "identity"]),
    st.data(),
)
def test_bruhat_walk_agrees_with_the_scan(label, case, data):
    W = system(label)
    w = element_from_word(W, data.draw(words(W.rank, BRUHAT_BALL), label="w"))
    v = element_from_word(W, data.draw(words(W.rank, BRUHAT_BALL), label="v"))
    if case == "longer":
        v, w = sorted((v, w), key=lambda el: el.length, reverse=True)
        assume(v.length > w.length)
    elif case == "same length":
        others = [el for el in ball_layers(label)[w.length] if el != w]
        assume(others)
        v = data.draw(st.sampled_from(others), label="same length")
    elif case == "equal":
        v = w
    elif case == "identity":
        v = W.identity()
    below = bruhat_leq(W, v, w)
    assert below == bruhat_leq_by_scan(W, v, w)
    assert bruhat_leq(W, w, v) == bruhat_leq_by_scan(W, w, v)
    if case != "words":
        assert below == (case in ("equal", "identity"))


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

    def minimal(data):
        return not any(is_right_descent_data(W, data, j) for j in J)

    walk = nodes(W, _bfs(W, 5, 10**6, keep=minimal, tag=((), word_prefixes(W))))
    assert_shortlex_layers(W, ((element_from_word(W, node[-1]), node[-1]) for _, node in walk))


WALK_LABELS = [
    "A1", "A3", "A4", "B3", "B4", "D4", "D5", "I2(3)", "I2(5)", "I2(8)", "rank-3 infinite",
    "affine-A1", "affine-A3", "affine-B3", "affine-C2", "affine-D4", "affine-G2",
]


def walk_system(label):
    return build_system(CHILD_SYSTEMS.get(label, label))


def word_prefixes(W):
    """The prefixes of the ShortLex word tag: the tag of s_i w is (i,) + that of w."""
    return tuple((i,) for i in range(W.rank))


def nodes(W, walk):
    """The nodes of a ``_bfs`` walk, one (length, flat node) at a time.

    Each bucket it yields is non-empty, and every node in it has the same
    least left descent; buckets come by increasing length, and within a
    length by increasing descent, the root's bucket last.
    """
    last = None
    for k, bucket in walk:
        assert bucket
        descents = {
            next((d for d in range(W.rank) if W._is_left_descent_data(node[:W.rank], d)), W.rank)
            for node in bucket
        }
        assert len(descents) == 1
        here = (k, descents.pop())
        assert last is None or last < here
        last = here
        yield from ((k, node) for node in bucket)


def walk_record(walk, keep):
    """The yields of a walk, its ResourceLimit message and the filter's calls."""
    calls, yields = [], []

    def recording(data):
        calls.append(data)
        return keep(data)

    try:
        for item in walk(None if keep is None else recording):
            yields.append(item)
    except ResourceLimit as exc:
        return yields, str(exc), calls
    return yields, None, calls


PAYLOADS = ["none", "words", "weights", "parabolic", "coset minima", "words and coset minima"]


def assert_walk_agrees_with_the_reference(W, label, payload, data):
    """The bucketed walk and the all-generators walk, with drawn cutoff, budget and J."""
    cutoffs = st.integers(0, 7)
    if not label.startswith(("affine", "rank")):
        cutoffs |= st.none()
    max_len = data.draw(cutoffs, label="max_len")
    budget = data.draw(st.one_of(st.integers(1, 60), st.just(10**4)), label="budget")
    J = sorted(data.draw(st.sets(st.integers(0, W.rank - 1)), label="J"))
    tag, keep = None, None
    if "words" in payload:
        tag = ((), word_prefixes(W))
    if payload == "weights":
        tag = (0, tuple(range(1, W.rank + 1)))
    if payload == "parabolic":
        keep = lambda key: set(W._reduced_word(key)) <= set(J)  # noqa: E731
    if "coset minima" in payload:
        keep = _coset_minimal(W, J)
    got = walk_record(lambda k: nodes(W, _bfs(W, max_len, budget, keep=k, tag=tag)), keep)
    want = walk_record(lambda k: bfs_all_generators(W, max_len, budget, keep=k, tag=tag), keep)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(WALK_LABELS), st.sampled_from(PAYLOADS), st.data())
def test_bucketed_walk_agrees_with_the_reference(label, payload, data):
    W = walk_system(label)
    assert_walk_agrees_with_the_reference(W, label, payload, data)


WEIGHT_WALK_LABELS = [label for label in WALK_LABELS if walk_system(label).backend == "weight"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(WEIGHT_WALK_LABELS), st.sampled_from(PAYLOADS), st.integers(1, 60), st.data()
)
def test_walk_past_a_low_trip_agrees_with_the_reference(label, payload, after, data):
    # a few dozen stored nodes trip the walk, most often part way through
    # a layer: plain, tagged and filtered walks alike swap in the compiled
    # loops there; yields, filter calls and budget message still match
    W = walk_system(label)
    with mock.patch.object(coxeter, "_COMPILE_AFTER", after), mock.patch.object(
        coxfold._kernels, "_KERNELS", {}
    ):
        assert_walk_agrees_with_the_reference(W, label, payload, data)


def test_plain_walk_that_fuses_mid_layer_agrees_with_the_reference():
    # at a trip of 12 nodes, the words walk of affine C2 (15 stored after
    # letter s1 of layer 3) swaps before s2, and makes every later bucket
    # with the compiled loops, for more than a layer
    W, calls = build_system("affine-C2"), []
    tag = ((), word_prefixes(W))
    with mock.patch.object(coxeter, "_COMPILE_AFTER", 12), mock.patch.object(
        coxfold._kernels, "_KERNELS", {}
    ), mock.patch.object(coxfold._kernels, "bucket_loops", recording_loops(calls)):
        got = walk_record(lambda k: nodes(W, _bfs(W, 6, 10**4, tag=tag)), None)
    want = walk_record(lambda k: bfs_all_generators(W, 6, 10**4, tag=tag), None)
    assert got == want
    # the first compiled letter is not the first of its layer
    assert calls[0][:2] == (3, 2) and calls[-1][0] == 6


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
    w = element_from_word(W, word[:10])
    v = element_from_word(W, data.draw(words(W.rank), label="other"))
    i = data.draw(st.integers(0, W.rank - 1), label="i")
    normal = shortlex_normal_form(W, w)
    assert normal == min(all_reduced_words(W, w))
    assert multiply(W, w, v) == element_from_word(W, normal + shortlex_normal_form(W, v))
    assert inverse(W, w) == element_from_word(W, reversed(normal))
    assert apply_generator(W, w, i, "left") == element_from_word(W, (i,) + normal)


@lru_cache(maxsize=None)
def column_streams(entries, max_len):
    # (length, ShortLex word) streams of the library and of the column kernel
    columns = ColumnKernel(entries)
    layers = columns.shortlex_layers(max_len)
    W = build_system(CoxeterMatrix(entries))
    ours = [(el.length, word) for el, word in enumerate_with_words(W, max_len)]
    return ours, layers


@st.composite
def differential_matrices(draw):
    labels = ["A5", "B4", "D5", "affine-B3", "affine-C3", "affine-D4"]
    label = draw(st.sampled_from(labels + ["random"]))
    if label == "random":
        return draw(coxeter_matrices(bonds=(2, 3, 4, 6, INFINITE)))
    return system(label).matrix.entries


@PROPERTY
@given(differential_matrices(), st.data())
def test_kernel_agrees_with_column_oracle(entries, data):
    W = build_system(CoxeterMatrix(entries))
    columns = ColumnKernel(entries)
    ours, layers = column_streams(entries, 6)
    assert ours == [(k, word) for k, word, _ in layers]

    J = data.draw(st.sets(st.integers(0, W.rank - 1), max_size=W.rank - 1), label="J")
    minima = [
        word for k, word, cols in layers
        if not any(columns.is_right_descent(cols, j) for j in J)
    ]
    assert [shortlex_normal_form(W, el) for el in minimal_coset_reps(W, J, 6)] == minima

    a = data.draw(words(W.rank, 8), label="a")
    b = data.draw(words(W.rank, 8), label="b")
    mask = data.draw(st.lists(st.booleans(), min_size=len(b), max_size=len(b)), label="mask")
    u, v = element_from_word(W, a), element_from_word(W, b)
    cu, cv = columns.assemble(a), columns.assemble(b)
    product = multiply(W, u, v)
    assert shortlex_normal_form(W, u) == columns.shortlex(cu[0]) and u.length == cu[1]
    assert shortlex_normal_form(W, product) == columns.shortlex(columns.multiply(cu[0], cv[0]))
    assert product.length == columns.assemble(a + b)[1]
    assert shortlex_normal_form(W, inverse(W, u)) == columns.shortlex(columns.inverse(cu[0]))

    interval = columns.bruhat_interval(cv[0])
    sub = element_from_word(W, [i for i, on in zip(b, mask) if on])
    for x in (u, sub):
        assert bruhat_leq(W, x, v) == (columns.assemble(shortlex_normal_form(W, x))[0] in interval)


# every folding row at its two smallest n (affA-affA at m = 2 and 3) whose
# target has the weight backend: I2-An at n = 2 folds into the dihedral A2
FOLDINGS = [
    (name, n, m)
    for name, row in _FAMILIES.items()
    for n in (row.min_n, row.min_n + 1)
    for m in ((2, 3) if row.takes_m else (None,))
    if (name, n) != ("I2-An", 2)
]


@lru_cache(maxsize=None)
def folding(case):
    return standard_folding(FamilyId(*case))


def least_weight_folding(name, row):
    """The folding of a row at its least n whose source and target both have
    the weight backend (m = 2), or None: I2-An has a dihedral source."""
    for n in range(row.min_n, row.min_n + 3):
        f = folding((name, n, 2 if row.takes_m else None))
        if f.source.backend == f.target.backend == "weight":
            return f
    return None


# the walks whose loops compile: every weight label family of
# coxeter._GROUPS at its min n, plain, and every folding row between
# weight systems at its least such n (the finite rows have a rank-2
# source at min n), as (source, target, words)
LOOP_WALKS = [
    (system(label), None, None)
    for label in (f"{family}{row.min_n}" for family, row in _GROUPS.items())
    if system(label).backend == "weight"
] + [
    (f.source, f.target, f._words)
    for f in (least_weight_folding(name, row) for name, row in _FAMILIES.items())
    if f is not None
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LOOP_WALKS), st.data())
def test_primitive_and_compiled_loops_agree(walk, data):
    # one loop contract: on flat nodes drawn from a short walk, each
    # letter's untested and tested loops give the same children on the
    # primitives (coxeter._loops) as compiled (_kernels.bucket_loops),
    # plain and tagged with words or int weights, with and without an
    # ambient cutoff and the coset filter; a letter that no bucket tests
    # has no compiled tested loop
    source, target, words = walk
    cutoff = None if target is None else data.draw(st.none() | st.integers(0, 12), label="cutoff")
    J = data.draw(st.none() | st.sets(st.integers(0, source.rank - 1)), label="J")
    keep = None if J is None else _coset_minimal(source, J)
    weights = data.draw(st.tuples(*[st.integers(0, 9)] * source.rank), label="weights")
    tag = data.draw(st.sampled_from([None, ((), word_prefixes(source)), (0, weights)]), label="tag")
    max_len = data.draw(st.integers(0, 4), label="max_len")
    walked = [
        node
        for _, bucket in _bfs(source, max_len, 10**6, target, words, cutoff, keep, tag)
        for node in bucket
    ]
    drawn = data.draw(st.lists(st.sampled_from(walked), min_size=1, max_size=8), label="nodes")
    spec = (source, target, words, cutoff, keep, None if tag is None else tag[1])
    tested_letters = set().union(*source._above)
    for i, (compiled, primitive) in enumerate(zip(bucket_loops(*spec), _loops(*spec))):
        assert (compiled[1] is None) == (i not in tested_letters)
        for tested, loop in enumerate(compiled):
            if loop is not None:
                assert primitive[tested](drawn) == loop(drawn), (i, tested)


def folding_walk(f, cutoff, J_hat, budget, after=coxeter._COMPILE_AFTER, compiled=None):
    """The series of a folding walk, or its ResourceLimit message, under ``after``,
    with the loop cache ``compiled``, empty by default, so no loops compiled before it."""
    with mock.patch.object(coxeter, "_COMPILE_AFTER", after), mock.patch.object(
        coxfold._kernels, "_KERNELS", {} if compiled is None else compiled
    ):
        try:
            if J_hat is None:
                return unfolding_series_bruteforce(f, cutoff, budget=budget)
            return coset_series_bruteforce(f, J_hat, cutoff, budget=budget)
        except ResourceLimit as exc:
            return str(exc)


def plain_walk(case, cutoff, J_hat, budget):
    """``folding_walk`` of a fresh folding whose walk, checked after, never compiled."""
    plain, compiled = standard_folding(FamilyId(*case)), {}
    result = folding_walk(plain, cutoff, J_hat, budget, 10**9, compiled)
    assert compiled == {}
    return result


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FOLDINGS), st.integers(1, 60), st.data())
def test_folding_walk_that_swaps_in_the_block_kernels_agrees(case, after, data):
    # a few dozen stored nodes fuse the walk into the compiled
    # bucket loops, if the source has the weight backend, most often part
    # way through a layer; the series and the budget message are those of
    # a walk that never compiles
    cutoffs = st.integers(0, 10)
    if not case[0].startswith("aff"):
        cutoffs |= st.none()
    cutoff = data.draw(cutoffs, label="cutoff")
    rank = folding(case).source.rank
    J_hat = data.draw(st.none() | st.sets(st.integers(0, rank - 1)), label="J_hat")
    budget = data.draw(st.one_of(st.integers(1, 80), st.just(10**5)), label="budget")
    f = standard_folding(FamilyId(*case))
    assert folding_walk(f, cutoff, J_hat, budget, after) == plain_walk(case, cutoff, J_hat, budget)


def test_folding_walk_that_swaps_mid_layer_agrees():
    # B4 -> D5 with a trip at 20 stored nodes: the walk swaps after a
    # letter of a layer other than the last, and goes on with the compiled
    # loops for more than a layer to the series and the budget message of
    # the primitives
    case = ("Bn-Dn+1", 4, None)
    calls = []
    with mock.patch("coxfold._kernels.bucket_loops", recording_loops(calls)):
        got = folding_walk(standard_folding(FamilyId(*case)), None, None, 10**5, 20)
    assert got == plain_walk(case, None, None, 10**5)
    # the first compiled letter is not the first of its layer
    (k, i), last = calls[0][:2], calls[-1][0]
    assert i != 0 and last > k + 1
    calls.clear()
    with mock.patch("coxfold._kernels.bucket_loops", recording_loops(calls)):
        message = folding_walk(standard_folding(FamilyId(*case)), None, None, 150, 20)
    assert message == plain_walk(case, None, None, 150) and message.startswith("element budget")
    assert calls
