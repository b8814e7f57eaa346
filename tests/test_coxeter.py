import itertools
from collections import Counter

import pytest

from coxfold.coxeter import (
    _GROUPS,
    DEFAULT_BUDGET,
    INFINITE,
    CoxeterMatrix,
    Element,
    _bfs,
    apply_generator,
    bruhat_leq,
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    multiply,
    shortlex_normal_form,
)
import coxfold.coxeter
import coxfold.dot
from coxfold.dot import bruhat_dot, covering_relations
from coxfold.errors import (
    CoxfoldError,
    IndexOutOfRange,
    InvalidMatrix,
    InvalidParameters,
    ResourceLimit,
    UnsupportedLabel,
)

from oracles import (
    ColumnKernel,
    all_reduced_words,
    bruhat_dominance_leq,
    covers_by_deletion,
    dihedral_histogram,
    enumerate_parabolic,
    generator_index,
    inversions,
    is_identity,
    minimal_coset_reps,
    parabolic_decompose,
    right_descents,
    symmetric_histogram,
    type_b_histogram,
    type_d_histogram,
)


def histogram(system, max_len=None, **kw):
    return Counter(k for _, k in enumerate_up_to(system, max_len, **kw))


class TestBuildSystem:
    def test_a3_matrix(self):
        system = build_system("A3")
        assert system.matrix.entries == ((1, 3, 2), (3, 1, 3), (2, 3, 1))
        assert system.generator_name(0) == "s1"

    def test_i2_4_is_dihedral(self):
        system = build_system("I2(4)")
        assert system.backend == "dihedral" and system.m == 4

    def test_b2_is_dihedral(self):
        assert build_system("B2").backend == "dihedral"

    def test_affine_c2_bonds(self):
        system = build_system("affine-C2")
        assert system.matrix.entries == ((1, 4, 2), (4, 1, 4), (2, 4, 1))
        assert system.generator_name(0) == "s0"

    def test_affine_a1_infinite_bond(self):
        system = build_system("affine-A1")
        assert system.backend == "dihedral" and system.m == INFINITE

    def test_affine_b3_graph(self):
        system = build_system("affine-B3")
        m = system.matrix
        assert m.bond(0, 1) == 4 and m.bond(1, 2) == 3 and m.bond(1, 3) == 3
        assert m.bond(2, 3) == 2

    @pytest.mark.parametrize(
        "label",
        [
            "E6", "B1", "C3", "D2", "I2(2)", "affine-B2", "affine-D3", "nonsense",
            "Ax", "affine-Cx", "I2(x)", "I2()", "A1.5",
        ],
    )
    def test_rejected_labels(self, label):
        with pytest.raises(UnsupportedLabel):
            build_system(label)

    def test_bond_six_builds_affine_g2(self):
        # Bott: the Poincare series of affine G2 is [2][6] / ((1-q)(1-q^5))
        matrix = CoxeterMatrix(((1, 6, 2), (6, 1, 3), (2, 3, 1)))
        hist = histogram(build_system(matrix), 14)
        bott = [1, 3, 5, 7, 9, 12, 15, 17, 19, 21, 24, 27, 29, 31, 33]
        assert [hist[k] for k in range(15)] == bott

    def test_custom_matrix_accepted(self):
        matrix = CoxeterMatrix(((1, 4, 2), (4, 1, 4), (2, 4, 1)))
        system = build_system(matrix)
        assert system.rank == 3
        # Cartan integers (a_ij, a_ji) = (-2, -1) for both bonds of order 4
        columns = ColumnKernel(matrix.entries)
        assert columns.generator(0) == ((-1, 0, 0), (2, 1, 0), (0, 0, 1))
        assert columns.generator(1) == ((1, 1, 0), (0, -1, 0), (0, 2, 1))
        assert columns.generator(2) == ((1, 0, 0), (0, 1, 1), (0, 0, -1))
        # the weight vector of s_i is its row of the same integers acting on rho
        assert system.identity().data == (1, 1, 1)
        assert system.generator(0).data == (-1, 3, 1)
        assert system.generator(1).data == (2, -1, 3)
        assert system.generator(2).data == (1, 2, -1)
        assert all(
            type(data) is tuple and all(type(x) is int for x in data)
            for data in (system.generator(i).data for i in range(3))
        )

    def test_invalid_matrices(self):
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(((1, 3), (3, 2)))  # bad diagonal
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(((1, 3), (2, 1)))  # asymmetric
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(((1, 1), (1, 1)))  # off-diagonal below 2
        with pytest.raises(InvalidMatrix):
            CoxeterMatrix(((1, 5, 2), (5, 1, 3), (2, 3, 1)))  # rank 3 with m=5

    def test_relations_are_checked_once_per_matrix(self, monkeypatch):
        # a check that passed is kept for the matrix entries, so a second
        # system on the same matrix walks no relation again
        walks, wrong_order = [], coxfold.coxeter._wrong_order
        monkeypatch.setattr(coxfold.coxeter, "_RELATIONS_HOLD", set())
        monkeypatch.setattr(
            coxfold.coxeter, "_wrong_order", lambda *args: walks.append(args) or wrong_order(*args)
        )
        for _ in range(2):
            build_system("D5")
        build_system(CoxeterMatrix(build_system("D5").matrix.entries))
        assert len(walks) == 1

    def test_a_broken_primitive_on_an_unseen_matrix_raises(self, monkeypatch):
        # s_i that only negates x_i is an involution under which every pair
        # commutes, so a bond of order 3 fails; a failing check is not
        # kept, and raises again
        monkeypatch.setattr(coxfold.coxeter, "_RELATIONS_HOLD", set())
        monkeypatch.setattr(
            coxfold.coxeter.CoxeterSystem, "_apply_left",
            lambda self, data, i: tuple(-x if j == i else x for j, x in enumerate(data)),
        )
        for _ in range(2):
            with pytest.raises(InvalidMatrix, match="does not have order"):
                build_system("A4")


# Degrees of the finite Weyl groups (Humphreys, Reflection Groups and
# Coxeter Groups, table 3.1); affine X_n uses those of finite X_n.
DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
}


def degree_series(degrees, affine, order):
    """prod [d]_q, divided by prod (1 - q^(d-1)) for an affine group (Bott), to q^order."""
    coeffs = [1] + [0] * order
    for d in degrees:
        # times [d]_q = 1 + q + ... + q^(d-1)
        coeffs = [sum(coeffs[max(0, k - d + 1):k + 1]) for k in range(order + 1)]
        if affine:
            # divided by 1 - q^(d-1)
            for k in range(d - 1, order + 1):
                coeffs[k] += coeffs[k - d + 1]
    return coeffs


@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family, row in _GROUPS.items() for n in (row.min_n, row.min_n + 1)],
)
def test_group_rows_match_degrees(family, n):
    affine = family.startswith("affine-")
    degrees = DEGREES[family[-1]](n)
    order = 10 if affine else sum(d - 1 for d in degrees)
    hist = histogram(build_system(f"{family}{n}"), 10 if affine else None)
    assert [hist[k] for k in range(max(hist) + 1)] == degree_series(degrees, affine, order)


class TestApplyGenerator:
    def test_generator_from_identity(self):
        a3 = build_system("A3")
        w = apply_generator(a3, a3.identity(), 1, "right")
        assert w.length == 1

    def test_involution(self):
        a3 = build_system("A3")
        w = apply_generator(a3, a3.identity(), 0, "right")
        assert is_identity(a3, apply_generator(a3, w, 0, "right"))

    def test_ascent_chain(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 1))
        w = apply_generator(a3, w, 2, "right")
        assert w.length == 3

    def test_left_side(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 1))
        assert apply_generator(a3, w, 0, "left").length == 1
        assert apply_generator(a3, w, 2, "left").length == 3

    @pytest.mark.parametrize(
        "call",
        [
            lambda a3: element_from_word(a3, (0, 3)),
            lambda a3: element_from_word(a3, (-1,)),
            lambda a3: apply_generator(a3, a3.identity(), -1, "left"),
            lambda a3: apply_generator(a3, a3.identity(), 3, "right"),
        ],
        ids=["word-past-rank", "word-negative", "left-negative", "right-past-rank"],
    )
    def test_index_out_of_range(self, call):
        with pytest.raises(IndexOutOfRange):
            call(build_system("A3"))

    @pytest.mark.parametrize("side", ["up", "", None, "Left"])
    def test_bad_side(self, side):
        # a side other than "left" or "right" is bad input, not a ValueError
        a3 = build_system("A3")
        with pytest.raises(InvalidParameters, match="side must be"):
            apply_generator(a3, a3.identity(), 0, side)

    @pytest.mark.parametrize("name", ["t1", "sx", "s", "s1.5", "s4"])
    def test_bad_generator_names(self, name):
        a3 = build_system("A3")
        assert generator_index(a3, "s3") == 2
        with pytest.raises(IndexOutOfRange):
            generator_index(a3, name)


class TestLengthAndDescents:
    def test_identity(self):
        a3 = build_system("A3")
        assert a3.identity().length == 0
        assert right_descents(a3, a3.identity()) == frozenset()

    def test_longest_element(self):
        a3 = build_system("A3")
        top = max(enumerate_up_to(a3, None), key=lambda t: t[1])[0]
        assert top.length == 6
        assert right_descents(a3, top) == frozenset({0, 1, 2})

    def test_unfolded_diagonal_word(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 2, 1, 0, 2, 1))
        assert w.length == 6

    def test_commuting_pair_descents(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 2))
        assert right_descents(a3, w) == frozenset({0, 2})

    def test_length_is_inversion_count_in_type_a(self):
        a3 = build_system("A3")
        for el, word in enumerate_with_words(a3, None):
            perm = list(range(4))
            for i in word:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
            assert inversions(tuple(perm)) == el.length

    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_length_counts_positive_roots_sent_negative(self, label):
        system = build_system(label)
        columns = ColumnKernel(system.matrix.entries)

        def apply(data, vec):
            out = [0] * system.rank
            for c, col in zip(vec, data):
                out = [x + c * y for x, y in zip(out, col)]
            return tuple(out)

        def is_negative(vec):
            return all(c <= 0 for c in vec) and any(c != 0 for c in vec)

        # positive roots = orbit of the simple basis vectors, positive part
        basis = [
            tuple(int(a == i) for a in range(system.rank)) for i in range(system.rank)
        ]
        roots = set(basis)
        frontier = list(basis)
        while frontier:
            nxt = []
            for vec in frontier:
                for i in range(system.rank):
                    image = apply(columns.generator(i), vec)
                    if not is_negative(image) and image not in roots:
                        roots.add(image)
                        nxt.append(image)
            frontier = nxt

        for el, word in enumerate_with_words(system, None):
            matrix = columns.assemble(word)[0]
            flipped = sum(1 for vec in roots if is_negative(apply(matrix, vec)))
            assert flipped == el.length


class TestShortlex:
    def test_identity(self):
        a2 = build_system("A2")
        assert shortlex_normal_form(a2, a2.identity()) == ()

    def test_noncommuting_pair(self):
        a2 = build_system("A2")
        w = element_from_word(a2, (1, 0))
        assert shortlex_normal_form(a2, w) == (1, 0)

    def test_dihedral_longest(self):
        b2 = build_system("B2")
        w = element_from_word(b2, (1, 0, 1, 0))
        assert shortlex_normal_form(b2, w) == (0, 1, 0, 1)

    @pytest.mark.parametrize("label", ["A3", "B3", "I2(5)", "affine-A1"])
    def test_reassembly_and_agreement_with_bfs(self, label):
        system = build_system(label)
        cutoff = 5 if system.backend == "dihedral" or label.startswith("affine") else None
        for el, word in enumerate_with_words(system, cutoff):
            assert shortlex_normal_form(system, el) == word
            assert element_from_word(system, word).data == el.data
            assert len(word) == el.length


class TestEnumerate:
    def test_a2_histogram(self):
        assert histogram(build_system("A2")) == Counter({0: 1, 1: 2, 2: 2, 3: 1})

    def test_cutoff_zero(self):
        items = list(enumerate_up_to(build_system("B3"), 0))
        assert len(items) == 1 and items[0][1] == 0

    def test_infinite_dihedral_ball(self):
        hist = histogram(build_system("affine-A1"), 4)
        assert hist == Counter({0: 1, 1: 2, 2: 2, 3: 2, 4: 2})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_type_a_matches_permutation_model(self, n):
        assert histogram(build_system(f"A{n}")) == symmetric_histogram(n + 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_type_b_matches_signed_model(self, n):
        assert histogram(build_system(f"B{n}")) == type_b_histogram(n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_type_d_matches_even_signed_model(self, n):
        assert histogram(build_system(f"D{n}")) == type_d_histogram(n)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_dihedral_histograms(self, m):
        assert histogram(build_system(f"I2({m})")) == dihedral_histogram(m)

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimit):
            list(enumerate_up_to(build_system("A3"), None, budget=5))

    def test_budget_enforced_within_a_layer(self):
        # A3 layers hold 1, 3, 5, ... elements: the sixth stored element
        # is the second of layer 2, long before that layer is complete
        with pytest.raises(ResourceLimit) as info:
            list(enumerate_up_to(build_system("A3"), None, budget=5))
        assert (info.value.budget, info.value.stored, info.value.layer) == (5, 6, 2)
        assert "6 elements" in str(info.value) and "layer 2" in str(info.value)

    def test_length_alternation_and_involution(self):
        for label in ("A3", "B3", "D4", "I2(7)"):
            system = build_system(label)
            for el, k in enumerate_up_to(system, 6):
                for i in range(system.rank):
                    up = apply_generator(system, el, i, "right")
                    assert abs(up.length - k) == 1
                    back = apply_generator(system, up, i, "right")
                    assert back.data == el.data and back.length == k


class TestParabolic:
    @pytest.mark.parametrize("J", [[3], [0, -1]])
    def test_out_of_range_subset(self, J):
        a3 = build_system("A3")
        with pytest.raises(IndexOutOfRange):
            list(enumerate_parabolic(a3, J, 2))
        with pytest.raises(IndexOutOfRange):
            parabolic_decompose(a3, a3.identity(), J)
        with pytest.raises(IndexOutOfRange):
            list(minimal_coset_reps(a3, J, 2))

    def test_identity_decomposition(self):
        a3 = build_system("A3")
        u, v = parabolic_decompose(a3, a3.identity(), [0, 1])
        assert is_identity(a3, u) and is_identity(a3, v)

    def test_strip_example(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (1, 0, 2, 1))
        u, v = parabolic_decompose(a3, w, [1])
        assert shortlex_normal_form(a3, u) == (1, 0, 2)
        assert shortlex_normal_form(a3, v) == (1,)

    def test_dihedral_already_minimal(self):
        b2 = build_system("B2")
        w = element_from_word(b2, (0, 1, 0))
        u, v = parabolic_decompose(b2, w, [1])
        assert u.data == w.data and v.length == 0
        # appending the J-generator ascends
        assert apply_generator(b2, w, 1, "right").length == 4

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_soundness_for_all_subsets(self, label):
        system = build_system(label)
        elements = [el for el, _ in enumerate_up_to(system, None)]
        subsets = [
            J
            for r in range(system.rank + 1)
            for J in itertools.combinations(range(system.rank), r)
        ]
        for w in elements:
            for J in subsets:
                u, v = parabolic_decompose(system, w, J)
                assert multiply(system, u, v).data == w.data
                assert u.length + v.length == w.length
                assert not any(
                    j in right_descents(system, u) for j in J
                )
                assert set(shortlex_normal_form(system, v)) <= set(J)

    @pytest.mark.parametrize("label", ["A3", "B3", "I2(5)"])
    def test_parabolic_length_product(self, label):
        # whole-group histogram = coset-minima histogram * parabolic histogram
        system = build_system(label)
        full = histogram(system)
        for r in range(system.rank + 1):
            for J in itertools.combinations(range(system.rank), r):
                mins = Counter(el.length for el in minimal_coset_reps(system, J, None))
                par = Counter(k for _, k in enumerate_parabolic(system, J, None))
                prod = Counter()
                for a, ca in mins.items():
                    for b, cb in par.items():
                        prod[a + b] += ca * cb
                assert prod == full, J


class TestMinimalCosetReps:
    def test_chain_quotient(self):
        b3 = build_system("B3")
        reps = list(minimal_coset_reps(b3, [1, 2], None))
        assert sorted(r.length for r in reps) == [0, 1, 2, 3, 4, 5]

    def test_empty_subset_is_whole_group(self):
        a3 = build_system("A3")
        assert len(list(minimal_coset_reps(a3, [], None))) == 24

    def test_full_subset_is_identity(self):
        a3 = build_system("A3")
        reps = list(minimal_coset_reps(a3, [0, 1, 2], None))
        assert len(reps) == 1 and reps[0].length == 0

    def test_agrees_with_descent_filter(self):
        a3 = build_system("A3")
        for J in ([0], [1], [0, 2], [1, 2]):
            expected = {
                el.data
                for el, _ in enumerate_up_to(a3, None)
                if not any(j in right_descents(a3, el) for j in J)
            }
            got = {el.data for el in minimal_coset_reps(a3, J, None)}
            assert got == expected


class TestBruhat:
    def test_identity_below_everything(self):
        a3 = build_system("A3")
        for el, _ in enumerate_up_to(a3, None):
            assert bruhat_leq(a3, a3.identity(), el)

    def test_incomparable_generators(self):
        a3 = build_system("A3")
        s2 = element_from_word(a3, (1,))
        s1s3 = element_from_word(a3, (0, 2))
        assert not bruhat_leq(a3, s2, s1s3)

    def test_subword_pair(self):
        a3 = build_system("A3")
        v = element_from_word(a3, (0, 2))
        w = element_from_word(a3, (1, 0, 2, 1))
        assert bruhat_leq(a3, v, w)

    def test_matches_dominance_oracle(self):
        a3 = build_system("A3")
        with_words = list(enumerate_with_words(a3, None))

        def perm(word):
            p = list(range(4))
            for i in word:
                p[i], p[i + 1] = p[i + 1], p[i]
            return tuple(p)

        for x, xw in with_words:
            for y, yw in with_words:
                assert bruhat_leq(a3, x, y) == bruhat_dominance_leq(perm(xw), perm(yw))

    @pytest.mark.parametrize(
        "label, data",
        [("I2(5)", (0, 0)), ("B3", (1, 1, 1)), ("B3", (2, -1, 3))],
        ids=["I2(5)-identity", "B3-identity", "B3-generator"],
    )
    def test_length_its_element_lacks_raises(self, label, data):
        # the walk down w runs out of left descents before its length
        W = build_system(label)
        with pytest.raises(CoxfoldError):
            bruhat_leq(W, W.identity(), Element(data, 2))


@pytest.mark.parametrize(
    "label, max_len, count",
    [
        ("A4", None, 444),
        ("D4", None, 790),
        ("B4", None, 1740),
        ("affine-C2", 6, 171),
        ("I2(5)", None, 16),
        ("affine-A1", 7, 26),
        ("D5", None, 11576),
        ("A5", 6, 1033),
        ("affine-A2", 8, 393),
    ],
)
def test_covers_match_one_letter_deletion(label, max_len, count):
    W = build_system(label)
    covers = covering_relations(W, max_len)
    assert covers == covers_by_deletion(W, max_len)
    assert len(covers) == count


@pytest.mark.parametrize(
    "label, calls",
    [
        # 4,072 pairs of adjacent layers, of which 790 are covers
        ("D4", 192),
        # the size the benchmark's smoke run draws: bruhat_leq is still reached
        ("A3", 4),
        # the one cover s1 > e is s1 s1, taken outright
        ("A1", 0),
        # every one of the 16 covers is an s w or a w s, taken outright
        ("I2(5)", 0),
    ],
)
def test_covers_compare_only_the_pairs_the_lifting_property_leaves_open(
    monkeypatch, label, calls
):
    # the covers of w are its sw for left descents s, its ws for right
    # descents s, and the v one layer down whose left and right descents
    # hold all of w's; only those v meet bruhat_leq
    seen = []

    def counting(system, v, w):
        seen.append((v, w))
        return bruhat_leq(system, v, w)

    monkeypatch.setattr(coxfold.dot, "bruhat_leq", counting)
    W = build_system(label)
    assert covering_relations(W) == covers_by_deletion(W)
    assert len(seen) == calls


def test_bruhat_dot_walks_the_group_once(monkeypatch):
    # the nodes are read off the covers, not off a second enumeration
    walked = []
    enumerate_words = coxfold.dot.enumerate_with_words

    def counting(system, *args, **kwargs):
        walked.append(system.label)
        return enumerate_words(system, *args, **kwargs)

    monkeypatch.setattr(coxfold.dot, "enumerate_with_words", counting)
    bruhat_dot(build_system("A3"))
    assert walked == ["A3"]


def test_walk_tests_only_the_pairs_the_buckets_leave_open():
    # a node whose least left descent is d is tested by _child only for
    # the i > d with m(d, i) != 2; the root, with no descent, never is
    W = build_system("D6")
    calls = []
    child = W._child

    def counting(data, i):
        calls.append(i)
        return child(data, i)

    W._child = counting
    nodes = [el.data for el, _ in enumerate_up_to(W, None)]
    open_pairs = 0
    for key in nodes[1:]:
        d = next(d for d in range(W.rank) if W._is_left_descent_data(key, d))
        open_pairs += sum(1 for i in range(d + 1, W.rank) if W.matrix.bond(d, i) != 2)
    assert len(nodes) == 23040
    assert len(calls) == open_pairs == 23616


def test_walks_leave_nothing_on_their_system():
    # two D6 systems each walk all of D6, plain and tagged with words
    for _ in range(2):
        W = build_system("D6")
        state = dict(vars(W))
        assert sum(1 for _ in enumerate_up_to(W, None)) == 23040
        assert sum(1 for _ in enumerate_with_words(W, None)) == 23040
        assert vars(W) == state


def test_repeated_and_side_by_side_walks_count_alike():
    # a whole walk of D4, one of D5 to length 12, and long walks of the
    # dihedral backend: three walks in turn, or two side by side, each
    # count only their own nodes
    cases = [("D4", None, 192), ("D5", 12, 1456), ("affine-A1", 3000, 6001), ("I2(8)", None, 16)]
    for label, max_len, count in cases:
        W = build_system(label)
        for _ in range(3):
            assert sum(1 for _ in enumerate_up_to(W, max_len)) == count
            assert sum(1 for _ in enumerate_with_words(W, max_len)) == count
        pairs = zip(enumerate_up_to(W, max_len), enumerate_with_words(W, max_len))
        assert sum(1 for _ in pairs) == count


@pytest.mark.parametrize("stream", [enumerate_up_to, enumerate_with_words])
def test_a_short_walk_after_a_long_one_runs_on_the_primitives(stream):
    # the system keeps nothing of a walk of all of D6, so a later walk of
    # the same system to length 4 makes every node with _apply_left and
    # _child, as on a fresh system
    counts = []
    for long_walk in (False, True):
        W, calls = build_system("D6"), []
        if long_walk:
            assert sum(1 for _ in stream(W, None)) == 23040
        for name in ("_apply_left", "_child"):
            primitive = getattr(W, name)
            setattr(W, name, lambda data, i, f=primitive, n=name: calls.append(n) or f(data, i))
        assert sum(1 for _ in stream(W, 4)) == 1 + 6 + 20 + 50 + 104
        counts.append(Counter(calls))
    assert counts[0] == counts[1] and counts[0]["_child"] > 0 and counts[0]["_apply_left"] > 0


class TestReducedWords:
    def test_longest_of_rank_two(self):
        a2 = build_system("A2")
        top = element_from_word(a2, (0, 1, 0))
        assert sorted(all_reduced_words(a2, top)) == [(0, 1, 0), (1, 0, 1)]

    def test_word_count_of_commuting_pair(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 2))
        assert sorted(all_reduced_words(a3, w)) == [(0, 2), (2, 0)]
