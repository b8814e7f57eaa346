import itertools
from collections import Counter

import pytest

from coxfold.coxeter import (
    INFINITE,
    CoxeterMatrix,
    all_reduced_words,
    apply_generator,
    bruhat_leq,
    build_system,
    element_from_word,
    enumerate_parabolic,
    enumerate_up_to,
    enumerate_with_words,
    length,
    minimal_coset_reps,
    multiply,
    parabolic_decompose,
    right_descents,
    shortlex_normal_form,
)
from coxfold.errors import (
    IndexOutOfRange,
    InvalidMatrix,
    ResourceLimit,
    UnsupportedLabel,
)

from oracles import (
    bruhat_dominance_leq,
    dihedral_histogram,
    inversions,
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
        assert system.generator(0).data == ((-1, 0, 0), (2, 1, 0), (0, 0, 1))
        assert system.generator(1).data == ((1, 1, 0), (0, -1, 0), (0, 2, 1))
        assert system.generator(2).data == ((1, 0, 0), (0, 1, 1), (0, 0, -1))
        assert all(
            type(x) is int
            for i in range(3)
            for col in system.generator(i).data
            for x in col
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


class TestApplyGenerator:
    def test_generator_from_identity(self):
        a3 = build_system("A3")
        w = apply_generator(a3, a3.identity(), 1, "right")
        assert w.length == 1

    def test_involution(self):
        a3 = build_system("A3")
        w = apply_generator(a3, a3.identity(), 0, "right")
        assert a3.is_identity(apply_generator(a3, w, 0, "right"))

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

    def test_index_out_of_range(self):
        a3 = build_system("A3")
        with pytest.raises(IndexOutOfRange):
            apply_generator(a3, a3.identity(), 3, "right")

    @pytest.mark.parametrize("name", ["t1", "sx", "s", "s1.5", "s4"])
    def test_bad_generator_names(self, name):
        a3 = build_system("A3")
        assert a3.generator_index("s3") == 2
        with pytest.raises(IndexOutOfRange):
            a3.generator_index(name)


class TestLengthAndDescents:
    def test_identity(self):
        a3 = build_system("A3")
        assert length(a3, a3.identity()) == 0
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
                    image = apply(system.generator(i).data, vec)
                    if not is_negative(image) and image not in roots:
                        roots.add(image)
                        nxt.append(image)
            frontier = nxt

        for el, _ in enumerate_up_to(system, None):
            flipped = sum(1 for vec in roots if is_negative(apply(el.data, vec)))
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

    def test_worker_counts_agree(self):
        system = build_system("B3")
        runs = [
            [(el.data, k) for el, k in enumerate_up_to(system, None, workers=w)]
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

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
    def test_identity_decomposition(self):
        a3 = build_system("A3")
        u, v = parabolic_decompose(a3, a3.identity(), [0, 1])
        assert a3.is_identity(u) and a3.is_identity(v)

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


class TestReducedWords:
    def test_longest_of_rank_two(self):
        a2 = build_system("A2")
        top = element_from_word(a2, (0, 1, 0))
        assert sorted(all_reduced_words(a2, top)) == [(0, 1, 0), (1, 0, 1)]

    def test_word_count_of_commuting_pair(self):
        a3 = build_system("A3")
        w = element_from_word(a3, (0, 2))
        assert sorted(all_reduced_words(a3, w)) == [(0, 2), (2, 0)]
