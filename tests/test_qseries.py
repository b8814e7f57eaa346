import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.errors import InvalidBase, NegativeDegree, NonUnitDivisor
from coxfold.qseries import (
    Monomial,
    Q,
    QSeries,
    StatSeries,
    divide_by_unit,
    q_factorial,
    q_integer,
    substitute,
)

from oracles import (
    geometric_divide_by_powers,
    poly_divide_dense,
    poly_mul,
    poly_qint,
    q_pochhammer,
    statseries_from_json,
    zero_series,
)


def coeffs(series):
    return list(series.coeffs)


# an exact polynomial (order None) or a series truncated at order 0..15
q_series = st.builds(
    QSeries,
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
    st.one_of(st.none(), st.integers(0, 15)),
)

# a trivariate series with a and b exponents 0..3, truncated at q-order 0..20
stat_series = st.integers(0, 20).flatmap(
    lambda order: st.builds(
        StatSeries,
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, order)),
            st.integers(-9, 9),
            max_size=12,
        ),
        st.just(order),
    )
)

# a geometric term +/- a^i b^j q^e with i, j in 0..2 and e in 1..4
geometric_terms = st.builds(
    Monomial,
    st.sampled_from([1, -1]),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 2),
)


class TestQInteger:
    def test_one(self):
        assert coeffs(q_integer(1, Q)) == [1]

    def test_alternating_base(self):
        assert coeffs(q_integer(3, Monomial(-1, 1))) == [1, -1, 1]

    def test_power_base(self):
        assert coeffs(q_integer(2, Monomial(1, 3))) == [1, 0, 0, 1]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_eval_at_one(self, k):
        assert q_integer(k, Q).eval_at_one() == k

    def test_invalid_bases(self):
        with pytest.raises(InvalidBase):
            q_integer(0, Q)
        with pytest.raises(InvalidBase):
            q_integer(3, Monomial(1, 0))
        with pytest.raises(InvalidBase):
            q_integer(3, Monomial(0, 1))


class TestQPochhammer:
    def test_empty_product(self):
        assert coeffs(q_pochhammer(Monomial(1, 1), Q, 0)) == [1]

    def test_negative_argument(self):
        # (1+q)(1+q^2)
        assert coeffs(q_pochhammer(Monomial(-1, 1), Q, 2)) == [1, 1, 1, 1]

    def test_shifted_argument(self):
        # (1-q^5)(1-q^7)
        expected = poly_mul([1, 0, 0, 0, 0, -1], [1, 0, 0, 0, 0, 0, 0, -1])
        assert coeffs(q_pochhammer(Monomial(1, 5), Monomial(1, 2), 2)) == expected

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)])
    @pytest.mark.parametrize("sign,exp", [(1, 1), (-1, 1), (1, 2)])
    def test_splitting(self, m, n, sign, exp):
        # (x;q)_{m+n} = (x;q)_m * (q^m x;q)_n
        whole = q_pochhammer(Monomial(sign, exp), Q, m + n)
        left = q_pochhammer(Monomial(sign, exp), Q, m)
        right = q_pochhammer(Monomial(sign, exp + m), Q, n)
        assert whole == left * right


class TestQFactorial:
    def test_empty(self):
        assert coeffs(q_factorial(0, Q)) == [1]

    def test_three(self):
        expected = poly_mul(poly_qint(2), poly_qint(3))
        assert coeffs(q_factorial(3, Q)) == expected == [1, 2, 2, 1]

    def test_square_base(self):
        assert coeffs(q_factorial(2, Monomial(1, 2))) == [1, 0, 1]

    @pytest.mark.parametrize("n", range(7))
    def test_eval_at_one(self, n):
        assert q_factorial(n, Q).eval_at_one() == math.factorial(n)


class TestArithmetic:
    def test_mul_identity(self):
        a = QSeries([3, 0, -2, 5])
        assert a * QSeries.one() == a

    def test_geometric_series(self):
        got = divide_by_unit(QSeries.one(4), QSeries([1, -1], 4))
        assert coeffs(got) == [1, 1, 1, 1, 1]

    def test_even_geometric(self):
        num = q_integer(2, Monomial(1, 2)).truncate(8)
        got = divide_by_unit(num, QSeries([1, 0, -1], 8))
        assert coeffs(got) == [1, 0, 2, 0, 2, 0, 2, 0, 2]

    def test_non_unit_divisors(self):
        with pytest.raises(NonUnitDivisor):
            divide_by_unit(QSeries.one(4), zero_series(4))
        with pytest.raises(NonUnitDivisor):
            divide_by_unit(QSeries.one(4), QSeries([2, 1], 4))

    def test_division_needs_truncation(self):
        with pytest.raises(ValueError):
            divide_by_unit(QSeries([1, 1]), QSeries([1, -1]))

    def test_truncation_never_extends(self):
        with pytest.raises(ValueError):
            QSeries([1, 1], 3).truncate(5)

    def test_ring_laws_on_random_operands(self):
        rng = random.Random(20250808)
        for _ in range(60):
            L = rng.randrange(1, 8)
            def rand():
                return QSeries([rng.randrange(-4, 5) for _ in range(L + 1)], L)
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == zero_series(L)

    @settings(max_examples=120, deadline=None)
    @given(q_series, q_series)
    def test_mul_property(self, a, b):
        # exact, truncated and mixed-order operands against the plain product,
        # cut at the smaller order (an exact product keeps its full degree)
        got = a * b
        full = poly_mul(a.coeffs, b.coeffs)
        orders = [o for o in (a.order, b.order) if o is not None]
        if not orders:
            assert got.order is None
            assert coeffs(got) == coeffs(QSeries(full))
        else:
            order = min(orders)
            assert got.order == order
            assert coeffs(got) == (full + [0] * order)[: order + 1]

    def test_division_inverts_multiplication(self):
        rng = random.Random(11)
        for _ in range(40):
            L = rng.randrange(1, 9)
            a = QSeries([rng.randrange(-5, 6) for _ in range(L + 1)], L)
            d = QSeries(
                [rng.choice([1, -1])] + [rng.randrange(-3, 4) for _ in range(L)], L
            )
            assert divide_by_unit(a * d, d) == a

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=25),
        st.sampled_from([1, -1]),
        st.lists(st.integers(-5, 5), max_size=25),
        st.one_of(st.none(), st.integers(0, 30)),
    )
    def test_division_property(self, a_coeffs, d0, d_tail, d_order):
        # a truncated, d a unit that is exact or truncated at any order;
        # the sparse division agrees with the dense reference on a * d and a
        a = QSeries(a_coeffs, len(a_coeffs) - 1)
        d = QSeries([d0] + d_tail, d_order)
        got = divide_by_unit(a * d, d)
        order = a.order if d_order is None else min(a.order, d_order)
        assert got.order == order
        assert got.coeffs == a.truncate(order).coeffs
        for num in (a * d, a):
            dense = poly_divide_dense(num.coeffs, d.coeffs, order)
            assert list(divide_by_unit(num, d).coeffs) == dense


class TestEquality:
    def test_trailing_zeros(self):
        assert QSeries([1, 2, 0, 0]) == QSeries([1, 2])

    def test_truncated_comparison(self):
        assert QSeries([1, 2, 3], 2) == QSeries([1, 2, 999, 5], 1)
        assert QSeries([1, 2], 4) != QSeries([1, 3], 4)

    def test_exact_vs_truncated(self):
        assert QSeries([1, 1, 1]) == QSeries([1, 1], 1)

    def test_first_mismatch(self):
        a, b = QSeries([1, 2, 3], 5), QSeries([1, 2, 4], 5)
        assert a.first_mismatch(b) == (2, 3, 4)
        assert a.first_mismatch(a) is None
        # the coefficient at the truncation order itself is compared
        assert QSeries([1, 2, 3], 2).first_mismatch(QSeries([1, 2, 4], 2)) == (2, 3, 4)


class TestSerialization:
    def test_roundtrip_exact(self):
        p = q_factorial(4, Q)
        assert QSeries.from_json(p.to_json()) == p
        assert p.to_json()["order"] == "exact"

    def test_roundtrip_truncated(self):
        p = QSeries([1, 0, 2], 7)
        data = p.to_json()
        assert data["order"] == 7 and len(data["coeffs"]) == 8
        back = QSeries.from_json(data)
        assert back == p and back.order == 7

    def test_str(self):
        assert str(QSeries([1, 1, 1, 2, 1, 1, 1])) == "1 + q + q^2 + 2q^3 + q^4 + q^5 + q^6"
        assert str(QSeries([0])) == "0"
        assert str(QSeries([1, -1, 1])) == "1 - q + q^2"


class TestStatSeries:
    def test_one(self):
        s = StatSeries.one(5)
        assert s.coeffs == {(0, 0, 0): 1}

    def test_mul_tracks_exponents(self):
        a = StatSeries.one(6) + StatSeries.from_monomial(Monomial(1, 1, a_exp=1), 6)
        b = StatSeries.one(6) + StatSeries.from_monomial(Monomial(1, 1, b_exp=1), 6)
        prod = a * b
        assert prod.coeffs == {
            (0, 0, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
            (1, 1, 2): 1,
        }

    def test_geometric_divide(self):
        # 1/(1 - a q^2) up to q^6
        s = StatSeries.one(6).geometric_divide(Monomial(1, 2, a_exp=1))
        assert s.coeffs == {(0, 0, 0): 1, (1, 0, 2): 1, (2, 0, 4): 1, (3, 0, 6): 1}

    @settings(max_examples=120, deadline=None)
    @given(stat_series, geometric_terms)
    def test_geometric_divide_property(self, s, term):
        # the one-pass recurrence agrees with the sum of s * term^p, and
        # multiplying back by 1 - term recovers s
        got = s.geometric_divide(term)
        expected = geometric_divide_by_powers(s, term)
        assert got.q_order == expected.q_order == s.q_order
        assert got.coeffs == expected.coeffs
        back = got * (StatSeries.one(s.q_order) - StatSeries.from_monomial(term, s.q_order))
        assert back.coeffs == s.coeffs

    def test_geometric_divide_errors(self):
        with pytest.raises(ValueError):
            StatSeries.one().geometric_divide(Monomial(1, 1))
        with pytest.raises(NonUnitDivisor):
            StatSeries.one(4).geometric_divide(Monomial(1, 0, a_exp=1))

    def test_roundtrip(self):
        s = StatSeries({(1, 0, 1): 2, (0, 2, 3): -1}, 4)
        assert statseries_from_json(s.to_json()) == s

    def test_first_mismatch_ordering(self):
        a = StatSeries({(0, 0, 1): 1, (2, 0, 3): 5}, 8)
        b = StatSeries({(0, 0, 1): 1, (2, 0, 3): 7}, 8)
        assert a.first_mismatch(b) == ((2, 0, 3), 5, 7)
        # terms are compared up to the smaller q-order, that order included
        assert a.first_mismatch(StatSeries({(0, 0, 1): 1}, 2)) is None
        assert a.first_mismatch(StatSeries({(0, 0, 1): 1}, 3)) == ((2, 0, 3), 5, 0)


class TestSubstitute:
    def test_identity_term(self):
        s = StatSeries.one(4)
        assert coeffs(substitute(s, Q, Q, Q, 4)) == [1, 0, 0, 0, 0]

    def test_exponent_arithmetic(self):
        # a^1 q^1 under a -> q, q -> q^2 lands in degree 3
        s = StatSeries.from_monomial(Monomial(1, 1, a_exp=1), 6)
        assert coeffs(substitute(s, Q, Q, Monomial(1, 2), 6)) == [0, 0, 0, 1, 0, 0, 0]

    def test_zero_value_drops_terms(self):
        s = StatSeries.one(4) + StatSeries.from_monomial(Monomial(1, 1, a_exp=1), 4)
        got = substitute(s, Monomial(0, 0), Q, Q, 4)
        assert coeffs(got) == [1, 0, 0, 0, 0]

    def test_negative_degree_rejected(self):
        s = StatSeries.from_monomial(Monomial(1, 2, a_exp=3), 6)
        with pytest.raises(NegativeDegree):
            substitute(s, Monomial(1, -1), Q, Q, 6)
