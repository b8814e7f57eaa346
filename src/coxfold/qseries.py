"""Exact polynomial and truncated power series arithmetic over the integers.

Univariate values live in ``QSeries``: a vector of integer coefficients
indexed by degree, together with a truncation order.  ``order=None``
marks an exact polynomial; ``order=L`` means the coefficients are
correct for all degrees ``<= L`` and unknown beyond.  Operations never
silently extend a truncation order.

Trivariate values (variables ``a``, ``b``, ``q``) live in ``StatSeries``
and are truncated in the q-degree only; the ``a`` and ``b`` exponents
are tracked exactly.  They encode refined length distributions where
``a`` and ``b`` mark occurrence counts of two distinguished generators.

The classical q-building blocks:

* q-integer    ``[k]_x   = 1 + x + ... + x^(k-1)`` for a monomial base ``x``
* q-factorial  ``[n]_x!  = [1]_x [2]_x ... [n]_x``
* q-Pochhammer ``(x;s)_n = (1-x)(1-s*x)...(1-s^(n-1)*x)``

>>> str(q_integer(3, Monomial(-1, 1)))
'1 - q + q^2'
>>> str(q_pochhammer(Monomial(-1, 1), Monomial(1, 1), 2))
'1 + q + q^2 + q^3'
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InvalidBase, NegativeDegree, NonUnitDivisor

__all__ = [
    "Monomial",
    "Q",
    "QSeries",
    "StatSeries",
    "q_integer",
    "q_factorial",
    "q_pochhammer",
    "divide_by_unit",
    "substitute",
]


@dataclass(frozen=True)
class Monomial:
    """A signed monomial ``coeff * a^a_exp * b^b_exp * q^q_exp``.

    ``coeff`` is one of -1, 0, +1.  Negative ``q_exp`` is permitted only
    as a substitution argument whose callers guarantee that every
    affected term keeps non-negative total degree.
    """

    coeff: int
    q_exp: int
    a_exp: int = 0
    b_exp: int = 0

    def __post_init__(self):
        if self.coeff not in (-1, 0, 1):
            raise InvalidBase(f"monomial coefficient must be -1, 0 or 1: {self.coeff}")
        if self.a_exp < 0 or self.b_exp < 0:
            raise InvalidBase("a/b exponents must be non-negative")

    def power(self, i: int) -> "Monomial":
        if i < 0:
            raise InvalidBase("negative monomial power")
        if i == 0:
            return Monomial(1, 0)
        return Monomial(self.coeff**i, self.q_exp * i, self.a_exp * i, self.b_exp * i)


Q = Monomial(1, 1)


def _min_order(x: int | None, y: int | None) -> int | None:
    if x is None:
        return y
    if y is None:
        return x
    return min(x, y)


class QSeries:
    """Integer-coefficient polynomial in q, exact or truncated at ``order``."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be >= 0")
            coeffs = coeffs[: order + 1]
            coeffs += [0] * (order + 1 - len(coeffs))
        else:
            while len(coeffs) > 1 and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                coeffs = [0]
        self.coeffs = tuple(coeffs)
        self.order = order

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int | None = None) -> "QSeries":
        return QSeries([0], order)

    @staticmethod
    def one(order: int | None = None) -> "QSeries":
        return QSeries([1], order)

    @staticmethod
    def from_lengths(lengths, order: int | None = None) -> "QSeries":
        """The series whose q^k coefficient counts the occurrences of k.

        >>> str(QSeries.from_lengths([0, 1, 2, 1]))
        '1 + 2q + q^2'
        """
        counts = Counter(lengths)
        top = max(counts) if counts else 0
        return QSeries([counts[k] for k in range(top + 1)], order)

    @staticmethod
    def monomial(m: Monomial, order: int | None = None) -> "QSeries":
        if m.a_exp or m.b_exp:
            raise InvalidBase("univariate series cannot hold a/b exponents")
        if m.q_exp < 0:
            raise InvalidBase("negative q-power in a univariate monomial")
        coeffs = [0] * m.q_exp + [m.coeff]
        return QSeries(coeffs, order)

    # -- basic queries -------------------------------------------------

    def coefficient(self, k: int) -> int:
        if k < 0:
            return 0
        if self.order is not None and k > self.order:
            raise ValueError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def degree(self) -> int:
        """Largest degree with a nonzero coefficient (0 for the zero value)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return 0

    def eval_at_one(self) -> int:
        return sum(self.coeffs)

    def truncate(self, order: int) -> "QSeries":
        if self.order is not None and order > self.order:
            raise ValueError("cannot extend a truncation order")
        return QSeries(self.coeffs, order)

    # -- arithmetic ----------------------------------------------------

    def _padded(self, n: int):
        return list(self.coeffs) + [0] * (n - len(self.coeffs))

    def __add__(self, other: "QSeries") -> "QSeries":
        order = _min_order(self.order, other.order)
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self._padded(n), other._padded(n)
        return QSeries([x + y for x, y in zip(a, b)], order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other: "QSeries") -> "QSeries":
        order = _min_order(self.order, other.order)
        if order is None:
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, x in enumerate(self.coeffs):
                if x:
                    for j, y in enumerate(other.coeffs):
                        if y:
                            out[i + j] += x * y
            return QSeries(out)
        out = [0] * (order + 1)
        for i, x in enumerate(self.coeffs):
            if x and i <= order:
                for j, y in enumerate(other.coeffs):
                    if y and i + j <= order:
                        out[i + j] += x * y
        return QSeries(out, order)

    def sub_monomial(self, m: Monomial) -> "QSeries":
        """Substitute q -> m, where m is +/- q^j with j >= 1.

        Degrees scale by j, so a value correct up to order L stays
        correct up to j*L.
        """
        if m.coeff not in (1, -1) or m.q_exp < 1 or m.a_exp or m.b_exp:
            raise InvalidBase("substitution base must be +/- q^j with j >= 1")
        out = [0] * (self.degree() * m.q_exp + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * m.q_exp] = c * (m.coeff**k)
        order = None if self.order is None else self.order * m.q_exp
        return QSeries(out, order)

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        order = _min_order(self.order, other.order)
        if order is None:
            n = max(len(self.coeffs), len(other.coeffs))
            return self._padded(n) == other._padded(n)
        return self._padded(order + 1)[: order + 1] == other._padded(order + 1)[: order + 1]

    __hash__ = None  # equality is truncation-sensitive

    def first_mismatch(self, other: "QSeries"):
        """First degree where the two values differ, or None.

        Compares up to the smaller truncation order, like ``==``.
        """
        order = _min_order(self.order, other.order)
        n = max(len(self.coeffs), len(other.coeffs)) if order is None else order + 1
        a, b = self._padded(n), other._padded(n)
        for k in range(n):
            if a[k] != b[k]:
                return (k, a[k], b[k])
        return None

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        tag = "exact" if self.order is None else f"O(q^{self.order + 1})"
        return f"QSeries({self}, {tag})"

    def to_json(self) -> dict:
        return {
            "order": "exact" if self.order is None else self.order,
            "coeffs": list(self.coeffs),
        }

    @staticmethod
    def from_json(data: dict) -> "QSeries":
        order = data["order"]
        return QSeries(data["coeffs"], None if order == "exact" else int(order))


class StatSeries:
    """Integer series in (a, b, q), truncated in the q-degree.

    Coefficients are keyed by ``(a_exp, b_exp, q_deg)``.  ``q_order=None``
    marks an exact polynomial.
    """

    __slots__ = ("coeffs", "q_order")

    def __init__(self, coeffs: dict, q_order: int | None = None):
        clean = {}
        for key, c in coeffs.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in term {key}")
            if q_order is not None and k > q_order:
                continue
            if c:
                clean[key] = c
        self.coeffs = clean
        self.q_order = q_order

    @staticmethod
    def one(q_order: int | None = None) -> "StatSeries":
        return StatSeries({(0, 0, 0): 1}, q_order)

    @staticmethod
    def from_monomial(m: Monomial, q_order: int | None = None) -> "StatSeries":
        if m.q_exp < 0:
            raise ValueError("negative q-power in a series term")
        return StatSeries({(m.a_exp, m.b_exp, m.q_exp): m.coeff}, q_order)

    def __add__(self, other: "StatSeries") -> "StatSeries":
        order = _min_order(self.q_order, other.q_order)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return StatSeries(out, order)

    def __neg__(self) -> "StatSeries":
        return StatSeries({k: -c for k, c in self.coeffs.items()}, self.q_order)

    def __sub__(self, other: "StatSeries") -> "StatSeries":
        return self + (-other)

    def __mul__(self, other: "StatSeries") -> "StatSeries":
        order = _min_order(self.q_order, other.q_order)
        out: dict = {}
        for (i1, j1, k1), c1 in self.coeffs.items():
            for (i2, j2, k2), c2 in other.coeffs.items():
                k = k1 + k2
                if order is not None and k > order:
                    continue
                key = (i1 + i2, j1 + j2, k)
                out[key] = out.get(key, 0) + c1 * c2
        return StatSeries(out, order)

    def geometric_divide(self, term: Monomial) -> "StatSeries":
        """Divide by ``1 - term`` where term has positive total q-degree.

        Expands ``1/(1-term)`` as a geometric series; requires a finite
        q-truncation so the expansion terminates.
        """
        if self.q_order is None:
            raise ValueError("geometric division needs a q-truncation")
        if term.q_exp < 1:
            raise NonUnitDivisor("geometric factor must have positive q-degree")
        factor = StatSeries.from_monomial(term, self.q_order)
        acc = StatSeries(dict(self.coeffs), self.q_order)
        total = StatSeries({}, self.q_order)
        for _ in range(self.q_order // term.q_exp + 1):
            total = total + acc
            acc = acc * factor
            if not acc.coeffs:
                break
        return total

    def specialize_a(self, value: Monomial) -> "StatSeries":
        """Substitute the a-variable by a signed power of q (or by zero)."""
        out: dict = {}
        for (i, j, k), c in self.coeffs.items():
            if value.coeff == 0:
                if i > 0:
                    continue
                key, sign = (0, j, k), 1
            else:
                deg = k + i * value.q_exp
                if deg < 0:
                    raise NegativeDegree(f"term a^{i} q^{k} under a -> q^{value.q_exp}")
                if self.q_order is not None and deg > self.q_order:
                    continue
                key, sign = (0, j, deg), value.coeff**i
            out[key] = out.get(key, 0) + sign * c
        return StatSeries(out, self.q_order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StatSeries):
            return NotImplemented
        order = _min_order(self.q_order, other.q_order)

        def cut(s):
            if order is None:
                return s.coeffs
            return {k: c for k, c in s.coeffs.items() if k[2] <= order}

        return cut(self) == cut(other)

    __hash__ = None

    def first_mismatch(self, other: "StatSeries"):
        order = _min_order(self.q_order, other.q_order)
        keys = set(self.coeffs) | set(other.coeffs)
        for key in sorted(keys, key=lambda t: (t[2], t[0], t[1])):
            if order is not None and key[2] > order:
                continue
            x, y = self.coeffs.get(key, 0), other.coeffs.get(key, 0)
            if x != y:
                return (key, x, y)
        return None

    def terms(self):
        """Deterministic iteration: sorted by (q_deg, a_exp, b_exp)."""
        for key in sorted(self.coeffs, key=lambda t: (t[2], t[0], t[1])):
            yield key, self.coeffs[key]

    def __str__(self) -> str:
        parts = []
        for (i, j, k), c in self.terms():
            body = []
            if abs(c) != 1 or (i, j, k) == (0, 0, 0):
                body.append(str(abs(c)))
            for var, e in (("a", i), ("b", j), ("q", k)):
                if e == 1:
                    body.append(var)
                elif e > 1:
                    body.append(f"{var}^{e}")
            text = "*".join(body) if body else "1"
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "q_order": "exact" if self.q_order is None else self.q_order,
            "coeffs": [[*key, c] for key, c in self.terms()],
        }

    @staticmethod
    def from_json(data: dict) -> "StatSeries":
        order = data["q_order"]
        coeffs = {(i, j, k): c for i, j, k, c in data["coeffs"]}
        return StatSeries(coeffs, None if order == "exact" else int(order))


def q_integer(k: int, base: Monomial, order: int | None = None) -> QSeries:
    """The q-integer [k]_base = sum of base^i for 0 <= i < k.

    >>> str(q_integer(4, Q))
    '1 + q + q^2 + q^3'
    >>> str(q_integer(2, Monomial(1, 3)))
    '1 + q^3'
    """
    if k < 1:
        raise InvalidBase("q-integer index must be >= 1")
    if base.coeff not in (1, -1) or base.q_exp < 1 or base.a_exp or base.b_exp:
        raise InvalidBase("q-integer base must be +/- q^j with j >= 1")
    coeffs = [0] * ((k - 1) * base.q_exp + 1)
    for i in range(k):
        coeffs[i * base.q_exp] += base.coeff**i
    out = QSeries(coeffs)
    return out if order is None else out.truncate(order)


def q_factorial(n: int, base: Monomial, order: int | None = None) -> QSeries:
    """[n]_base! = product of [k]_base for 1 <= k <= n (empty product = 1)."""
    if n < 0:
        raise InvalidBase("q-factorial index must be >= 0")
    out = QSeries.one(order)
    for k in range(1, n + 1):
        out = out * q_integer(k, base, order)
    return out


def q_pochhammer(x: Monomial, step: Monomial, n: int, order: int | None = None) -> QSeries:
    """(x; step)_n = product of (1 - step^k * x) for 0 <= k < n.

    >>> str(q_pochhammer(Monomial(1, 5), Monomial(1, 2), 2))
    '1 - q^5 - q^7 + q^12'
    """
    if n < 0:
        raise InvalidBase("Pochhammer count must be >= 0")
    if x.coeff != 0 and x.q_exp < 0:
        raise InvalidBase("Pochhammer argument must have non-negative q-degree")
    out = QSeries.one(order)
    for k in range(n):
        term = Monomial(step.coeff**k * x.coeff, step.q_exp * k + x.q_exp)
        out = out * (QSeries.one(order) - QSeries.monomial(term, order))
    return out


def substitute(s: StatSeries, a: Monomial, b: Monomial, q: Monomial, order: int) -> QSeries:
    """Specialize a trivariate series to a univariate one.

    ``a`` and ``b`` may carry negative q-exponents (or be zero); ``q``
    must be a signed positive power.  Every term must keep non-negative
    total degree, otherwise NegativeDegree is raised: a failure here
    signals a wrong length relation in the caller.
    """
    if q.coeff not in (1, -1) or q.q_exp < 1:
        raise InvalidBase("q substitution value must be +/- q^j with j >= 1")
    coeffs = [0] * (order + 1)
    for (i, j, k), c in s.coeffs.items():
        sign = (a.coeff**i) * (b.coeff**j) * (q.coeff**k)
        if sign == 0:
            continue
        deg = i * a.q_exp + j * b.q_exp + k * q.q_exp
        if deg < 0:
            raise NegativeDegree(f"term a^{i} b^{j} q^{k} maps to degree {deg}")
        if deg <= order:
            coeffs[deg] += sign * c
    return QSeries(coeffs, order)


def divide_by_unit(a: QSeries, d: QSeries) -> QSeries:
    """Formal power series division a/d for a unit denominator.

    The denominator's constant term must be +1 or -1; anything else
    (including a zero constant term) raises NonUnitDivisor.  At least
    one operand must carry a truncation order.
    """
    d0 = d.coefficient(0)
    if d0 not in (1, -1):
        raise NonUnitDivisor(f"denominator constant term {d0} is not a unit")
    order = _min_order(a.order, d.order)
    if order is None:
        raise ValueError("division needs a truncation order on some operand")
    quotient = [0] * (order + 1)
    dpad = d._padded(order + 1)
    apad = a._padded(order + 1)
    for k in range(order + 1):
        acc = apad[k]
        for i in range(k):
            if quotient[i]:
                acc -= quotient[i] * dpad[k - i]
        quotient[k] = acc * d0  # d0 in {1,-1} so this is exact division
    return QSeries(quotient, order)
