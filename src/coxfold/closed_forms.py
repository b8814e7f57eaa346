"""Closed-form evaluations of the registered generating functions.

Every registered formula is one row of the table ``_FORMULAS``: its
catalog parameters and text, its minimal n, and its factors.  A series
is a product of numerator factors (q-integers at +/- q^e, binomials
1 +/- q^e and punctured odd q-integers [2k+1]_q - q^k) divided by a
product of binomials 1 +/- q^e, all built exact.  A row without
denominators is a finite family and evaluates to an exact polynomial; a
row with denominators is affine, needs a truncation order, and
evaluates to a series truncated there.  Any product whose upper index
falls below its lower index is the empty product 1 (this matters at the
small-rank ends of several families).  The rows that are not one series
(the signed product identity, the two-variable distributions and the
coset-minima factors) have no factors and their own evaluators.

Two readings are deliberately corrected relative to their commonly
printed shapes, in both cases adjudicated by the brute-force oracle:

* ``Thm1.5`` and ``Bott-affA``: the k = 1 factor would divide by
  ``1 - q^0 = 0``; the product runs over k = 2..n.  The literal k = 1
  factor is kept behind a ``literal`` debug flag so the failure stays
  demonstrable (it raises NonUnitDivisor).
* ``Thm1.6-2``/``Thm1.6-3``: the numerator product starts at k = 2
  (the k = 1 factor would contribute a spurious constant 2), and
  ``Thm1.7-1``: the second q-integer factor carries base (-1)^(n+1) q.
  Both match the substitution route and the brute-force series.

The refined two-variable distributions ("Reiner" tags) are Pochhammer
quotients expanded as trivariate series; the affine unfolding series
arise from them through monomial substitutions, which is exposed as the
``substitution`` route next to the direct ``product`` route.

>>> str(closed_form("Thm1.3-1", 2))
'1 + q + q^2 + 2q^3 + q^4 + q^5 + q^6'
>>> closed_form("Thm1.5", 2, 2, 6).coeffs
(1, 0, 2, 0, 2, 0, 2)
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .errors import InvalidParameters
from .folding import FamilyId
from .qseries import (
    Monomial,
    QSeries,
    StatSeries,
    divide_by_unit,
    q_factorial,
    q_integer,
    substitute,
)

__all__ = [
    "FORMULA_TAGS",
    "closed_form",
    "reiner_distribution",
    "substitution_route",
    "unfolding_closed_form",
    "corollary_identity",
    "coset_factor",
    "poincare_a",
    "poincare_b",
    "catalog",
]


def _qint(k: int, sign: int = 1, exp: int = 1) -> QSeries:
    """[k] at base sign * q^exp."""
    return q_integer(k, Monomial(sign, exp))


def _signed(k: int) -> QSeries:
    """[k] at base (-1)^k q: alternating-sign q-integer."""
    return _qint(k, 1 if k % 2 == 0 else -1)


def _binomial(sign: int, exp: int) -> QSeries:
    """1 + sign * q^exp."""
    return QSeries.one() + QSeries.monomial(Monomial(sign, exp))


def _odd_bracket_factor(k: int) -> QSeries:
    """[2k+1]_q - q^k, the mid-degree-punctured odd q-integer."""
    return _qint(2 * k + 1) - QSeries.monomial(Monomial(1, k))


def _alternating(top: int) -> list:
    """The factors of prod_{k=1..top} [k]_{(-1)^k q}."""
    return [_signed(k) for k in range(1, top + 1)]


def _fork(n: int) -> list:
    """The factors of [2]_q [3]_{-q} [4]_q prod_{k=3..n} ([2k+1]_q - q^k)."""
    return [_qint(2), _qint(3, -1), _qint(4)] + [_odd_bracket_factor(k) for k in range(3, n + 1)]


def _dihedral(n: int, parity: int) -> list:
    """The factors of the dihedral-to-linear polynomial at rank n."""
    if n % 2 != parity:
        raise InvalidParameters(f"Thm1.3-{4 + parity} applies to {('even', 'odd')[parity]} n")
    m = (n + 1) // 2
    if parity == 0:
        return [_qint(2, 1, m), _qint(n + 1, 1, m)]
    return [_qint(2, 1, m - 1), _qint(2, 1, m), _qint(m, 1, n)]


def _affine_a(n: int, m: int, literal: bool) -> tuple:
    """prod_{k=2..n} [k]_{q^m} / (1 - q^{(k-1)m}), from k = 1 if literal."""
    ks = range(1 if literal else 2, n + 1)
    return [_qint(k, 1, m) for k in ks], [_binomial(-1, (k - 1) * m) for k in ks]


class _Formula(NamedTuple):
    parameters: dict
    formula: str
    min_n: int
    # (n, m, literal) -> (numerators, denominators); None if not one series
    factors: Optional[Callable]


_FORMULAS = {
    "Thm1.3-1": _Formula(
        {"n": ">=2"},
        "prod_{k=1..2n} [k]_{(-1)^k q}",
        2,
        lambda n, m, literal: (_alternating(2 * n), []),
    ),
    "Thm1.3-2": _Formula(
        {"n": ">=2"},
        "prod_{k=1..2n+1} [k]_{(-1)^k q}",
        2,
        lambda n, m, literal: (_alternating(2 * n + 1), []),
    ),
    "Thm1.3-3": _Formula(
        {"n": ">=2"},
        "[2]_q [3]_{-q} [4]_q prod_{k=3..n} ([2k+1]_q - q^k)",
        2,
        lambda n, m, literal: (_fork(n), []),
    ),
    "Thm1.3-4": _Formula(
        {"n": "even >=2"},
        "[2]_{q^m} [n+1]_{q^m} with m = n/2",
        2,
        lambda n, m, literal: (_dihedral(n, 0), []),
    ),
    "Thm1.3-5": _Formula(
        {"n": "odd >=3"},
        "[2]_{q^(m-1)} [2]_{q^m} [m]_{q^n} with m = (n+1)/2",
        3,
        lambda n, m, literal: (_dihedral(n, 1), []),
    ),
    "Cor1.4": _Formula(
        {"n": ">=3"},
        "B_m(-q) U(q) = A_n(-q) B_m(q) with m = floor((n+1)/2)",
        3,
        None,
    ),
    "Thm1.5": _Formula(
        {"n": ">=2", "m": ">=2"},
        "prod_{k=2..n} [k]_{q^m} / (1 - q^{(k-1)m})  (k=1 factor excluded)",
        2,
        _affine_a,
    ),
    "Thm1.6-1": _Formula(
        {"n": ">=3"},
        "[2]_q[3]_{-q}[4]_q prod_{k=3..n}([2k+1]_q - q^k) / "
        "((1-q)(1-q^3)(1+q^n) prod_{k=3..n}(1-q^{2k-1}))",
        3,
        lambda n, m, literal: (
            _fork(n),
            [_binomial(-1, 1), _binomial(-1, 3), _binomial(1, n)]
            + [_binomial(-1, 2 * k - 1) for k in range(3, n + 1)],
        ),
    ),
    "Thm1.6-2": _Formula(
        {"n": ">=3"},
        "prod_{k=1..2n}[k]_{(-1)^k q} prod_{k=2..n}(1+q^{2(k-1)}) / "
        "prod_{k=1..n}(1-q^{2(n+k)-3})",
        3,
        lambda n, m, literal: (
            _alternating(2 * n) + [_binomial(1, 2 * (k - 1)) for k in range(2, n + 1)],
            [_binomial(-1, 2 * (n + k) - 3) for k in range(1, n + 1)],
        ),
    ),
    "Thm1.6-3": _Formula(
        {"n": ">=3"},
        "prod_{k=1..2n+1}[k]_{(-1)^k q} prod_{k=2..n}(1+q^{2(k-1)}) / "
        "prod_{k=1..n}(1-q^{2(n+k)-1})",
        3,
        lambda n, m, literal: (
            _alternating(2 * n + 1) + [_binomial(1, 2 * (k - 1)) for k in range(2, n + 1)],
            [_binomial(-1, 2 * (n + k) - 1) for k in range(1, n + 1)],
        ),
    ),
    # [n+1]_{(-1)^{n+1} q} is the k = n+1 term of the alternating product
    "Thm1.7-1": _Formula(
        {"n": ">=2"},
        "[n+1]_{-q} [n+1]_{(-1)^{n+1} q} prod_{k=1..2n+1, k!=n+1} "
        "[k]_{(-1)^k q} / (1+(-q)^k)",
        2,
        lambda n, m, literal: (
            [_qint(n + 1, -1)] + _alternating(2 * n + 1),
            [_binomial((-1) ** k, k) for k in range(1, 2 * n + 2) if k != n + 1],
        ),
    ),
    "Thm1.7-2": _Formula(
        {"n": ">=2"},
        "prod_{k=1..2n} [k+1]_{(-1)^{k+1} q} / (1+(-q)^k)",
        2,
        lambda n, m, literal: (
            _alternating(2 * n + 1)[1:],
            [_binomial((-1) ** k, k) for k in range(1, 2 * n + 1)],
        ),
    ),
    "Thm1.7-3": _Formula(
        {"n": ">=2"},
        "prod_{k=2..2n} [k]_{(-1)^k q} / (1+(-q)^{k-1})",
        2,
        lambda n, m, literal: (
            _alternating(2 * n)[1:],
            [_binomial((-1) ** k, k) for k in range(1, 2 * n)],
        ),
    ),
    # (1-q)(1-q^3)(1-q^5) are the k = 0, 1, 2 terms of prod (1-q^{2k+1})
    "Thm1.7-4": _Formula(
        {"n": ">=2"},
        "[2]_q[3]_{-q}[4]_q[2]_{-q^{n+1}} / ((1-q)(1-q^3)(1-q^5)) "
        "prod_{k=3..n} ([2k+1]_q - q^k)/(1-q^{2k+1})",
        2,
        lambda n, m, literal: (
            _fork(n) + [_qint(2, -1, n + 1)],
            [_binomial(-1, 2 * k + 1) for k in range(n + 1)],
        ),
    ),
    "Thm1.7-5": _Formula(
        {"n": ">=2"},
        "[2]_q[3]_{-q}[4]_q prod_{k=3..n}([2k+1]_q - q^k) "
        "prod_{k=1..n} (1+q^{k+1})/(1-q^{n+k+2})",
        2,
        lambda n, m, literal: (
            _fork(n) + [_binomial(1, k + 1) for k in range(1, n + 1)],
            [_binomial(-1, n + k + 2) for k in range(1, n + 1)],
        ),
    ),
    "Thm1.7-6": _Formula(
        {"n": ">=2"},
        "prod_{k=1..2n+1}[k]_{(-1)^k q} prod_{k=1..n} (1+q^{2k})/(1-q^{2(n+k)+1})",
        2,
        lambda n, m, literal: (
            _alternating(2 * n + 1) + [_binomial(1, 2 * k) for k in range(1, n + 1)],
            [_binomial(-1, 2 * (n + k) + 1) for k in range(1, n + 1)],
        ),
    ),
    "Thm1.7-7": _Formula(
        {"n": ">=2"},
        "prod_{k=1..2n}[k]_{(-1)^k q} prod_{k=1..n} (1+q^{2k})/(1-q^{2(n+k)-1})",
        2,
        lambda n, m, literal: (
            _alternating(2 * n) + [_binomial(1, 2 * k) for k in range(1, n + 1)],
            [_binomial(-1, 2 * (n + k) - 1) for k in range(1, n + 1)],
        ),
    ),
    "Bott-affA": _Formula(
        {"n": ">=2"},
        "prod_{k=2..n} [k]_q / (1 - q^{k-1})  (k=1 factor excluded)",
        2,
        lambda n, m, literal: _affine_a(n, 1, literal),
    ),
    "Reiner-affB": _Formula(
        {"n": ">=3"},
        "(-aq;q)_n (-q;q)_{n-1} [n]_q! / (aq^n;q)_n",
        3,
        None,
    ),
    "Reiner-affC": _Formula(
        {"n": ">=2"},
        "(-aq;q)_n (-bq;q)_n [n]_q! / (abq^{n+1};q)_n",
        2,
        None,
    ),
    "Poincare-An": _Formula(
        {"n": ">=1"},
        "prod_{k=1..n+1} [k]_q",
        1,
        lambda n, m, literal: ([_qint(k) for k in range(1, n + 2)], []),
    ),
    "Poincare-Bn": _Formula(
        {"n": ">=2"},
        "prod_{k=1..n} [2k]_q",
        2,
        lambda n, m, literal: ([_qint(2 * k) for k in range(1, n + 1)], []),
    ),
    "CosetFactor-Lemma3.1": _Formula(
        {"part": "1|2|3", "n": ">=2 (part 3: >=3)"},
        "part 1: [2n-1]_{-q}[2n]_q; part 2: [2n]_q[2n+1]_{-q}; part 3: [2n+1]_q - q^n",
        2,
        None,
    ),
}

FORMULA_TAGS = tuple(_FORMULAS)


def closed_form(
    tag: str,
    n: int,
    m: Optional[int] = None,
    max_len: Optional[int] = None,
    *,
    literal: bool = False,
) -> QSeries:
    """Evaluate a registered series formula tag.

    Finite-family tags (no denominators) return exact polynomials and
    ignore ``max_len``; affine tags require it.  ``literal=True``
    evaluates the affine A products with their k = 1 factor included,
    which divides by zero and raises NonUnitDivisor (kept as a
    demonstrable erratum).
    """
    row = _FORMULAS.get(tag)
    if row is None or row.factors is None:
        raise InvalidParameters(f"unknown or non-series formula tag {tag!r}")
    if n < row.min_n:
        raise InvalidParameters(f"{tag} requires n >= {row.min_n}")
    if tag == "Thm1.5" and (m is None or m < 2):
        raise InvalidParameters("Thm1.5 requires m >= 2")
    numerators, denominators = row.factors(n, m, literal)
    if denominators and max_len is None:
        raise InvalidParameters(f"{tag} requires a truncation order")
    out = QSeries.one(max_len if denominators else None)
    for f in numerators:
        out = out * f
    for d in denominators:
        out = divide_by_unit(out, d)
    return out


def poincare_a(n: int) -> QSeries:
    """Length generating polynomial of the rank-n symmetric type.

    The group has (n+1)! elements, so the product runs to n+1 (a common
    shorthand prints it only to n, which already fails at q = 1).
    """
    return closed_form("Poincare-An", n)


def poincare_b(n: int) -> QSeries:
    """Length generating polynomial of the rank-n hyperoctahedral type."""
    return closed_form("Poincare-Bn", n)


# ---------------------------------------------------------------------------
# refined distributions and substitution routes


def reiner_distribution(kind: str, n: int, max_len: int) -> StatSeries:
    """The end-generator occurrence distribution of an affine B/C group.

    affB: (-aq;q)_n (-q;q)_{n-1} [n]_q! / (aq^n;q)_n   (b unused)
    affC: (-aq;q)_n (-bq;q)_n [n]_q! / (abq^{n+1};q)_n

    Against affC, affB has one b-free factor fewer and its denominator
    starts one q-power lower.  Denominators expand as geometric series
    in monomials of positive q-degree, so the truncated expansion is
    exact up to ``max_len``.
    """
    if kind not in ("affB", "affC"):
        raise InvalidParameters(f"distribution kind must be affB or affC, got {kind!r}")
    floor = _FORMULAS[f"Reiner-{kind}"].min_n
    if n < floor:
        raise InvalidParameters(f"Reiner-{kind} requires n >= {floor}")
    c = int(kind == "affC")  # the b exponent, the extra factor and the shift
    one = StatSeries.one(max_len)
    out = one
    for k in range(n):
        out = out * (one + StatSeries.from_monomial(Monomial(1, k + 1, a_exp=1), max_len))
    for k in range(n - 1 + c):
        out = out * (one + StatSeries.from_monomial(Monomial(1, k + 1, b_exp=c), max_len))
    fact = q_factorial(n, Monomial(1, 1), max_len)
    out = out * StatSeries({(0, 0, k): c for k, c in enumerate(fact.coeffs)}, max_len)
    for k in range(n):
        out = out.geometric_divide(Monomial(1, n + c + k, a_exp=1, b_exp=c))
    return out


_Q = Monomial(1, 1)
_Q2 = Monomial(1, 2)
_QINV = Monomial(1, -1)
_UNIT = Monomial(1, 0)

# family -> (distribution kind, a value, b value, q value); every route
# keeps total degree >= source length, so truncating the distribution at
# the requested order is exact.
_SUBSTITUTIONS = {
    "affB-affDn+1": ("affB", _Q, _UNIT, _Q),
    "affB-affD2n": ("affB", _QINV, _UNIT, _Q2),
    "affB-affD2n+1": ("affB", _Q, _UNIT, _Q2),
    "affC-affA2n+1": ("affC", _Q, _Q, _Q2),
    "affC-affA2n": ("affC", _Q, _QINV, _Q2),
    "affC-affA2n-1": ("affC", _QINV, _QINV, _Q2),
    "affC-affBn+1": ("affC", _UNIT, _Q, _Q),
    "affC-affDn+2": ("affC", _Q, _Q, _Q),
    "affC-affC2n+1": ("affC", _UNIT, _Q, _Q2),
    "affC-affC2n": ("affC", _UNIT, _QINV, _Q2),
}


def substitution_route(family: FamilyId, max_len: int) -> QSeries:
    """Evaluate an affine unfolding series through its distribution.

    For the affine A family this is the base Poincare series with q
    raised to the m-th power; for the B/C families it is the registered
    (a, b, q) substitution into the two-variable distribution.
    """
    if family.name == "affA-affA":
        m = family.m
        base = closed_form("Bott-affA", family.n, None, (max_len + m - 1) // m)
        return base.sub_monomial(Monomial(1, m)).truncate(max_len)
    route = _SUBSTITUTIONS.get(family.name)
    if route is None:
        raise InvalidParameters(f"{family.name} has no substitution route")
    kind, a, b, q = route
    dist = reiner_distribution(kind, family.n, max_len)
    return substitute(dist, a, b, q, max_len)


# family -> product formula tag; I2-An's tag depends on the parity of n
_PRODUCT_TAGS = {
    "Bn-A2n-1": "Thm1.3-1",
    "Bn-A2n": "Thm1.3-2",
    "Bn-Dn+1": "Thm1.3-3",
    "I2-An": ("Thm1.3-4", "Thm1.3-5"),
    "affA-affA": "Thm1.5",
    "affB-affDn+1": "Thm1.6-1",
    "affB-affD2n": "Thm1.6-2",
    "affB-affD2n+1": "Thm1.6-3",
    "affC-affA2n+1": "Thm1.7-1",
    "affC-affA2n": "Thm1.7-2",
    "affC-affA2n-1": "Thm1.7-3",
    "affC-affBn+1": "Thm1.7-4",
    "affC-affDn+2": "Thm1.7-5",
    "affC-affC2n+1": "Thm1.7-6",
    "affC-affC2n": "Thm1.7-7",
}


def unfolding_closed_form(
    family: FamilyId, max_len: Optional[int] = None, route: str = "product"
) -> QSeries:
    """The closed-form unfolding series of a registered family.

    Finite families give exact polynomials; affine ones are truncated at
    ``max_len``.  ``route`` picks between the direct product formula and
    the distribution-substitution derivation; both must agree, which the
    verifier checks family by family.
    """
    if route == "substitution":
        if not family.is_affine:
            raise InvalidParameters("substitution routes exist for affine families only")
        if max_len is None:
            raise InvalidParameters("affine families require a truncation order")
        return substitution_route(family, max_len)
    if route != "product":
        raise InvalidParameters(f"unknown route {route!r}")
    tag = _PRODUCT_TAGS[family.name]
    if isinstance(tag, tuple):
        tag = tag[family.n % 2]
    return closed_form(tag, family.n, family.m, max_len)


def corollary_identity(n: int, variant: str) -> tuple[QSeries, QSeries]:
    """Both sides of the signed product identity for the linear family.

    Returns (B_m(-q) * U(q), A_n(-q) * B_m(q)) with m = floor((n+1)/2),
    as exact polynomials; the caller asserts their equality.
    """
    if n < _FORMULAS["Cor1.4"].min_n:
        raise InvalidParameters("the identity is registered for n >= 3")
    m = (n + 1) // 2
    neg_q = Monomial(-1, 1)
    if variant == "A2n-1":
        if n % 2 != 1:
            raise InvalidParameters("variant A2n-1 needs odd n")
        u = closed_form("Thm1.3-1", m)
    elif variant == "A2n":
        if n % 2 != 0:
            raise InvalidParameters("variant A2n needs even n")
        u = closed_form("Thm1.3-2", m)
    else:
        raise InvalidParameters(f"unknown variant {variant!r}")
    b_poly = poincare_b(m)
    a_poly = poincare_a(n)
    lhs = b_poly.sub_monomial(neg_q) * u
    rhs = a_poly.sub_monomial(neg_q) * b_poly
    return lhs, rhs


def coset_factor(part: int, n: int) -> QSeries:
    """Generating polynomial of the unfolded coset minima (chain lemma).

    part 1: [2n-1] at -q times [2n] at q
    part 2: [2n] at q times [2n+1] at -q
    part 3: [2n+1] at q minus q^n
    """
    if part in (1, 2):
        if n < 2:
            raise InvalidParameters("parts 1 and 2 require n >= 2")
        a, b = (2 * n - 1, 2 * n) if part == 1 else (2 * n, 2 * n + 1)
        return _signed(a) * _signed(b)
    if part == 3:
        if n < 3:
            raise InvalidParameters("part 3's inductive factor requires n >= 3")
        return _odd_bracket_factor(n)
    raise InvalidParameters(f"no such part {part}")


def catalog() -> list:
    """Machine-readable manifest of the formula registry."""
    return [
        {"tag": tag, "parameters": dict(row.parameters), "formula": row.formula}
        for tag, row in _FORMULAS.items()
    ]
