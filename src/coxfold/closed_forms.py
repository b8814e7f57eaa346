"""Closed-form evaluations of the registered generating functions.

Every registered formula is one row of the table ``_FORMULAS``: its
catalog parameters and text, its minimal n, and its factors.  A series
is a product of numerator factors (q-integers at +/- q^e, binomials
1 +/- q^e and punctured odd q-integers [2k+1]_q - q^k) divided by a
product of binomials 1 +/- q^e, all built exact from ``QSeries.one(L)``.
A row without denominators is a finite family, an exact polynomial or,
given an order L, one truncated there; a row with denominators is affine
and needs L.  Any product whose upper index falls below its lower index
is the empty product 1 (this matters at the small-rank ends of several
families).  The rows that are not one series (the signed product
identity, the two-variable distributions and the coset-minima factors)
have no factors and their own evaluators; the coset-minima factors
truncate along the same path as the rows.

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
``substitution`` route next to the direct ``product`` route.  Each folding
family's routes are one row of ``_ROUTES``: its product tag as a function
of n, and for an affine family its substitution.  The module reads only
``qseries`` and ``errors``, whose ``_check_int`` checks n, m, a coset part
and an order; a caller builds any ``FamilyId``.

>>> str(closed_form("Thm1.3-1", 2))
'1 + q + q^2 + 2q^3 + q^4 + q^5 + q^6'
>>> closed_form("Thm1.5", 2, 2, 6).coeffs
(1, 0, 2, 0, 2, 0, 2)
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .errors import InvalidParameters, _check_cutoff, _check_int
from .qseries import (
    Monomial,
    QSeries,
    StatSeries,
    divide_by_unit,
    q_factorial,
    q_integer,
    substitute,
)

if TYPE_CHECKING:
    from .folding import FamilyId

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

    Finite-family tags (no denominators) return exact polynomials,
    truncated at ``max_len`` when it is given; affine tags require it.
    ``literal=True`` evaluates the affine A products with their k = 1
    factor included, which divides by zero and raises NonUnitDivisor
    (kept as a demonstrable erratum).
    """
    row = _FORMULAS.get(tag)
    if row is None or row.factors is None:
        raise InvalidParameters(f"unknown or non-series formula tag {tag!r}")
    _check_int(n, row.min_n, f"{tag} requires n >= {row.min_n}")
    if "m" in row.parameters:
        _check_int(m, 2, f"{tag} requires m >= 2")
    return _truncated(*row.factors(n, m, literal), max_len, f"{tag} truncation order")


def _truncated(numerators: list, denominators: list, max_len: Optional[int], what: str) -> QSeries:
    """The product of ``numerators`` over ``denominators`` from ``QSeries.one(max_len)``.

    The order is checked whenever it is given, and denominators need one.
    """
    if denominators or max_len is not None:
        _check_cutoff(max_len, what)
    out = QSeries.one(max_len)
    for f in numerators:
        out = out * f
    for d in denominators:
        out = divide_by_unit(out, d)
    return out


# The length generating polynomials of the rank-n symmetric and hyperoctahedral types, as
# their rows: A_n has (n+1)! elements, so its product runs to [n+1]_q, not to [n]_q.
poincare_a = partial(closed_form, "Poincare-An")
poincare_b = partial(closed_form, "Poincare-Bn")


# ---------------------------------------------------------------------------
# refined distributions and substitution routes


@lru_cache(maxsize=8)
def _reiner_expansion(kind: str, n: int, max_len: int) -> StatSeries:
    """The expansion behind ``reiner_distribution``, shared by its calls."""
    c = int(kind == "affC")  # the b exponent, the extra factor and the shift
    out = StatSeries.one(max_len)
    for k in range(1, n + 1):
        out = out * StatSeries({(0, 0, 0): 1, (1, 0, k): 1}, max_len)
    for k in range(1, n + c):
        out = out * StatSeries({(0, 0, 0): 1, (0, c, k): 1}, max_len)
    fact = q_factorial(n, Monomial(1, 1), max_len)
    out = out * StatSeries({(0, 0, k): c for k, c in enumerate(fact.coeffs)}, max_len)
    for k in range(n):
        out = out.geometric_divide(Monomial(1, n + c + k, a_exp=1, b_exp=c))
    return out


def reiner_distribution(kind: str, n: int, max_len: int) -> StatSeries:
    """The end-generator occurrence distribution of an affine B/C group.

    affB: (-aq;q)_n (-q;q)_{n-1} [n]_q! / (aq^n;q)_n   (b unused)
    affC: (-aq;q)_n (-bq;q)_n [n]_q! / (abq^{n+1};q)_n

    Against affC, affB has one b-free factor fewer and its denominator
    starts one q-power lower.  Denominators expand as geometric series
    in monomials of positive q-degree, so the truncated expansion is
    exact up to ``max_len``.  The expansion is memoized on
    (kind, n, max_len); every call returns its own copy.
    """
    if kind not in ("affB", "affC"):
        raise InvalidParameters(f"distribution kind must be affB or affC, got {kind!r}")
    floor = _FORMULAS[f"Reiner-{kind}"].min_n
    _check_int(n, floor, f"Reiner-{kind} requires n >= {floor}")
    _check_cutoff(max_len, f"Reiner-{kind} truncation order")
    expansion = _reiner_expansion(kind, n, max_len)
    return StatSeries(expansion.coeffs, expansion.q_order)


_Q = Monomial(1, 1)
_Q2 = Monomial(1, 2)
_QINV = Monomial(1, -1)
_UNIT = Monomial(1, 0)


def _reiner(kind: str, a: Monomial, b: Monomial, q: Monomial, n: int, m, max_len: int) -> QSeries:
    """The (a, b, q) specialization of the distribution at n; rows bind (kind, a, b, q).

    A term a^i b^j q^k has i + j <= k (j = 0 for affB), so it lands at degree
    >= k (e_q + min(0, e_a, e_b)), a zero value dropping out.  Below slope 1
    the truncated distribution does not give the series, and it is rejected.
    Only the affine A route reads m.
    """
    series = substitute(reiner_distribution(kind, n, max_len), a, b, q, max_len)
    values = (a, b) if kind == "affC" else (a,)
    slope = q.q_exp + min([0] + [v.q_exp for v in values if v.coeff])
    if slope < 1:
        raise InvalidParameters(
            f"the substitution can lower q-degree (slope {slope} < 1): no truncation is exact"
        )
    return series


def _bott(n: int, m: int, max_len: int) -> QSeries:
    """Bott's affine A series at q^m."""
    base = closed_form("Bott-affA", n, None, (max_len + m - 1) // m)
    return base.sub_monomial(Monomial(1, m)).truncate(max_len)


class _Route(NamedTuple):
    product: Callable[[int], str]  # n -> product formula tag
    substitution: Optional[Callable] = None  # (n, m, max_len) -> series; None if finite


# One row per folding family, in the order of folding._FAMILIES.
_ROUTES = {
    "Bn-A2n-1": _Route(lambda n: "Thm1.3-1"),
    "Bn-A2n": _Route(lambda n: "Thm1.3-2"),
    "Bn-Dn+1": _Route(lambda n: "Thm1.3-3"),
    "I2-An": _Route(lambda n: f"Thm1.3-{4 + n % 2}"),
    "affA-affA": _Route(lambda n: "Thm1.5", _bott),
    "affB-affDn+1": _Route(lambda n: "Thm1.6-1", partial(_reiner, "affB", _Q, _UNIT, _Q)),
    "affB-affD2n": _Route(lambda n: "Thm1.6-2", partial(_reiner, "affB", _QINV, _UNIT, _Q2)),
    "affB-affD2n+1": _Route(lambda n: "Thm1.6-3", partial(_reiner, "affB", _Q, _UNIT, _Q2)),
    "affC-affA2n+1": _Route(lambda n: "Thm1.7-1", partial(_reiner, "affC", _Q, _Q, _Q2)),
    "affC-affA2n": _Route(lambda n: "Thm1.7-2", partial(_reiner, "affC", _Q, _QINV, _Q2)),
    "affC-affA2n-1": _Route(lambda n: "Thm1.7-3", partial(_reiner, "affC", _QINV, _QINV, _Q2)),
    "affC-affBn+1": _Route(lambda n: "Thm1.7-4", partial(_reiner, "affC", _UNIT, _Q, _Q)),
    "affC-affDn+2": _Route(lambda n: "Thm1.7-5", partial(_reiner, "affC", _Q, _Q, _Q)),
    "affC-affC2n+1": _Route(lambda n: "Thm1.7-6", partial(_reiner, "affC", _UNIT, _Q, _Q2)),
    "affC-affC2n": _Route(lambda n: "Thm1.7-7", partial(_reiner, "affC", _UNIT, _QINV, _Q2)),
}


def substitution_route(family: FamilyId, max_len: int) -> QSeries:
    """Evaluate an affine unfolding series through its distribution.

    For the affine A family this is the base Poincare series with q
    raised to the m-th power; for the B/C families it is the registered
    (a, b, q) substitution into the two-variable distribution.
    """
    route = _ROUTES[family.name].substitution
    if route is None:
        raise InvalidParameters(f"{family.name} has no substitution route")
    _check_cutoff(max_len, "truncation order of an affine family")
    return route(family.n, family.m, max_len)


def unfolding_closed_form(
    family: FamilyId, max_len: Optional[int] = None, route: str = "product"
) -> QSeries:
    """The closed-form unfolding series of a registered family.

    Both finite and affine families are truncated at ``max_len``, which an
    affine one needs.  ``route`` picks between the direct product formula and
    the distribution-substitution derivation; both must agree, which the
    verifier checks family by family.
    """
    if route == "substitution":
        return substitution_route(family, max_len)
    if route != "product":
        raise InvalidParameters(f"unknown route {route!r}")
    return closed_form(_ROUTES[family.name].product(family.n), family.n, family.m, max_len)


def corollary_identity(
    n: int, variant: str, max_len: Optional[int] = None
) -> tuple[QSeries, QSeries]:
    """Both sides of the signed product identity for the linear family.

    Returns (B_m(-q) * U(q), A_n(-q) * B_m(q)) with m = floor((n+1)/2),
    truncated at ``max_len`` if given; the caller asserts their equality.
    U(q) is the unfolding series of B_m in A_n, the family ``Bn-<variant>``.
    """
    _check_int(n, _FORMULAS["Cor1.4"].min_n, "the identity is registered for n >= 3")
    parity = {"A2n-1": 1, "A2n": 0}.get(variant)
    if parity is None:
        raise InvalidParameters(f"unknown variant {variant!r}")
    if n % 2 != parity:
        raise InvalidParameters(f"variant {variant} needs {('even', 'odd')[parity]} n")
    m = (n + 1) // 2
    neg_q = Monomial(-1, 1)
    u = closed_form(_ROUTES[f"Bn-{variant}"].product(m), m, None, max_len)
    b_poly = closed_form("Poincare-Bn", m, None, max_len)
    a_poly = closed_form("Poincare-An", n, None, max_len)
    lhs = b_poly.sub_monomial(neg_q) * u
    rhs = a_poly.sub_monomial(neg_q) * b_poly
    return lhs, rhs


# One row per part of the chain lemma: the family whose coset minima it counts, minimal n
_COSET_PARTS = {1: ("Bn-A2n-1", 2), 2: ("Bn-A2n", 2), 3: ("Bn-Dn+1", 3)}


def coset_factor(part: int, n: int, max_len: Optional[int] = None) -> QSeries:
    """Generating polynomial of the unfolded coset minima (chain lemma).

    part 1: [2n-1] at -q times [2n] at q
    part 2: [2n] at q times [2n+1] at -q
    part 3: [2n+1] at q minus q^n

    Truncated at ``max_len`` when it is given, as ``closed_form`` truncates.
    """
    _check_int(part, 1, f"no such part {part!r}")
    if part not in _COSET_PARTS:
        raise InvalidParameters(f"no such part {part!r}")
    floor = _COSET_PARTS[part][1]
    _check_int(n, floor, f"part {part} requires n >= {floor}")
    a, b = (2 * n - 1, 2 * n) if part == 1 else (2 * n, 2 * n + 1)
    factors = [_odd_bracket_factor(n)] if part == 3 else [_signed(a), _signed(b)]
    return _truncated(factors, [], max_len, f"part {part} truncation order")


def catalog() -> list:
    """Machine-readable manifest of the formula registry."""
    return [
        {"tag": tag, "parameters": dict(row.parameters), "formula": row.formula}
        for tag, row in _FORMULAS.items()
    ]
