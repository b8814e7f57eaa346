"""Exception types shared across the package, and ``_check_int``, the one rule for
an int parameter (n, m, a coset part, a cutoff, a budget): an int, not a bool, at its floor."""

__all__ = [
    "CoxfoldError",
    "InvalidMatrix",
    "UnsupportedLabel",
    "IndexOutOfRange",
    "ResourceLimit",
    "InvalidParameters",
    "InvalidBase",
    "NonUnitDivisor",
    "NegativeDegree",
    "CorruptCache",
]


class CoxfoldError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(CoxfoldError):
    """A Coxeter matrix violates symmetry, diagonal or bond constraints."""


class UnsupportedLabel(CoxfoldError):
    """A group label outside the registry, or a malformed one."""


class IndexOutOfRange(CoxfoldError):
    """A generator index not valid for the ambient system."""


class ResourceLimit(CoxfoldError):
    """An enumeration exceeded its configured element budget.

    ``layer`` is the length being built when the walk stopped and
    ``stored`` the number of elements held at that point.
    """

    def __init__(self, budget: int, layer: int, stored: int):
        super().__init__(
            f"element budget exceeded ({budget}): {stored} elements stored "
            f"at layer {layer}"
        )
        self.budget = budget
        self.layer = layer
        self.stored = stored


class InvalidParameters(CoxfoldError):
    """Family or formula parameters outside the registered ranges."""


class InvalidBase(CoxfoldError):
    """A q-integer base that is not +/- a positive power of q."""


class NonUnitDivisor(CoxfoldError):
    """Division by a series whose constant term is not a unit."""


class NegativeDegree(CoxfoldError):
    """A substitution produced a monomial of negative total degree."""


class CorruptCache(CoxfoldError):
    """An on-disk cache entry failed its checksum."""


def _check_int(value, floor: int, message: str):
    """Reject with ``message`` a value that is not an int >= ``floor``; a bool is no int here."""
    if not isinstance(value, int) or isinstance(value, bool) or value < floor:
        raise InvalidParameters(message)


def _check_cutoff(value, what: str):
    """Reject a cutoff (``what`` names it) that is not an int >= 0."""
    _check_int(value, 0, f"the {what} must be a non-negative int, got {value!r}")


def _check_budget(value):
    """Reject an element budget that is not an int >= 1."""
    _check_int(value, 1, f"the element budget must be a positive int, got {value!r}")
