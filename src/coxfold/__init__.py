"""Exact length generating functions of folded Coxeter group embeddings.

The package constructs classical finite and affine Coxeter systems with
exact integer elements, realizes the registered folded embeddings between them,
computes unfolding series by exhaustive enumeration, and verifies them
coefficient by coefficient against closed-form product formulas and
two-variable distribution specializations.

Importing the package loads none of its modules.  Each exported name
below, and each module that exports one, loads on first use (PEP 562),
so a process compiles only the modules it runs: ``coxfold bruhat-dot``
never loads the closed forms, the q-series or the verifier.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        (
            "CoxeterMatrix",
            "CoxeterSystem",
            "Element",
            "Word",
            "apply_generator",
            "bruhat_leq",
            "build_system",
            "element_from_word",
            "enumerate_up_to",
            "enumerate_with_words",
            "length",
            "parabolic_decompose",
            "right_descents",
            "shortlex_normal_form",
        ),
        "coxeter",
    ),
    **dict.fromkeys(
        (
            "catalog",
            "closed_form",
            "corollary_identity",
            "coset_factor",
            "reiner_distribution",
            "unfolding_closed_form",
        ),
        "closed_forms",
    ),
    **dict.fromkeys(
        (
            "CorruptCache",
            "CoxfoldError",
            "IndexOutOfRange",
            "InvalidBase",
            "InvalidMatrix",
            "InvalidParameters",
            "NegativeDegree",
            "NonUnitDivisor",
            "ResourceLimit",
            "UnsupportedLabel",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "FamilyId",
            "Folding",
            "length_additivity_check",
            "reiner_stats_bruteforce",
            "standard_folding",
            "unfold",
            "unfold_word",
            "unfolding_series_bruteforce",
        ),
        "folding",
    ),
    **dict.fromkeys(
        ("Monomial", "QSeries", "StatSeries", "q_factorial", "q_integer", "q_pochhammer"),
        "qseries",
    ),
    **dict.fromkeys(("VerificationJob", "default_cases", "run_job"), "verifier"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """Load an exported name, or a module that exports one, on first use."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
