"""Exact length generating functions of folded Coxeter group embeddings.

The package constructs classical finite and affine Coxeter systems with
exact integer elements, realizes the registered folded embeddings between them,
computes unfolding series by exhaustive enumeration, and verifies them
coefficient by coefficient against closed-form product formulas and
two-variable distribution specializations.
"""

from .coxeter import (
    CoxeterMatrix,
    CoxeterSystem,
    Element,
    Word,
    apply_generator,
    bruhat_leq,
    build_system,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    length,
    minimal_coset_reps,
    parabolic_decompose,
    right_descents,
    shortlex_normal_form,
)
from .closed_forms import (
    catalog,
    closed_form,
    corollary_identity,
    coset_factor,
    reiner_distribution,
    unfolding_closed_form,
)
from .errors import (
    CorruptCache,
    CoxfoldError,
    IndexOutOfRange,
    InvalidBase,
    InvalidMatrix,
    InvalidParameters,
    NegativeDegree,
    NonUnitDivisor,
    ResourceLimit,
    UnsupportedLabel,
)
from .folding import (
    FamilyId,
    Folding,
    check_admissible,
    folding_factorization_check,
    reiner_stats_bruteforce,
    standard_folding,
    unfold,
    unfold_word,
    unfolding_series_bruteforce,
)
from .qseries import Monomial, QSeries, StatSeries, q_factorial, q_integer, q_pochhammer
from .verifier import VerificationJob, default_cases, run_job

__version__ = "0.1.0"
