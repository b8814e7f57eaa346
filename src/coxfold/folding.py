"""Folded embeddings of Coxeter groups and their brute-force series.

A folding embeds a Coxeter system (the *source*, generators r_0/r_1/...)
into an ambient one (the *target*, generators s_0/s_1/...) by sending
each source generator to the longest element of a finite standard
parabolic of the target; the parabolics form a partition of the target
generators.  Unfolding a source word means concatenating these blocks.
A word in the letters of a block B assembles to the longest element of
the parabolic on B exactly when every letter of B is a left descent of
it, so ``Folding`` validates each block with |B| left-descent tests;
a block whose parabolic is infinite fails them.

The registry is one ordered table, ``_FAMILIES``, with one row per
family (four finite, eleven affine): the minimal n, whether the family
takes m, and one function of (n, m) giving the source label, the target
label and the 0-based unfold words.  ``FAMILY_NAMES``, ``FamilyId`` and
``standard_folding`` all read it, so a new folding is one new row.
``FamilyId`` is the one check of a family's parameters: an unknown
name, or an n or m that is not an int at its floor, raises
InvalidParameters, and callers pass the parameters through unchecked.
Block tables follow each family's diagram symmetry; where a printed
index formula disagrees with the diagram (the symmetry arrows are the
ground truth), the diagram pairing is used and the series verifier
double-checks the choice against the closed forms.

Every brute-force folding check is one walk of the source group's
ShortLex tree that carries the unfolded ambient element along as a raw
pair (ambient data, length) and measures the length honestly, letter by
letter (length additivity is verified, not assumed).  Ambient-length
cutoffs prune the walk: along reduced source words the unfolded length
only grows, so a node past the cutoff is not stored and its descendants
are never generated.  The series walks carry nothing else; the
factorization check and the highlighted Hasse diagram walk
``_source_records``, which adds the source word.  The coset-minima
series adds one source filter, and the factorization check reads all
three of its series off one walk, taking the coset minima on the left.
The admissibility check has no ambient cutoff and reads only right
descents, so it walks the source alone, carrying the ShortLex word.
The end-generator statistics take the arguments of
``closed_forms.reiner_distribution``, a kind (affB or affC) and n, and
build the affine system from them.
"""

from __future__ import annotations

import gc
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .coxeter import (
    DEFAULT_BUDGET,
    CoxeterSystem,
    Element,
    Word,
    _bfs,
    _check_cutoff,
    _coset_minimal,
    _prepend,
    _subset,
    build_system,
    element_from_word,
    enumerate_with_words,
    shortlex_normal_form,
    word_string,
)
from ._record import FrozenRecord, Record, set_field
from .errors import IndexOutOfRange, InvalidParameters
from .qseries import QSeries, StatSeries

__all__ = [
    "FAMILY_NAMES",
    "FamilyId",
    "Folding",
    "standard_folding",
    "unfold_word",
    "unfold",
    "unfolded_image",
    "check_admissible",
    "AdmissibilityReport",
    "unfolding_series_bruteforce",
    "coset_series_bruteforce",
    "reiner_stats_bruteforce",
    "folding_factorization_check",
    "FactorizationReport",
]

def _pairs(lo: int, hi: int, top: int) -> list:
    """The blocks (i, top - i) for lo <= i < hi: generators swapped by a diagram flip."""
    return [(i, top - i) for i in range(lo, hi)]


class _Family(NamedTuple):
    min_n: int
    takes_m: bool
    # (n, m) -> (source label, target label, 0-based unfold word of each source generator)
    build: Callable[[int, Optional[int]], Tuple[str, str, list]]


_FAMILIES = {
    "Bn-A2n-1": _Family(2, False, lambda n, m: (
        f"B{n}", f"A{2 * n - 1}",
        _pairs(0, n - 1, 2 * n - 2) + [(n - 1,)],
    )),
    "Bn-A2n": _Family(2, False, lambda n, m: (
        f"B{n}", f"A{2 * n}",
        _pairs(0, n - 1, 2 * n - 1) + [(n - 1, n, n - 1)],
    )),
    # D3 is A3 with relabelled generators: at n = 2 the folding is the
    # B2 -> A3 one, up to the diagram flip of B2
    "Bn-Dn+1": _Family(2, False, lambda n, m: (
        ("B2", "A3", [(0, 2), (1,)]) if n == 2 else
        (f"B{n}", f"D{n + 1}", [(i,) for i in range(n - 1)] + [(n - 1, n)])
    )),
    "I2-An": _Family(2, False, lambda n, m: (
        f"I2({n + 1})", f"A{n}",
        [tuple(range(0, n, 2)), tuple(range(1, n, 2))],
    )),
    "affA-affA": _Family(2, True, lambda n, m: (
        f"affine-A{n - 1}", f"affine-A{m * n - 1}",
        [tuple(range(i, m * n, n)) for i in range(n)],
    )),
    "affB-affDn+1": _Family(3, False, lambda n, m: (
        f"affine-B{n}", f"affine-D{n + 1}",
        [(0, 1)] + [(i,) for i in range(2, n + 2)],
    )),
    "affB-affD2n": _Family(3, False, lambda n, m: (
        f"affine-B{n}", f"affine-D{2 * n}",
        [(n,)] + _pairs(0, n, 2 * n)[::-1],
    )),
    "affB-affD2n+1": _Family(3, False, lambda n, m: (
        f"affine-B{n}", f"affine-D{2 * n + 1}",
        [(n, n + 1, n)] + _pairs(0, n, 2 * n + 1)[::-1],
    )),
    "affC-affA2n+1": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-A{2 * n + 1}",
        [(0, 2 * n + 1, 0)] + _pairs(1, n, 2 * n + 1) + [(n, n + 1, n)],
    )),
    "affC-affA2n": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-A{2 * n}",
        [(0, 2 * n, 0)] + _pairs(1, n, 2 * n) + [(n,)],
    )),
    "affC-affA2n-1": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-A{2 * n - 1}",
        [(0,)] + _pairs(1, n, 2 * n) + [(n,)],
    )),
    "affC-affBn+1": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-B{n + 1}",
        [(i,) for i in range(n)] + [(n, n + 1)],
    )),
    "affC-affDn+2": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-D{n + 2}",
        [(0, 1)] + [(i,) for i in range(2, n + 1)] + [(n + 1, n + 2)],
    )),
    "affC-affC2n+1": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-C{2 * n + 1}",
        _pairs(0, n, 2 * n + 1) + [(n, n + 1, n)],
    )),
    "affC-affC2n": _Family(2, False, lambda n, m: (
        f"affine-C{n}", f"affine-C{2 * n}",
        _pairs(0, n, 2 * n) + [(n,)],
    )),
}

FAMILY_NAMES = tuple(_FAMILIES)

_LENGTH = itemgetter(1)  # the ambient length of a (data, length) payload


class FamilyId(FrozenRecord):
    """A registered folding family with its parameters."""

    __slots__ = ("name", "n", "m")

    def __init__(self, name: str, n: int, m: Optional[int] = None):
        row = _FAMILIES.get(name)
        if row is None:
            raise InvalidParameters(f"unknown family {name!r}")
        if not isinstance(n, int) or n < row.min_n:
            raise InvalidParameters(f"{name} requires n >= {row.min_n}, got {n!r}")
        if row.takes_m:
            if not isinstance(m, int) or m < 2:
                raise InvalidParameters(f"{name} requires m >= 2, got {m!r}")
        elif m is not None:
            raise InvalidParameters(f"{name} takes no m parameter")
        set_field(self, "name", name)
        set_field(self, "n", n)
        set_field(self, "m", m)

    @property
    def is_affine(self) -> bool:
        return self.name.startswith("aff")

    def _build(self) -> Tuple[str, str, list]:
        return _FAMILIES[self.name].build(self.n, self.m)

    def source_label(self) -> str:
        return self._build()[0]

    def target_label(self) -> str:
        return self._build()[1]


class Folding:
    """A validated folded embedding of ``source`` into ``target``.

    ``unfold_letters[r]`` is the target word of the r-th source
    generator; its letter set is the partition block of r, and the word
    must assemble to the longest element of the block's parabolic (in
    particular an involution).  Admissibility of the partition is *not*
    assumed here; ``check_admissible`` probes it explicitly.
    """

    def __init__(
        self,
        source: CoxeterSystem,
        target: CoxeterSystem,
        unfold_letters: Sequence[Word],
        family: Optional[FamilyId] = None,
    ):
        if len(unfold_letters) != source.rank:
            raise ValueError("one unfold word is required per source generator")
        self.source = source
        self.target = target
        self.unfold_letters = tuple(tuple(w) for w in unfold_letters)
        self.family = family

        blocks = []
        seen: set = set()
        for r, word in enumerate(self.unfold_letters):
            if not word:
                raise ValueError(f"unfold word of generator {r} is empty")
            block = sorted(set(word))
            for s in block:
                if not 0 <= s < target.rank:
                    raise IndexOutOfRange(f"letter {s} outside the target system")
                if s in seen:
                    raise ValueError(f"partition blocks overlap at target generator {s}")
                seen.add(s)
            blocks.append(tuple(block))
        if len(seen) != target.rank:
            raise ValueError("partition blocks do not cover the target generators")
        self.blocks = tuple(blocks)

        # w in W_B is the longest element of W_B exactly when every letter
        # of B is a left descent of w: the left descents of w generate a
        # finite parabolic W_I with w = w_I u and lengths adding, and u = 1
        # when I = B (Humphreys, Reflection Groups and Coxeter Groups, 1.8
        # and ch. 5).  A longest element is an involution.
        self.unfold_elements = tuple(
            element_from_word(target, word) for word in self.unfold_letters
        )
        for r, elem in enumerate(self.unfold_elements):
            if not all(target._is_left_descent_data(elem.data, s) for s in self.blocks[r]):
                raise ValueError(
                    f"unfold word of generator {r} is not the longest element "
                    f"of its block parabolic"
                )
        # the walk step: entry r applies unfold(r) on the left, last letter first
        self._steps = source._step_table(target, tuple(word[::-1] for word in self.unfold_letters))

    def __repr__(self):
        tag = self.family.name if self.family else "manual"
        return f"Folding({tag}: {self.source.label} -> {self.target.label})"


def standard_folding(family: FamilyId) -> Folding:
    """Build a registered folding from its row of the family table.

    >>> f = standard_folding(FamilyId("Bn-A2n-1", 2))
    >>> [word_string(f.target, w) for w in f.unfold_letters]
    ['s1 s3', 's2']
    >>> f = standard_folding(FamilyId("I2-An", 4))
    >>> [word_string(f.target, w) for w in f.unfold_letters]
    ['s1 s3', 's2 s4']
    """
    source, target, letters = family._build()
    return Folding(build_system(source), build_system(target), letters, family)


def unfold_word(f: Folding, word: Iterable[int]) -> Word:
    """Concatenate the unfold blocks of a source word."""
    out: list = []
    for r in word:
        if not 0 <= r < f.source.rank:
            raise IndexOutOfRange(f"source letter {r} out of range")
        out.extend(f.unfold_letters[r])
    return tuple(out)


def unfold(f: Folding, w: Element) -> Element:
    """The ambient element of a source element, with honest length."""
    return element_from_word(f.target, unfold_word(f, shortlex_normal_form(f.source, w)))


def _unfolding(f: Folding, ambient_cutoff: Optional[int], keep: Optional[Callable]):
    """The ``_bfs`` start, step table and filter of a source walk with payload (data, length).

    The tree reaches s_r w from w, and unfold(s_r w) = unfold(r) unfold(w),
    so step r applies the letters of unfold(r) on the left in reverse
    order, and moves the length by -1 or +1 as each letter is a left
    descent or not.  The step table is the folding's ``_steps``, a
    ``_step_table`` of the source: a Python loop over the target's
    primitives until a long walk of the source swaps in one compiled
    block step per source letter, with the source's kernels; the
    target's tables are never read.  A dihedral source or target keeps
    the loop.  The filter rejects nodes beyond the ambient cutoff, then
    those failing the source filter ``keep(source key, payload)``, whose
    set must be closed under taking parents; with neither, it is None,
    so the walk calls no filter.
    """
    if ambient_cutoff is not None:
        _check_cutoff(ambient_cutoff, "ambient cutoff")

    def wanted(key, payload):
        if ambient_cutoff is not None and payload[1] > ambient_cutoff:
            return False
        return keep is None or keep(key, payload)

    unfiltered = ambient_cutoff is None and keep is None
    return (f.target.identity().data, 0), f._steps, None if unfiltered else wanted


def _series(
    f: Folding, ambient_cutoff: Optional[int], keep: Optional[Callable], budget: int
) -> QSeries:
    """The unfolded length series of a source walk that carries no word.

    Each bucket's lengths are counted in one pass in C.  The walk stores
    fresh tuples that form no cycle, and the cyclic collector would only
    re-scan the growing layers, so it is paused for the walk, which yields
    to no caller code, unless the caller had paused it already.
    """
    start, steps, wanted = _unfolding(f, ambient_cutoff, keep)
    walk = _bfs(f.source, None, budget, start=start, step=steps, keep=wanted)
    lengths = chain.from_iterable(map(_LENGTH, payloads) for _, _, payloads in walk)
    pausing = gc.isenabled()
    if pausing:
        gc.disable()
    try:
        return QSeries.from_lengths(lengths, ambient_cutoff)
    finally:
        if pausing:
            gc.enable()


def _source_records(
    f: Folding,
    *,
    ambient_cutoff: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[tuple, Word, Tuple[tuple, int]]]:
    """BFS over the source, unfolding as it goes.

    Yields raw (source data, its ShortLex word, unfolded (data, length)),
    in ShortLex order of the source words within each length layer.  The
    payload is the pair of ``_unfolding`` and the source word.
    """
    start, steps, wanted = _unfolding(f, ambient_cutoff, None)

    def step(payload, r):
        ambient, word = payload
        return steps[r](ambient, r), _prepend(word, r)

    walk = _bfs(
        f.source, None, budget, start=(start, ()), step=[step] * f.source.rank,
        keep=None if wanted is None else lambda key, payload: wanted(key, payload[0]),
    )
    for _, keys, payloads in walk:
        for key, (ambient, word) in zip(keys, payloads):
            yield key, word, ambient


def unfolding_series_bruteforce(
    f: Folding,
    max_ambient_len: Optional[int],
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> QSeries:
    """Count source elements by the length of their unfolded image.

    With a cutoff the result is truncated there; without one the entire
    (finite) source group is enumerated and the result is exact.
    ``workers`` is accepted for compatibility and ignored: enumeration
    is single-threaded.
    """
    return _series(f, max_ambient_len, None, budget)


def unfolded_image(f: Folding, *, budget: int = DEFAULT_BUDGET) -> dict:
    """Map ambient canonical key -> source word over the whole finite source."""
    return {data: word for _, word, (data, _) in _source_records(f, budget=budget)}


class AdmissibilityReport(Record):
    __slots__ = ("passed", "cutoff", "elements_checked", "violations")

    def __init__(self, passed: bool, cutoff: int, elements_checked: int, violations: list):
        self.passed = passed
        self.cutoff = cutoff
        self.elements_checked = elements_checked
        self.violations = violations

    def __bool__(self):
        return self.passed


def check_admissible(
    f: Folding,
    max_source_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
    max_violations: int = 5,
) -> AdmissibilityReport:
    """Probe the partition's admissibility up to a source-length cutoff.

    For every enumerated source element w and every block I, the ambient
    element of w must either ascend at every generator of I or descend
    at every generator of I.  This is a finite certificate: affine
    sources are only ever checked up to the cutoff.  The walk carries
    only the source's ShortLex words.  Each unfold word is the longest
    element of its block, an involution, so the folding's step table,
    applied for the letters of w in order, spells unfold(w)^-1, whose left
    descents are the right descents of unfold(w): no descent walk is
    needed.
    """
    target = f.target
    descent, steps, start = target._is_left_descent_data, f._steps, (target.identity().data, 0)
    blocks = [(r, block) for r, block in enumerate(f.blocks) if len(block) > 1]
    violations = []
    checked = 0
    walk = _bfs(f.source, max_source_len, budget, start=(), step=[_prepend] * f.source.rank)
    for _, _, words in walk:
        for word in words:
            checked += 1
            inv = start
            for r in word:
                inv = steps[r](inv, r)
            inv = inv[0]
            for r, block in blocks:
                signs = {descent(inv, s) for s in block}
                if len(signs) > 1:
                    violations.append(
                        {
                            "source_word": word_string(f.source, word),
                            "generator": r,
                            "block": [target.generator_name(s) for s in block],
                        }
                    )
                    if len(violations) >= max_violations:
                        return AdmissibilityReport(False, max_source_len, checked, violations)
    return AdmissibilityReport(not violations, max_source_len, checked, violations)


def coset_series_bruteforce(
    f: Folding,
    J_hat: Iterable[int],
    max_ambient_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> QSeries:
    """Unfolded length distribution of the source coset minima for J_hat."""
    return _series(f, max_ambient_len, _coset_minimal(f.source, J_hat), budget)


def reiner_stats_bruteforce(
    kind: str,
    n: int,
    max_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> StatSeries:
    """End-generator occurrence statistics over a ball of affine B_n or C_n.

    Takes the arguments of ``reiner_distribution``: ``kind`` is affB or
    affC.  Sums ``a^(count of s0) * b^(count of s_n) * q^length`` over all
    elements of length <= max_len, reading the counts off each element's
    ShortLex word (well-definedness across reduced words is a separately
    tested property).  For affine B the b-exponent is identically 0.
    """
    if kind not in ("affB", "affC"):
        raise InvalidParameters(f"distribution kind must be affB or affC, got {kind!r}")
    system = build_system(f"affine-{kind[-1]}{n}")
    track_b, last = kind == "affC", system.rank - 1
    coeffs: dict = {}
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        a_exp = sum(1 for i in word if i == 0)
        b_exp = sum(1 for i in word if i == last) if track_b else 0
        key = (a_exp, b_exp, el.length)
        coeffs[key] = coeffs.get(key, 0) + 1
    return StatSeries(coeffs, max_len)


class FactorizationReport(Record):
    """The outcome of ``folding_factorization_check``.

    Coset minima are read on the left: inversion maps W^J_hat onto ^J_hat W
    and keeps lengths (D_R(w) = D_L(w^-1); Björner–Brenti, *Combinatorics of
    Coxeter Groups*, §2.4), and commutes with unfold when unfold is a
    homomorphism, as for every registered folding, so each field equals its
    right-coset reading.  A3 -> A3 by blocks {s2}, {s1}, {s3} breaks a
    relation, and at J_hat = {s1} it fails only on the left.

    ``parabolic_in_parabolic`` cannot fail: the unfolding of a word in
    J_hat is a product of the block elements of J_hat, all in W_J.
    ``minima_in_minima`` and ``series_match`` fail for some partitions:
    for A2 -> A3 with blocks {s1} and {s2, s3} and J_hat = {s2}, both do.
    """

    __slots__ = (
        "passed", "max_len", "parabolic_in_parabolic", "minima_in_minima", "series_match",
        "full_series", "coset_series", "parabolic_series",
    )

    def __init__(
        self,
        passed: bool,
        max_len: Optional[int],
        parabolic_in_parabolic: bool,
        minima_in_minima: bool,
        series_match: bool,
        full_series: QSeries,
        coset_series: QSeries,
        parabolic_series: QSeries,
    ):
        self.passed = passed
        self.max_len = max_len
        self.parabolic_in_parabolic = parabolic_in_parabolic
        self.minima_in_minima = minima_in_minima
        self.series_match = series_match
        self.full_series = full_series
        self.coset_series = coset_series
        self.parabolic_series = parabolic_series

    def __bool__(self):
        return self.passed


def folding_factorization_check(
    f: Folding,
    J_hat: Iterable[int],
    max_ambient_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> FactorizationReport:
    """Check the parabolic compatibility of the folding, up to a cutoff.

    Writes J for the union of the blocks over J_hat and verifies that
    (a) the source parabolic on J_hat unfolds into the target parabolic
    on J, source left coset minima unfold to target left ones, and
    (b) the full unfolding series factors as the coset-minima series
    times the parabolic series, coefficient by coefficient.
    """
    J_hat = set(_subset(f.source, J_hat))
    J = {s for r in J_hat for s in f.blocks[r]}

    # one walk of the ambient ball: the parabolic elements have their
    # ShortLex word in J_hat, the coset minima no left descent in J_hat
    full, par, cos = [], [], []
    par_ok = min_ok = True
    records = _source_records(f, ambient_cutoff=max_ambient_len, budget=budget)
    for key, word, (data, length) in records:
        full.append(length)
        if J_hat.issuperset(word):
            par.append(length)
            par_ok = par_ok and set(f.target._reduced_word(data)) <= J
        if not any(f.source._is_left_descent_data(key, r) for r in J_hat):
            cos.append(length)
            min_ok = min_ok and not any(f.target._is_left_descent_data(data, s) for s in J)
    full, par_series, cos_series = (
        QSeries.from_lengths(lengths, max_ambient_len) for lengths in (full, par, cos)
    )
    series_ok = full == cos_series * par_series
    return FactorizationReport(
        par_ok and min_ok and series_ok,
        max_ambient_len,
        par_ok,
        min_ok,
        series_ok,
        full,
        cos_series,
        par_series,
    )
