"""Folded embeddings of Coxeter groups and their brute-force series.

A folding embeds a Coxeter system (the *source*, generators r_0/r_1/...)
into an ambient one (the *target*, generators s_0/s_1/...) by sending
each source generator to the longest element of a finite standard
parabolic of the target; the parabolics form a partition of the target
generators.  Unfolding a source word means concatenating these blocks.

The registry covers four finite families and eleven affine ones.  Block
tables follow each family's diagram symmetry; where a printed index
formula disagrees with the diagram (the symmetry arrows are the ground
truth), the diagram pairing is used and the series verifier double-checks
the choice against the closed forms.

The brute-force operations enumerate the source group breadth-first,
carry the unfolded ambient element along incrementally, and measure its
ambient length honestly (no reliance on length additivity, which is
instead verified as a separate property).  Ambient-length cutoffs prune
the search: along reduced source words the unfolded length only grows,
so descendants of a pruned node stay pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .coxeter import (
    DEFAULT_BUDGET,
    CoxeterSystem,
    Element,
    Word,
    _bfs,
    build_system,
    enumerate_parabolic,
    enumerate_with_words,
    minimal_coset_reps,
    word_string,
)
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

# family name -> (minimal n, takes the extra parameter m)
_FAMILY_RANGES = {
    "Bn-A2n-1": (2, False),
    "Bn-A2n": (2, False),
    "Bn-Dn+1": (2, False),
    "I2-An": (2, False),
    "affA-affA": (2, True),
    "affB-affDn+1": (3, False),
    "affB-affD2n": (3, False),
    "affB-affD2n+1": (3, False),
    "affC-affA2n+1": (2, False),
    "affC-affA2n": (2, False),
    "affC-affA2n-1": (2, False),
    "affC-affBn+1": (2, False),
    "affC-affDn+2": (2, False),
    "affC-affC2n+1": (2, False),
    "affC-affC2n": (2, False),
}

FAMILY_NAMES = tuple(_FAMILY_RANGES)


@dataclass(frozen=True)
class FamilyId:
    """A registered folding family with its parameters."""

    name: str
    n: int
    m: Optional[int] = None

    def __post_init__(self):
        if self.name not in _FAMILY_RANGES:
            raise InvalidParameters(f"unknown family {self.name!r}")
        floor, takes_m = _FAMILY_RANGES[self.name]
        if self.n < floor:
            raise InvalidParameters(f"{self.name} requires n >= {floor}, got {self.n}")
        if takes_m:
            if self.m is None or self.m < 2:
                raise InvalidParameters(f"{self.name} requires m >= 2, got {self.m}")
        elif self.m is not None:
            raise InvalidParameters(f"{self.name} takes no m parameter")

    @property
    def is_affine(self) -> bool:
        return self.name.startswith("aff")

    def source_label(self) -> str:
        n, m = self.n, self.m
        return {
            "Bn-A2n-1": f"B{n}",
            "Bn-A2n": f"B{n}",
            "Bn-Dn+1": f"B{n}",
            "I2-An": f"I2({n + 1})",
            "affA-affA": f"affine-A{n - 1}",
            "affB-affDn+1": f"affine-B{n}",
            "affB-affD2n": f"affine-B{n}",
            "affB-affD2n+1": f"affine-B{n}",
        }.get(self.name, f"affine-C{n}")

    def target_label(self) -> str:
        n, m = self.n, self.m
        return {
            "Bn-A2n-1": f"A{2 * n - 1}",
            "Bn-A2n": f"A{2 * n}",
            "Bn-Dn+1": f"D{n + 1}",
            "I2-An": f"A{n}",
            "affA-affA": f"affine-A{m * n - 1}" if m else "",
            "affB-affDn+1": f"affine-D{n + 1}",
            "affB-affD2n": f"affine-D{2 * n}",
            "affB-affD2n+1": f"affine-D{2 * n + 1}",
            "affC-affA2n+1": f"affine-A{2 * n + 1}",
            "affC-affA2n": f"affine-A{2 * n}",
            "affC-affA2n-1": f"affine-A{2 * n - 1}",
            "affC-affBn+1": f"affine-B{n + 1}",
            "affC-affDn+2": f"affine-D{n + 2}",
            "affC-affC2n+1": f"affine-C{2 * n + 1}",
            "affC-affC2n": f"affine-C{2 * n}",
        }[self.name]


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
        partition = [0] * target.rank
        for r, block in enumerate(self.blocks):
            for s in block:
                partition[s] = r
        self.partition = tuple(partition)

        self.unfold_elements = tuple(
            target.assemble(word) for word in self.unfold_letters
        )
        for r, elem in enumerate(self.unfold_elements):
            top = self._parabolic_top(self.blocks[r])
            if elem.data != top.data:
                raise ValueError(
                    f"unfold word of generator {r} is not the longest element "
                    f"of its block parabolic"
                )
            square = target.multiply(elem, elem)
            if not target.is_identity(square):
                raise ValueError(f"unfolded generator {r} is not an involution")

    def _parabolic_top(self, block: Tuple[int, ...]) -> Element:
        top = None
        for elem, _ in enumerate_parabolic(self.target, block, None, budget=10_000):
            if top is None or elem.length > top.length:
                top = elem
        return top

    def __repr__(self):
        tag = self.family.name if self.family else "manual"
        return f"Folding({tag}: {self.source.label} -> {self.target.label})"


def _one_based(*indices: int) -> Word:
    # finite-family tables number generators from 1; internal indices from 0
    return tuple(i - 1 for i in indices)


def standard_folding(family: FamilyId) -> Folding:
    """Build a registered folding.

    >>> f = standard_folding(FamilyId("Bn-A2n-1", 2))
    >>> [word_string(f.target, w) for w in f.unfold_letters]
    ['s1 s3', 's2']
    >>> f = standard_folding(FamilyId("I2-An", 4))
    >>> [word_string(f.target, w) for w in f.unfold_letters]
    ['s1 s3', 's2 s4']
    """
    name, n, m = family.name, family.n, family.m

    if name == "Bn-Dn+1" and n == 2:
        # D3 is A3 with relabelled generators; the folding coincides with
        # the B2 -> A3 one up to the diagram flip of B2.
        base = standard_folding(FamilyId("Bn-A2n-1", 2))
        return Folding(base.source, base.target, base.unfold_letters, family)

    source = build_system(family.source_label())
    target = build_system(family.target_label())

    if name == "Bn-A2n-1":
        letters = [_one_based(i, 2 * n - i) for i in range(1, n)]
        letters.append(_one_based(n))
    elif name == "Bn-A2n":
        letters = [_one_based(i, 2 * n + 1 - i) for i in range(1, n)]
        letters.append(_one_based(n, n + 1, n))
    elif name == "Bn-Dn+1":
        letters = [_one_based(i) for i in range(1, n)]
        letters.append(_one_based(n, n + 1))
    elif name == "I2-An":
        odds = _one_based(*range(1, n + 1, 2))
        evens = _one_based(*range(2, n + 1, 2))
        letters = [odds, evens]
    elif name == "affA-affA":
        letters = [tuple(i + j * n for j in range(m)) for i in range(n)]
    elif name == "affB-affDn+1":
        letters = [(0, 1)] + [(i + 1,) for i in range(1, n + 1)]
    elif name == "affB-affD2n":
        letters = [(n,)] + [(n - j, n + j) for j in range(1, n + 1)]
    elif name == "affB-affD2n+1":
        letters = [(n, n + 1, n)] + [(n - j, n + 1 + j) for j in range(1, n + 1)]
    elif name == "affC-affA2n+1":
        letters = [(0, 2 * n + 1, 0)]
        letters += [(i, 2 * n + 1 - i) for i in range(1, n)]
        letters.append((n, n + 1, n))
    elif name == "affC-affA2n":
        letters = [(0, 2 * n, 0)]
        letters += [(i, 2 * n - i) for i in range(1, n)]
        letters.append((n,))
    elif name == "affC-affA2n-1":
        letters = [(0,)]
        letters += [(i, 2 * n - i) for i in range(1, n)]
        letters.append((n,))
    elif name == "affC-affBn+1":
        letters = [(i,) for i in range(n)]
        letters.append((n, n + 1))
    elif name == "affC-affDn+2":
        letters = [(0, 1)] + [(i + 1,) for i in range(1, n)]
        letters.append((n + 1, n + 2))
    elif name == "affC-affC2n+1":
        letters = [(i, 2 * n + 1 - i) for i in range(n)]
        letters.append((n, n + 1, n))
    elif name == "affC-affC2n":
        letters = [(i, 2 * n - i) for i in range(n)]
        letters.append((n,))
    else:  # pragma: no cover - guarded by FamilyId validation
        raise InvalidParameters(name)

    return Folding(source, target, letters, family)


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
    return f.target.assemble(unfold_word(f, f.source.shortlex(w)))


def _source_records(
    f: Folding,
    *,
    source_cutoff: Optional[int] = None,
    ambient_cutoff: Optional[int] = None,
    gens: Optional[Sequence[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, Word, Element]]:
    """BFS over the source (or a source parabolic), unfolding as it goes.

    Yields (source element, its ShortLex word, unfolded ambient element),
    in ShortLex order of the source words within each length layer.
    Nodes beyond the ambient cutoff stay stored for deduplication but are
    neither yielded nor expanded (unfolded length grows along reduced
    words, so nothing below the cutoff is lost).
    """
    target = f.target

    def step(tgt, r):
        for s in f.unfold_letters[r]:
            tgt = target.apply(tgt, s, "right")
        return tgt

    def live(tgt):
        return ambient_cutoff is None or tgt.length <= ambient_cutoff

    start = target.identity()
    walk = _bfs(f.source, source_cutoff, budget, gens=gens, start=start, step=step, live=live)
    for k, key, word, tgt in walk:
        yield Element(key, k), word, tgt


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
    records = _source_records(f, ambient_cutoff=max_ambient_len, budget=budget)
    return QSeries.from_lengths((tgt.length for _, _, tgt in records), max_ambient_len)


def unfolded_image(f: Folding, *, budget: int = DEFAULT_BUDGET) -> dict:
    """Map ambient canonical key -> source word over the whole finite source."""
    return {
        tgt.data: word for _, word, tgt in _source_records(f, budget=budget)
    }


@dataclass
class AdmissibilityReport:
    passed: bool
    cutoff: int
    elements_checked: int
    violations: list

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
    sources are only ever checked up to the cutoff.
    """
    violations = []
    checked = 0
    for src_el, word, tgt in _source_records(
        f, source_cutoff=max_source_len, budget=budget
    ):
        checked += 1
        for r, block in enumerate(f.blocks):
            if len(block) < 2:
                continue
            signs = {f.target._is_right_descent_data(tgt.data, s) for s in block}
            if len(signs) > 1:
                violations.append(
                    {
                        "source_word": word_string(f.source, word),
                        "generator": r,
                        "block": [f.target.generator_name(s) for s in block],
                    }
                )
                if len(violations) >= max_violations:
                    return AdmissibilityReport(False, max_source_len, checked, violations)
    return AdmissibilityReport(not violations, max_source_len, checked, violations)


def _coset_images(
    f: Folding, J_hat: Iterable[int], max_ambient_len: Optional[int], budget: int
) -> Iterator[Element]:
    """Unfolded images of the source coset minima for J_hat, up to the cutoff."""
    for rep in minimal_coset_reps(f.source, J_hat, max_ambient_len, budget=budget):
        tgt = unfold(f, rep)
        if max_ambient_len is None or tgt.length <= max_ambient_len:
            yield tgt


def coset_series_bruteforce(
    f: Folding,
    J_hat: Iterable[int],
    max_ambient_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> QSeries:
    """Unfolded length distribution of the source coset minima for J_hat."""
    images = _coset_images(f, J_hat, max_ambient_len, budget)
    return QSeries.from_lengths((tgt.length for tgt in images), max_ambient_len)


def reiner_stats_bruteforce(
    system: CoxeterSystem,
    max_len: int,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> StatSeries:
    """End-generator occurrence statistics over a ball of an affine B/C group.

    Sums ``a^(count of s0) * b^(count of s_n) * q^length`` over all
    elements of length <= max_len, reading the counts off each element's
    ShortLex word (well-definedness across reduced words is a separately
    tested property).  For affine B the b-exponent is identically 0.
    ``workers`` is accepted for compatibility and ignored.
    """
    label = system.label
    if label.startswith("affine-B"):
        track_b = False
    elif label.startswith("affine-C"):
        track_b = True
    else:
        raise InvalidParameters(
            f"end-generator statistics need an affine B or C system, got {label}"
        )
    last = system.rank - 1
    coeffs: dict = {}
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        a_exp = sum(1 for i in word if i == 0)
        b_exp = sum(1 for i in word if i == last) if track_b else 0
        key = (a_exp, b_exp, el.length)
        coeffs[key] = coeffs.get(key, 0) + 1
    return StatSeries(coeffs, max_len)


@dataclass
class FactorizationReport:
    passed: bool
    max_len: Optional[int]
    parabolic_in_parabolic: bool
    minima_in_minima: bool
    series_match: bool
    full_series: QSeries
    coset_series: QSeries
    parabolic_series: QSeries

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
    on J, source coset minima unfold to target coset minima, and
    (b) the full unfolding series factors as the coset-minima series
    times the parabolic series, coefficient by coefficient.
    """
    J_hat = sorted(set(J_hat))
    J = set()
    for r in J_hat:
        J.update(f.blocks[r])

    records = _source_records(f, ambient_cutoff=max_ambient_len, gens=J_hat, budget=budget)
    par = [tgt for _, _, tgt in records]
    par_ok = all(set(f.target.shortlex(tgt)) <= J for tgt in par)
    par_series = QSeries.from_lengths((tgt.length for tgt in par), max_ambient_len)

    cos = list(_coset_images(f, J_hat, max_ambient_len, budget))
    min_ok = not any(
        f.target._is_right_descent_data(tgt.data, s) for tgt in cos for s in J
    )
    cos_series = QSeries.from_lengths((tgt.length for tgt in cos), max_ambient_len)

    full = unfolding_series_bruteforce(f, max_ambient_len, budget=budget)
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
