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

Every brute-force folding walk is a ``coxeter._bfs`` walk of the source
group's ShortLex tree whose flat nodes carry the unfolded ambient
element along, its data and then its length, measured honestly, letter
by letter.  Ambient-length cutoffs prune the series walks: along reduced
source words the unfolded length only grows, so a node past the cutoff
is not stored and its descendants are never generated.  The series
walks carry nothing else; the highlighted Hasse diagram walks
``_source_records``, which tags each node with its source word, and the
coset-minima series adds one source filter.  The one structural check,
``length_additivity_check``, tests the source relations on the block
elements and equal block lengths across odd bonds, then walks the source
to a source-length cutoff with the weight sum of each word as the tag:
where it passes, the ambient length is a weight function on the source,
which is what the admissibility of the partition and the parabolic
factorization of the series rest on.  Every walk starts on the
primitives; past its compile trip, a walk between two weight systems
swaps in the generated bucket loops of ``coxfold._kernels``.
The end-generator statistics take the arguments of
``closed_forms.reiner_distribution``, a kind (affB or affC) and n, and
build the affine system from them.  The three builders of a series
import ``qseries`` when they run, so a process that only unfolds and
draws, such as ``coxfold bruhat-dot``, never loads it.
"""

from __future__ import annotations

import gc
from itertools import chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .coxeter import (
    DEFAULT_BUDGET,
    CoxeterSystem,
    Element,
    Word,
    _GROUPS,
    _bfs,
    _coset_minimal,
    _wrong_order,
    build_system,
    element_from_word,
    enumerate_with_words,
    shortlex_normal_form,
    word_string,
)
from ._record import FrozenRecord, set_field
from .errors import IndexOutOfRange, InvalidParameters, _check_budget, _check_cutoff, _check_int

if TYPE_CHECKING:
    from .qseries import QSeries, StatSeries

__all__ = [
    "FAMILY_NAMES",
    "FamilyId",
    "Folding",
    "standard_folding",
    "unfold_word",
    "unfold",
    "unfolded_image",
    "unfolding_series_bruteforce",
    "coset_series_bruteforce",
    "reiner_stats_bruteforce",
    "length_additivity_check",
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

_LENGTH = itemgetter(-1)  # the ambient length of an unfolding walk's node


class FamilyId(FrozenRecord):
    """A registered folding family with its parameters."""

    __slots__ = ("name", "n", "m")

    def __init__(self, name: str, n: int, m: Optional[int] = None):
        row = _FAMILIES.get(name)
        if row is None:
            raise InvalidParameters(f"unknown family {name!r}")
        _check_int(n, row.min_n, f"{name} requires n >= {row.min_n}, got {n!r}")
        if row.takes_m:
            _check_int(m, 2, f"{name} requires m >= 2, got {m!r}")
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
    particular an involution); a malformed partition raises
    InvalidParameters, and a letter outside the target IndexOutOfRange.
    That the blocks respect the source relations and lengths is *not*
    assumed here; ``length_additivity_check`` checks it.
    """

    def __init__(
        self,
        source: CoxeterSystem,
        target: CoxeterSystem,
        unfold_letters: Sequence[Word],
        family: Optional[FamilyId] = None,
    ):
        if len(unfold_letters) != source.rank:
            raise InvalidParameters("one unfold word is required per source generator")
        self.source = source
        self.target = target
        self.unfold_letters = tuple(tuple(w) for w in unfold_letters)
        self.family = family

        blocks = []
        seen: set = set()
        for r, word in enumerate(self.unfold_letters):
            if not word:
                raise InvalidParameters(f"unfold word of generator {r} is empty")
            block = sorted(set(word))
            for s in block:
                if not 0 <= s < target.rank:
                    raise IndexOutOfRange(f"letter {s} outside the target system")
                if s in seen:
                    raise InvalidParameters(f"partition blocks overlap at target generator {s}")
                seen.add(s)
            blocks.append(tuple(block))
        if len(seen) != target.rank:
            raise InvalidParameters("partition blocks do not cover the target generators")
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
                raise InvalidParameters(
                    f"unfold word of generator {r} is not the longest element "
                    f"of its block parabolic"
                )
        # unfold(s_r w) = unfold(r) unfold(w): from w, the walk applies
        # entry r on the left letter by letter, so unfold(r) last letter first
        self._words = tuple(word[::-1] for word in self.unfold_letters)

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


def _series(
    f: Folding, ambient_cutoff: Optional[int], keep: Optional[Callable], budget: int
) -> QSeries:
    """The unfolded length series of a source walk that carries no tag.

    Each bucket's lengths, the last entry of a node, are counted in one
    pass in C, with the collector paused.
    """
    # imported here, so that a process that draws no series never loads it
    from .qseries import QSeries

    walk = _bfs(f.source, None, budget, f.target, f._words, ambient_cutoff, keep)
    lengths = chain.from_iterable(map(_LENGTH, nodes) for _, nodes in walk)
    return _paused(QSeries.from_lengths, lengths, ambient_cutoff)


def _paused(run: Callable, *args):
    """``run(*args)`` with the cyclic collector paused; the caller's state comes
    back afterwards, after a ``ResourceLimit`` too.

    ``run`` consumes a walk that yields to no caller code: the walk stores
    fresh tuples that form no cycle, so the collector would only re-scan
    the growing layers.
    """
    pausing = gc.isenabled()
    gc.disable()
    try:
        return run(*args)
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
    in ShortLex order of the source words within each length layer: the
    unfolding walk tagged with the source word.
    """
    r = f.source.rank
    tag = ((), tuple((i,) for i in range(r)))
    for _, nodes in _bfs(f.source, None, budget, f.target, f._words, ambient_cutoff, tag=tag):
        for node in nodes:
            yield node[:r], node[-2], (node[r:-2], node[-1])


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


def length_additivity_check(
    f: Folding, max_source_len: Optional[int], *, budget: int = DEFAULT_BUDGET
) -> Optional[tuple]:
    """The first failure of the folding's structure, or None when it passes.

    With g_r the block element of source generator r and L(r) its length,
    three checks run in this order, and each reports its first failure:

    * ``("relation", r, s)``: for a finite bond m(r, s) of the source,
      (g_r g_s)^t, applied to e through ``target._left_word``, does not
      return to e first at t = m, so unfolding is no homomorphism;
    * ``("odd-bond", r, s)``: m(r, s) is odd but L(r) != L(s), so a braid
      move, which swaps one r for one s, changes the weight sum of a word;
    * ``("length", k, word)``: the source element of length k and ShortLex
      word ``word`` unfolds to a length other than the weight sum of
      ``word``.

    Passing all three says that the ambient length of the folded subgroup
    is the weight function L: l(unfold(w)) = sum of L(r_i) along any
    reduced word of w (Lusztig, *Hecke Algebras with Unequal Parameters*,
    2003; Steinberg, *Lectures on Chevalley Groups*, 1968).  The last
    check is one walk of the source to ``max_source_len`` (None walks a
    finite source whole) whose nodes end (weight sum, length), with the
    collector paused as the series walks are, and a word is spelled only
    for a failure.  A bad
    cutoff or budget is rejected before the first check.
    """
    if max_source_len is not None:
        _check_cutoff(max_source_len, "length cutoff")
    _check_budget(budget)
    matrix = f.source.matrix
    bad = _wrong_order(
        matrix, (f.target.identity().data, 0), lambda p, r: f.target._left_word(f._words[r], p)
    )
    if bad is not None:
        return ("relation", *bad)
    weights = tuple(elem.length for elem in f.unfold_elements)
    for r in range(matrix.rank):
        for s in range(r + 1, matrix.rank):
            if matrix.bond(r, s) % 2 and weights[r] != weights[s]:
                return ("odd-bond", r, s)

    walk = _bfs(f.source, max_source_len, budget, f.target, f._words, tag=(0, weights))
    failures = (  # a node ends (weight sum, length)
        ("length", k, f.source._reduced_word(node[:matrix.rank]))
        for k, nodes in walk
        for node in nodes
        if node[-2] != node[-1]
    )
    return _paused(next, failures, None)


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
    from .qseries import StatSeries

    if kind not in ("affB", "affC"):
        raise InvalidParameters(f"distribution kind must be affB or affC, got {kind!r}")
    floor = _GROUPS[f"affine-{kind[-1]}"].min_n
    _check_int(n, floor, f"Reiner-{kind} requires n >= {floor}")
    system = build_system(f"affine-{kind[-1]}{n}")
    track_b, last = kind == "affC", system.rank - 1
    coeffs: dict = {}
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        a_exp = word.count(0)
        b_exp = word.count(last) if track_b else 0
        key = (a_exp, b_exp, el.length)
        coeffs[key] = coeffs.get(key, 0) + 1
    return StatSeries(coeffs, max_len)
