"""Classical finite and affine Coxeter systems with exact element arithmetic.

Supported labels:

* finite:  ``A_n`` (n>=1), ``B_n`` (n>=2), ``D_n`` (n>=3), ``I2(m)`` (m>=3),
  generators named ``s1..sn`` / ``s1,s2``;
* affine:  ``affine-A_n`` (n>=1), ``affine-B_n`` (n>=3), ``affine-C_n``
  (n>=2), ``affine-D_n`` (n>=4), generators named ``s0..sn``.

Apart from ``I2(m)``, the registry is one ordered table, ``_GROUPS``, with
one row per label family: its minimal n and one function of n giving the
rank and every bond other than 2.  ``build_system`` parses the label,
checks the floor and fills the matrix from the row, so a new label family
is one new row.

Generator indices are 0-based internally; ``CoxeterSystem.generator_index``
translates display names like ``"s3"``.  The ShortLex generator order is
the internal index order, i.e. ``s0 < s1 < ...`` in affine families and
``s1 < s2 < ...`` in finite ones.

Rank >= 3 systems act on the span of the simple roots alpha_i through
the Cartan matrix of the bonds (Humphreys, Reflection Groups and Coxeter
Groups, ch. 5; Kac, Infinite Dimensional Lie Algebras, ch. 3): s_i sends
alpha_j to alpha_j - a_ij alpha_i, where a_ii = 2 and, for i < j,
a_ij * a_ji = 4cos^2(pi/m(i, j)) with

    m(i, j)       2       3         4         6         inf
    (a_ij, a_ji)  (0, 0)  (-1, -1)  (-2, -1)  (-3, -1)  (-2, -2)

An element w is stored as the point w.rho of the Tits cone, where rho is
the functional with rho(alpha_i) = 1: the n integers
x_i = rho(w^-1 alpha_i).  rho lies in the open fundamental chamber, on
which W acts freely, so the encoding is faithful for finite and affine
types alike; the identity is (1, ..., 1).  Every entry is an ``int``, so
bond order 6 works at rank >= 3 (affine G2).  Left multiplication by s_i
negates x_i and adds -a_ij x_i to x_j for each neighbour j of i, and s_i
is a left descent of w exactly when x_i < 0, that is, when w^-1 alpha_i
is a negative root.  In B3, s2 s3 s2 s3 is the longest element of the
parabolic on {s2, s3}:

>>> W = build_system("B3")
>>> W.identity().data, W.generator(1).data
((1, 1, 1), (2, -1, 3))
>>> w = element_from_word(W, (1, 2, 1, 2))
>>> w.data, w.length
((4, -1, -1), 4)

Rank-2 systems use a dihedral backend.  Every element of I2(m) other
than the longest one has exactly one reduced word, an alternating one,
so an element is stored as ``(d, k)``: its length k and the first
letter d of that word, with d = 0 at e and at the longest element, the
only one with two left descents.  This is exact for every bond order,
infinity included, and reads the length and the left descents straight
off the data.  Each backend defines three primitives:
``_apply_left``, the left-descent test ``_is_left_descent_data``, and
``_child``, the ShortLex-tree test, which gives s_i w only when it is a
child of w (the weight backend decides it before building s_i w).  The
breadth-first walk buckets each layer by least left descent and calls it
only where the bucket cannot decide alone.  Every other operation is
written once on top of them, as a module function; ``CoxeterSystem``
keeps only its walks on raw data.  Most operations go through one walk
down an element's least left descents (``_reduced_word``), which spells
out its ShortLex word: products, inverses, the Bruhat order (whose walk
stops where the lengths of the two elements meet) and the breadth-first
walk work on the left, and right multiplication and right descents go
through inverses.  In I2(5), s2 s1 s2 s1 s2 s1 = s1 s2 s1 s2:

>>> W = build_system("I2(5)")
>>> w = element_from_word(W, (1, 0, 1, 0, 1, 0))
>>> w.data, w.length, shortlex_normal_form(W, w), shortlex_normal_form(W, inverse(W, w))
((0, 4), 4, (0, 1, 0, 1), (1, 0, 1, 0))

The breadth-first walk stores every node in one format, a flat tuple:
the element's data, then for a folding the ambient data, any tag and
the ambient length.  Each bucket's children come from one loop per
letter with one contract: ``_loops`` runs it on the primitives and
compiles nothing, and ``coxfold._kernels.bucket_loops`` compiles it for
weight systems.  Every walk starts on ``_loops``; once a walk of weight
systems, plain or unfolding, has stored more than ``_COMPILE_AFTER``
nodes, its own count, checked per letter of a layer, it swaps in the
compiled loops, which count nothing; the walk keeps the budget exact by
handing a loop no more nodes than it has room for.  The system itself
never changes.  Short walks, such as those of the default verify grid
and of a Hasse diagram, never compile, and the dihedral backend never
does.

Bond order 0 in a Coxeter matrix encodes an infinite bond.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from ._record import FrozenRecord, set_field
from .errors import (
    IndexOutOfRange, InvalidMatrix, InvalidParameters, ResourceLimit, UnsupportedLabel,
    _check_budget, _check_cutoff,
)

__all__ = [
    "INFINITE",
    "DEFAULT_BUDGET",
    "Word",
    "CoxeterMatrix",
    "Element",
    "CoxeterSystem",
    "build_system",
    "apply_generator",
    "length",
    "right_descents",
    "shortlex_normal_form",
    "element_from_word",
    "multiply",
    "inverse",
    "enumerate_up_to",
    "enumerate_with_words",
    "all_reduced_words",
    "parabolic_decompose",
    "bruhat_leq",
    "word_string",
]

INFINITE = 0  # bond order sentinel for m = infinity
DEFAULT_BUDGET = 10**7

Word = Tuple[int, ...]

_RANK3_BONDS = {2, 3, 4, 6, INFINITE}
# bond order -> Cartan integers (a_ij, a_ji) for i < j
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-2, -1), 6: (-3, -1), INFINITE: (-2, -2)}

# A walk of weight systems, reading this as it starts, swaps in compiled
# loops once it has stored more than this many nodes.  On a 2-vCPU host
# the compiled loops of a folding compile in 1.3-1.8 ms at source rank
# 5-6 and make a node in 0.3-0.6 us against 1.3-3.4 us on the
# primitives, so they repay the compile within about 1,300 nodes.  At
# 1,500 stored nodes no walk of the default verify grid (at most 1,156)
# or of a Hasse diagram trips, and the stretch walks swap early.
_COMPILE_AFTER = 1_500

_RELATIONS_HOLD: set = set()  # the entries of every matrix whose relations passed


class CoxeterMatrix(FrozenRecord):
    """Symmetric matrix of bond orders m(i, j); diagonal 1, 0 = infinity."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[int, ...], ...]):
        n = len(entries)
        if n < 1:
            raise InvalidMatrix("empty matrix")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise InvalidMatrix("matrix is not square")
            if row[i] != 1:
                raise InvalidMatrix(f"diagonal entry m({i},{i}) = {row[i]} != 1")
            for j, m in enumerate(row):
                if m != entries[j][i]:
                    raise InvalidMatrix(f"asymmetric entries at ({i},{j})")
                if i != j and m != INFINITE and m < 2:
                    raise InvalidMatrix(f"off-diagonal m({i},{j}) = {m} < 2")
                if i != j and n >= 3 and m not in _RANK3_BONDS:
                    raise InvalidMatrix(
                        f"bond order {m} not permitted at rank >= 3 (allowed: 2,3,4,6,inf)"
                    )
        set_field(self, "entries", entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def bond(self, i: int, j: int) -> int:
        return self.entries[i][j]


class Element(FrozenRecord):
    """A group element: a Tits-cone weight vector, or a rank-2 (first letter, length).

    ``data`` doubles as the canonical key; equal data means equal group
    elements because both encodings are faithful.
    """

    __slots__ = ("data", "length")

    def __init__(self, data: tuple, length: int):
        set_field(self, "data", data)
        set_field(self, "length", length)


class CoxeterSystem:
    """A Coxeter system together with its exact element backend."""

    def __init__(self, label: str, matrix: CoxeterMatrix, index_base: int):
        self.label = label
        self.matrix = matrix
        self.index_base = index_base
        self.rank = matrix.rank
        # for _bfs: _above[d] lists the i > d with m(d, i) != 2
        self._above = tuple(
            tuple(i for i in range(d + 1, self.rank) if row[i] != 2)
            for d, row in enumerate(matrix.entries)
        )
        if self.rank == 2:
            self.backend = "dihedral"
            self.m = matrix.bond(0, 1)
            self._identity = Element((0, 0), 0)
        else:
            self.backend = "weight"
            self.m = None
            # _row[i] lists (j, -a_ij) for the neighbours j of i
            self._row = tuple(
                tuple((j, -_CARTAN[m][i > j]) for j, m in enumerate(row) if j != i and m != 2)
                for i, row in enumerate(matrix.entries)
            )
            # for _child(data, i): (j, -a_ij) for every j < i, 0 at a non-neighbour
            self._below = tuple(
                tuple((j, -_CARTAN[row[j]][1]) for j in range(i))
                for i, row in enumerate(matrix.entries)
            )
            self._identity = Element((1,) * self.rank, 0)
        self._check_relations()

    # -- construction helpers -------------------------------------------

    def _check_relations(self):
        """Raise InvalidMatrix unless the primitives satisfy the relations; once per entries."""
        if self.matrix.entries in _RELATIONS_HOLD:
            return
        ident = self._identity.data
        for i in range(self.rank):
            if self._apply_left(self._apply_left(ident, i), i) != ident:
                raise InvalidMatrix(f"generator {i} is not an involution")
        bad = _wrong_order(self.matrix, ident, self._apply_left)
        if bad is not None:
            i, j = bad
            raise InvalidMatrix(
                f"(s{i}s{j}) does not have order m({i},{j}) = {self.matrix.bond(i, j)}"
            )
        _RELATIONS_HOLD.add(self.matrix.entries)

    # -- naming -----------------------------------------------------------

    def generator_name(self, i: int) -> str:
        return f"s{i + self.index_base}"

    def generator_index(self, name: str) -> int:
        if not name.startswith("s") or not name[1:].isdecimal():
            raise IndexOutOfRange(f"bad generator name {name!r}")
        i = int(name[1:]) - self.index_base
        self._check_index(i)
        return i

    def _check_index(self, i: int):
        if not 0 <= i < self.rank:
            raise IndexOutOfRange(f"generator index {i} out of range for {self.label}")

    # -- the three primitives of each backend -------------------------------

    def _apply_left(self, data, i):
        """The data of s_i w."""
        if self.backend == "dihedral":
            # (d, k) is the alternating word of length k that starts with s_d
            down = self._is_left_descent_data(data, i)
            d, k = (1 - i, data[1] - 1) if down else (i, data[1] + 1)
            return (0 if k in (0, self.m) else d, k)
        # s_i reflects w.rho: x_i -> -x_i and x_j -> x_j - a_ij x_i
        x = list(data)
        xi = x[i]
        x[i] = -xi
        for j, c in self._row[i]:
            x[j] += c * xi
        return tuple(x)

    def _is_left_descent_data(self, data, i) -> bool:
        if self.backend == "dihedral":
            # e has no left descent, w0 has both, every other element its first letter
            return data[1] > 0 and (data[0] == i or data[1] == self.m)
        # x_i = rho(w^-1 alpha_i) is negative exactly when w^-1 alpha_i is
        return data[i] < 0

    def _child(self, data, i):
        """The data of s_i w when it is a child of w in the ShortLex tree, else None.

        s_i w is a child of w exactly when i is not a left descent of w and
        no j < i is a left descent of s_i w.
        """
        if self.backend == "dihedral":
            if self._is_left_descent_data(data, i):
                return None
            child = self._apply_left(data, i)
            if any(self._is_left_descent_data(child, j) for j in range(i)):
                return None
            return child
        # decided from w before s_i w is built: with x_i > 0, its x_j is x_j - a_ij x_i
        xi = data[i]
        if xi < 0:
            return None
        for j, c in self._below[i]:
            if data[j] + c * xi < 0:
                return None
        return self._apply_left(data, i)

    # -- elements, and walks on raw data ---------------------------------------

    def identity(self) -> Element:
        return self._identity

    def generator(self, i: int) -> Element:
        self._check_index(i)
        return Element(self._apply_left(self._identity.data, i), 1)

    def is_identity(self, w: Element) -> bool:
        return w.data == self._identity.data

    def _reduced_word(self, data) -> Word:
        """The ShortLex word of ``data``, read off a walk down its least left descents."""
        word = []
        e = self._identity.data
        desc = self._is_left_descent_data
        while data != e:
            i = 0
            while not desc(data, i):
                i += 1
            data = self._apply_left(data, i)
            word.append(i)
        return tuple(word)

    def _inverse_data(self, data):
        # w = s_a1 ... s_ak gives w^-1 = s_ak ... s_a1
        inv = self._identity.data
        for i in self._reduced_word(data):
            inv = self._apply_left(inv, i)
        return inv

    def _left_word(self, letters, payload):
        """The raw (data, length) of s_ak ... s_a1 w: each letter, in order, on the left.

        ``payload`` is the raw (data, length) of w.  The length moves down
        at a letter that is a left descent, else up.
        """
        data, length = payload
        desc, apply = self._is_left_descent_data, self._apply_left
        for i in letters:
            length += -1 if desc(data, i) else 1
            data = apply(data, i)
        return data, length


def _wrong_order(matrix: CoxeterMatrix, start, step: Callable) -> Optional[Tuple[int, int]]:
    """The first finite bond (i, j), i < j, whose product does not have order m(i, j).

    ``step(x, i)`` applies the i-th generator to ``x``; the product of
    generators i and j has order m exactly when (g_i g_j)^t, applied to
    ``start``, returns to it first at t = m.  None when every bond holds.
    """
    for i in range(matrix.rank):
        for j in range(i + 1, matrix.rank):
            m = matrix.bond(i, j)
            if m == INFINITE:
                continue
            power = start
            for t in range(1, m + 1):
                power = step(step(power, j), i)
                if (power == start) != (t == m):
                    return i, j
    return None


# ---------------------------------------------------------------------------
# registry of group labels


def _chain(lo: int, hi: int) -> dict:
    """Bonds of order 3 between i and i + 1 for lo <= i < hi."""
    return {(i, i + 1): 3 for i in range(lo, hi)}


class _Group(NamedTuple):
    min_n: int
    # n -> (rank, {(i, j): bond order} for every bond other than 2)
    bonds: Callable[[int], Tuple[int, dict]]


# One row per label family; finite labels number generators from s1,
# affine ones from s0.  B2 is I2(4) and affine-A1 is I2(inf).
_GROUPS = {
    "A": _Group(1, lambda n: (n, _chain(0, n - 1))),
    "B": _Group(2, lambda n: (n, {**_chain(0, n - 2), (n - 2, n - 1): 4})),
    "D": _Group(3, lambda n: (n, {**_chain(0, n - 2), (n - 3, n - 1): 3})),
    "affine-A": _Group(1, lambda n: (
        n + 1, {(0, 1): INFINITE} if n == 1 else {**_chain(0, n), (0, n): 3}
    )),
    "affine-B": _Group(3, lambda n: (n + 1, {**_chain(1, n - 1), (0, 1): 4, (n - 2, n): 3})),
    "affine-C": _Group(2, lambda n: (n + 1, {**_chain(1, n - 1), (0, 1): 4, (n - 1, n): 4})),
    "affine-D": _Group(4, lambda n: (
        n + 1, {**_chain(2, n - 1), (0, 2): 3, (1, 2): 3, (n - 2, n): 3}
    )),
}


def build_system(label_or_matrix) -> CoxeterSystem:
    """Construct a registered system from a label, or from a CoxeterMatrix.

    A label is ``I2(m)`` or a ``_GROUPS`` family followed by n.

    >>> build_system("A3").rank
    3
    >>> build_system("I2(4)").backend
    'dihedral'
    >>> build_system("affine-C2").matrix.entries
    ((1, 4, 2), (4, 1, 4), (2, 4, 1))
    """
    if isinstance(label_or_matrix, CoxeterMatrix):
        return CoxeterSystem(f"custom(rank={label_or_matrix.rank})", label_or_matrix, 1)
    label = label_or_matrix
    if not isinstance(label, str):
        raise UnsupportedLabel(f"expected a label or CoxeterMatrix, got {label!r}")

    def number(text: str) -> int:
        if not text.isdecimal():
            raise UnsupportedLabel(f"malformed label {label!r}")
        return int(text)

    affine = label.startswith("affine-")
    if label.startswith("I2(") and label.endswith(")"):
        rank, bonds = 2, {(0, 1): number(label[3:-1])}
        if bonds[0, 1] < 3:
            raise UnsupportedLabel(f"I2({bonds[0, 1]}) requires bond order >= 3")
    else:
        family = label[:len("affine-") + 1] if affine else label[:1]
        digits = label[len(family):]
        if not digits or (family not in _GROUPS and family != "C"):
            raise UnsupportedLabel(f"unknown label {label!r}")
        n = number(digits)
        if family == "C":
            raise UnsupportedLabel("finite type C coincides with B; use the B label")
        row = _GROUPS[family]
        if n < row.min_n:
            raise UnsupportedLabel(f"{label} below the minimal rank for its family")
        rank, bonds = row.bonds(n)
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), m in bonds.items():
        rows[i][j] = rows[j][i] = m
    return CoxeterSystem(label, CoxeterMatrix(tuple(map(tuple, rows))), 0 if affine else 1)


# ---------------------------------------------------------------------------
# module-level operations


def apply_generator(system: CoxeterSystem, w: Element, i: int, side: str = "right") -> Element:
    """s_i w (left, in O(deg i)) or w s_i (right, a walk of w); length moves by +/-1."""
    system._check_index(i)
    if side == "left":
        return Element(*system._left_word((i,), (w.data, w.length)))
    if side == "right":
        return multiply(system, w, system.generator(i))
    raise InvalidParameters(f"side must be 'left' or 'right', got {side!r}")


def length(system: CoxeterSystem, w: Element) -> int:
    return w.length


def right_descents(system: CoxeterSystem, w: Element) -> frozenset:
    inv = system._inverse_data(w.data)
    return frozenset(i for i in range(system.rank) if system._is_left_descent_data(inv, i))


def shortlex_normal_form(system: CoxeterSystem, w: Element) -> Word:
    """Lexicographically least reduced word under s0 < s1 < ... order.

    Its first letter is the least left descent of w, so walking w down
    its least left descents spells the word out.
    """
    return system._reduced_word(w.data)


def element_from_word(system: CoxeterSystem, word: Iterable[int]) -> Element:
    """The product of the letters, each index checked."""
    word = tuple(word)
    for i in word:
        system._check_index(i)
    return Element(*system._left_word(reversed(word), (system.identity().data, 0)))


def multiply(system: CoxeterSystem, a: Element, b: Element) -> Element:
    """a b: the ShortLex word of a applied to b on the left, last letter first."""
    return Element(*system._left_word(reversed(system._reduced_word(a.data)), (b.data, b.length)))


def inverse(system: CoxeterSystem, w: Element) -> Element:
    return Element(system._inverse_data(w.data), w.length)


def word_string(system: CoxeterSystem, word: Sequence[int]) -> str:
    """Render a word using generator names; the empty word is ``e``."""
    if not word:
        return "e"
    return " ".join(system.generator_name(i) for i in word)


def _subset(system: CoxeterSystem, J: Iterable[int]) -> list:
    """The generator subset J, sorted and without repeats, each index checked."""
    J = sorted(set(J))
    for j in J:
        system._check_index(j)
    return J


def _bfs(
    system: CoxeterSystem,
    max_len: Optional[int],
    budget: int,
    target: Optional[CoxeterSystem] = None,
    words: Optional[Tuple[Word, ...]] = None,
    cutoff: Optional[int] = None,
    keep: Optional[Callable] = None,
    tag: Optional[tuple] = None,
) -> Iterator[Tuple[int, list]]:
    """Walk the ShortLex tree breadth-first; every enumeration runs on this.

    Yields one ``(length, nodes)`` per non-empty bucket, by increasing
    length, and in ShortLex order of the elements within a length, bucket
    after bucket.  The lists stay the walk's own: a consumer reads them
    before it resumes the walk and never changes them.  The ShortLex word
    of w != e is d followed by that of s_d w, where d is the least left
    descent of w, so every element has one parent: s_i w is a child of w
    exactly when i is not a left descent of w and is the least left
    descent of s_i w.  Each element is thus generated once, and no
    visited set is kept.  Looping over i outside the frontier puts each
    layer in lexicographic order of (i, parent word): ShortLex order.

    A layer is rank + 1 buckets: bucket d holds the nodes whose least
    left descent, the letter that made them, is d, and the root is in
    bucket rank.  For letter i, bucket d gives every s_i w untested if
    d > i: w^-1 alpha_j > 0 for j <= i, so (s_i w)^-1 alpha_j = w^-1
    alpha_j - a_ij w^-1 alpha_i > 0 for j < i.  It gives none if d = i,
    nor if d < i and m(d, i) = 2, as s_i fixes alpha_d; ``_above[d]``
    lists the other i > d, whose buckets go through the child test.

    A node is one flat tuple: the data of w; for an unfolding walk into
    ``target``, where letter i applies ``words[i]`` on the left, the
    target data of w's image; with ``tag = (start, prefixes)``, a tag,
    ``start`` at the root and ``prefixes[i]`` + that of w at s_i w; for
    an unfolding walk, the image's length last.  A child whose length is
    past ``cutoff``, or whose data fails ``keep(data)``, is neither
    stored, yielded nor expanded, so the set that ``keep`` passes must be
    closed under taking parents.  The root is always stored: a cutoff is
    at least 0, and e is coset-minimal, as it is in every non-empty set
    closed under taking parents.  The budget, an int >= 1, counts the
    stored nodes, the root included.

    Each bucket's children come from ``loops[i][tested](nodes)``, first
    the ``_loops`` on the primitives.  A walk whose systems both have the
    weight backend swaps in the compiled ``_kernels.bucket_loops``, with
    the same contract, once, after the first letter of a layer by which
    it has stored more than ``_COMPILE_AFTER`` nodes.  No loop counts: a
    bucket goes to its loop whole while the budget has room for a child
    of every node, and else in slices no longer than the room left (at
    least one node), so the walk raises at the first child past the
    budget, having stored one node past it and no more.
    """
    if max_len is not None:
        _check_cutoff(max_len, "length cutoff")
    if cutoff is not None:
        _check_cutoff(cutoff, "ambient cutoff")
    _check_budget(budget)
    spec = (system, target, words, cutoff, keep, None if tag is None else tag[1])
    loops = _loops(*spec)
    weight = system.backend == "weight" and (target is None or target.backend == "weight")
    trip = _COMPILE_AFTER if weight else float("inf")
    root = system.identity().data
    if target is not None:
        root += target.identity().data
    if tag is not None:
        root += (tag[0],)
    if target is not None:
        root += (0,)
    above, stored, k = system._above, 1, 0
    layer = [[] for _ in range(system.rank)] + [[root]]
    while any(layer):
        for nodes in layer:
            if nodes:
                yield k, nodes
        if max_len is not None and k >= max_len:
            return
        k += 1
        children = []
        for i in range(system.rank):
            made = []
            for d, nodes in enumerate(layer):
                if not nodes or d <= i and i not in above[d]:
                    continue
                loop, rest = loops[i][d < i], nodes
                while rest:  # no more nodes at a time than there is room for, at least one
                    room = max(budget - stored, 1)
                    new, rest = loop(rest[:room]), rest[room:]
                    stored += len(new)
                    made += new
                    if stored > budget:
                        raise ResourceLimit(budget, k, stored)
            children.append(made)
            if stored > trip:
                from ._kernels import bucket_loops  # loaded only by a walk that trips

                trip, loops = float("inf"), bucket_loops(*spec)
        layer = children + [[]]


def _loops(source, target, words, cutoff, keep, prefixes=None) -> list:
    """The (untested, tested) bucket loops of each letter, on the primitives.

    The contract of ``_kernels.bucket_loops``, which compiles the same
    loops: loop i, ``nodes -> children``, makes s_i w, with ``_apply_left``
    untested and with ``_child`` tested, for each flat ``_bfs`` node w of
    ``nodes`` in order.  An unfolding walk applies ``words[i]`` to the
    target part as ``target._left_word`` does, inlined (a call per node
    cost about 5% of the default verify grid's walks), and drops a child
    whose length is past ``cutoff``; then a child whose data fails
    ``keep`` is dropped.  It counts nothing and compiles nothing.
    """
    r = source.rank
    end = r + (0 if target is None else target.rank)

    def plain(make, i, nodes):
        prefix, children = None if prefixes is None else prefixes[i], []
        for node in nodes:
            child = make(node[:r], i)
            if child is not None and (keep is None or keep(child)):
                children.append(child if prefix is None else child + (prefix + node[r],))
        return children

    def unfolding(make, i, nodes):
        desc, step, word, children = target._is_left_descent_data, target._apply_left, words[i], []
        for node in nodes:
            child = make(node[:r], i)
            if child is None:
                continue
            image, length = node[r:end], node[-1]
            for s in word:
                length += -1 if desc(image, s) else 1
                image = step(image, s)
            if cutoff is not None and length > cutoff or keep is not None and not keep(child):
                continue
            tail = (length,) if prefixes is None else (prefixes[i] + node[end], length)
            children.append(child + image + tail)
        return children

    loop = plain if target is None else unfolding
    apply, test = source._apply_left, source._child
    return [(partial(loop, apply, i), partial(loop, test, i)) for i in range(r)]


def enumerate_up_to(
    system: CoxeterSystem,
    max_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, int]]:
    """Stream every element of length <= max_len exactly once.

    Elements are emitted in increasing length, in ShortLex order of their
    normal forms within each length; lengths are the BFS layer indices.
    With ``max_len=None`` the whole group is enumerated (the budget guards
    against accidentally unbounded runs on affine systems).
    """
    for k, nodes in _bfs(system, max_len, budget):
        for node in nodes:
            yield Element(node, k), k


def enumerate_with_words(
    system: CoxeterSystem,
    max_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, Word]]:
    """Like enumerate_up_to but also yields each element's ShortLex word."""
    r = system.rank
    for k, nodes in _bfs(system, max_len, budget, tag=((), tuple((i,) for i in range(r)))):
        for node in nodes:
            yield Element(node[:r], k), node[r]


def all_reduced_words(system: CoxeterSystem, w: Element) -> list:
    """All reduced words of w in lexicographic order (exponential; for short elements)."""
    if system.is_identity(w):
        return [()]
    out = []
    for i in range(system.rank):
        if system._is_left_descent_data(w.data, i):
            for word in all_reduced_words(system, apply_generator(system, w, i, "left")):
                out.append((i,) + word)
    return out


def parabolic_decompose(
    system: CoxeterSystem, w: Element, J: Iterable[int]
) -> Tuple[Element, Element]:
    """Split w = w^J * w_J with w^J coset-minimal and lengths adding.

    w^J has no right descent inside J; w_J lies in the parabolic on J.
    Peeling left descents in J off w^-1 = w_J^-1 (w^J)^-1 finds both.
    """
    J = _subset(system, J)
    u = inverse(system, w)
    letters = []
    while True:
        for j in J:
            if system._is_left_descent_data(u.data, j):
                u = apply_generator(system, u, j, "left")
                letters.append(j)
                break
        else:
            break
    return inverse(system, u), element_from_word(system, reversed(letters))


def _coset_minimal(system: CoxeterSystem, J: Iterable[int]):
    """The ``_bfs`` filter keep(data): the element has no right descent in J.

    W^J is closed under taking parents in the ShortLex tree (a right
    descent in J of s_d w would be one of w too), so a walk under this
    filter reaches all of it.  J is checked once, here.
    """
    J = _subset(system, J)

    def keep(data) -> bool:
        inv = system._inverse_data(data)
        return not any(system._is_left_descent_data(inv, j) for j in J)

    return keep


def bruhat_leq(system: CoxeterSystem, v: Element, w: Element) -> bool:
    """Bruhat order test v <= w, by one walk down w that lifts v along.

    Lifting property (Björner–Brenti, *Combinatorics of Coxeter Groups*,
    Prop. 2.2.7): for a left descent s of w, v <= w iff sv <= sw when s is
    a left descent of v, and iff v <= sw otherwise.  So x walks down its
    least left descents from w, and u steps down with x whenever the
    letter is a left descent of u too.  Each step keeps l(u) <= l(x) and
    lowers l(x) by one; the walk stops where the lengths meet, since two
    elements of equal length are comparable only when they are equal.
    On adjacent layers that is the first letter of w that u cannot take.
    If x runs out of left descents first, a given length is wrong.
    """
    lu, lx = v.length, w.length
    if lu > lx:
        return False
    u, x = v.data, w.data
    desc = system._is_left_descent_data
    step = system._apply_left
    while lu < lx:
        for i in range(system.rank):
            if desc(x, i):
                break
        else:
            raise InvalidParameters(f"a length does not match its element in {system.label}")
        x = step(x, i)
        lx -= 1
        if desc(u, i):
            u = step(u, i)
            lu -= 1
    return u == x
