"""Classical finite and affine Coxeter systems with exact element arithmetic.

Supported families (graph conventions, with generator numbering as in the
registry tables):

* finite:  ``A_n`` (n>=1), ``B_n`` (n>=2), ``D_n`` (n>=3), ``I2(m)`` (m>=3),
  generators named ``s1..sn`` / ``s1,s2``;
* affine:  ``affine-A_n`` (n>=1), ``affine-B_n`` (n>=3), ``affine-C_n``
  (n>=2), ``affine-D_n`` (n>=4), generators named ``s0..sn``.

Generator indices are 0-based internally; ``CoxeterSystem.generator_index``
translates display names like ``"s3"``.  The ShortLex generator order is
the internal index order, i.e. ``s0 < s1 < ...`` in affine families and
``s1 < s2 < ...`` in finite ones.

Elements of rank >= 3 systems are integer matrices acting on the simple
roots through the Cartan matrix of the bonds (Humphreys, Reflection
Groups and Coxeter Groups, ch. 5; Kac, Infinite Dimensional Lie Algebras,
ch. 3): s_i sends alpha_j to alpha_j - a_ij alpha_i, where a_ii = 2 and,
for i < j, a_ij * a_ji = 4cos^2(pi/m(i, j)) with

    m(i, j)       2       3         4         6         inf
    (a_ij, a_ji)  (0, 0)  (-1, -1)  (-2, -1)  (-3, -1)  (-2, -2)

This is the reflection representation with the simple roots rescaled, so
every entry is an ``int`` and bond order 6 works at rank >= 3 (affine
G2).  The entries are not symmetric; left and right multiplication by s_i
both read the row a_i.  Matrices are stored column-major, so
``w.data[i]`` is the coordinate vector of w(alpha_i); a generator s_i is
a right descent of w exactly when that vector is non-positive.

>>> build_system("B3").generator(1).data
((1, 1, 0), (0, -1, 0), (0, 2, 1))
>>> build_system("B3").generator(2).data
((1, 0, 0), (0, 1, 1), (0, 0, -1))

Rank-2 systems bypass matrices: a dihedral element is an
``(is_reflection, index)`` pair, which stays exact for every bond order
including infinity.  The two backends differ only in three primitives,
``_apply_right``, ``_apply_left`` and ``_is_right_descent_data``.  Every
other operation is written once on top of them, mostly through one walk
down an element's least right descents (``_reduced_word``): lengths of
left products, products, inverses, ShortLex words and the Bruhat order.
In I2(5), s2 s1 s2 s1 s2 s1 = s1 s2 s1 s2:

>>> W = build_system("I2(5)")
>>> w = W.assemble((1, 0, 1, 0, 1, 0))
>>> w.data, w.length, W.shortlex(w), W.shortlex(W.inverse(w))
((False, 2), 4, (0, 1, 0, 1), (1, 0, 1, 0))

Bond order 0 in a Coxeter matrix encodes an infinite bond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import IndexOutOfRange, InvalidMatrix, ResourceLimit, UnsupportedLabel

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
    "enumerate_parabolic",
    "all_reduced_words",
    "parabolic_decompose",
    "minimal_coset_reps",
    "bruhat_leq",
    "word_string",
]

INFINITE = 0  # bond order sentinel for m = infinity
DEFAULT_BUDGET = 10**7

Word = Tuple[int, ...]

_RANK3_BONDS = {2, 3, 4, 6, INFINITE}
# bond order -> Cartan integers (a_ij, a_ji) for i < j
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-2, -1), 6: (-3, -1), INFINITE: (-2, -2)}


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of bond orders m(i, j); diagonal 1, 0 = infinity."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1:
            raise InvalidMatrix("empty matrix")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise InvalidMatrix("matrix is not square")
            if row[i] != 1:
                raise InvalidMatrix(f"diagonal entry m({i},{i}) = {row[i]} != 1")
            for j, m in enumerate(row):
                if m != self.entries[j][i]:
                    raise InvalidMatrix(f"asymmetric entries at ({i},{j})")
                if i != j and m != INFINITE and m < 2:
                    raise InvalidMatrix(f"off-diagonal m({i},{j}) = {m} < 2")
                if i != j and n >= 3 and m not in _RANK3_BONDS:
                    raise InvalidMatrix(
                        f"bond order {m} not permitted at rank >= 3 (allowed: 2,3,4,6,inf)"
                    )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def bond(self, i: int, j: int) -> int:
        return self.entries[i][j]


@dataclass(frozen=True)
class Element:
    """A group element: integer matrix (column tuple) or dihedral tag.

    ``data`` doubles as the canonical key; equal data means equal group
    elements because both backends are faithful.
    """

    data: tuple
    length: int


class CoxeterSystem:
    """A Coxeter system together with its exact element backend."""

    def __init__(self, label: str, matrix: CoxeterMatrix, index_base: int):
        self.label = label
        self.matrix = matrix
        self.index_base = index_base
        self.rank = matrix.rank
        if self.rank == 2:
            self.backend = "dihedral"
            self.m = matrix.bond(0, 1)
            self._identity = Element((False, 0), 0)
        else:
            self.backend = "matrix"
            self.m = None
            n = self.rank
            # _row[i] lists (j, -a_ij) for the neighbours j of i
            self._row = tuple(
                tuple((j, -_CARTAN[m][i > j]) for j, m in enumerate(row) if j != i and m != 2)
                for i, row in enumerate(matrix.entries)
            )
            ident = tuple(tuple(int(a == b) for a in range(n)) for b in range(n))
            self._identity = Element(ident, 0)
        self._check_relations()

    # -- construction helpers -------------------------------------------

    def _check_relations(self):
        ident = self._identity.data
        for i in range(self.rank):
            if self._apply_right(self._apply_right(ident, i), i) != ident:
                raise InvalidMatrix(f"generator {i} is not an involution")
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                m = self.matrix.bond(i, j)
                if m == INFINITE:
                    continue
                # (s_i s_j)^t returns to the identity first at t = m
                power = ident
                for t in range(1, m + 1):
                    power = self._apply_right(self._apply_right(power, i), j)
                    if (power == ident) != (t == m):
                        raise InvalidMatrix(
                            f"(s{i}s{j}) does not have order m({i},{j}) = {m}"
                        )

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

    # -- element primitives ------------------------------------------------

    def identity(self) -> Element:
        return self._identity

    def generator(self, i: int) -> Element:
        self._check_index(i)
        return Element(self._apply_right(self._identity.data, i), 1)

    def is_identity(self, w: Element) -> bool:
        return w.data == self._identity.data

    def _apply_right(self, data, i):
        if self.backend == "dihedral":
            refl, k = data
            if i == 0:
                refl, k = (not refl), k
            else:
                refl, k = (not refl), (k + 1 if refl else k - 1)
            if self.m != INFINITE:
                k %= self.m
            return (refl, k)
        # w s_i sends alpha_j to w(alpha_j) - a_ij w(alpha_i)
        cols = list(data)
        col_i = cols[i]
        for j, c in self._row[i]:
            cols[j] = tuple(x + c * y for x, y in zip(cols[j], col_i))
        cols[i] = tuple(-y for y in col_i)
        return tuple(cols)

    def _apply_left(self, data, i):
        if self.backend == "dihedral":
            refl, k = data
            if i == 0:
                refl, k = (not refl), -k
            else:
                refl, k = (not refl), -k - 1
            if self.m != INFINITE:
                k %= self.m
            return (refl, k)
        # s_i changes only the alpha_i coordinate: x_i -> x_i - sum_k a_ik x_k
        row = self._row[i]
        out = []
        for col in data:
            acc = -col[i]
            for j, c in row:
                acc += c * col[j]
            out.append(col[:i] + (acc,) + col[i + 1:])
        return tuple(out)

    def _is_right_descent_data(self, data, i) -> bool:
        if self.backend == "dihedral":
            return self._dihedral_length(self._apply_right(data, i)) < self._dihedral_length(data)
        # w(alpha_i) is w's i-th column; descent iff it is a negative root
        return max(data[i]) <= 0

    def is_right_descent(self, w: Element, i: int) -> bool:
        self._check_index(i)
        return self._is_right_descent_data(w.data, i)

    def _dihedral_length(self, data) -> int:
        refl, k = data
        if self.m == INFINITE:
            if refl:
                return 2 * k + 1 if k >= 0 else -2 * k - 1
            return 2 * abs(k)
        k %= self.m
        if refl:
            return min(2 * k + 1, 2 * (self.m - k) - 1)
        return min(2 * k, 2 * (self.m - k))

    def _reduced_word(self, data) -> Word:
        """A reduced word of ``data``, read off a walk down its least right descents."""
        word = []
        while data != self._identity.data:
            for i in range(self.rank):
                if self._is_right_descent_data(data, i):
                    break
            else:
                raise RuntimeError("non-identity element without right descent")
            data = self._apply_right(data, i)
            word.append(i)
        return tuple(reversed(word))

    # -- compound operations ------------------------------------------------

    def apply(self, w: Element, i: int, side: str = "right") -> Element:
        self._check_index(i)
        if side == "right":
            down = self._is_right_descent_data(w.data, i)
            data = self._apply_right(w.data, i)
            return Element(data, w.length - 1 if down else w.length + 1)
        if side == "left":
            data = self._apply_left(w.data, i)
            return Element(data, len(self._reduced_word(data)))
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def multiply(self, a: Element, b: Element) -> Element:
        for i in self._reduced_word(b.data):
            a = self.apply(a, i, "right")
        return a

    def inverse(self, w: Element) -> Element:
        return self.assemble(reversed(self._reduced_word(w.data)))

    def assemble(self, word: Iterable[int]) -> Element:
        w = self._identity
        for i in word:
            w = self.apply(w, i, "right")
        return w

    def shortlex(self, w: Element) -> Word:
        """Lexicographically least reduced word under s0 < s1 < ... order.

        Its first letter is the least left descent of w, that is, the least
        right descent of w^-1; so walking w^-1 down its least right descents
        spells the word out.
        """
        return tuple(reversed(self._reduced_word(self.inverse(w).data)))

    def right_descent_set(self, w: Element) -> frozenset:
        return frozenset(
            i for i in range(self.rank) if self._is_right_descent_data(w.data, i)
        )


# ---------------------------------------------------------------------------
# registry of group labels


def _chain_matrix(rank: int, edges: dict) -> CoxeterMatrix:
    rows = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for (i, j), m in edges.items():
        rows[i][j] = m
        rows[j][i] = m
    return CoxeterMatrix(tuple(tuple(r) for r in rows))


def _finite_matrix(family: str, n: int) -> CoxeterMatrix:
    if family == "A":
        edges = {(i, i + 1): 3 for i in range(n - 1)}
        return _chain_matrix(n, edges)
    if family == "B":
        edges = {(i, i + 1): 3 for i in range(n - 2)}
        edges[(n - 2, n - 1)] = 4
        return _chain_matrix(n, edges)
    if family == "D":
        edges = {(i, i + 1): 3 for i in range(n - 3)}
        edges[(n - 3, n - 2)] = 3
        edges[(n - 3, n - 1)] = 3
        return _chain_matrix(n, edges)
    raise UnsupportedLabel(family)


def _affine_matrix(family: str, n: int) -> CoxeterMatrix:
    rank = n + 1
    if family == "A":
        edges = {(i, (i + 1) % rank): 3 for i in range(rank)}
        return _chain_matrix(rank, edges)
    if family == "B":
        edges = {(0, 1): 4}
        edges.update({(i, i + 1): 3 for i in range(1, n - 1)})
        edges[(n - 2, n)] = 3
        return _chain_matrix(rank, edges)
    if family == "C":
        edges = {(0, 1): 4, (n - 1, n): 4}
        edges.update({(i, i + 1): 3 for i in range(1, n - 1)})
        return _chain_matrix(rank, edges)
    if family == "D":
        edges = {(0, 2): 3, (1, 2): 3, (n - 2, n - 1): 3, (n - 2, n): 3}
        edges.update({(i, i + 1): 3 for i in range(2, n - 2)})
        return _chain_matrix(rank, edges)
    raise UnsupportedLabel(family)


def build_system(label_or_matrix) -> CoxeterSystem:
    """Construct a registered system from a label, or from a CoxeterMatrix.

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

    if label.startswith("I2(") and label.endswith(")"):
        m = number(label[3:-1])
        if m < 3:
            raise UnsupportedLabel(f"I2({m}) requires bond order >= 3")
        return CoxeterSystem(label, _chain_matrix(2, {(0, 1): m}), 1)

    affine = label.startswith("affine-")
    body = label[len("affine-"):] if affine else label
    if len(body) < 2 or body[0] not in "ABCD":
        raise UnsupportedLabel(f"unknown label {label!r}")
    family, n = body[0], number(body[1:])

    if affine:
        floors = {"A": 1, "B": 3, "C": 2, "D": 4}
        if n < floors[family]:
            raise UnsupportedLabel(f"{label} below the minimal rank for its family")
        if family == "A" and n == 1:
            return CoxeterSystem(label, _chain_matrix(2, {(0, 1): INFINITE}), 0)
        return CoxeterSystem(label, _affine_matrix(family, n), 0)

    floors = {"A": 1, "B": 2, "C": None, "D": 3}
    if family == "C":
        raise UnsupportedLabel("finite type C coincides with B; use the B label")
    if n < floors[family]:
        raise UnsupportedLabel(f"{label} below the minimal rank for its family")
    if family == "B" and n == 2:
        return CoxeterSystem(label, _chain_matrix(2, {(0, 1): 4}), 1)
    return CoxeterSystem(label, _finite_matrix(family, n), 1)


# ---------------------------------------------------------------------------
# module-level operations


def apply_generator(system: CoxeterSystem, w: Element, i: int, side: str = "right") -> Element:
    """Multiply by a generator on the chosen side; length moves by +/-1."""
    return system.apply(w, i, side)


def length(system: CoxeterSystem, w: Element) -> int:
    return w.length


def right_descents(system: CoxeterSystem, w: Element) -> frozenset:
    return system.right_descent_set(w)


def shortlex_normal_form(system: CoxeterSystem, w: Element) -> Word:
    return system.shortlex(w)


def element_from_word(system: CoxeterSystem, word: Iterable[int]) -> Element:
    return system.assemble(word)


def multiply(system: CoxeterSystem, a: Element, b: Element) -> Element:
    return system.multiply(a, b)


def inverse(system: CoxeterSystem, w: Element) -> Element:
    return system.inverse(w)


def word_string(system: CoxeterSystem, word: Sequence[int]) -> str:
    """Render a word using generator names; the empty word is ``e``."""
    if not word:
        return "e"
    return " ".join(system.generator_name(i) for i in word)


def _bfs(
    system: CoxeterSystem,
    max_len: Optional[int],
    budget: int,
    *,
    side: str = "right",
    gens: Optional[Iterable[int]] = None,
    start=None,
    step=None,
    keep=None,
    live=None,
) -> Iterator[Tuple[int, tuple, Word, object]]:
    """Walk the Cayley graph breadth-first; every enumeration runs on this.

    Yields ``(length, key, word, payload)`` by increasing length, and in
    ShortLex order of ``word`` within a length; ``word`` is the ShortLex
    normal form.  Candidates are generated in lexicographic order of their
    words (frontier outside and generators inside on the right, the other
    way round on the left), so the first candidate to reach a node carries
    its ShortLex word and each layer fills in ShortLex order, whatever the
    encoding of the keys.  A candidate at length k+1 can only equal a node
    of layer k or k-1 (lengths alternate in parity), so two layers of keys
    suffice for deduplication.

    ``gens`` restricts the walk to a standard parabolic subgroup, whose
    word length agrees with ambient length.  ``step(payload, i)`` gives a
    node's payload from its first predecessor (``start`` at the identity)
    and must depend on the node only, not on the path.  ``keep(key)``
    drops candidates; the kept set must be closed under shortening on
    ``side``.  ``live(payload)`` false keeps a node for deduplication but
    neither yields nor expands it; the live set must be closed under
    shortening too.  The budget is checked as each node is stored.
    """
    right = side == "right"
    apply = system._apply_right if right else system._apply_left
    gens = range(system.rank) if gens is None else sorted(set(gens))
    stored, k = 1, 0
    if stored > budget:
        raise ResourceLimit(budget, k, stored)
    cur = {system.identity().data: ((), start)}
    prev: dict = {}
    while cur:
        frontier = []
        for key, (word, payload) in cur.items():
            if live is None or live(payload):
                yield k, key, word, payload
                frontier.append((key, word, payload))
        if max_len is not None and k >= max_len:
            return
        k += 1
        if right:
            candidates = ((node, i) for node in frontier for i in gens)
        else:
            candidates = ((node, i) for i in gens for node in frontier)
        nxt: dict = {}
        for (key, word, payload), i in candidates:
            nd = apply(key, i)
            if nd in prev or nd in cur or nd in nxt:
                continue
            if keep is not None and not keep(nd):
                continue
            stored += 1
            if stored > budget:
                raise ResourceLimit(budget, k, stored)
            cand = word + (i,) if right else (i,) + word
            nxt[nd] = (cand, payload if step is None else step(payload, i))
        prev, cur = cur, nxt


def enumerate_up_to(
    system: CoxeterSystem,
    max_len: Optional[int],
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, int]]:
    """Stream every element of length <= max_len exactly once.

    Elements are emitted in increasing length, in ShortLex order of their
    normal forms within each length; lengths are the BFS layer indices.
    With ``max_len=None`` the whole group is enumerated (the budget guards
    against accidentally unbounded runs on affine systems).  ``workers``
    is accepted for compatibility and ignored: enumeration is
    single-threaded.
    """
    for k, key, _, _ in _bfs(system, max_len, budget):
        yield Element(key, k), k


def enumerate_with_words(
    system: CoxeterSystem,
    max_len: Optional[int],
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, Word]]:
    """Like enumerate_up_to but also yields each element's ShortLex word."""
    for k, key, word, _ in _bfs(system, max_len, budget):
        yield Element(key, k), word


def enumerate_parabolic(
    system: CoxeterSystem,
    J: Iterable[int],
    max_len: Optional[int],
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Tuple[Element, int]]:
    """Stream the standard parabolic subgroup on J up to the cutoff.

    Parabolic lengths agree with ambient lengths, so the layer index is
    the ambient length of each element.
    """
    J = sorted(set(J))
    for j in J:
        system._check_index(j)
    for k, key, _, _ in _bfs(system, max_len, budget, gens=J):
        yield Element(key, k), k


def all_reduced_words(system: CoxeterSystem, w: Element) -> list:
    """All reduced words of w (exponential; intended for short elements)."""
    if system.is_identity(w):
        return [()]
    out = []
    for i in range(system.rank):
        if system._is_right_descent_data(w.data, i):
            for word in all_reduced_words(system, system.apply(w, i, "right")):
                out.append(word + (i,))
    return out


def parabolic_decompose(
    system: CoxeterSystem, w: Element, J: Iterable[int]
) -> Tuple[Element, Element]:
    """Split w = w^J * w_J with w^J coset-minimal and lengths adding.

    w^J has no right descent inside J; w_J lies in the parabolic on J.
    """
    J = sorted(set(J))
    for j in J:
        system._check_index(j)
    v = w
    letters = []
    while True:
        for j in J:
            if system._is_right_descent_data(v.data, j):
                v = system.apply(v, j, "right")
                letters.append(j)
                break
        else:
            break
    w_j = system.assemble(tuple(reversed(letters)))
    return v, w_j


def minimal_coset_reps(
    system: CoxeterSystem,
    J: Iterable[int],
    max_len: Optional[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Element]:
    """Stream the minimal coset representatives W^J of length <= max_len.

    W^J is closed under left weak descents, so a breadth-first search by
    left multiplication starting at the identity reaches all of it; each
    candidate is kept only if it has no right descent in J.
    """
    J = sorted(set(J))
    for j in J:
        system._check_index(j)

    def minimal(key):
        return not any(system._is_right_descent_data(key, j) for j in J)

    for k, key, _, _ in _bfs(system, max_len, budget, side="left", keep=minimal):
        yield Element(key, k)


def bruhat_leq(system: CoxeterSystem, v: Element, w: Element) -> bool:
    """Bruhat order test v <= w.

    Uses the subword characterization: v <= w iff some (equivalently,
    every) reduced word of w contains a reduced word of v as a subword.
    The scan below folds v through any one reduced word of w from the
    right, descending whenever possible; by the lifting property this
    reaches the identity exactly when v <= w.
    """
    if v.length > w.length:
        return False
    u = v
    for i in reversed(system._reduced_word(w.data)):
        if system._is_right_descent_data(u.data, i):
            u = system.apply(u, i, "right")
    return system.is_identity(u)
