"""Independent reference models used as test oracles.

Everything here avoids the library's element kernel: symmetric groups
act on one-line tuples, hyperoctahedral groups on signed tuples, and
lengths come either from inversion counts or from plain breadth-first
word distance in a faithful permutation model.  ``ColumnKernel`` is the
column-matrix kernel the library used before its elements became
Tits-cone weight vectors, kept as the differential oracle for every
Coxeter matrix of rank >= 3.  The series divisions are the library's
earlier algorithms, kept as references for its one-pass recurrences,
and ``shortlex_child`` is the walk's earlier ShortLex-tree test, kept as
the reference for the backends' ``_child``; it uses only the kernel's
left multiplication and left-descent test.  ``bfs_all_generators`` is
the walk's earlier loop, which tries every generator on every node,
kept as the reference for the bucketed ``_bfs`` of a system, over the
same flat nodes.  ``bruhat_leq_by_scan`` is
the earlier Bruhat test that folds v through the whole ShortLex word of
w, kept as the reference for ``bruhat_leq``, and ``covers_by_deletion``
reads the Bruhat covers off one-letter deletions of ShortLex words
without any pairwise comparison.  ``is_right_descent_data`` is the
right-descent test through the inverse, which the library no longer
needs: its walks read left descents only.  The element operations that
only tests call, ``right_descents``, ``is_identity``,
``all_reduced_words``, ``parabolic_decompose``, ``unfold_word``,
``unfold`` and ``unfolded_image``, and the series operations
``q_pochhammer``, ``specialize_a``, ``zero_series`` and
``statseries_from_json``, with ``generator_index`` and the family's
``source_label``, live here, built on the library's kernel and walks.
``admissibility_violations`` and ``reference_factorization`` are the
two structural checks of a folding that ``length_additivity_check``
stands in for, written from their definitions: right descents of
unfolded elements, and three separate walks whose elements are each
re-unfolded by their word; the parabolic and coset-minima streams they
read, ``enumerate_parabolic`` and ``minimal_coset_reps``, filter the
whole walk of the group by the ShortLex word and by right descents, in
its order.  ``bfs_unfolding`` is the unfolding walk of a folding on
``bfs_all_generators``, each stored element re-unfolded from its word,
and ``unfolding_series_reference`` its series, over the whole source or
its coset minima.
``recording_loops`` is a probe, not a model: it stands in for
``coxeter._loops`` and records each call of a walk's bucket loop.
"""

import itertools
from collections import Counter
from typing import NamedTuple

from coxfold.coxeter import (
    DEFAULT_BUDGET,
    _loops,
    _subset,
    apply_generator,
    element_from_word,
    enumerate_up_to,
    enumerate_with_words,
    inverse,
    shortlex_normal_form,
)
from coxfold.errors import (
    IndexOutOfRange,
    InvalidBase,
    NegativeDegree,
    NonUnitDivisor,
    ResourceLimit,
)
from coxfold.folding import _source_records
from coxfold.qseries import Monomial, QSeries, StatSeries


def inversions(perm):
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def symmetric_histogram(n_letters):
    """Length histogram of all permutations of n_letters symbols."""
    return Counter(inversions(p) for p in itertools.permutations(range(n_letters)))


def bfs_histogram(start, gens):
    """Word-length histogram of the group generated by ``gens``.

    Lengths are breadth-first distances from the identity, which equals
    Coxeter length whenever the generator images are the standard ones.
    """
    return Counter(bfs_distances(start, gens).values())


def bfs_distances(start, gens):
    """Breadth-first distance from ``start`` of every point in its orbit."""
    seen = {start: 0}
    frontier = [start]
    dist = 0
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g(p)
                if q not in seen:
                    seen[q] = dist + 1
                    nxt.append(q)
        frontier = nxt
        dist += 1
    return seen


def type_b_generators(n):
    """Adjacent swaps plus the last-coordinate sign flip."""
    gens = []
    for i in range(n - 1):
        def swap(p, i=i):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            return tuple(q)
        gens.append(swap)

    def flip(p):
        return tuple(list(p[:-1]) + [-p[-1]])

    gens.append(flip)
    return gens


def type_d_generators(n):
    """Adjacent swaps plus the sign-flipping swap of the last two slots."""
    gens = []
    for i in range(n - 1):
        def swap(p, i=i):
            q = list(p)
            q[i], q[i + 1] = q[i + 1], q[i]
            return tuple(q)
        gens.append(swap)

    def negswap(p):
        q = list(p)
        q[-2], q[-1] = -q[-1], -q[-2]
        return tuple(q)

    gens.append(negswap)
    return gens


def type_b_histogram(n):
    return bfs_histogram(tuple(range(1, n + 1)), type_b_generators(n))


def type_d_histogram(n):
    return bfs_histogram(tuple(range(1, n + 1)), type_d_generators(n))


def dihedral_histogram(m):
    """1, 2, 2, ..., 2, 1 over lengths 0..m."""
    hist = Counter({0: 1, m: 1})
    for k in range(1, m):
        hist[k] = 2
    return hist


def dihedral_normal_form(m, word):
    """The ShortLex word of ``word`` in I2(m), m = 0 for infinity, without a backend.

    Cancelling equal neighbours leaves an alternating word.  Both
    alternating words of length 2m are e, so its length k counts mod 2m;
    past m it equals the alternating word of length 2m - k that starts
    with the other letter.  The longest element's ShortLex word starts
    with 0.
    """
    reduced = []
    for i in word:
        if reduced and reduced[-1] == i:
            reduced.pop()
        else:
            reduced.append(i)
    if not reduced:
        return ()
    first, k = reduced[0], len(reduced)
    if m:
        k %= 2 * m
        if k > m:
            first, k = 1 - first, 2 * m - k
        if k == m:
            first = 0
    return tuple((first + t) % 2 for t in range(k))


def bruhat_dominance_leq(u, v):
    """Bruhat order on one-line permutations via rank-matrix dominance."""
    n = len(u)
    for i in range(n):
        for j in range(n):
            cu = sum(1 for a in range(i + 1) if u[a] >= j)
            cv = sum(1 for a in range(i + 1) if v[a] >= j)
            if cu > cv:
                return False
    return True


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_qint(k, sign=1, exp=1):
    """Coefficient list of 1 + s*q^e + (s*q^e)^2 + ... + (s*q^e)^(k-1)."""
    out = [0] * ((k - 1) * exp + 1)
    for i in range(k):
        out[i * exp] += sign**i
    return out


def poly_divide_dense(a, d, order):
    """Coefficients 0..order of a/d for d[0] in {1, -1}, touching every term of d.

    The quadratic long division the library used before it skipped the
    zero terms of the denominator.
    """
    a = list(a) + [0] * (order + 1 - len(a))
    d = list(d) + [0] * (order + 1 - len(d))
    quotient = [0] * (order + 1)
    for k in range(order + 1):
        acc = a[k]
        for i in range(k):
            acc -= quotient[i] * d[k - i]
        quotient[k] = acc * d[0]
    return quotient


def geometric_divide_by_powers(series, term):
    """series / (1 - term) as the sum of series * term^p, one full product per power.

    The repeated multiplication ``StatSeries.geometric_divide`` used
    before it filled the quotient one q-degree at a time.
    """
    if series.q_order is None:
        raise ValueError("geometric division needs a q-truncation")
    if term.q_exp < 1:
        raise NonUnitDivisor("geometric factor must have positive q-degree")
    factor = StatSeries.from_monomial(term, series.q_order)
    acc = StatSeries(dict(series.coeffs), series.q_order)
    total = StatSeries({}, series.q_order)
    for _ in range(series.q_order // term.q_exp + 1):
        total = total + acc
        acc = acc * factor
        if not acc.coeffs:
            break
    return total


def q_pochhammer(x, step, n, order=None):
    """(x; step)_n = product of (1 - step^k * x) for 0 <= k < n."""
    if n < 0:
        raise InvalidBase("Pochhammer count must be >= 0")
    if x.coeff != 0 and x.q_exp < 0:
        raise InvalidBase("Pochhammer argument must have non-negative q-degree")
    out = QSeries.one(order)
    for k in range(n):
        term = Monomial(step.coeff**k * x.coeff, step.q_exp * k + x.q_exp)
        out = out * (QSeries.one(order) - QSeries.monomial(term, order))
    return out


def specialize_a(series, value):
    """Substitute the a-variable of a StatSeries by a signed power of q (or by zero)."""
    out = {}
    for (i, j, k), c in series.coeffs.items():
        if value.coeff == 0:
            if i > 0:
                continue
            key, sign = (0, j, k), 1
        else:
            deg = k + i * value.q_exp
            if deg < 0:
                raise NegativeDegree(f"term a^{i} q^{k} under a -> q^{value.q_exp}")
            if series.q_order is not None and deg > series.q_order:
                continue
            key, sign = (0, j, deg), value.coeff**i
        out[key] = out.get(key, 0) + sign * c
    return StatSeries(out, series.q_order)


def zero_series(order=None):
    return QSeries([0], order)


def statseries_from_json(data):
    order = data["q_order"]
    coeffs = {(i, j, k): c for i, j, k, c in data["coeffs"]}
    return StatSeries(coeffs, None if order == "exact" else int(order))


def generator_index(system, name):
    """The 0-based index of a display name like ``"s3"``."""
    if not name.startswith("s") or not name[1:].isdecimal():
        raise IndexOutOfRange(f"bad generator name {name!r}")
    i = int(name[1:]) - system.index_base
    system._check_index(i)
    return i


def source_label(family):
    return family._build()[0]


def is_right_descent_data(system, data, i):
    """Whether l(w s_i) < l(w): a right descent of w is a left descent of w^-1."""
    return system._is_left_descent_data(system._inverse_data(data), i)


def right_descents(system, w):
    inv = system._inverse_data(w.data)
    return frozenset(i for i in range(system.rank) if system._is_left_descent_data(inv, i))


def is_identity(system, w):
    return w.data == system.identity().data


def all_reduced_words(system, w):
    """All reduced words of w in lexicographic order (exponential; for short elements)."""
    if is_identity(system, w):
        return [()]
    out = []
    for i in range(system.rank):
        if system._is_left_descent_data(w.data, i):
            for word in all_reduced_words(system, apply_generator(system, w, i, "left")):
                out.append((i,) + word)
    return out


def parabolic_decompose(system, w, J):
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


def unfold_word(f, word):
    """Concatenate the unfold blocks of a source word."""
    out = []
    for r in word:
        if not 0 <= r < f.source.rank:
            raise IndexOutOfRange(f"source letter {r} out of range")
        out.extend(f.unfold_letters[r])
    return tuple(out)


def unfold(f, w):
    """The ambient element of a source element, with honest length."""
    return element_from_word(f.target, unfold_word(f, shortlex_normal_form(f.source, w)))


def unfolded_image(f, *, budget=DEFAULT_BUDGET):
    """Map ambient canonical key -> source word over the whole finite source."""
    return {data: word for _, word, (data, _) in _source_records(f, budget=budget)}


def shortlex_child(system, data, i):
    """The data of s_i w if it is a child of w in the ShortLex tree, else None.

    Skip i if it is a left descent of w, apply it, then reject the child
    if any j < i is a left descent of it.
    """
    if system._is_left_descent_data(data, i):
        return None
    child = system._apply_left(data, i)
    if any(system._is_left_descent_data(child, j) for j in range(i)):
        return None
    return child


def recording_loops(calls):
    """A stand-in for ``coxfold.coxeter._loops`` that records each call of its loop.

    A call appends (layer, letter, tested, nodes handed in, children made)
    to ``calls``, the layer being the one its children are made for: one
    past the length of the source element of the first node handed in.
    """

    def loops(source, *args):
        loop = _loops(source, *args)

        def call(i, tested, nodes):
            children = loop(i, tested, nodes)
            layer = len(source._reduced_word(nodes[0][:source.rank])) + 1
            calls.append((layer, i, tested, len(nodes), len(children)))
            return children

        return call

    return loops


def bfs_all_generators(system, max_len, budget, *, keep=None, tag=None):
    """The ShortLex-tree walk of ``coxeter._bfs`` of a system, trying ``_child`` for
    every (i, node).

    Same arguments, filter calls and budget as the library walk, and the
    same flat nodes: the data, then with ``tag = (start, prefixes)`` a tag,
    ``prefixes[i]`` + that of w at s_i w.  It yields one (length, node) at
    a time, and each layer is one list in ShortLex order.
    """
    r, stored, k = system.rank, 1, 0
    layer = [system.identity().data + (() if tag is None else (tag[0],))]
    while layer:
        yield from ((k, node) for node in layer)
        if max_len is not None and k >= max_len:
            return
        k += 1
        children = []
        for i in range(r):
            for node in layer:
                child = system._child(node[:r], i)
                if child is None or keep is not None and not keep(child):
                    continue
                stored += 1
                if stored > budget:
                    raise ResourceLimit(budget, k, stored)
                children.append(child + (() if tag is None else (tag[1][i] + node[r],)))
        layer = children


def bfs_unfolding(f, cutoff, budget, *, keep=None):
    """The unfolding walk of ``coxeter._bfs`` of a folding, on ``bfs_all_generators``.

    One (length, source data, ambient length) at a time, in the library
    walk's order.  A child is stored when its image, re-unfolded from its
    ShortLex word, is within the ambient ``cutoff`` and, tested after
    that, its data passes ``keep``; same filter calls and budget as the
    library walk.
    """
    lengths = {f.source.identity().data: 0}

    def within(data):
        word = unfold_word(f, f.source._reduced_word(data))
        lengths[data] = length = element_from_word(f.target, word).length
        return (cutoff is None or length <= cutoff) and (keep is None or keep(data))

    for k, data in bfs_all_generators(f.source, None, budget, keep=within):
        yield k, data, lengths[data]


def unfolding_series_reference(f, cutoff, budget=DEFAULT_BUDGET, J=None):
    """The length series of ``bfs_unfolding`` to ``cutoff``: of the whole source,
    or with ``J`` of the coset minima W^J, each tested for right descents in J."""

    def minimal(data):
        return not any(is_right_descent_data(f.source, data, j) for j in J)

    nodes = bfs_unfolding(f, cutoff, budget, keep=None if J is None else minimal)
    return QSeries.from_lengths([length for *_, length in nodes], cutoff)


def bruhat_leq_by_scan(system, v, w):
    """v <= w, by folding v through the whole ShortLex word of w.

    Going down the word of w from the left, v steps down at every letter
    that is a left descent of it; by the lifting property it reaches the
    identity exactly when v <= w.
    """
    if v.length > w.length:
        return False
    u = v.data
    for i in shortlex_normal_form(system, w):
        if system._is_left_descent_data(u, i):
            u = system._apply_left(u, i)
    return u == system.identity().data


def covers_by_deletion(system, max_len=None):
    """The Bruhat covers (v, w) of lengths <= max_len, as ShortLex word pairs.

    By the subword property, the covers of w are the elements of length
    l(w) - 1 that one-letter deletions of its ShortLex word spell.  Pairs
    come by layer, then by v's ShortLex position, then by w's.
    """
    layers = {}
    for el, word in enumerate_with_words(system, max_len):
        layers.setdefault(el.length, []).append((el.data, word))
    found = []
    for k in sorted(layers):
        if k + 1 not in layers:
            continue
        position = {data: p for p, (data, _) in enumerate(layers[k])}
        for q, (_, word) in enumerate(layers[k + 1]):
            below = {element_from_word(system, word[:j] + word[j + 1:]) for j in range(len(word))}
            found.extend((k, position[v.data], q) for v in below if v.length == k)
    found.sort()
    return [(layers[k][p][1], layers[k + 1][q][1]) for k, p, q in found]


# bond order (0 = infinity) -> Cartan integers (a_ij, a_ji) for i < j
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-2, -1), 6: (-3, -1), 0: (-2, -2)}


class ColumnKernel:
    """Elements as integer matrices on the simple roots, stored by columns.

    s_i sends alpha_j to alpha_j - a_ij alpha_i; column i of w is the
    coordinate vector of w(alpha_i), and s_i is a right descent of w
    exactly when that column is non-positive.  Everything acts on the
    right, lengths are counted by descents, and products are matrix
    products.
    """

    def __init__(self, entries):
        self.rank = n = len(entries)
        # row[i] lists (j, -a_ij) for the neighbours j of i
        self.row = [
            [(j, -_CARTAN[m][i > j]) for j, m in enumerate(r) if j != i and m != 2]
            for i, r in enumerate(entries)
        ]
        self.identity = tuple(tuple(int(a == b) for a in range(n)) for b in range(n))

    def apply_right(self, cols, i):
        # w s_i sends alpha_j to w(alpha_j) - a_ij w(alpha_i)
        cols = list(cols)
        col_i = cols[i]
        for j, c in self.row[i]:
            cols[j] = tuple(x + c * y for x, y in zip(cols[j], col_i))
        cols[i] = tuple(-y for y in col_i)
        return tuple(cols)

    def is_right_descent(self, cols, i):
        return max(cols[i]) <= 0

    def generator(self, i):
        return self.apply_right(self.identity, i)

    def assemble(self, word):
        """(columns, length) of the product of ``word``."""
        cols, length = self.identity, 0
        for i in word:
            length += -1 if self.is_right_descent(cols, i) else 1
            cols = self.apply_right(cols, i)
        return cols, length

    def multiply(self, a, b):
        # column j of ab is a applied to column j of b
        return tuple(
            tuple(sum(c * a[k][r] for k, c in enumerate(col)) for r in range(self.rank))
            for col in b
        )

    def reduced_word(self, cols):
        word = []
        while cols != self.identity:
            i = next(i for i in range(self.rank) if self.is_right_descent(cols, i))
            cols = self.apply_right(cols, i)
            word.append(i)
        return tuple(reversed(word))

    def inverse(self, cols):
        return self.assemble(reversed(self.reduced_word(cols)))[0]

    def shortlex(self, cols):
        # the least left descent of w is the least right descent of w^-1
        return tuple(reversed(self.reduced_word(self.inverse(cols))))

    def bruhat_interval(self, cols):
        """[e, w]: the products of all subwords of one reduced word of w."""
        word = self.reduced_word(cols)
        out = set()
        for mask in itertools.product((False, True), repeat=len(word)):
            out.add(self.assemble(i for i, on in zip(word, mask) if on)[0])
        return out

    def shortlex_layers(self, max_len):
        """(length, ShortLex word, columns) of every element up to max_len.

        Layer by layer through right ascents, keeping for each element the
        least word over its predecessors, then sorting the layer.
        """
        layer = {self.identity: ()}
        out = [(0, (), self.identity)]
        for k in range(1, max_len + 1):
            nxt = {}
            for cols, word in layer.items():
                for i in range(self.rank):
                    if not self.is_right_descent(cols, i):
                        child = self.apply_right(cols, i)
                        cand = word + (i,)
                        if child not in nxt or cand < nxt[child]:
                            nxt[child] = cand
            out += sorted((k, word, cols) for cols, word in nxt.items())
            layer = nxt
        return out


def enumerate_parabolic(system, J, max_len, *, budget=DEFAULT_BUDGET):
    """Stream the standard parabolic subgroup on J up to the cutoff: the
    elements whose ShortLex word has letters in J only, in walk order.

    Layers are ambient lengths, equal to parabolic ones.
    """
    J = set(_subset(system, J))
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        if J.issuperset(word):
            yield el, el.length


def minimal_coset_reps(system, J, max_len, *, budget=DEFAULT_BUDGET):
    """Stream the minimal coset representatives W^J of length <= max_len, in walk order."""
    J = _subset(system, J)
    for el, _ in enumerate_up_to(system, max_len, budget=budget):
        if not any(is_right_descent_data(system, el.data, j) for j in J):
            yield el


def admissibility_violations(f, max_source_len):
    """The ShortLex words, up to the cutoff, of the source elements whose
    unfolding has some but not all letters of a block as right descents."""
    out = []
    for el, word in enumerate_with_words(f.source, max_source_len):
        descents = right_descents(f.target, unfold(f, el))
        if any(0 < len(descents & set(block)) < len(block) for block in f.blocks):
            out.append(word)
    return out


class Factorization(NamedTuple):
    """The three parabolic-factorization checks at one J_hat, and the series they read."""

    parabolic_in_parabolic: bool
    minima_in_minima: bool
    series_match: bool
    full_series: QSeries
    coset_series: QSeries
    parabolic_series: QSeries

    @property
    def passed(self):
        return self.parabolic_in_parabolic and self.minima_in_minima and self.series_match


def reference_factorization(f, J_hat, L):
    """Whether the source parabolic on J_hat unfolds into the target parabolic
    on J, the union of its blocks, the source coset minima into the target
    ones, and the full series is the coset-minima series times the parabolic
    one, up to ambient length L: three walks, each element re-unfolded."""
    J = {s for r in J_hat for s in f.blocks[r]}

    def images(elements):
        return [t for t in (unfold(f, w) for w in elements) if L is None or t.length <= L]

    full = images(el for el, _ in enumerate_up_to(f.source, L))
    par = images(el for el, _ in enumerate_parabolic(f.source, J_hat, L))
    cos = images(minimal_coset_reps(f.source, J_hat, L))
    full_s, par_s, cos_s = (
        QSeries.from_lengths((t.length for t in ts), L) for ts in (full, par, cos)
    )
    par_ok = all(set(shortlex_normal_form(f.target, t)) <= J for t in par)
    min_ok = not any(right_descents(f.target, t) & J for t in cos)
    return Factorization(par_ok, min_ok, full_s == cos_s * par_s, full_s, cos_s, par_s)
