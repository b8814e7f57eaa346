"""Independent reference models used as test oracles.

Everything here avoids the library's reflection-matrix machinery:
symmetric groups act on one-line tuples, hyperoctahedral groups on
signed tuples, and lengths come either from inversion counts or from
plain breadth-first word distance in a faithful permutation model.
"""

import itertools
from collections import Counter


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
