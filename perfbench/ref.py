"""The reference loop that measures how fast the host runs Python just now.

Usage: python3 perfbench/ref.py

It imports nothing from coxfold, so no change to the program moves it.
Its work is the kind coxfold's element kernel does: a breadth-first
search over the permutation matrices of S_7, stored as tuples of column
tuples, with a dict of seen elements and small-integer arithmetic
through method calls.  It prints the wall time of six searches in
seconds.  run.py runs it between samples and divides each sample's wall
time by it, which cancels most of the host's speed changes (see
README.md, "Noise").
"""

import time

SEARCHES = 6
RANK = 7


class Arithmetic:
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def sign(self, a):
        return (a > 0) - (a < 0)


def search(n: int) -> int:
    """Breadth-first search from the identity over adjacent column swaps."""
    ar = Arithmetic()
    start = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    seen = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        following = []
        for cols in frontier:
            for i in range(n - 1):
                new = cols[:i] + (cols[i + 1], cols[i]) + cols[i + 2 :]
                if new in seen:
                    continue
                weight = [ar.add(x, ar.mul(2, y)) for x, y in zip(new[0], new[-1])]
                if ar.sign(sum(weight)) >= 0:
                    seen[new] = depth
                    following.append(new)
        frontier = following
    return len(seen)


if __name__ == "__main__":
    t0 = time.perf_counter()
    for _ in range(SEARCHES):
        found = search(RANK)
    elapsed = time.perf_counter() - t0
    assert found == 5040, found
    print(elapsed)
