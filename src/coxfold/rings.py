"""Exact coefficient rings for the reflection representation.

Two rings cover every supported bond order at rank >= 3:

* ``INT`` -- the rational integers, used when all bonds are simply laced
  (order 2 or 3) or infinite.
* ``SQRT2`` -- integers adjoined sqrt(2), stored as pairs ``(a, b)``
  meaning ``a + b*sqrt(2)``, used when some bond has order 4.

Bond order 6 would need sqrt(3) and is rejected at rank >= 3; rank-2
groups never build matrices at all.

>>> SQRT2.mul((1, 1), (1, -1))
(-1, 0)
>>> SQRT2.sign((-3, 2))
-1
"""

from __future__ import annotations

__all__ = ["IntRing", "Sqrt2Ring", "INT", "SQRT2"]


class IntRing:
    """Plain integer arithmetic."""

    tag = "Z"
    zero = 0
    one = 1
    two = 2

    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def neg(x):
        return -x

    @staticmethod
    def scale(c, x):
        return c * x

    @staticmethod
    def sign(x):
        if x > 0:
            return 1
        if x < 0:
            return -1
        return 0

    @staticmethod
    def fmt(x):
        return str(x)


class Sqrt2Ring:
    """Arithmetic in Z[sqrt(2)], elements stored as (a, b) = a + b*sqrt(2)."""

    tag = "Z[sqrt2]"
    zero = (0, 0)
    one = (1, 0)
    two = (2, 0)
    sqrt2 = (0, 1)

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def mul(x, y):
        a, b = x
        c, d = y
        return (a * c + 2 * b * d, a * d + b * c)

    @staticmethod
    def neg(x):
        return (-x[0], -x[1])

    @staticmethod
    def scale(c, x):
        return (c * x[0], c * x[1])

    @staticmethod
    def sign(x):
        # sqrt(2) is irrational, so a + b*sqrt(2) = 0 only for a = b = 0
        # and a^2 - 2b^2 is never 0 otherwise.
        a, b = x
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        if a > 0:  # b < 0: compare a with -b*sqrt(2)
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    @staticmethod
    def fmt(x):
        a, b = x
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}r2"
        return f"{a}+{b}r2" if b > 0 else f"{a}{b}r2"


INT = IntRing()
SQRT2 = Sqrt2Ring()
