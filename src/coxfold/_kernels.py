"""Straight-line walk kernels, generated from a weight system's Cartan integers.

A walk of a weight ``CoxeterSystem`` swaps these into the system's walk
tables once it has stored enough nodes (``coxeter._COMPILE_AFTER``),
and the block steps of their target into its step tables.  Each
kernel is Python source that holds nothing but variable names and the
integers of the system's ``_row`` and ``_below`` tables; it unpacks the
weight vector x0, ..., x{r-1} once and returns one display.  Results stay
exact and equal: a kernel does its primitive's integer additions and
multiplications by the same Cartan integers on Python ints, only
unrolled.  ``kernels`` compiles the s_i and child-test kernels of every
generator once per Coxeter matrix, and ``word_kernel`` the block step of
one word once per matrix and word; ``_KERNELS`` caches both for every
system built on the same matrix.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

# matrix entries -> (apply table, child table), and (matrix entries, word)
# -> the word's block-step kernel; each compiled once
_KERNELS: dict = {}


def _plus(j: int, c: int, i: int) -> str:
    """The source of x_j - a_ij x_i, with c = -a_ij."""
    return f"x{j}" if c == 0 else f"x{j} + x{i}" if c == 1 else f"x{j} + {c} * x{i}"


def _image(system, i: int) -> list:
    """The source of each entry of s_i w from the names x0, ..., x{r-1} of w."""
    image = [f"x{j}" for j in range(system.rank)]
    image[i] = f"-x{i}"
    for j, c in system._row[i]:
        image[j] = _plus(j, c, i)
    return image


def _compiled(source: str, names: Iterable[str]) -> tuple:
    namespace = {"__builtins__": {}}
    exec(compile(source, "<coxfold kernels>", "exec"), namespace)
    return tuple(namespace[name] for name in names)


def kernels(system) -> Tuple[tuple, tuple]:
    """Straight-line forms of ``_apply_left`` and ``_child`` for each generator.

    Each function takes (data, i) like the primitive it replaces and
    returns one tuple display, or None where the child test fails.  One
    compile per Coxeter matrix.

    >>> from coxfold.coxeter import build_system
    >>> applies, children = kernels(build_system("A3"))
    >>> s1 = applies[0]((1, 1, 1), 0)
    >>> s1, children[1](s1, 1), children[0](s1, 0)
    ((-1, 2, 1), (1, -2, 3), None)
    """
    entries = system.matrix.entries
    if entries not in _KERNELS:
        unpack = "    " + ", ".join(f"x{j}" for j in range(system.rank)) + ", = x"
        lines = []
        for i, below in enumerate(system._below):
            display = "    return (" + ", ".join(_image(system, i)) + ",)"
            signs = [f"x{i}"] + [_plus(j, c, i) for j, c in below]
            tests = " or ".join(f"{t} < 0" for t in signs)
            lines += [f"def a{i}(x, _):", unpack, display]
            lines += [f"def c{i}(x, _):", unpack, f"    if {tests}:", "        return None"]
            lines.append(display)
        names = [f"{kind}{i}" for kind in "ac" for i in range(system.rank)]
        compiled = _compiled("\n".join(lines), names)
        _KERNELS[entries] = (compiled[:system.rank], compiled[system.rank:])
    return _KERNELS[entries]


def word_kernel(system, letters: Tuple[int, ...]) -> Callable:
    """The straight-line form of a ``_step_table`` entry: ``_left_word`` for one word.

    It takes ((x0, ..., x{r-1}), length) and an ignored letter, unpacks
    once, applies the letters in order with each one's sign test inline
    (a left descent lowers the length, so it takes 2 off the count of
    letters added at the end) and returns one pair display.  One compile
    per Coxeter matrix and word.

    >>> from coxfold.coxeter import build_system
    >>> W = build_system("A3")
    >>> word_kernel(W, (2, 0))(((1, 1, 1), 0), 0), W._left_word((2, 0), ((1, 1, 1), 0))
    (((-1, 3, -1), 2), ((-1, 3, -1), 2))
    """
    key = (system.matrix.entries, letters)
    if key not in _KERNELS:
        display = [f"x{j}" for j in range(system.rank)]
        lines = ["def k(p, _):", "    (" + ", ".join(display) + ",), l = p"]
        for t, i in enumerate(letters):
            lines.append(f"    if x{i} < 0: l -= 2")
            if t == len(letters) - 1:
                display = _image(system, i)
            else:
                lines += [f"    x{j} = {_plus(j, c, i)}" for j, c in system._row[i]]
                lines.append(f"    x{i} = -x{i}")
        lines.append("    return (" + ", ".join(display) + f",), l + {len(letters)}")
        (_KERNELS[key],) = _compiled("\n".join(lines), ["k"])
    return _KERNELS[key]
