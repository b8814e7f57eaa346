"""Straight-line walk kernels, generated from the Cartan integers of weight systems.

Each kernel is Python source that holds nothing but variable names and
the integers of the systems' ``_row`` and ``_below`` tables, so results
stay exact and equal: the primitives' integer arithmetic, only
unrolled.  A walk of a weight ``CoxeterSystem`` compiles once it has
stored ``coxeter._COMPILE_AFTER`` nodes per generator: ``kernels`` gives
s_i and the child test of each generator, which ``coxeter._bfs`` swaps
into the system's walk tables, and ``bucket_loops`` the loops over flat
nodes into which the unfolding walks of a folding fuse (``folding._fuse``).
``_KERNELS`` caches each compiled set for every system built on the
same matrices.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .errors import ResourceLimit

# matrix entries -> (apply table, child table); a ``bucket_loops`` key -> their maker
_KERNELS: dict = {}


def _plus(j: int, c: int, i: int, v: str = "x") -> str:
    """The source of v_j - a_ij v_i, with c = -a_ij."""
    return f"{v}{j}" if c == 0 else f"{v}{j} + {v}{i}" if c == 1 else f"{v}{j} + {c} * {v}{i}"


def _image(system, i: int, v: str = "x") -> list:
    """The source of each entry of s_i w from the names v0, ..., v{r-1} of w."""
    image = [f"{v}{j}" for j in range(system.rank)]
    image[i] = f"-{v}{i}"
    for j, c in system._row[i]:
        image[j] = _plus(j, c, i, v)
    return image


def _child_test(system, i: int) -> str:
    """The source of the condition under which s_i w is not a ShortLex-tree child of w."""
    signs = [f"x{i}"] + [_plus(j, c, i) for j, c in system._below[i]]
    return " or ".join(f"{t} < 0" for t in signs)


def _compiled(source: str, names: Iterable[str]) -> tuple:
    namespace = {"__builtins__": {}, "ResourceLimit": ResourceLimit}
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
        for i in range(system.rank):
            display = "    return (" + ", ".join(_image(system, i)) + ",)"
            lines += [f"def a{i}(x, _):", unpack, display]
            lines += [f"def c{i}(x, _):", unpack, f"    if {_child_test(system, i)}:"]
            lines += ["        return None", display]
        names = [f"{kind}{i}" for kind in "ac" for i in range(system.rank)]
        compiled = _compiled("\n".join(lines), names)
        _KERNELS[entries] = (compiled[:system.rank], compiled[system.rank:])
    return _KERNELS[entries]


def bucket_loops(source, target, words, cutoff, keep, budget, prefixes=None):
    """The (untested, tested) bucket loops of each source letter, for one unfolding walk.

    Loop i is called as (nodes, out, stored, k): for each flat node w of
    ``nodes`` whose s_i w is a child (always, in the untested loop), it
    applies ``words[i]`` to the target part like ``target._left_word``,
    drops the child if its length is past ``cutoff`` or ``keep(source
    data, (target data, length))`` is false, counts it, raises
    ``ResourceLimit(budget, k, stored)`` past the budget, appends it to
    ``out`` and returns the stored count.  With ``prefixes``, a node has
    one more entry before its length, a tag t, and loop i makes the
    child's tag ``prefixes[i] + t`` (ints or tuples).
    A letter that no bucket tests (none of ``source._above``) has no
    tested loop.  One compile per matrices, words, prefixes and whether
    there is a cutoff and a ``keep``; each walk binds its own values.

    >>> from coxfold.coxeter import build_system
    >>> A3 = build_system("A3")
    >>> untested, tested = bucket_loops(A3, A3, ((0,), (1,), (2,)), None, None, 10)[1]
    >>> out = []
    >>> untested([(1, 1, 1, 1, 1, 1, 0)], out, 1, 1), out
    (2, [(2, -1, 2, 2, -1, 2, 1)])
    >>> tested(out, [], 2, 2), bucket_loops(A3, A3, ((0,), (1,), (2,)), None, None, 10)[0][1]
    (2, None)
    """
    key = (source.matrix.entries, target.matrix.entries, words, prefixes)
    key += (cutoff is None, keep is None)
    if key not in _KERNELS:
        r, R, tested = source.rank, target.rank, set().union(*source._above)
        node = [f"x{j}" for j in range(r)] + [f"y{j}" for j in range(R)]
        node += ["v"] * (prefixes is not None)
        head = ["        append = out.append", f"        for {', '.join(node)}, l in nodes:"]
        lines, names = ["def loops(cutoff, keep, budget):"], []
        for i, word in enumerate(words):
            body, display = [], node[r:r + R]
            for t, s in enumerate(word):
                body.append(f"if y{s} < 0: l -= 2")
                if t == len(word) - 1:
                    display = _image(target, s, "y")
                else:
                    body += [f"y{j} = {_plus(j, c, s, 'y')}" for j, c in target._row[s]]
                    body.append(f"y{s} = -y{s}")
            body.append(f"l += {len(word)}")
            if prefixes is not None:
                body.append(f"v = {prefixes[i]!r} + v")
            if cutoff is not None:
                body.append("if l > cutoff: continue")
            child = "(" + ", ".join(_image(source, i) + display + node[r + R:]) + ", l)"
            if keep is not None:
                body.append(f"child = {child}")
                body.append(f"if not keep(child[:{r}], (child[{r}:{r + R}], l)): continue")
                child = "child"
            body += ["stored += 1", "if stored > budget: raise ResourceLimit(budget, k, stored)"]
            body.append(f"append({child})")
            kinds = [("u", []), ("t", [f"if {_child_test(source, i)}: continue"])]
            for kind, test in kinds[:1 + (i in tested)]:
                lines += [f"    def {kind}{i}(nodes, out, stored, k):"] + head
                lines += [" " * 12 + line for line in test + body] + ["        return stored"]
            names.append(f"(u{i}, {f't{i}' if i in tested else None})")
        lines.append(f"    return [{', '.join(names)}]")
        (_KERNELS[key],) = _compiled("\n".join(lines), ["loops"])
    return _KERNELS[key](cutoff, keep, budget)
