"""Compiled walk loops, generated from the Cartan integers of weight systems.

Each loop is Python source that holds nothing but variable names and
integer linear forms in them, built from the systems' ``_row`` and
``_below`` tables, so results stay exact and equal: the primitives'
integer arithmetic, only unrolled.  ``bucket_loops`` keeps the contract
of ``coxeter._loops``, which runs the same loops on the primitives, over
the same flat nodes.  A ``coxeter._bfs`` walk whose systems both have
the weight backend swaps it in once it has stored more than
``coxeter._COMPILE_AFTER`` nodes, plain walks and the unfolding walks of
a folding alike; from then on each bucket's children come from one list
comprehension, and the walk keeps the count and the budget.
``_KERNELS`` caches each compiled set for every walk on the same
matrices.
"""

from __future__ import annotations

from typing import Iterable, Tuple

# a ``bucket_loops`` key -> the maker of its loops
_KERNELS: dict = {}


def _linear(row: list, v: str) -> str:
    """The source of the integer linear form sum of row[j] * v{j}."""
    terms = " ".join(
        f"{'-' if c < 0 else '+'} {'' if c in (1, -1) else f'{abs(c)} * '}{v}{j}"
        for j, c in enumerate(row) if c
    )
    return terms[2:] if terms[0] == "+" else "-" + terms[2:]


def _image(system, word, v: str = "x") -> Tuple[list, list]:
    """The sources of the sign tested at each letter of ``word`` and of each entry
    of the image, the letters acting on the left in order, from v0, v1, ....

    s_s sends v_j to v_j - a_sj v_s, so each is an integer linear form in
    the names, and every value is the integer that the primitives reach
    letter by letter (``_left_word``).
    """
    rows = [[int(t == j) for t in range(system.rank)] for j in range(system.rank)]
    signs = []
    for s in word:
        signs.append(rows[s])
        image = list(rows)
        image[s] = [-a for a in rows[s]]
        for j, c in system._row[s]:
            image[j] = [a + c * b for a, b in zip(rows[j], rows[s])]
        rows = image
    return [_linear(row, v) for row in signs], [_linear(row, v) for row in rows]


def _child_test(system, i: int) -> str:
    """The source of the condition under which s_i w is not a ShortLex-tree child of w."""
    image = _image(system, (i,))[1]
    return " or ".join(f"{t} < 0" for t in [f"x{i}"] + [image[j] for j, _ in system._below[i]])


def _compiled(source: str, names: Iterable[str]) -> tuple:
    namespace = {"__builtins__": {}}
    exec(compile(source, "<coxfold kernels>", "exec"), namespace)
    return tuple(namespace[name] for name in names)


def bucket_loops(source, target, words, cutoff, keep, prefixes=None):
    """The (untested, tested) bucket loops of each letter, for one walk of ``source``.

    Loop i is one list comprehension, ``nodes -> children``, with the
    contract of ``coxeter._loops``: for each flat node w of ``nodes`` whose
    s_i w is a child (always, in the untested loop), it makes s_i w.  A
    plain walk (``target`` None) has the source data as its node.  An
    unfolding walk adds the target data and the length: it applies
    ``words[i]`` to the target part like ``target._left_word``, one sign
    test per letter, and drops the child if its length is past
    ``cutoff``.  A child whose source data fails ``keep`` is dropped.  With
    ``prefixes``, a node has a tag t after all its data, and loop i makes the
    child's tag ``prefixes[i] + t`` (ints or tuples).  It counts nothing:
    the walk checks its budget on the children, and hands a loop no more
    nodes than it has room for.  A letter that no bucket tests (none of
    ``source._above``) has no tested loop.  One compile per matrices,
    words, prefixes and whether there is a cutoff and a ``keep``; each
    walk binds its own.

    >>> from coxfold.coxeter import build_system
    >>> A3 = build_system("A3")
    >>> untested, tested = bucket_loops(A3, A3, ((0,), (1,), (2,)), None, None)[1]
    >>> children = untested([(1, 1, 1, 1, 1, 1, 0)])
    >>> children, tested(children), bucket_loops(A3, A3, ((0,), (1,), (2,)), None, None)[0][1]
    ([(2, -1, 2, 2, -1, 2, 1)], [], None)
    >>> bucket_loops(A3, None, None, None, None, ((0,), (1,), (2,)))[0][0]([(1, 1, 1, ())])
    [(-1, 2, 1, (0,))]
    """
    key = (source.matrix.entries, target and target.matrix.entries, words, prefixes)
    key += (cutoff is None, keep is None)
    if key not in _KERNELS:
        r, tested = source.rank, set().union(*source._above)
        R = 0 if target is None else target.rank
        node = [f"x{j}" for j in range(r)] + [f"y{j}" for j in range(R)]
        node += ["v"] * (prefixes is not None) + ["l"] * (target is not None)
        lines, names = ["def loops(cutoff, keep):"], []
        for i in range(r):
            tail = [] if prefixes is None else [f"{prefixes[i]!r} + v"]  # the tag
            clauses = []
            if target is not None:
                signs, display = _image(target, words[i], "y")
                length = " + ".join(f"({t} < 0)" for t in signs)
                length = f"l + {len(words[i])} - 2 * ({length})"
                if cutoff is not None or keep is not None:
                    clauses.append(f"for l in [{length}]")
                    length = "l"
                if cutoff is not None:
                    clauses.append("if l <= cutoff")
                tail = display + tail + [length]
            child = "(" + ", ".join(_image(source, (i,))[1] + tail) + ",)"
            if keep is not None:
                clauses += [f"for c in [{child}]", f"if keep(c[:{r}])"]
                child = "c"
            walk = f"for {', '.join(node)}, in nodes"  # a node of A1 is one entry
            kinds = [("u", walk), ("t", f"{walk} if not ({_child_test(source, i)})")]
            for kind, head in kinds[:1 + (i in tested)]:
                lines += [f"    def {kind}{i}(nodes):"]
                lines += [f"        return [{child} {' '.join([head] + clauses)}]"]
            names.append(f"(u{i}, {f't{i}' if i in tested else None})")
        lines.append(f"    return [{', '.join(names)}]")
        (_KERNELS[key],) = _compiled("\n".join(lines), ["loops"])
    return _KERNELS[key](cutoff, keep)
