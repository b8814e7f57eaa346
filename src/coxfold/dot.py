"""Graphviz export of Bruhat order Hasse diagrams.

Nodes are labelled by ShortLex words; when a folding into the group is
supplied, the nodes lying in the unfolded subgroup carry ``color=red``.
Output is deterministic: nodes sorted by (length, word), edges sorted by
their endpoint labels, colors are the only styling.  The edges are the
covers, found layer by layer with the lifting property (Björner–Brenti,
*Combinatorics of Coxeter Groups*, Prop. 2.2.7): ``bruhat_leq`` decides
only the pairs whose left and right descents leave the cover open.
"""

from __future__ import annotations

from typing import Optional

from .coxeter import (
    DEFAULT_BUDGET,
    CoxeterSystem,
    bruhat_leq,
    enumerate_with_words,
    word_string,
)
from .errors import InvalidParameters
from .folding import Folding, _source_records

__all__ = ["bruhat_dot", "covering_relations"]


def covering_relations(
    system: CoxeterSystem,
    max_len: Optional[int] = None,
    *,
    budget: int = DEFAULT_BUDGET,
):
    """All Bruhat covers (v, w) with lengths <= max_len, as word pairs.

    Pairs come by layer, then by v's ShortLex position, then by w's.  By
    the lifting property (Björner–Brenti, *Combinatorics of Coxeter
    Groups*, Prop. 2.2.7), for a left descent s of w and l(v) = l(w) - 1,
    v <= w iff v = sw when s is not a left descent of v; applied to the
    inverses, for a right descent s of w, v <= w iff v = ws when s is not
    a right descent of v.  So the covers of w are its sw and its ws, taken
    outright, and those v one layer down whose left descents include all
    of w's and whose right descents include all of w's; only the latter
    go to ``bruhat_leq``.
    """
    desc, apply = system._is_left_descent_data, system._apply_left
    rank = range(system.rank)
    e = system.identity().data
    layers: dict = {}
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        if el.length not in layers:  # the ShortLex words one layer down -> their inverses
            inverses = {v: inv for _, v, inv, _, _ in layers.get(el.length - 1, ())}
        # w = s_a1 ... s_ak, whose prefix s_a1 ... s_ak-1 is a ShortLex word
        # one layer down, so w^-1 = s_ak (s_a1 ... s_ak-1)^-1
        inv = apply(inverses[word[:-1]], word[-1]) if word else e
        left = sum(1 << i for i in rank if desc(el.data, i))
        right = sum(1 << i for i in rank if desc(inv, i))
        layers.setdefault(el.length, []).append((el, word, inv, left, right))
    covers = []
    for k in sorted(layers):
        if k + 1 not in layers:
            continue
        below, above = layers[k], layers[k + 1]
        position: dict = {}
        inv_position: dict = {}
        by_masks: dict = {}
        for p, (v, _, inv, left, right) in enumerate(below):
            position[v.data] = p
            inv_position[inv] = p
            by_masks.setdefault((left, right), []).append(p)
        pairs = []
        for q, (w, _, inv, left, right) in enumerate(above):
            # ws has the inverse s w^-1; a ws that is also some s'w comes once
            outright = {position[apply(w.data, i)] for i in rank if left >> i & 1}
            outright.update(inv_position[apply(inv, i)] for i in rank if right >> i & 1)
            pairs.extend((p, q) for p in outright)
            for (lm, rm), ps in by_masks.items():
                if lm & left == left and rm & right == right:
                    pairs.extend((p, q) for p in ps if bruhat_leq(system, below[p][0], w))
        pairs.sort()
        covers.extend((below[p][1], above[q][1]) for p, q in pairs)
    return covers


def bruhat_dot(
    system: CoxeterSystem,
    folding: Optional[Folding] = None,
    max_len: Optional[int] = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> str:
    """Render the Hasse diagram of the Bruhat order as DOT text.

    The group is walked once, by ``covering_relations``: every element but e
    covers one below it, so the nodes are e and the upper ends of the covers,
    and the lower end of every cover is a node too.  Each node is spelled
    once, and the edges are sorted by those labels.  The covers of w are
    its sw and ws for its left and right descents s, and the v below it
    whose left and right descents hold all of w's (Prop. 2.2.7), so
    ``bruhat_leq`` sees only the latter.
    """
    red = set()
    if folding is not None:
        if folding.target.matrix.entries != system.matrix.entries:
            raise InvalidParameters(
                f"folding targets {folding.target.label}, not {system.label}"
            )
        # the target matrix is the group's, so both spell elements alike
        records = _source_records(folding, ambient_cutoff=max_len, budget=budget)
        red = {system._reduced_word(data) for _, _, (data, _) in records}

    covers = covering_relations(system, max_len, budget=budget)
    nodes = sorted({()} | {ww for _, ww in covers}, key=lambda word: (len(word), word))
    label = {word: word_string(system, word) for word in nodes}
    edges = sorted((label[vw], label[ww]) for vw, ww in covers)

    lines = [f'digraph "bruhat_{system.label}" {{', "  rankdir=BT;"]
    for word in nodes:
        attr = " [color=red]" if word in red else ""
        lines.append(f'  "{label[word]}"{attr};')
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
