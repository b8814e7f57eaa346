"""Graphviz export of Bruhat order Hasse diagrams.

Nodes are labelled by ShortLex words; when a folding into the group is
supplied, the nodes lying in the unfolded subgroup carry ``color=red``.
Output is deterministic: nodes sorted by (length, word), edges sorted by
their endpoint labels, colors are the only styling.
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

    A pair with length difference one is a cover exactly when v <= w.
    """
    layers: dict = {}
    for el, word in enumerate_with_words(system, max_len, budget=budget):
        layers.setdefault(el.length, []).append((el, word))
    covers = []
    for k in sorted(layers):
        if k + 1 not in layers:
            continue
        for v, vw in layers[k]:
            for w, ww in layers[k + 1]:
                if bruhat_leq(system, v, w):
                    covers.append((vw, ww))
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
    once, and the edges are sorted by those labels.
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
