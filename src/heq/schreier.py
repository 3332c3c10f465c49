"""Schreier graphs of kernels of maps to Z/6 = C2 x C3.

Letter i of the alphabet is sent to images[i-1], an int modulo
words.QUOTIENT_ORDER; the graph is that of the kernel of the induced map,
i.e. the Cayley graph of the image group on the letter images.  Vertices
are image elements, numbered in BFS discovery order (vertices, then letters, then
+/- signs); representatives are the BFS tree words, hence a prefix-closed
Schreier transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freewords import Word, format_word, free_reduce, invert_word
from .words import QUOTIENT_ORDER


@dataclass(frozen=True)
class SchreierGraph:
    """Complete coset graph with basepoint 0 and a BFS spanning tree.

    trans maps (vertex, signed letter) to the target vertex, with the +l
    and -l transitions mutually inverse; tree holds the positive edges
    (vertex, letter) crossed at first discovery of each vertex.
    """

    letters: tuple[str, ...]
    reps: tuple[Word, ...]
    trans: dict[tuple[int, int], int]
    tree: frozenset[tuple[int, int]]

    @property
    def index(self) -> int:
        return len(self.reps)


def build_schreier(letters: Sequence[str], images: Sequence[int]) -> SchreierGraph:
    """Schreier graph of the kernel of the map sending letter i to images[i-1].

    The edge for signed letter l leaves the vertex of element e for the
    vertex of e + image(l) (e - image(|l|) when l < 0), mod QUOTIENT_ORDER;
    an element first reached that way becomes a new vertex.
    """
    letters = tuple(letters)
    if not letters or len(set(letters)) != len(letters):
        raise ValueError("alphabet must be nonempty with distinct letters")
    if len(images) != len(letters):
        raise ValueError(f"{len(images)} images for {len(letters)} letters")
    elems = [0]
    vertex_of = {0: 0}
    reps: list[Word] = [()]
    trans: dict[tuple[int, int], int] = {}
    tree: set[tuple[int, int]] = set()
    v = 0
    while v < len(reps):
        for letter, image in enumerate(images, start=1):
            for sl, step in ((letter, image), (-letter, -image)):
                elem = (elems[v] + step) % QUOTIENT_ORDER
                target = vertex_of.get(elem)
                if target is None:
                    target = vertex_of[elem] = len(reps)
                    elems.append(elem)
                    reps.append(free_reduce(reps[v] + (sl,)))
                    tree.add((v, letter) if sl > 0 else (target, letter))
                trans[(v, sl)] = target
        v += 1
    return SchreierGraph(letters, tuple(reps), trans, frozenset(tree))


def subgroup_generators(graph: SchreierGraph) -> tuple[Word, ...]:
    """One subgroup generator per non-tree positive edge.

    w_e is the tree path to the edge's source, the edge letter, then the
    reverse tree path from its target: every w_e lies in the subgroup.
    Edges are enumerated vertex-major in BFS order, letters minor, which
    fixes the output order.
    """
    out: list[Word] = []
    for v in range(graph.index):
        for letter in range(1, len(graph.letters) + 1):
            if (v, letter) in graph.tree:
                continue
            target = graph.trans[(v, letter)]
            out.append(free_reduce(
                graph.reps[v] + (letter,) + invert_word(graph.reps[target])))
    return tuple(out)


def to_dot(graph: SchreierGraph) -> str:
    """DOT dump with representative-word labels; tree edges are bold."""
    lines = ["digraph schreier {", "  rankdir=LR;"]
    for v, rep in enumerate(graph.reps):
        label = format_word(rep, graph.letters) or "1"
        shape = "doublecircle" if v == 0 else "circle"
        lines.append(f'  {v} [label="{label}", shape={shape}];')
    for v in range(graph.index):
        for letter in range(1, len(graph.letters) + 1):
            target = graph.trans[(v, letter)]
            style = ', style=bold' if (v, letter) in graph.tree else ""
            lines.append(f'  {v} -> {target} [label="{graph.letters[letter - 1]}"{style}];')
    lines.append("}")
    return "\n".join(lines)
