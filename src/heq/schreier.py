"""Schreier coset graphs built from a membership oracle alone.

Given a finite alphabet generating a group and a predicate deciding
membership in a finite-index subgroup, grow the ball around the subgroup
coset until the graph is complete: a new word u*l lands in an existing
coset v exactly when oracle(u l rep(v)^-1) holds.  The index_cap converts
the finite-index promise into a checked runtime error.

Vertices are numbered in BFS discovery order; representatives are the BFS
tree words, hence a prefix-closed Schreier transversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .freewords import Word, format_word, free_reduce, invert_word


class IndexCapExceeded(RuntimeError):
    """More cosets appeared than the promised index bound."""


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


def build_schreier(letters: Sequence[str], oracle: Callable[[Word], bool],
                   index_cap: int) -> SchreierGraph:
    """Grow the Schreier graph of the subgroup decided by the oracle.

    The oracle must be the membership predicate of a subgroup of index at
    most index_cap in the group generated by the alphabet; IndexCapExceeded
    is raised when that promise fails.
    """
    letters = tuple(letters)
    if not letters or len(set(letters)) != len(letters):
        raise ValueError("alphabet must be nonempty with distinct letters")
    nletters = len(letters)
    reps: list[Word] = [()]
    trans: dict[tuple[int, int], int] = {}
    tree: set[tuple[int, int]] = set()
    v = 0
    while v < len(reps):
        for letter in range(1, nletters + 1):
            for sl in (letter, -letter):
                if (v, sl) in trans:
                    continue
                word = free_reduce(reps[v] + (sl,))
                target = None
                for u, rep_u in enumerate(reps):
                    if oracle(free_reduce(word + invert_word(rep_u))):
                        target = u
                        break
                if target is None:
                    if len(reps) >= index_cap:
                        raise IndexCapExceeded(
                            f"more than {index_cap} cosets found")
                    reps.append(word)
                    target = len(reps) - 1
                    tree.add((v, letter) if sl > 0 else (target, letter))
                back = trans.get((target, -sl))
                if back is not None and back != v:
                    raise RuntimeError("oracle is not a subgroup membership predicate")
                trans[(v, sl)] = target
                trans[(target, -sl)] = v
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


def coset_of(graph: SchreierGraph, word: Word) -> int:
    """Terminal vertex of the path reading the word from the basepoint."""
    v = 0
    for let in word:
        v = graph.trans[(v, let)]
    return v


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
