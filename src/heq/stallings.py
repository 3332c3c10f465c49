"""Stallings automata over {p, q}: folding, membership and presentations.

A flower automaton has one petal per generator word.  Folding merges edges
that violate determinism or co-determinism; a folding step is *closed* when
the two merged edges are already parallel, and each closed step kills one
free-group relation among the petals.

To recover those relations, every edge carries a memory word over abstract
petal letters x1..xp.  The invariant maintained throughout is that the
memory product along any closed path at the basepoint is a preimage (in the
free group on the petal letters) of that loop's homotopy class.  Merging two
edges whose memories disagree is preceded by a "gauge" move at the absorbed
vertex, which re-routes the discrepancy onto the other incident edges and
keeps the invariant intact; a closed folding then reads its relator straight
off the two memories.

Relators, memories and vertex numbers depend on the fold order, which is
fixed.  Each step folds at the first *dirty* vertex (one with two edges of
the same label and direction) in breadth-first order from the basepoint,
where a vertex's edges are walked p before q, outgoing before incoming, then
by position in the edge list.  There it takes the first such pair in the
same (label, direction) order, the two lowest-placed edges; an open folding
absorbs the far end of the later edge into that of the earlier one, unless
the later one ends at the basepoint, which is never absorbed.  The
confluence tests' order variant reverses the (label, direction) order.

An automaton has one representation, which the fold works on in place: its
edges by serial (src, dst, label, memory, alive), new edges taking the next
serial, and per vertex four buckets of serials [p out, p in, q out, q in] in
ascending order, which is the (label, direction, position) order above.
Every reader walks the buckets.  Only a vertex whose buckets changed since
the last fold can be dirty or hanging, so a fold costs its own steps, not
the size of the automaton.  The engine keeps the set of dirty vertices;
only the absorbing vertex can become dirty, so each step updates the
vertices it touches, and gauges and moves the absorbed vertex's edges only.
The basepoint and a lone dirty vertex are taken without a search.

Otherwise the next dirty vertex comes from one breadth-first search from the
basepoint that lasts the whole fold and is resumed, never restarted: it
keeps its queue, each discovered vertex's queue position and tree edge, and
per processed vertex the queue length when its processing began.  How the
search processes a vertex depends only on that vertex's buckets and the far
ends of its edges, so the state before processing a vertex stays valid while
no vertex processed earlier is touched.  An open folding at v that absorbs
y into z touches v, z and y's neighbours, among them whichever vertex
discovered y; the search goes back to just before the first of these it
processed, and the next step takes the first dirty vertex it has
discovered, or else searches on.  A closed folding touches no search state:
the dropped edge comes after its parallel twin in both end buckets, so it
never discovered a vertex.  A closed folding reads its path memory off the
search tree, searching on to its target if that has not been discovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Container, Iterable, KeysView, Sequence

from .freewords import (
    FreeWord,
    Word,
    format_word,
    free_reduce,
    invert_word,
    PQ_NAMES,
    substitute,
)

NUM_LABELS = 2  # p, q
# bucket k of a vertex holds the edges that read SLOT_LETTERS[k] from it
SLOT_LETTERS = (1, -1, 2, -2)


@dataclass
class Edge:
    src: int
    label: int  # 1 = p, 2 = q
    dst: int
    mem: Word = ()


@dataclass(frozen=True)
class FoldStep:
    closed: bool
    label: int
    relator: Word | None = None


@dataclass(frozen=True)
class FoldingLog:
    steps: tuple[FoldStep, ...]

    @property
    def closed_count(self) -> int:
        return sum(1 for s in self.steps if s.closed)

    @property
    def relators(self) -> tuple[Word, ...]:
        return tuple(s.relator for s in self.steps if s.closed)


class StallingsAutomaton:
    """Labeled based graph, stored as the module docstring states.

    Fresh flowers carry folded=False; fold() returns a folded copy with its
    log.  Neither changes afterwards, but subgroup_presentation grows and
    folds its own working automaton in place.
    """

    def __init__(self, base: int, edges: Iterable[Edge], folded: bool = False,
                 trivial_petals: tuple[int, ...] = ()):
        self.base = base
        self.folded = folded
        self.trivial_petals = trivial_petals
        self.src: list[int] = []
        self.dst: list[int] = []
        self.labels: list[int] = []
        self.mem: list[Word] = []
        self.alive: list[bool] = []
        # vertex -> buckets [p out, p in, q out, q in] of ascending serials;
        # an edge in bucket k leads on to far_ends[k][serial]
        self.far_ends = (self.dst, self.src) * NUM_LABELS
        self.buckets: dict[int, list[list[int]]] = {base: [[] for _ in SLOT_LETTERS]}
        # vertices whose buckets changed since the last fold
        self.changed = {base}
        for e in edges:
            self._add_edge(e.src, e.label, e.dst, e.mem)

    def _add_edge(self, src: int, label: int, dst: int, mem: Word) -> None:
        serial = len(self.src)
        self.src.append(src)
        self.dst.append(dst)
        self.labels.append(label)
        self.mem.append(mem)
        self.alive.append(True)
        for v, slot in ((src, 2 * label - 2), (dst, 2 * label - 1)):
            if v not in self.buckets:
                self.buckets[v] = [[] for _ in SLOT_LETTERS]
            self.buckets[v][slot].append(serial)
            self.changed.add(v)

    def _remove_edge(self, serial: int) -> None:
        self.alive[serial] = False
        slot = 2 * self.labels[serial] - 2
        for v, k in ((self.src[serial], slot), (self.dst[serial], slot + 1)):
            self.buckets[v][k].remove(serial)
            self.changed.add(v)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The live edges in serial order, as fresh Edge objects."""
        return tuple(Edge(self.src[i], self.labels[i], self.dst[i], self.mem[i])
                     for i, alive in enumerate(self.alive) if alive)

    def vertices(self) -> KeysView[int]:
        return self.buckets.keys()

    def rank(self) -> int:
        return sum(self.alive) - (len(self.buckets) - 1)

    # -- traversal ---------------------------------------------------------

    def bfs_order(self) -> list[int]:
        """Vertices in the discovery order of the breadth-first search."""
        return list(self._search_tree())

    def trace(self, word: Word) -> tuple[int, Word] | None:
        """Follow a word from the basepoint.

        Returns (end vertex, memory product along the path), or None when
        some letter cannot be read.  Requires a folded automaton so that the
        walk is deterministic.
        """
        v = self.base
        mem: list[int] = []
        for let in word:
            bucket = self.buckets[v][SLOT_LETTERS.index(let)]
            if not bucket:
                return None
            i = bucket[0]
            if let > 0:
                v = self.dst[i]
                mem.extend(self.mem[i])
            else:
                v = self.src[i]
                mem.extend(invert_word(self.mem[i]))
        return v, free_reduce(mem)

    # -- spanning tree and basis -------------------------------------------

    def _search_tree(self) -> dict[int, int]:
        """Breadth-first search from the basepoint, walking each vertex's
        buckets in order: vertex -> serial of the tree edge that discovered
        it (-1 for the basepoint), keyed in discovery order."""
        via = {self.base: -1}
        queue = [self.base]
        for v in queue:
            for far, bucket in zip(self.far_ends, self.buckets[v]):
                for i in bucket:
                    w = far[i]
                    if w not in via:
                        via[w] = i
                        queue.append(w)
        return via

    def basis_words(self) -> tuple[FreeWord, ...]:
        """One loop word per non-tree edge, in deterministic order."""
        via = self._search_tree()
        bfs_index = {v: i for i, v in enumerate(via)}
        src, labels, dst = self.src, self.labels, self.dst

        def path(v: int) -> Word:
            """Label path base -> v along the tree, walked up from v."""
            back: list[int] = []
            while v != self.base:
                i = via[v]
                if dst[i] == v:
                    back.append(labels[i])
                    v = src[i]
                else:
                    back.append(-labels[i])
                    v = dst[i]
            return tuple(reversed(back))

        tree = set(via.values())
        nontree = [i for i, alive in enumerate(self.alive) if alive and i not in tree]
        nontree.sort(key=lambda i: (bfs_index[src[i]], labels[i], bfs_index[dst[i]], i))
        return tuple(free_reduce(path(src[i]) + (labels[i],) + invert_word(path(dst[i])))
                     for i in nontree)

    # -- canonical form and dump -------------------------------------------

    def canonical_edges(self) -> tuple[tuple[int, int, int], ...]:
        """Edges renumbered by BFS order; equal iff automata are isomorphic
        as based labeled graphs (for folded automata)."""
        index = {v: i for i, v in enumerate(self.bfs_order())}
        return tuple(sorted((index[e.src], e.label, index[e.dst]) for e in self.edges))

    def dump(self) -> str:
        """One line per edge 'src --label--> dst'; the basepoint prints as *."""
        index = {v: i for i, v in enumerate(self.bfs_order())}

        def name(v: int) -> str:
            return f"{index[v]}*" if v == self.base else str(index[v])

        lines = [
            f"{name(e.src)} --{PQ_NAMES[e.label - 1]}--> {name(e.dst)}"
            for e in sorted(self.edges, key=lambda e: (index[e.src], e.label, index[e.dst]))
        ]
        return "\n".join(lines)


def _attach_petal(aut: StallingsAutomaton, petal: int, word: FreeWord) -> None:
    """Add a petal reading the non-empty word at the basepoint, on fresh
    vertices numbered after the existing ones; its last edge carries x_petal."""
    base = aut.base
    fresh = max(aut.vertices(), default=base) + 1
    cur = base
    for pos, let in enumerate(word, start=1):
        last = pos == len(word)
        nxt = base if last else fresh
        if not last:
            fresh += 1
        mem: Word = (petal,) if last else ()
        if let > 0:
            aut._add_edge(cur, let, nxt, mem)
        else:
            aut._add_edge(nxt, -let, cur, invert_word(mem))
        cur = nxt


def build_flower(words: Sequence[FreeWord]) -> StallingsAutomaton:
    """Flower automaton: one petal per word, all attached at the basepoint.

    Empty words cannot form a petal; their (1-based) indices are recorded in
    trivial_petals and fold() turns each into the immediate relator x_i.
    The last edge of petal i carries the memory letter x_i.
    """
    aut = StallingsAutomaton(0, [])
    trivial: list[int] = []
    for petal, word in enumerate(words, start=1):
        if word:
            _attach_petal(aut, petal, word)
        else:
            trivial.append(petal)
    aut.trivial_petals = tuple(trivial)
    return aut


# ---------------------------------------------------------------------------
# folding engine
# ---------------------------------------------------------------------------

def _trim(aut: StallingsAutomaton) -> None:
    """Remove hanging trees: non-basepoint vertices of total degree <= 1.

    Only a vertex whose buckets changed since the last fold can be one."""
    while aut.changed:
        v = aut.changed.pop()
        buckets = aut.buckets.get(v)
        if v == aut.base or buckets is None or sum(map(len, buckets)) > 1:
            continue
        for i in sum(buckets, []):
            aut._remove_edge(i)
        del aut.buckets[v]


def _fold_in_place(aut: StallingsAutomaton, order_variant: int = 0) -> list[FoldStep]:
    """Fold aut until it is deterministic and co-deterministic, then trim it.

    Takes the fold steps in the order the module docstring states; returns
    them in that order.
    """
    base = aut.base
    src, dst, labels, mem, adj = aut.src, aut.dst, aut.labels, aut.mem, aut.buckets
    fars = aut.far_ends
    slots = range(len(SLOT_LETTERS))
    scan = slots if order_variant == 0 else slots[::-1]

    def is_dirty(v: int) -> bool:
        return max(map(len, adj[v])) > 1

    def recheck(v: int) -> None:
        if is_dirty(v):
            dirty.add(v)
        else:
            dirty.discard(v)

    def path_memory(v: int) -> Word:
        """Memory product along the search tree's path base -> v."""
        chain: list[Word] = []
        while v != base:
            i = via[pos[v]]
            if dst[i] == v:
                chain.append(mem[i])
                v = src[i]
            else:
                chain.append(invert_word(mem[i]))
                v = dst[i]
        return free_reduce(let for part in reversed(chain) for let in part)

    # one breadth-first search from the basepoint in bfs_order's order,
    # resumed across fold steps: queue[:len(mark)] is processed, mark[i] is
    # len(queue) when processing queue[i] began, pos inverts queue in
    # discovery order, and via[i] is the serial of the edge that reached
    # queue[i]
    queue = [base]
    via = [-1]
    pos = {base: 0}
    mark: list[int] = []

    def search(targets: Container[int]) -> int | None:
        """Process the queue on until a vertex of targets is discovered;
        finish that vertex and return the target (None if none is met)."""
        found = None
        n = len(queue)
        for v in islice(queue, len(mark), None):
            mark.append(n)
            for far, bucket in zip(fars, adj[v]):
                for i in bucket:
                    w = far[i]
                    if w not in pos:
                        pos[w] = n
                        n += 1
                        queue.append(w)
                        via.append(i)
                        if w in targets and found is None:
                            found = w
            if found is not None:
                break
        return found

    def rewind(touched: Iterable[int]) -> None:
        """Go back to the search state before the first processed vertex
        of touched, the vertices whose buckets or far ends a step changed:
        how a vertex is processed depends on nothing else."""
        if not mark:
            return
        k = len(mark)
        for u in touched:
            if pos.get(u, k) < k:
                k = pos[u]
        if k < len(mark):
            n = mark[k]
            for _ in range(n, len(queue)):
                pos.popitem()
            del mark[k:]
            del queue[n:]
            del via[n:]

    # aut is connected and folding keeps it so: the search meets every
    # dirty vertex
    dirty = {v for v in aut.changed if is_dirty(v)}
    steps: list[FoldStep] = []
    while dirty:
        if base in dirty:
            v = base
        elif len(dirty) == 1:
            v = next(iter(dirty))
        else:
            # the first dirty vertex in discovery order: among those
            # already discovered, else the next one the search meets
            first = min((pos[u] for u in dirty if u in pos), default=None)
            v = search(dirty) if first is None else queue[first]
        for slot in scan:
            bucket = adj[v][slot]
            if len(bucket) > 1:
                break
        keep, merge = bucket[0], bucket[1]
        if src[keep] == src[merge] and dst[keep] == dst[merge]:
            # closed folding: the two edges are parallel; read the relator
            # around the redundant cycle, conjugated back to the basepoint
            target = src[keep]
            if target not in pos:
                search((target,))
            path = path_memory(target)
            relator = free_reduce(path + mem[keep] + invert_word(mem[merge])
                                  + invert_word(path))
            if not relator:
                raise RuntimeError("closed folding produced an empty relator")
            steps.append(FoldStep(True, labels[keep], relator))
            # no rewind: merge follows keep in both end buckets (module
            # docstring)
            aut._remove_edge(merge)
            recheck(src[merge])
            recheck(dst[merge])
            continue
        # open folding: absorb vertex y into z, never the basepoint; the
        # gauge at y keeps every path product through y unchanged
        ends = fars[slot]
        y, z = ends[merge], ends[keep]
        if y == base:
            keep, merge = merge, keep
            y, z = z, y
        if slot % 2 == 0:
            gamma = free_reduce(invert_word(mem[merge]) + mem[keep])
        else:
            gamma = free_reduce(mem[merge] + invert_word(mem[keep]))
        inv_gamma = invert_word(gamma)
        steps.append(FoldStep(False, labels[keep]))
        aut._remove_edge(merge)
        # v and z change buckets and y's neighbours will reach z instead;
        # y itself lies past the rewind, as one of these discovered it
        rewind([v, z, *(far[i] for far, bucket in zip(fars, adj[y]) for i in bucket)])
        for k, (moved, into) in enumerate(zip(adj.pop(y), adj[z])):
            for i in moved:
                if k % 2 == 0:
                    src[i] = z
                    if gamma:
                        mem[i] = free_reduce(inv_gamma + mem[i])
                else:
                    dst[i] = z
                    if gamma:
                        mem[i] = free_reduce(mem[i] + gamma)
            if moved:
                into.extend(moved)
                into.sort()
        dirty.discard(y)
        recheck(z)
        if v != y:
            recheck(v)
    _trim(aut)
    aut.folded = True
    return steps


def fold(aut: StallingsAutomaton, _order_variant: int = 0
         ) -> tuple[StallingsAutomaton, FoldingLog]:
    """Fold the basepoint's component of an automaton; returns the folded
    copy and the step log.

    Edges the basepoint cannot reach are left out of the copy.  Trivial
    petals recorded by build_flower surface as immediate closed steps with
    relator x_i.  Folding an already-folded automaton returns it unchanged
    with an empty log.
    """
    reached = set(aut.bfs_order())
    work = StallingsAutomaton(aut.base, [e for e in aut.edges if e.src in reached])
    steps = [FoldStep(True, 0, (i,)) for i in aut.trivial_petals]
    steps += _fold_in_place(work, _order_variant)
    work.trivial_petals = ()
    return work, FoldingLog(tuple(steps))


def stallings_membership(aut: StallingsAutomaton, word: FreeWord) -> bool:
    """True iff the word, freely reduced, labels a closed path at the basepoint."""
    if not aut.folded:
        raise ValueError("membership requires a folded automaton")
    hit = aut.trace(free_reduce(word))
    return hit is not None and hit[0] == aut.base


# ---------------------------------------------------------------------------
# subgroup presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentationOnGenerators:
    """Presentation of <gens> on the given generators.

    relators are words over abstract letters x1..xp (p = generator_count);
    substituting gens[i-1] for x_i in any relator freely reduces to the
    empty word, and the relators normally generate the kernel of x_i -> gens[i-1].
    A free basis of <gens> is fold(build_flower(gens))[0].basis_words().
    """

    generator_count: int
    rank: int
    relators: tuple[Word, ...]

    def relator_names(self) -> tuple[str, ...]:
        names = tuple(f"x{i}" for i in range(1, self.generator_count + 1))
        return tuple(format_word(r, names) for r in self.relators)


def subgroup_presentation(gens: Sequence[FreeWord]) -> PresentationOnGenerators:
    """Rank and defining relators of the subgroup <gens> of F(p, q).

    Petals are folded in one at a time.  A generator already readable in the
    current automaton would fold on with a single closed folding, so its
    relator E(x1..x_{i-1}) x_i^-1 is emitted directly (E being the memory
    product along the accepting path) and the automaton is left untouched;
    this matches reading the new generator in the old ones.  Anything else
    is attached and folded for real, which may cascade.
    """
    relators: list[Word] = []
    aut = StallingsAutomaton(0, [], folded=True)
    for petal, word in enumerate(gens, start=1):
        word = free_reduce(word)
        if not word:
            relators.append((petal,))
            continue
        hit = aut.trace(word)
        if hit is not None and hit[0] == aut.base:
            relators.append(free_reduce(hit[1] + (-petal,)))
            continue
        _attach_petal(aut, petal, word)
        steps = _fold_in_place(aut)
        relators.extend(s.relator for s in steps if s.closed)

    rank = aut.rank()
    if len(relators) != len(gens) - rank:
        raise RuntimeError(
            f"relator count {len(relators)} != {len(gens)} - rank {rank}")
    for rel in relators:
        if substitute(rel, gens):
            raise RuntimeError("relator does not evaluate to the identity")
    return PresentationOnGenerators(len(gens), rank, tuple(relators))
