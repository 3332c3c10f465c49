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
the later one ends at the basepoint, which is never absorbed.

An automaton has one representation, which the fold works on in place: its
edges by serial (src, dst, label, memory, alive), new edges taking the next
serial, and per vertex four buckets of serials [p out, p in, q out, q in] in
ascending order, which is the (label, direction, position) order above.
Every reader walks the buckets.  Only a vertex whose buckets changed since
the last fold can be dirty or hanging, so a fold costs its own steps, not
the size of the automaton.  The engine keeps the set of dirty vertices;
only the absorbing vertex can become dirty, so each step updates the
vertices it touches, and gauges and moves the absorbed vertex's edges only.
A lone dirty vertex is taken without a search, and so is a dirty basepoint:
it is the search's first vertex, which no rewind drops.

Otherwise the next dirty vertex comes from the search tree below.

One breadth-first search from the basepoint, _SearchTree, serves the fold
and every reader.  It keeps its queue, each discovered vertex's queue
position and tree edge, and per processed vertex the queue length when its
processing began.  bfs_order lists the queue of a tree grown to the end;
canonical_edges, dump and fold number vertices by it, and basis_words reads
one loop per non-tree edge off the tree paths.  The fold keeps one tree for
the whole fold and resumes it, never restarts it.  How the search processes
a vertex depends only on that vertex's buckets and the far ends of its
edges, so the state before processing a vertex stays valid while no vertex
processed earlier is touched.  An open folding at v that absorbs y into z
touches v, z and y's neighbours, among them whichever vertex discovered y;
the tree rewinds to just before the first of these it processed, and the
next step takes the first dirty vertex it has discovered, or else grows on.
A closed folding touches no search state: the dropped edge comes after its
parallel twin in both end buckets, so it never discovered a vertex.  A
closed folding multiplies out the memories along the tree path to its
target, growing the tree on to that target if it has not been discovered.

subgroup_presentation reads each petal into the folded automaton before it
folds anything.  Of petal i's reduced word w, n letters long, it reads the
longest prefix from the basepoint, k letters to u with memory product M,
and the inverse of the rest, j letters to v with memory product S.  When
k + j < n, and not both u = v and w[k] = w[n-j-1]^-1, it attaches only the
middle w[k:n-j] from u to v, its first edge carrying M^-1 and its last
x_i S (a one-letter middle M^-1 x_i S; x_i is in no earlier memory, so
these words are freely reduced).  Every other petal is attached whole and
folded letterwise.  The middle is what the letterwise fold of the whole
petal leaves, up to vertex numbers.  The automaton is folded, so only the
petal's own edges can fold: its first k edges zip one by one onto the
prefix's path and its last j onto the inverse read's path, in whatever
order the fold takes them.  Each zip is an open folding that drops the
petal's edge, the later one, and absorbs a fresh petal vertex; as k + j < n
the two zips absorb disjoint petal vertices, so no petal edge becomes
parallel to another and no folding closes.  Afterwards u has one new edge,
reading w[k], which it could not read, and v one reading w[n-j-1]^-1,
likewise; the two clash only in the excluded case, so nothing is left dirty,
and nothing hangs.  The middle's inner vertices are never absorbed, so only
its end edges change memory, by the gauges; a gauge keeps every path's
product, so these end as the free normal forms of M^-1 and x_i S, which by
uniqueness are the words attached.  The middle's edges come after every
older edge by serial, as the petal's surviving edges do, so the buckets,
the search order and every later fold step are the same.
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

    fold() returns a folded copy with its log.  Neither changes afterwards,
    but subgroup_presentation grows and folds its own working automaton in
    place.  trivial_petals lists the petals build_flower could not attach.
    """

    def __init__(self, base: int, edges: Iterable[Edge]):
        self.base = base
        self.trivial_petals: tuple[int, ...] = ()
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
        tree = _SearchTree(self)
        tree.grow()
        return tree.queue

    def trace(self, word: Word) -> tuple[int, Word] | None:
        """Follow a word from the basepoint.

        Returns (end vertex, memory product along the path), or None when
        some letter cannot be read.  Requires a deterministic automaton, such
        as a folded one, so that the walk is unique.
        """
        read, v, mem = _read(self, word)
        return (v, mem) if read == len(word) else None

    # -- spanning tree and basis -------------------------------------------

    def basis_words(self) -> tuple[FreeWord, ...]:
        """One loop word per non-tree edge, in deterministic order."""
        tree = _SearchTree(self)
        tree.grow()
        pos, src, labels, dst = tree.pos, self.src, self.labels, self.dst
        letters = [(label,) for label in labels]
        on_tree = set(tree.via)
        nontree = [i for i, alive in enumerate(self.alive) if alive and i not in on_tree]
        nontree.sort(key=lambda i: (pos[src[i]], labels[i], pos[dst[i]], i))
        return tuple(free_reduce(tree.path(src[i], letters) + (labels[i],)
                                 + invert_word(tree.path(dst[i], letters)))
                     for i in nontree)

    # -- canonical form and dump -------------------------------------------

    def canonical_edges(self) -> tuple[tuple[int, int, int], ...]:
        """Edges renumbered by BFS order; equal iff automata are isomorphic
        as based labeled graphs (for folded automata)."""
        index = {v: i for i, v in enumerate(self.bfs_order())}
        return tuple(sorted((index[e.src], e.label, index[e.dst]) for e in self.edges))

    def dump(self) -> str:
        """One line per edge 'src --label--> dst' of canonical_edges; the
        basepoint, vertex 0, prints as 0*."""
        def name(v: int) -> str:
            return f"{v}*" if v == 0 else str(v)

        return "\n".join(f"{name(src)} --{PQ_NAMES[label - 1]}--> {name(dst)}"
                          for src, label, dst in self.canonical_edges())


class _SearchTree:
    """The breadth-first search from the basepoint that the module
    docstring states, over an automaton's buckets as they stand.

    queue lists the discovered vertices and pos inverts it; via[k] is the
    serial of the edge that discovered queue[k] (-1 for the basepoint);
    queue[:len(mark)] is processed, and mark[k] is len(queue) when
    processing queue[k] began.
    """

    def __init__(self, aut: StallingsAutomaton):
        self.aut = aut
        self.queue = [aut.base]
        self.via = [-1]
        self.pos = {aut.base: 0}
        self.mark: list[int] = []

    def grow(self, targets: Container[int] = ()) -> int | None:
        """Process the queue on until a vertex of targets is discovered;
        finish that vertex and return the target (None if none is met, once
        every vertex is processed)."""
        queue, via, pos, mark = self.queue, self.via, self.pos, self.mark
        adj, fars = self.aut.buckets, self.aut.far_ends
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

    def rewind(self, touched: Iterable[int]) -> None:
        """Go back to the state before the first processed vertex of
        touched, the vertices whose buckets or far ends a step changed: how
        a vertex is processed depends on nothing else."""
        pos, mark = self.pos, self.mark
        k = len(mark)
        for u in touched:
            if pos.get(u, k) < k:
                k = pos[u]
        if k < len(mark):
            n = mark[k]
            for _ in range(n, len(self.queue)):
                pos.popitem()
            del mark[k:]
            del self.queue[n:]
            del self.via[n:]

    def path(self, v: int, words: Sequence[Word]) -> Word:
        """Product of words[serial] along the tree path base -> v, each
        edge crossed backwards giving its inverse; freely reduced."""
        aut = self.aut
        base, src, dst, pos, via = aut.base, aut.src, aut.dst, self.pos, self.via
        chain: list[Word] = []
        while v != base:
            i = via[pos[v]]
            if dst[i] == v:
                chain.append(words[i])
                v = src[i]
            else:
                chain.append(invert_word(words[i]))
                v = dst[i]
        return free_reduce(let for part in reversed(chain) for let in part)


def _read(aut: StallingsAutomaton, word: Word) -> tuple[int, int, Word]:
    """Read the longest prefix of a word that aut can read from the
    basepoint, taking the first edge of each bucket.

    Returns (letters read, end vertex, memory product along the path,
    freely reduced).  On a deterministic automaton the walk is unique.
    """
    v = aut.base
    adj, src, dst, mems = aut.buckets, aut.src, aut.dst, aut.mem
    mem: list[int] = []
    read = 0
    for let in word:
        bucket = adj[v][SLOT_LETTERS.index(let)]
        if not bucket:
            break
        i = bucket[0]
        if let > 0:
            v = dst[i]
            mem.extend(mems[i])
        else:
            v = src[i]
            mem.extend(invert_word(mems[i]))
        read += 1
    return read, v, free_reduce(mem)


def _attach_petal(aut: StallingsAutomaton, word: FreeWord, start: int, end: int,
                  head: Word, tail: Word) -> None:
    """Add a path reading the non-empty word from start to end, on fresh
    vertices numbered after the existing ones.  Read along the word, its
    first edge carries the memory head and its last edge tail; a one-letter
    path carries head + tail."""
    fresh = max(aut.vertices()) + 1
    cur = start
    last = len(word) - 1
    for pos, let in enumerate(word):
        nxt = end if pos == last else fresh
        fresh += 1
        mem = (head if pos == 0 else ()) + (tail if pos == last else ())
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
            _attach_petal(aut, word, aut.base, aut.base, (), (petal,))
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


def _fold_in_place(aut: StallingsAutomaton) -> list[FoldStep]:
    """Fold aut until it is deterministic and co-deterministic, then trim it.

    Takes the fold steps in the order the module docstring states; returns
    them in that order.
    """
    base = aut.base
    src, dst, labels, mem, adj = aut.src, aut.dst, aut.labels, aut.mem, aut.buckets
    fars = aut.far_ends

    def is_dirty(v: int) -> bool:
        return max(map(len, adj[v])) > 1

    def recheck(v: int) -> None:
        if is_dirty(v):
            dirty.add(v)
        else:
            dirty.discard(v)

    # one search tree, resumed across fold steps
    tree = _SearchTree(aut)
    queue, pos = tree.queue, tree.pos

    # aut is connected and folding keeps it so: the search meets every
    # dirty vertex
    dirty = {v for v in aut.changed if is_dirty(v)}
    steps: list[FoldStep] = []
    while dirty:
        if len(dirty) == 1:
            v = next(iter(dirty))
        else:
            # the first dirty vertex in discovery order: among those
            # already discovered, else the next one the search meets
            first = min((pos[u] for u in dirty if u in pos), default=None)
            v = tree.grow(dirty) if first is None else queue[first]
        for slot, bucket in enumerate(adj[v]):
            if len(bucket) > 1:
                break
        keep, merge = bucket[0], bucket[1]
        if src[keep] == src[merge] and dst[keep] == dst[merge]:
            # closed folding: the two edges are parallel; read the relator
            # around the redundant cycle, conjugated back to the basepoint
            target = src[keep]
            if target not in pos:
                tree.grow((target,))
            path = tree.path(target, mem)
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
        tree.rewind([v, z, *(far[i] for far, bucket in zip(fars, adj[y]) for i in bucket)])
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
    return steps


def fold(aut: StallingsAutomaton) -> tuple[StallingsAutomaton, FoldingLog]:
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
    steps += _fold_in_place(work)
    return work, FoldingLog(tuple(steps))


def stallings_membership(aut: StallingsAutomaton, word: FreeWord) -> bool:
    """True iff the word, freely reduced, labels a closed path at the
    basepoint.  Raises ValueError unless aut is deterministic: no bucket
    holds two edges."""
    if any(len(bucket) > 1 for buckets in aut.buckets.values() for bucket in buckets):
        raise ValueError("membership requires a deterministic automaton")
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

    Petals are read into the folded automaton one at a time.  Of the freely
    reduced petal word w, n letters long, the longest prefix that reads from
    the basepoint is read, k letters to a vertex u with memory product M.
    If all of w reads as a loop, it would fold on with a single closed
    folding, so its relator M x_i^-1 is emitted directly and the automaton
    is left untouched; this matches reading the new generator in the old
    ones.  Otherwise the inverse of the rest of w is read from the
    basepoint, j letters to a vertex v with memory product S.  When
    k + j < n, and not both u = v and w[k] = w[n-j-1]^-1, only the middle
    w[k:n-j] is attached, from u to v, its first edge carrying M^-1 and its
    last x_i S; the module docstring shows that this is exactly what
    folding in the whole petal would leave.  Anything else is attached
    whole and folded letterwise, which may cascade.
    """
    relators: list[Word] = []
    aut = StallingsAutomaton(0, [])
    base = aut.base
    for petal, word in enumerate(gens, start=1):
        word = free_reduce(word)
        if not word:
            relators.append((petal,))
            continue
        n = len(word)
        k, u, head = _read(aut, word)
        if k == n and u == base:
            relators.append(free_reduce(head + (-petal,)))
            continue
        j, v, tail = _read(aut, invert_word(word[k:]))
        if k + j < n and not (u == v and word[k] == -word[n - j - 1]):
            _attach_petal(aut, word[k:n - j], u, v, invert_word(head), (petal,) + tail)
            continue
        _attach_petal(aut, word, base, base, (), (petal,))
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
