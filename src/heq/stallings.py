"""Stallings automata over {p, q}: the folded automaton of a subgroup and
the presentation its folds read off.

fold_generators builds the folded automaton of <v_1..v_p> petal by petal,
a petal being a loop at the basepoint that reads one generator word.
Folding merges edges that violate determinism or co-determinism; a folding
step is *closed* when the two merged edges are already parallel, and each
closed step kills one free-group relation among the petals.

To recover those relations, every edge carries a memory word over abstract
petal letters x1..xp.  The invariant maintained throughout is that the
memory product along any closed path at the basepoint is a preimage (in the
free group on the petal letters) of that loop's homotopy class.  Merging two
edges whose memories disagree is preceded by a "gauge" move at the absorbed
vertex, which re-routes the discrepancy onto the other incident edges and
keeps the invariant intact; a closed folding then reads its relator straight
off the two memories.  Memories are freely reduced words, and stay so: every
product of memories, the gauge, a gauged memory, a relator and the product
along a path, is a join of freely reduced words (freewords.join_reduced),
which can cancel only where two of them meet, so no memory is reduced letter
by letter again.  The constructor refuses an edge whose memory is not freely
reduced.

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
the last fold can be dirty or hanging, so finding them costs a fold its own
steps, not the size of the automaton.  The engine keeps the set of dirty
vertices; only the absorbing vertex can become dirty, so each step updates
the vertices it touches, and gauges and moves the absorbed vertex's edges
only.

One breadth-first search from the basepoint, _SearchTree, serves the fold
and every reader.  A search keeps its queue, each discovered vertex's queue
position and tree edge.  bfs_order lists the queue of a tree grown to the
end; canonical_edges numbers vertices by it, and basis_words reads one loop
per non-tree edge off the tree paths.  Each fold step runs one search, which
stops at the first dirty vertex it discovers; the search never discovers
the basepoint, so a dirty basepoint is taken first, without growing it.  A
closed folding multiplies out the memories along the tree path to its
target, read off the step's own search, which is grown on only when it
has not yet discovered the target; the path to the basepoint is empty.
Nothing changes the automaton in between, and the discovery order depends
on the automaton only, so the search goes on in the order a fresh one
would, and the path is the one a fresh search gives.  A step thus costs
the vertices its search discovers, which is few when the fold works near
the basepoint and most of the automaton when it works far from it.

fold_generators reads each petal into the folded automaton before it folds
anything.  Of petal i's reduced word w, n letters long, it reads the
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
from typing import Container, Iterable, KeysView, Sequence

from .freewords import (
    FreeWord,
    Word,
    format_word,
    free_reduce,
    invert_word,
    join_reduced,
)

NUM_LABELS = 2  # p, q
# bucket k of a vertex holds the edges that read SLOT_LETTERS[k] from it
SLOT_LETTERS = (1, -1, 2, -2)
# letter -> the bucket of the edges that read it
_SLOT = {let: k for k, let in enumerate(SLOT_LETTERS)}


@dataclass
class Edge:
    src: int
    label: int  # 1 = p, 2 = q
    dst: int
    mem: Word = ()


class StallingsAutomaton:
    """Labeled based graph, stored as the module docstring states.

    fold_generators grows and folds one in place and returns it folded; the
    readers below leave it unchanged.
    """

    def __init__(self, base: int, edges: Iterable[Edge]):
        self.base = base
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
        edges = tuple(edges)
        if bad := {e.label for e in edges} - {1, 2}:
            raise ValueError(f"edge labels {sorted(bad)} are not 1 (p) or 2 (q)")
        # the fold joins memories at their junction only
        if bad := [e.mem for e in edges if free_reduce(e.mem) != tuple(e.mem)]:
            raise ValueError(f"edge memories {bad} are not freely reduced")
        # each edge is added as a one-letter path; fold_generators starts
        # from no edges
        for e in edges:
            _attach_petal(self, (e.label,), e.src, e.dst, e.mem, ())

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
        as a folded one, so that the walk is unique.  A letter other than
        +-1, +-2 met before the walk stops raises ValueError.
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

    # -- canonical form ----------------------------------------------------

    def canonical_edges(self) -> tuple[tuple[int, int, int], ...]:
        """Edges renumbered by BFS order; equal iff automata are isomorphic
        as based labeled graphs (for folded automata)."""
        index = {v: i for i, v in enumerate(self.bfs_order())}
        return tuple(sorted((index[e.src], e.label, index[e.dst]) for e in self.edges))


class _SearchTree:
    """The breadth-first search from the basepoint that the module
    docstring states, over an automaton's buckets as they stand.

    queue lists the discovered vertices and pos inverts it; via[k] is the
    serial of the edge that discovered queue[k] (-1 for the basepoint).
    """

    def __init__(self, aut: StallingsAutomaton):
        self.aut = aut
        self.queue = [aut.base]
        self.via = [-1]
        self.pos = {aut.base: 0}

    def grow(self, targets: Container[int] = ()) -> int | None:
        """Search from the basepoint until a vertex of targets is
        discovered, and return it; None once every vertex is discovered and
        none is a target.  The basepoint is never discovered.

        A second call on an unchanged automaton continues in the same
        discovery order: it walks the discovered vertices again, which
        discovers nothing, and goes on where the first call stopped."""
        queue, via, pos = self.queue, self.via, self.pos
        adj, fars = self.aut.buckets, self.aut.far_ends
        for v in queue:
            for far, bucket in zip(fars, adj[v]):
                for i in bucket:
                    w = far[i]
                    if w not in pos:
                        pos[w] = len(queue)
                        queue.append(w)
                        via.append(i)
                        if w in targets:
                            return w
        return None

    def path(self, v: int, words: Sequence[Word]) -> Word:
        """Product of words[serial] along the tree path base -> v, each
        edge crossed backwards giving its inverse.  The words must be freely
        reduced; they are joined where they meet, and the product comes
        back freely reduced."""
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
        return join_reduced(reversed(chain))


def _read(aut: StallingsAutomaton, word: Word) -> tuple[int, int, Word]:
    """Read the longest prefix of a word that aut can read from the
    basepoint, taking the first edge of each bucket.

    Returns (letters read, end vertex, memory product along the path,
    the join of its freely reduced memories).  On a deterministic automaton
    the walk is unique.
    """
    v = aut.base
    adj, src, dst, mems = aut.buckets, aut.src, aut.dst, aut.mem
    parts: list[Word] = []
    read = 0
    for let in word:
        try:
            bucket = adj[v][_SLOT[let]]
        except KeyError:
            raise ValueError(f"letter {let} is none of {SLOT_LETTERS}") from None
        if not bucket:
            break
        i = bucket[0]
        # most edges carry no memory
        if let > 0:
            v = dst[i]
            if mems[i]:
                parts.append(mems[i])
        else:
            v = src[i]
            if mems[i]:
                parts.append(invert_word(mems[i]))
        read += 1
    return read, v, join_reduced(parts)


def _attach_petal(aut: StallingsAutomaton, word: FreeWord, start: int, end: int,
                  head: Word, tail: Word) -> None:
    """Add a path reading the non-empty word from start to end, on fresh
    vertices numbered after the existing ones.  Read along the word, its
    first edge carries the memory head and its last edge tail; a one-letter
    path carries head + tail.  An edge reading a negative letter is stored
    reversed, with the inverse memory.

    The path is appended in one pass, with no call per edge: its edges take
    the next serials in word order, each fresh vertex gets new buckets
    holding its two edges, start and end get one edge each (and buckets
    first, start before end, if they have none, which only the
    constructor's edges need), and every vertex on the path is marked
    changed.  This is what adding the edges one at a time in word order
    leaves, which the tests check against such a per-edge adder.
    """
    n = len(word)
    first = len(aut.src)
    fresh = max(aut.vertices()) + 1
    src, dst, buckets, slot = aut.src, aut.dst, aut.buckets, _SLOT
    if start not in buckets:
        buckets[start] = [[] for _ in SLOT_LETTERS]
    buckets[start][slot[word[0]]].append(first)
    # edge first + k reads word[k] from vertex a to the fresh vertex b,
    # whose buckets hold it and edge first + k + 1
    a, serial = start, first
    for b, let, after in zip(range(fresh, fresh + n - 1), word, word[1:]):
        if let > 0:
            src.append(a)
            dst.append(b)
        else:
            src.append(b)
            dst.append(a)
        adj: list[list[int]] = [[], [], [], []]
        adj[slot[-let]].append(serial)
        serial += 1
        adj[slot[after]].append(serial)
        buckets[b] = adj
        a = b
    # the last edge reaches end
    if word[-1] > 0:
        src.append(a)
        dst.append(end)
    else:
        src.append(end)
        dst.append(a)
    if end not in buckets:
        buckets[end] = [[] for _ in SLOT_LETTERS]
    buckets[end][slot[-word[-1]]].append(serial)
    aut.labels.extend(map(abs, word))
    mems: list[Word] = [()] * n
    mems[0] = head
    mems[-1] += tail
    if word[0] < 0:
        mems[0] = invert_word(mems[0])
    if n > 1 and word[-1] < 0:
        mems[-1] = invert_word(mems[-1])
    aut.mem.extend(mems)
    aut.alive.extend([True] * n)
    aut.changed.add(start)
    aut.changed.update(range(fresh, fresh + n - 1))
    aut.changed.add(end)


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


def _fold_in_place(aut: StallingsAutomaton) -> list[Word]:
    """Fold aut until it is deterministic and co-deterministic, then trim it.

    Takes the fold steps in the order the module docstring states, each
    off one search from the basepoint, which a closed folding grows on only
    when it has not yet discovered the folding's target.  Returns the
    relators of the closed foldings in fold order.
    """
    base = aut.base
    src, dst, mem, adj = aut.src, aut.dst, aut.mem, aut.buckets
    fars = aut.far_ends

    def is_dirty(v: int) -> bool:
        return max(map(len, adj[v])) > 1

    def recheck(v: int) -> None:
        if is_dirty(v):
            dirty.add(v)
        else:
            dirty.discard(v)

    # aut is connected and folding keeps it so: the search meets every
    # dirty vertex
    dirty = {v for v in aut.changed if is_dirty(v)}
    relators: list[Word] = []
    while dirty:
        # the first dirty vertex in discovery order; the search never
        # discovers the basepoint, which comes first
        tree = _SearchTree(aut)
        v = base if base in dirty else tree.grow(dirty)
        for slot, bucket in enumerate(adj[v]):
            if len(bucket) > 1:
                break
        keep, merge = bucket[0], bucket[1]
        if src[keep] == src[merge] and dst[keep] == dst[merge]:
            # closed folding: the two edges are parallel; read the relator
            # around the redundant cycle, conjugated back to the basepoint
            target = src[keep]
            if target not in tree.pos:
                tree.grow((target,))
            path = tree.path(target, mem)
            relator = join_reduced((path, mem[keep], invert_word(mem[merge]),
                                    invert_word(path)))
            if not relator:
                raise RuntimeError("closed folding produced an empty relator")
            relators.append(relator)
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
            gamma = join_reduced((invert_word(mem[merge]), mem[keep]))
        else:
            gamma = join_reduced((mem[merge], invert_word(mem[keep])))
        inv_gamma = invert_word(gamma)
        aut._remove_edge(merge)
        for k, (moved, into) in enumerate(zip(adj.pop(y), adj[z])):
            for i in moved:
                if k % 2 == 0:
                    src[i] = z
                    if gamma:
                        mem[i] = join_reduced((inv_gamma, mem[i]))
                else:
                    dst[i] = z
                    if gamma:
                        mem[i] = join_reduced((mem[i], gamma))
            if moved:
                into.extend(moved)
                into.sort()
        dirty.discard(y)
        recheck(z)
        if v != y:
            recheck(v)
    _trim(aut)
    return relators


# ---------------------------------------------------------------------------
# subgroup presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PresentationOnGenerators:
    """Presentation of <gens> on the given generators.

    relators are words over abstract letters x1..xp (p = generator_count)
    and normally generate the kernel of x_i -> gens[i-1], so substituting
    gens[i-1] for x_i in any relator freely reduces to the empty word.  That
    is not re-checked by expanding the relators; see subgroup_presentation.
    A free basis of <gens> is fold_generators(gens)[0].basis_words().
    """

    generator_count: int
    rank: int
    relators: tuple[Word, ...]

    def relator_names(self) -> tuple[str, ...]:
        names = tuple(f"x{i}" for i in range(1, self.generator_count + 1))
        return tuple(format_word(r, names) for r in self.relators)


def fold_generators(gens: Sequence[FreeWord]) -> tuple[StallingsAutomaton, tuple[Word, ...]]:
    """The folded automaton of the subgroup <gens> of F(p, q), and the
    relators its folds read off, over abstract letters x1..xp.

    Petals are read into the folded automaton one at a time.  Of the freely
    reduced petal word w, n letters long, the longest prefix that reads from
    the basepoint is read, k letters to a vertex u with memory product M.
    An empty w gives the relator x_i.  If all of w reads as a loop, it would
    fold on with a single closed folding, so its relator M x_i^-1 is emitted
    directly and the automaton is left untouched; this matches reading the
    new generator in the old ones.  Otherwise the inverse of the rest of w
    is read from the basepoint, j letters to a vertex v with memory product
    S.  When k + j < n, and not both u = v and w[k] = w[n-j-1]^-1, only the
    middle w[k:n-j] is attached, from u to v, its first edge carrying M^-1
    and its last x_i S; the module docstring shows that this is exactly what
    folding in the whole petal would leave.  Anything else is attached whole
    and folded letterwise, which may cascade.
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
            relators.append(join_reduced((head, (-petal,))))
            continue
        j, v, tail = _read(aut, invert_word(word[k:]))
        if k + j < n and not (u == v and word[k] == -word[n - j - 1]):
            _attach_petal(aut, word[k:n - j], u, v, invert_word(head), (petal,) + tail)
            continue
        _attach_petal(aut, word, base, base, (), (petal,))
        relators.extend(_fold_in_place(aut))
    return aut, tuple(relators)


def subgroup_presentation(gens: Sequence[FreeWord]) -> PresentationOnGenerators:
    """Rank and defining relators of the subgroup <gens> of F(p, q), read
    off fold_generators and checked: there are p - rank relators.

    No relator is expanded through gens: on long inputs that builds
    hundreds of millions of letters.  analyze checks the same fact on
    values instead.  It checks that each gens[i] is the value of its
    generator w_i, and that each relator r, substituted in the w_i,
    evaluates to I; so r(gens) has value I.  p and q freely generate F and
    F embeds in PSL2(Z), so r(gens) then freely reduces to the empty word.
    """
    aut, relators = fold_generators(gens)
    rank = aut.rank()
    if len(relators) != len(gens) - rank:
        raise RuntimeError(
            f"relator count {len(relators)} != {len(gens)} - rank {rank}")
    return PresentationOnGenerators(len(gens), rank, relators)
