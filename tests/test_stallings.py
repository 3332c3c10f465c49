import copy
import hashlib
import random
from itertools import product

import pytest

from heq import stallings
from heq.freewords import free_reduce, invert_word, parse_free_word as pw, pq_to_matrix
from heq.pipeline import analyze
from heq.psl2 import ProjMat2
from heq.stallings import (
    Edge,
    PresentationOnGenerators,
    StallingsAutomaton,
    fold_generators,
    subgroup_presentation,
)
from heq.words import eval_ab

V43 = [pw("p"), pw("q^2"), pw("q p q p^-1 q^-1 p^-1 q^-1"), pw("q p q^-2 p^-1 q^-1")]
V44 = [pw(s) for s in [
    "p", "q^-1 p^-1", "p^-1 q p", "q p q p q^-1 p^-1 q^-1 p^-1 q^-1",
    "q p q p^-1 q^-1 p^-1 q^-1", "q p q^2 p q^-1 p^-1 q^-1",
    "p^-1 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1 q^-1", "q p q p q p^2 q p",
    "q^-4 p^-1 q^-1", "q p q^4", "q^-1 p^-1 q p",
    "q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1"]]


def substitute_free(relator, gens):
    out = []
    for let in relator:
        part = gens[abs(let) - 1]
        out.extend(part if let > 0 else invert_word(part))
    return free_reduce(out)


def build_flower(gens):
    """The flower automaton, the reference the read-in is checked against:
    one petal per word, attached whole at the basepoint, the last edge of
    petal i carrying x_i.  An empty word gives no petal but the relator
    x_i, returned in the list of such relators."""
    aut = StallingsAutomaton(0, [])
    trivial = []
    for petal, word in enumerate(gens, start=1):
        if word:
            stallings._attach_petal(aut, word, aut.base, aut.base, (), (petal,))
        else:
            trivial.append((petal,))
    return aut, trivial


def flower_fold(gens):
    """The flower folded in one go by stallings._fold_in_place, as looked
    up at the call: (the folded automaton, its relators in fold order)."""
    aut, relators = build_flower(gens)
    return aut, relators + stallings._fold_in_place(aut)


def reads_loop(aut, word):
    """True iff the word, freely reduced, labels a closed path at the
    basepoint of aut, which must be deterministic."""
    assert all(len(bucket) <= 1 for buckets in aut.buckets.values() for bucket in buckets)
    hit = aut.trace(free_reduce(word))
    return hit is not None and hit[0] == aut.base


def reference_add_edge(aut, src, label, dst, mem):
    """The per-edge adder that stallings._attach_petal's one pass replaced,
    kept as its reference: append the edge under the next serial, give a
    new end its buckets, file the serial in the out bucket of src and the
    in bucket of dst, and mark both ends changed."""
    serial = len(aut.src)
    aut.src.append(src)
    aut.dst.append(dst)
    aut.labels.append(label)
    aut.mem.append(mem)
    aut.alive.append(True)
    for v, slot in ((src, 2 * label - 2), (dst, 2 * label - 1)):
        if v not in aut.buckets:
            aut.buckets[v] = [[] for _ in range(4)]
        aut.buckets[v][slot].append(serial)
        aut.changed.add(v)


def reference_attach_petal(aut, word, start, end, head, tail):
    """stallings._attach_petal one edge at a time, by reference_add_edge."""
    fresh = max(aut.vertices()) + 1
    cur = start
    last = len(word) - 1
    for pos, let in enumerate(word):
        nxt = end if pos == last else fresh
        fresh += 1
        mem = (head if pos == 0 else ()) + (tail if pos == last else ())
        if let > 0:
            reference_add_edge(aut, cur, let, nxt, mem)
        else:
            reference_add_edge(aut, nxt, -let, cur, invert_word(mem))
        cur = nxt


def automaton_state(aut):
    """Everything an automaton stores, its bucket map in key order."""
    return (aut.base, aut.src, aut.dst, aut.labels, aut.mem, aut.alive,
            list(aut.buckets.items()), aut.changed)


def test_build_flower_sizes():
    assert len(build_flower([pw("p")])[0].edges) == 1
    flower, _ = build_flower([pw("p"), pw("q^2")])
    assert len(flower.edges) == 3
    assert len(build_flower(V43)[0].edges) == sum(len(w) for w in V43)


def test_build_flower_records_empty_words():
    flower, trivial = build_flower([(), pw("p"), ()])
    assert trivial == [(1,), (3,)]
    assert len(flower.edges) == 1
    assert flower_fold([(), pw("p"), ()])[1] == [(1,), (3,)]
    # the read-in emits the same relators for them, in petal order
    assert fold_generators([(), pw("p"), ()])[1] == ((1,), (3,))


def test_fold_idempotent():
    aut, _ = fold_generators(V43)
    before = aut.canonical_edges()
    assert stallings._fold_in_place(aut) == []
    assert aut.canonical_edges() == before


def test_fold_first_example_shape():
    aut, relators = fold_generators(V43)
    assert aut.rank() == 4
    assert relators == ()
    # expected shape: two p-loops at the ends of a q-ladder of four
    # vertices, with a p-bridge in the middle
    fig = StallingsAutomaton(0, [
        Edge(0, 1, 0), Edge(0, 2, 1), Edge(1, 2, 0), Edge(1, 1, 2),
        Edge(2, 2, 3), Edge(3, 2, 2), Edge(3, 1, 3),
    ])
    assert aut.canonical_edges() == fig.canonical_edges()


def test_fold_second_example_counts():
    aut, relators = fold_generators(V44)
    assert aut.rank() == 2
    assert len(relators) == 10
    assert all(rel for rel in relators)


def test_fold_confluent_orders():
    for gens in (V43, V44, [pw("p^3"), pw("p^2")], [pw("p q"), pw("q p")]):
        a0, rels0 = fold_generators(gens)
        a1, rels1 = fold_generators(gens[::-1])
        assert a0.rank() == a1.rank()
        assert len(rels0) == len(rels1)
        assert a0.canonical_edges() == a1.canonical_edges()


def test_membership_on_first_example_automaton():
    aut, _ = fold_generators(V43)
    assert reads_loop(aut, ())
    assert reads_loop(aut, pw("p"))
    assert not reads_loop(aut, pw("q"))
    for word in V43:
        assert reads_loop(aut, word)
    assert not reads_loop(aut, pw("q p"))
    # unreduced words are reduced first: q p^-1 p q^-1 is trivial, though
    # p^-1 cannot be read after q
    assert reads_loop(aut, (2, -1, 1, -2))
    q_aut, _ = fold_generators([pw("q")])
    assert reads_loop(q_aut, (1, -1))


def test_membership_on_deterministic_flower():
    # the flower of p q has nothing to fold, so it is read as it stands
    flower, _ = build_flower([pw("p q")])
    folded, relators = flower_fold([pw("p q")])
    # no folding at all, open or closed: every edge stands as it was built
    assert relators == []
    assert folded.edges == flower.edges
    words = [w for n in range(5) for w in product((1, -1, 2, -2), repeat=n)]
    answers = [reads_loop(flower, w) for w in words]
    assert answers == [reads_loop(folded, w) for w in words]
    assert answers == [reads_loop(fold_generators([pw("p q")])[0], w) for w in words]
    assert reads_loop(flower, pw("q^-1 p^-1 p q p q"))
    assert not reads_loop(flower, pw("q p"))


def test_trace_refuses_letters_other_than_p_q():
    aut, _ = fold_generators(V43)
    assert aut.trace((1, 1)) is not None
    for bad in (0, 3, -3):
        for word in ((bad,), (1, bad)):
            with pytest.raises(ValueError):
                aut.trace(word)


def test_constructor_refuses_labels_other_than_p_q():
    # 0 and 3 have no bucket; -1 and -2 would be filed reversed
    for bad in (0, 3, -1, -2):
        with pytest.raises(ValueError):
            StallingsAutomaton(0, [Edge(0, 1, 1), Edge(0, bad, 1)])


def test_constructor_refuses_unreduced_memories(monkeypatch):
    # the fold joins memories at their junction only, which needs them
    # freely reduced; a refused list files no edge
    filed = []
    monkeypatch.setattr(stallings, "_attach_petal",
                        lambda *args: filed.append(args))
    for bad in ((1, -1), (2, 1, -1, 3), (-2, 2)):
        with pytest.raises(ValueError):
            StallingsAutomaton(0, [Edge(0, 1, 1, (1, 2)), Edge(1, 2, 0, bad)])
    assert filed == []
    StallingsAutomaton(0, [Edge(0, 1, 1, (1, 2)), Edge(1, 2, 0, (2, -1, -3))])
    assert len(filed) == 2


def test_attach_petal_matches_per_edge_reference(rng):
    """The one-pass petal read-in leaves what adding the path one edge at
    a time leaves, on seeded automata, paths and memories."""
    autos = [StallingsAutomaton(0, [])] + [fold_generators(random_generator_set(rng))[0]
                                            for _ in range(25)]
    covered = set()
    for aut in autos:
        vertices = sorted(aut.vertices())
        for length in (1, 2, rng.randrange(3, 9), rng.randrange(60, 160)):
            word = reduced_word(rng, length)
            unreduced = tuple(rng.choice([1, -1, 2, -2]) for _ in range(length))
            for path in (word, invert_word(word), unreduced):
                head, tail = reduced_word(rng, rng.randrange(1, 4)), reduced_word(rng, 2)
                for memories in product(((), head), ((), tail)):
                    start, end = rng.choice(vertices), rng.choice(vertices)
                    got, expected = copy.deepcopy(aut), copy.deepcopy(aut)
                    stallings._attach_petal(got, path, start, end, *memories)
                    reference_attach_petal(expected, path, start, end, *memories)
                    assert automaton_state(got) == automaton_state(expected)
                    covered.add((len(path) > 1, path[0] < 0, path[-1] < 0,
                                 bool(memories[0]), bool(memories[1])))
    # one-letter and longer paths, each end's letter of either sign (one
    # sign for a one-letter path), each memory empty or not
    assert len(covered) == 8 + 16


def test_constructor_adds_edges_as_the_per_edge_reference(rng):
    """Edges handed to the constructor, new vertices and loops among them,
    are filed as reference_add_edge files them."""
    edge_lists = [list(edges) for edges in HAND_BUILT] + [
        [Edge(rng.randrange(6), rng.choice((1, 2)), rng.randrange(6),
              reduced_word(rng, rng.randrange(3))) for _ in range(rng.randrange(1, 12))]
        for _ in range(50)]
    for edges in edge_lists:
        expected = StallingsAutomaton(0, [])
        for e in edges:
            reference_add_edge(expected, e.src, e.label, e.dst, e.mem)
        assert automaton_state(StallingsAutomaton(0, edges)) == automaton_state(expected)


def test_presentation_free_pair():
    pres = subgroup_presentation([pw("p"), pw("q^2")])
    assert pres.rank == 2
    assert pres.relators == ()


def test_presentation_first_example():
    pres = subgroup_presentation(V43)
    assert (pres.generator_count, pres.rank) == (4, 4)
    assert pres.relators == ()


def test_presentation_second_example_relators():
    pres = subgroup_presentation(V44)
    assert (pres.generator_count, pres.rank) == (12, 2)
    assert len(pres.relators) == 10
    # frozen regression strings; generator indices count only the petals
    # that actually entered the flower
    assert pres.relator_names() == (
        "x1^-2 x2^-1 x1 x3^-1",
        "x1^-1 x2^-2 x1 x2^3 x1 x4^-1",
        "x1^-1 x2^-2 x1^-1 x2^2 x1 x5^-1",
        "x1^-1 x2^-2 x1^-1 x2^-1 x1 x2^2 x1 x6^-1",
        "x1^-1 x2 x1^-1 x2^3 x1 x7^-1",
        "x1^-1 x2^-3 x1 x2^-1 x1 x8^-1",
        "x2 x1 x2 x1 x2 x1 x2^2 x1 x9^-1",
        "x1^-1 x2^-2 x1^-1 x2^-1 x1^-1 x2^-1 x1^-1 x2^-1 x10^-1",
        "x2 x1^-1 x2^-1 x1 x11^-1",
        "x1^-1 x2^-2 x1^-1 x2^-1 x1 x2^3 x1 x12^-1",
    )


def test_presentation_empty_generator():
    pres = subgroup_presentation([(), pw("p")])
    assert pres.generator_count == 2
    assert pres.rank == 1
    assert pres.relators == ((1,),)


def test_presentation_cascade_collapse():
    # <p^2, p^3> = <p>: folding in the second petal cascades and closes once
    pres = subgroup_presentation([pw("p^2"), pw("p^3")])
    assert (pres.rank, len(pres.relators)) == (1, 1)
    assert substitute_free(pres.relators[0], [pw("p^2"), pw("p^3")]) == ()
    aut, _ = fold_generators([pw("p^2"), pw("p^3")])
    assert aut.basis_words() == (pw("p"),)


def test_presentation_random_tuples(rng):
    for _ in range(100):
        gens = [
            free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(7)))
            for _ in range(rng.randrange(1, 6))
        ]
        pres = subgroup_presentation(gens)
        assert len(pres.relators) == pres.generator_count - pres.rank
        for rel in pres.relators:
            assert rel, "trivial relator emitted"
            assert substitute_free(rel, gens) == ()
        aut, relators = fold_generators(gens)
        assert relators == pres.relators
        assert pres.rank == aut.rank() == len(aut.basis_words())
        # deterministic: no bucket holds two edges
        for buckets in aut.buckets.values():
            assert all(len(bucket) <= 1 for bucket in buckets)
        # core automaton: no hanging trees away from the basepoint
        degree = {}
        for e in aut.edges:
            degree[e.src] = degree.get(e.src, 0) + 1
            degree[e.dst] = degree.get(e.dst, 0) + 1
        for v in aut.vertices():
            if v != aut.base:
                assert degree.get(v, 0) >= 2
        # each generator reads as a loop at the basepoint
        for w in gens:
            if w:
                assert reads_loop(aut, w)
        # the one-shot flower fold gives the same automaton and as many relators
        flower, flower_relators = flower_fold(gens)
        assert flower.canonical_edges() == aut.canonical_edges()
        assert flower.basis_words() == aut.basis_words()
        assert len(flower_relators) == len(pres.relators)


def test_basis_matches_matrices():
    aut, _ = fold_generators(V43)
    values = {pq_to_matrix(b) for b in aut.basis_words()}
    assert pq_to_matrix(pw("p")) in values


# ---------------------------------------------------------------------------
# reference: the automaton as a plain edge list, read and folded by
# rescanning the whole list; it shares no traversal code with the engine
# ---------------------------------------------------------------------------

class ListAutomaton:
    """A copy of an automaton's live edges, in order, as a mutable list."""

    def __init__(self, aut):
        self.base = aut.base
        self.edges = list(aut.edges)

    def vertices(self):
        verts = {self.base}
        for e in self.edges:
            verts.add(e.src)
            verts.add(e.dst)
        return verts

    def rank(self):
        return len(self.edges) - (len(self.vertices()) - 1)

    def _adjacency(self):
        """vertex -> [(label, direction 0=out/1=in, edge index, other end)]."""
        adj = {v: [] for v in self.vertices()}
        for i, e in enumerate(self.edges):
            adj[e.src].append((e.label, 0, i, e.dst))
            adj[e.dst].append((e.label, 1, i, e.src))
        for lst in adj.values():
            lst.sort()
        return adj

    def bfs_order(self):
        return list(self.spanning_tree()[1])

    def trace(self, word):
        out, inc = {}, {}
        for e in self.edges:
            out[(e.src, e.label)] = (e.dst, e)
            inc[(e.dst, e.label)] = (e.src, e)
        v = self.base
        mem = []
        for let in word:
            hop = out.get((v, let)) if let > 0 else inc.get((v, -let))
            if hop is None:
                return None
            v = hop[0]
            mem.extend(hop[1].mem if let > 0 else invert_word(hop[1].mem))
        return v, free_reduce(mem)

    def spanning_tree(self):
        adj = self._adjacency()
        tree = set()
        path = {self.base: ()}
        queue = [self.base]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for label, direction, idx, other in adj[v]:
                if other not in path:
                    path[other] = path[v] + ((label,) if direction == 0 else (-label,))
                    tree.add(idx)
                    queue.append(other)
        return tree, path

    def basis_words(self):
        tree, path = self.spanning_tree()
        bfs_index = {v: i for i, v in enumerate(path)}
        nontree = [i for i in range(len(self.edges)) if i not in tree]
        nontree.sort(key=lambda i: (bfs_index[self.edges[i].src], self.edges[i].label,
                                    bfs_index[self.edges[i].dst], i))
        return tuple(free_reduce(path[self.edges[i].src] + (self.edges[i].label,)
                                 + invert_word(path[self.edges[i].dst])) for i in nontree)

    def trim(self):
        """Remove hanging trees: non-basepoint vertices of total degree <= 1."""
        while True:
            degree = {v: 0 for v in self.vertices()}
            for e in self.edges:
                degree[e.src] += 1
                degree[e.dst] += 1
            dead = [v for v, d in degree.items() if d <= 1 and v != self.base]
            if not dead:
                return
            self.edges = [e for e in self.edges if e.src not in dead and e.dst not in dead]


def _ref_mem_path(aut, target):
    """Memory product along a BFS path base -> target in the current graph."""
    if target == aut.base:
        return ()
    adj = aut._adjacency()
    mem = {aut.base: ()}
    queue = [aut.base]
    for v in queue:
        for _, direction, idx, other in adj[v]:
            if other in mem:
                continue
            e = aut.edges[idx]
            mem[other] = free_reduce(mem[v] + (e.mem if direction == 0 else invert_word(e.mem)))
            if other == target:
                return mem[other]
            queue.append(other)
    raise RuntimeError(f"vertex {target} unreachable from basepoint")


def _ref_find_foldable(aut):
    """First foldable pair (direction, edge index kept, edge index merged)."""
    by_dir = ({}, {})
    for i, e in enumerate(aut.edges):
        by_dir[0].setdefault((e.src, e.label), []).append(i)
        by_dir[1].setdefault((e.dst, e.label), []).append(i)
    for v in aut.bfs_order():
        for label in (1, 2):
            for direction in (0, 1):
                bucket = by_dir[direction].get((v, label), [])
                if len(bucket) >= 2:
                    return direction, bucket[0], bucket[1]
    return None


def _ref_gauge(aut, vertex, gamma):
    for e in aut.edges:
        if e.src == vertex:
            e.mem = free_reduce(invert_word(gamma) + e.mem)
        if e.dst == vertex:
            e.mem = free_reduce(e.mem + gamma)


def _ref_fold_pair(aut, direction, keep_i, merge_i, relators):
    keep, merge = aut.edges[keep_i], aut.edges[merge_i]
    if keep.src == merge.src and keep.dst == merge.dst:
        path = _ref_mem_path(aut, keep.src)
        relator = free_reduce(path + keep.mem + invert_word(merge.mem) + invert_word(path))
        assert relator
        relators.append(relator)
        del aut.edges[merge_i]
        return
    end = "dst" if direction == 0 else "src"
    if getattr(merge, end) == aut.base:
        keep, merge = merge, keep
    y, z = getattr(merge, end), getattr(keep, end)
    if direction == 0:
        _ref_gauge(aut, y, free_reduce(invert_word(merge.mem) + keep.mem))
    else:
        _ref_gauge(aut, y, free_reduce(merge.mem + invert_word(keep.mem)))
    aut.edges = [e for e in aut.edges if e is not merge]
    for e in aut.edges:
        if e.src == y:
            e.src = z
        if e.dst == y:
            e.dst = z


def reference_fold_in_place(aut):
    ref = ListAutomaton(aut)
    relators = []
    while (pair := _ref_find_foldable(ref)) is not None:
        _ref_fold_pair(ref, *pair, relators)
    ref.trim()
    # hand the folded edge list back in the engine's representation
    aut.__init__(aut.base, ref.edges)
    return relators


# canonical_edges reads the patched bfs_order
READERS = ("rank", "bfs_order", "trace", "basis_words")


def use_reference(patch):
    """Fold with the reference folder and read every automaton through
    ListAutomaton."""
    patch.setattr(stallings, "_fold_in_place", reference_fold_in_place)
    for name in READERS:
        method = getattr(ListAutomaton, name)
        patch.setattr(StallingsAutomaton, name,
                      lambda aut, *args, method=method: method(ListAutomaton(aut), *args))


def random_generator_set(rng):
    """Up to six words: random letters (not always freely reduced, so an
    interior vertex can be dirty before any fold), empty words, repeats,
    powers and concatenations of earlier words."""
    gens = []
    for _ in range(rng.randrange(1, 7)):
        kind = rng.random()
        if kind < 0.1:
            gens.append(())
        elif kind < 0.2 and gens:
            gens.append(rng.choice(gens))
        elif kind < 0.3 and gens:
            gens.append(rng.choice(gens) * rng.randrange(2, 4))
        elif kind < 0.45 and gens:
            gens.append(rng.choice(gens) + rng.choice(gens))
        else:
            gens.append(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 12))))
    return gens


def reduced_word(rng, length, cyclic=False):
    """A freely reduced word of exactly the given length; with cyclic, its
    last letter does not cancel its first either."""
    while True:
        word = []
        while len(word) < length:
            let = rng.choice([1, -1, 2, -2])
            if not word or let != -word[-1]:
                word.append(let)
        if not cyclic or word[0] != -word[-1]:
            return tuple(word)


def long_generator_sets(rng):
    """Petals of 100 to 170 letters.  Two fold fronts run at once in each,
    so several vertices are dirty at once.

    - Three petals on one 70-letter prefix fold together far from the
      basepoint.
    - t^2 and t^3, t cyclically reduced: the second collapses onto the
      first, absorbing vertices into the basepoint and its neighbours.
    - The same powers conjugated by a stem, beside a petal on that stem: the
      collapse happens far from the basepoint, and so do its closed folds.
    """
    stem = reduced_word(rng, 70)
    shared = [free_reduce(stem + reduced_word(rng, rng.randrange(30, 80)))
              for _ in range(3)]
    t = reduced_word(rng, 50, cyclic=True)
    c, u = reduced_word(rng, 30), reduced_word(rng, 35, cyclic=True)
    conjugated = [free_reduce(c + u * 2 + invert_word(c)),
                  free_reduce(c + reduced_word(rng, 70)),
                  free_reduce(c + u * 3 + invert_word(c))]
    return [shared, [t * 2, t * 3], conjugated]


def t_power_sets():
    """The v-words of T^20 over T and of T^2 over T^40, T = [[1,1],[0,1]]:
    most of their fold steps see several dirty vertices at once."""
    return [list(analyze([ProjMat2.from_rows(h)], ProjMat2.from_rows(g)).v_words)
            for h, g in (([[1, 20], [0, 1]], [[1, 1], [0, 1]]),
                         ([[1, 2], [0, 1]], [[1, 40], [0, 1]]))]


def letterwise_fold(gens, fold_in_place):
    """fold_generators without the read-in: a petal that does not read as
    a loop is attached whole at the basepoint and folded letterwise by
    fold_in_place."""
    aut = StallingsAutomaton(0, [])
    relators = []
    for petal, word in enumerate(gens, start=1):
        word = free_reduce(word)
        if not word:
            relators.append((petal,))
            continue
        hit = aut.trace(word)
        if hit is not None and hit[0] == aut.base:
            relators.append(free_reduce(hit[1] + (-petal,)))
            continue
        stallings._attach_petal(aut, word, aut.base, aut.base, (), (petal,))
        relators.extend(fold_in_place(aut))
    return aut, tuple(relators)


def letterwise_presentation(gens, fold_in_place):
    """subgroup_presentation over letterwise_fold."""
    aut, relators = letterwise_fold(gens, fold_in_place)
    return PresentationOnGenerators(len(gens), aut.rank(), relators)


# (q p)^15, then a middle, then (q p)^15 again: the second and third
# petals read both ends and attach only their three-letter middles
_QP15 = " ".join(["q p"] * 15)
# (generator set, how often subgroup_presentation folds), at the
# boundaries of the read-in: a petal reads its longest prefix, k letters to
# u, and the inverse of the rest, j letters to v, and attaches only its
# middle when k + j < n and not both u = v and w[k] = w[n-j-1]^-1
BOUNDARY_SETS = {
    # (a) a one-letter middle p^-1, from the basepoint to the vertex
    # halfway round the q^2 loop
    "one-letter-middle": (["q^2", "q^-2 p^-1 q^-1"], 0),
    # (b) both reads end at the basepoint and the middle q p^-1 q^-1
    # would start and end on inverse letters there: it must fold
    "fronts-meet-and-cancel": (["p", "p q p^-1 q^-1 p^-1"], 1),
    # (c) p^-1 reads fully but ends off the basepoint: it must fold
    "reads-off-the-basepoint": (["p^-2", "p^-1"], 1),
    # (d) the first petal is not cyclically reduced: it must fold
    "cyclically-unreduced-first": (["p q^-1 p^-1", "q"], 1),
    # (e) the middle p^-2 starts and ends on a negative letter
    "negative-letters-at-both-ends": (["p^-1 q^-1 p^-1", "p^-4"], 0),
    "long-ends": ([f"{_QP15} {m} {_QP15}" for m in ("p q p", "q^2 p^-1", "q^-1 p q")], 0),
}


# every word of length at most 2, traced on each folded automaton
SHORT_WORDS = [w for n in range(3) for w in product((1, -1, 2, -2), repeat=n)]


# connected automata built by hand, each folded as it stands
HAND_BUILT = (
    # the only dirty vertex lies away from the basepoint: parallel loops
    [Edge(0, 1, 1), Edge(1, 2, 1, (1,)), Edge(1, 2, 1, (2,)), Edge(1, 1, 0)],
    # parallel loops at the basepoint
    [Edge(0, 1, 0, (1,)), Edge(0, 1, 0, (2,)), Edge(0, 2, 1, (3,)), Edge(1, 2, 0)],
    # two q-edges fold at the basepoint, then a path hangs off it
    [Edge(0, 1, 0), Edge(0, 2, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(0, 2, 4, (1,)),
     Edge(4, 1, 5)],
    # the search stops at vertex 1, in the middle of the basepoint's edges,
    # before it discovers 2, the source of the parallel edges into 1
    [Edge(0, 1, 1), Edge(2, 2, 1, (1,)), Edge(2, 2, 1, (2,)), Edge(2, 1, 0, (3,))],
)


def _fold_outputs(aut, relators, words):
    """A folded automaton's edges and every reader's output on it, with
    the relators its fold read off."""
    reads = [aut.bfs_order(), aut.rank(), [aut.trace(w) for w in words],
             aut.basis_words(), aut.canonical_edges()]
    return [(e.src, e.label, e.dst, e.mem) for e in aut.edges], relators, reads


def _gamma_outputs(aut, relators, words):
    """The folded automaton of a generator set as its readers give it, and
    its relators.  The read-in and the letterwise fold number its vertices
    differently, so vertices are named by their place in bfs_order."""
    index = {v: k for k, v in enumerate(aut.bfs_order())}
    edges = sorted((index[e.src], e.label, index[e.dst], e.mem) for e in aut.edges)
    traces = [hit and (index[hit[0]], hit[1]) for hit in map(aut.trace, words)]
    return edges, aut.rank(), traces, aut.basis_words(), aut.canonical_edges(), relators


def test_fold_engine_matches_rescan_reference(rng, monkeypatch):
    sets = ([random_generator_set(rng) for _ in range(250)] + long_generator_sets(rng)
            + [[pw(w) for w in gens] for gens, _ in BOUNDARY_SETS.values()] + t_power_sets())

    def outputs(fold_gens):
        """Every flower and hand-built automaton folded by
        stallings._fold_in_place, and each set's automaton from fold_gens."""
        flowers = [_fold_outputs(*flower_fold(gens), gens + SHORT_WORDS) for gens in sets]
        hand_built = []
        for edges in HAND_BUILT:
            aut = StallingsAutomaton(0, edges)
            hand_built.append(_fold_outputs(aut, stallings._fold_in_place(aut), SHORT_WORDS))
        gammas = [_gamma_outputs(*fold_gens(gens), gens + SHORT_WORDS) for gens in sets]
        return flowers, hand_built, gammas

    # the expected automata fold every petal letterwise; the engine's
    # read-in must leave the same automaton and relators
    with monkeypatch.context() as patch:
        use_reference(patch)
        expected = outputs(lambda gens: letterwise_fold(gens, reference_fold_in_place))
    assert outputs(fold_generators) == expected
    assert [_gamma_outputs(*letterwise_fold(gens, stallings._fold_in_place), gens + SHORT_WORDS)
            for gens in sets] == expected[2]


@pytest.mark.parametrize("index, relators", [(0, [(1, -2)]), (3, [(-3, 1, -2, 3)])],
                         ids=("found", "grown-on"))
def test_one_search_per_fold_step(index, relators, monkeypatch):
    """The one closed folding of each automaton lies away from the
    basepoint; its relator is read off the search that found it, grown on
    to the folding's source in HAND_BUILT[3]."""
    searches = []

    class CountedSearch(stallings._SearchTree):
        def __init__(self, aut):
            searches.append(aut)
            super().__init__(aut)

    monkeypatch.setattr(stallings, "_SearchTree", CountedSearch)
    aut = StallingsAutomaton(0, HAND_BUILT[index])
    assert stallings._fold_in_place(aut) == relators
    assert len(searches) == 1


@pytest.mark.parametrize("name", sorted(BOUNDARY_SETS))
def test_clean_petals_are_never_folded(name, monkeypatch):
    """A petal whose middle attaches cleanly never calls the fold, so the
    read-in cannot go dead unnoticed; every other petal folds."""
    words, expected_folds = BOUNDARY_SETS[name]
    gens = [pw(w) for w in words]
    reference = letterwise_presentation(gens, stallings._fold_in_place)
    calls = []
    fold_in_place = stallings._fold_in_place
    monkeypatch.setattr(stallings, "_fold_in_place",
                        lambda aut: calls.append(aut) or fold_in_place(aut))
    assert subgroup_presentation(gens) == reference
    assert len(calls) == expected_folds


# sha256 of (subgroup_presentation's rank, the basis of its folded
# automaton, subgroup_presentation's relators) and of the flower fold's
# (relators, canonical edges), on the v-words of h = (w1, w2, w3) and
# g = w1 w2^-1 for 1000-letter a/b words w_i drawn from each seed.  The fold
# order fixes both, so they must never change.
PINNED_LONG = {
    1: ("a65e399c73bcf7eee4155404aa9455ebab5f5b817828cc7dbecb70f322535f61",
        "24570b879a0bd9266a07749b15b82508046ce819a83fecab4ffc208c1a149b13"),
    2: ("efff7da7d23a1149bfed8946b6e57b85edd9695fa9de8176a7c3e85ce5827827",
        "56ac763f2018f127afb4b88d625eacf2200ab40409b60cfe1cca2035e1c38341"),
    3: ("cd6d41132482260246a92c90208a95837171d285c0b2868c174013b5c285ed72",
        "eabaabc35da5a6cde4e2a31cee3d160865f7a740f9e47137c6743997fb863d50"),
    4: ("7eff7296799fc8fb2b3e2bfc716d5d8620ef065ce22613b1b3f33d3b5fc76ae1",
        "8865064f3954492b8d7bc8f4a04e1729efbbc9bde0d26da6996a6b66e5735a20"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_LONG))
def test_long_words_pinned(seed):
    r = random.Random(seed)
    mats = [eval_ab(tuple(syl for _ in range(500) for syl in ("a", r.choice(("b", "b2")))))
            for _ in range(3)]
    report = analyze(mats, mats[0] * mats[1].inv())
    pres = report.presentation
    aut, relators = fold_generators(report.v_words)
    flower, flower_relators = flower_fold(report.v_words)
    assert relators == pres.relators
    assert len(pres.relators) == len(flower_relators) == 3
    assert flower.canonical_edges() == aut.canonical_edges()
    digests = tuple(hashlib.sha256(repr(value).encode()).hexdigest()
                    for value in ((pres.rank, aut.basis_words(), pres.relators),
                                  (flower_relators, flower.canonical_edges())))
    assert digests == PINNED_LONG[seed]
