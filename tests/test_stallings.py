import hashlib
import random
from itertools import product

import pytest

from heq import stallings
from heq.freewords import free_reduce, invert_word, parse_free_word as pw, pq_to_matrix
from heq.pipeline import analyze
from heq.stallings import (
    Edge,
    FoldStep,
    StallingsAutomaton,
    build_flower,
    fold,
    stallings_membership,
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


def test_build_flower_sizes():
    assert len(build_flower([pw("p")]).edges) == 1
    flower = build_flower([pw("p"), pw("q^2")])
    assert len(flower.edges) == 3
    assert len(build_flower(V43).edges) == sum(len(w) for w in V43)


def test_build_flower_records_empty_words():
    flower = build_flower([(), pw("p"), ()])
    assert flower.trivial_petals == (1, 3)
    _, log = fold(flower)
    assert ((1,), (3,)) == log.relators[:2]


def test_fold_idempotent():
    aut, _ = fold(build_flower(V43))
    again, log = fold(aut)
    assert log.steps == ()
    assert again.canonical_edges() == aut.canonical_edges()


def test_fold_first_example_shape():
    aut, log = fold(build_flower(V43))
    assert aut.rank() == 4
    assert log.closed_count == 0
    # expected shape: two p-loops at the ends of a q-ladder of four
    # vertices, with a p-bridge in the middle
    fig = StallingsAutomaton(0, [
        Edge(0, 1, 0), Edge(0, 2, 1), Edge(1, 2, 0), Edge(1, 1, 2),
        Edge(2, 2, 3), Edge(3, 2, 2), Edge(3, 1, 3),
    ])
    assert aut.canonical_edges() == fig.canonical_edges()


def test_fold_second_example_counts():
    aut, log = fold(build_flower(V44))
    assert aut.rank() == 2
    assert log.closed_count == 10
    assert len(log.relators) == 10
    assert all(rel for rel in log.relators)


def test_fold_confluent_orders():
    for gens in (V43, V44, [pw("p^3"), pw("p^2")], [pw("p q"), pw("q p")]):
        a0, log0 = fold(build_flower(gens))
        a1, log1 = fold(build_flower(gens[::-1]))
        assert a0.rank() == a1.rank()
        assert log0.closed_count == log1.closed_count
        assert a0.canonical_edges() == a1.canonical_edges()


def test_membership_on_first_example_automaton():
    aut, _ = fold(build_flower(V43))
    assert stallings_membership(aut, ())
    assert stallings_membership(aut, pw("p"))
    assert not stallings_membership(aut, pw("q"))
    for word in V43:
        assert stallings_membership(aut, word)
    assert not stallings_membership(aut, pw("q p"))
    # unreduced words are reduced first: q p^-1 p q^-1 is trivial, though
    # p^-1 cannot be read after q
    assert stallings_membership(aut, (2, -1, 1, -2))
    q_aut, _ = fold(build_flower([pw("q")]))
    assert stallings_membership(q_aut, (1, -1))


def test_membership_requires_folded():
    with pytest.raises(ValueError):
        stallings_membership(build_flower(V43), pw("p"))


def test_membership_on_deterministic_flower():
    # the flower of p q has nothing to fold, so it is read as it stands
    flower = build_flower([pw("p q")])
    folded, log = fold(flower)
    assert log.steps == ()
    words = [w for n in range(5) for w in product((1, -1, 2, -2), repeat=n)]
    answers = [stallings_membership(flower, w) for w in words]
    assert answers == [stallings_membership(folded, w) for w in words]
    assert stallings_membership(flower, pw("q^-1 p^-1 p q p q"))
    assert not stallings_membership(flower, pw("q p"))


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
    aut, _ = fold(build_flower([pw("p^2"), pw("p^3")]))
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
        # the one-shot flower fold must agree on rank and closed-fold count
        aut, log = fold(build_flower(gens))
        assert aut.rank() == pres.rank == len(aut.basis_words())
        assert log.closed_count == len(pres.relators)
        # basis words generate: each original generator is readable
        for w in gens:
            if w:
                assert stallings_membership(aut, w)
        # core automaton: no hanging trees away from the basepoint
        degree = {}
        for e in aut.edges:
            degree[e.src] = degree.get(e.src, 0) + 1
            degree[e.dst] = degree.get(e.dst, 0) + 1
        for v in aut.vertices():
            if v != aut.base:
                assert degree.get(v, 0) >= 2


def test_basis_matches_matrices():
    aut, _ = fold(build_flower(V43))
    values = {pq_to_matrix(b) for b in aut.basis_words()}
    assert pq_to_matrix(pw("p")) in values


def test_fold_drops_unreachable_components():
    # fold keeps only the basepoint's component, the one the readers number
    # and rank() should count: a 2-cycle and a figure-eight off the
    # basepoint are dropped
    for far in ([Edge(5, 1, 6), Edge(6, 1, 5)],
                [Edge(5, 1, 5), Edge(5, 2, 5)]):
        aut, log = fold(StallingsAutomaton(0, [Edge(0, 1, 0)] + far))
        assert log.steps == ()
        assert aut.vertices() == {0}
        assert aut.rank() == len(aut.basis_words()) == 1
        assert aut.basis_words() == ((1,),)
        assert aut.dump() == "0* --p--> 0*"
        assert aut.canonical_edges() == ((0, 1, 0),)


def test_dump_format():
    aut, _ = fold(build_flower(V43))
    text = aut.dump()
    assert "--p-->" in text and "--q-->" in text
    assert "0*" in text


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


def _ref_fold_pair(aut, direction, keep_i, merge_i, steps):
    keep, merge = aut.edges[keep_i], aut.edges[merge_i]
    if keep.src == merge.src and keep.dst == merge.dst:
        path = _ref_mem_path(aut, keep.src)
        relator = free_reduce(path + keep.mem + invert_word(merge.mem) + invert_word(path))
        assert relator
        steps.append(FoldStep(True, keep.label, relator))
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
    steps.append(FoldStep(False, keep.label))
    aut.edges = [e for e in aut.edges if e is not merge]
    for e in aut.edges:
        if e.src == y:
            e.src = z
        if e.dst == y:
            e.dst = z


def reference_fold_in_place(aut):
    ref = ListAutomaton(aut)
    steps = []
    while (pair := _ref_find_foldable(ref)) is not None:
        _ref_fold_pair(ref, *pair, steps)
    ref.trim()
    # hand the folded edge list back in the engine's representation
    aut.__init__(aut.base, ref.edges)
    return steps


# dump and canonical_edges read the patched bfs_order
READERS = ("rank", "bfs_order", "trace", "basis_words")


def use_reference(patch):
    """Fold with the reference folder and read every automaton through
    ListAutomaton, subgroup_presentation's reads included."""
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
    """Petals of 100 to 170 letters that take the fold engine's search
    through resumed states.  Two fold fronts run at once in each, so several
    vertices are dirty at once.

    - Three petals on one 70-letter prefix fold together far from the
      basepoint.
    - t^2 and t^3, t cyclically reduced: the second collapses onto the
      first, absorbing vertices into the basepoint and its neighbours, which
      sends the search back to its start.
    - The same powers conjugated by a stem, beside a petal on that stem: the
      collapse happens far from the basepoint, and its closed folds have
      targets the search has not reached.
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


# every word of length at most 2, traced on each folded automaton
SHORT_WORDS = [w for n in range(3) for w in product((1, -1, 2, -2), repeat=n)]


def _edge_tuples(aut):
    return [(e.src, e.label, e.dst, e.mem) for e in aut.edges]


def _fold_outputs(aut, words):
    """What fold and every reader give on aut."""
    before = _edge_tuples(aut)
    folded, log = fold(aut)
    reads = [folded.bfs_order(), folded.rank(), [folded.trace(w) for w in words],
             folded.basis_words(), folded.dump(), folded.canonical_edges()]
    assert _edge_tuples(aut) == before, "fold changed its input"
    return _edge_tuples(folded), log.steps, reads


def test_fold_engine_matches_rescan_reference(rng, monkeypatch):
    sets = [random_generator_set(rng) for _ in range(250)] + long_generator_sets(rng)
    automata = [(build_flower(gens), gens + SHORT_WORDS) for gens in sets] + [
        (StallingsAutomaton(0, edges), SHORT_WORDS) for edges in (
            # a component the basepoint cannot reach is dropped, dirty
            # vertex and all
            [Edge(0, 1, 0), Edge(5, 1, 6), Edge(5, 1, 7), Edge(6, 2, 7)],
            # ... and so is one with a hanging path
            [Edge(0, 1, 0), Edge(5, 1, 6), Edge(5, 1, 7), Edge(6, 2, 7), Edge(7, 1, 8),
             Edge(8, 2, 9)],
            # the only dirty vertex lies away from the basepoint: parallel loops
            [Edge(0, 1, 1), Edge(1, 2, 1, (1,)), Edge(1, 2, 1, (2,)), Edge(1, 1, 0)],
            # parallel loops at the basepoint
            [Edge(0, 1, 0, (1,)), Edge(0, 1, 0, (2,)), Edge(0, 2, 1, (3,)), Edge(1, 2, 0)],
            # two q-edges fold at the basepoint, then a path hangs off it
            [Edge(0, 1, 0), Edge(0, 2, 1), Edge(1, 1, 2), Edge(2, 2, 3), Edge(0, 2, 4, (1,)),
             Edge(4, 1, 5)],
        )
    ]
    with monkeypatch.context() as patch:
        use_reference(patch)
        expected = ([_fold_outputs(*case) for case in automata],
                    [subgroup_presentation(gens) for gens in sets])
    actual = ([_fold_outputs(*case) for case in automata],
              [subgroup_presentation(gens) for gens in sets])
    assert actual == expected


# sha256 of (subgroup_presentation's rank, the flower fold's basis,
# subgroup_presentation's relators) and of the flower fold's (steps,
# canonical edges), on the v-words of h = (w1, w2, w3) and
# g = w1 w2^-1 for 1000-letter a/b words w_i drawn from each seed.  The fold
# order fixes both, so they must never change.
PINNED_LONG = {
    1: ("a65e399c73bcf7eee4155404aa9455ebab5f5b817828cc7dbecb70f322535f61",
        "6b1af99f2ab372f2926fe9a0a8b9af85e1e1cfc845964d4df853be7c93a781ff"),
    2: ("efff7da7d23a1149bfed8946b6e57b85edd9695fa9de8176a7c3e85ce5827827",
        "a55f3c1059acebb99060446a7eaf75aa6f04e2094e63541d4eb96323aae0c9f3"),
    3: ("cd6d41132482260246a92c90208a95837171d285c0b2868c174013b5c285ed72",
        "f0f935a4d8092c3af93e42a335fd9d4680444db67358721ac1d90c8efde99735"),
    4: ("7eff7296799fc8fb2b3e2bfc716d5d8620ef065ce22613b1b3f33d3b5fc76ae1",
        "249f369469806245c006353853fa2c3deadb37acc0f843e9420326a6289bbf41"),
}


@pytest.mark.parametrize("seed", sorted(PINNED_LONG))
def test_long_words_pinned(seed):
    r = random.Random(seed)
    mats = [eval_ab(tuple(syl for _ in range(500) for syl in ("a", r.choice(("b", "b2")))))
            for _ in range(3)]
    report = analyze(mats, mats[0] * mats[1].inv())
    pres = report.presentation
    aut, log = fold(build_flower(report.v_words))
    assert len(pres.relators) == log.closed_count == 3
    digests = tuple(hashlib.sha256(repr(value).encode()).hexdigest()
                    for value in ((pres.rank, aut.basis_words(), pres.relators),
                                  (log.steps, aut.canonical_edges())))
    assert digests == PINNED_LONG[seed]
