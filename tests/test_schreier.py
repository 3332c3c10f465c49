import itertools

import pytest

from heq.freewords import Word, free_reduce, format_word, invert_word
from heq.schreier import (
    SchreierGraph,
    build_schreier,
    subgroup_generators,
    to_dot,
)


def image_oracle(images):
    """Membership in the kernel of the map sending letter i to images[i-1]
    in Z/6."""

    def oracle(word: Word) -> bool:
        img = 0
        for let in word:
            step = images[abs(let) - 1]
            img = (img + (step if let > 0 else -step)) % 6
        return img == 0

    return oracle


def oracle_schreier_reference(letters, oracle, index_cap):
    """The coset-probing builder that build_schreier replaced, kept as the
    reference: u*l lands in the existing coset v iff oracle(u l rep(v)^-1)."""
    letters = tuple(letters)
    reps: list[Word] = [()]
    trans: dict[tuple[int, int], int] = {}
    tree: set[tuple[int, int]] = set()
    v = 0
    while v < len(reps):
        for letter in range(1, len(letters) + 1):
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
                        raise RuntimeError(f"more than {index_cap} cosets found")
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


# images in Z/6 = C2 x C3, x <-> (x % 2, x % 3): a -> 3 = (1,0), b -> 4 = (0,1)
AB_IMAGES = [3, 4]
# h1, h2, x letter images for the two worked examples: (0,0), (1,0), (0,0)
# and (0,0), (1,0), (0,2)
IMAGES_43 = [0, 3, 0]
IMAGES_44 = [0, 3, 2]


def word_image(images, word):
    img = 0
    for let in word:
        step = images[abs(let) - 1]
        img = (img + (step if let > 0 else -step)) % 6
    return img


def test_kernel_graph_is_cayley_graph_of_quotient():
    graph = build_schreier(("a", "b"), AB_IMAGES)
    assert graph.index == 6
    # labeled based-graph isomorphism with the Cayley graph of Z/6:
    # vertices biject with the quotient via the representative images, the
    # basepoint maps to zero, and every edge matches addition
    img = {v: word_image(AB_IMAGES, rep) for v, rep in enumerate(graph.reps)}
    assert img[0] == 0
    assert len(set(img.values())) == 6
    for v in range(6):
        for letter, delta in ((1, AB_IMAGES[0]), (2, AB_IMAGES[1])):
            assert img[graph.trans[(v, letter)]] == (img[v] + delta) % 6
            assert img[graph.trans[(v, -letter)]] == (img[v] - delta) % 6


def test_first_example_graph():
    graph = build_schreier(("h1", "h2", "x"), IMAGES_43)
    assert graph.index == 2
    words = subgroup_generators(graph)
    names = tuple(format_word(w, graph.letters) for w in words)
    assert names == ("h1", "x", "h2 h1 h2^-1", "h2^2", "h2 x h2^-1")
    assert len(words) == 3 * 2 - 1


def test_second_example_graph():
    graph = build_schreier(("h1", "h2", "x"), IMAGES_44)
    assert graph.index == 6
    positive_edges = [(v, l) for v in range(6) for l in (1, 2, 3)]
    assert len(positive_edges) == 18
    words = subgroup_generators(graph)
    assert len(words) == 18 - 5
    oracle = image_oracle(IMAGES_44)
    assert all(oracle(w) for w in words)


def test_bouquet_single_letter():
    graph = build_schreier(("a",), [0])
    assert graph.index == 1
    assert subgroup_generators(graph) == ((1,),)


def test_generators_satisfy_oracle():
    for images in (AB_IMAGES, IMAGES_43, IMAGES_44):
        letters = tuple(f"l{i}" for i in range(1, len(images) + 1))
        oracle = image_oracle(images)
        graph = build_schreier(letters, images)
        for w in subgroup_generators(graph):
            assert oracle(w)


def test_regularity_and_inverse_transitions():
    graph = build_schreier(("h1", "h2", "x"), IMAGES_44)
    for v in range(graph.index):
        for letter in (1, 2, 3):
            for sl in (letter, -letter):
                assert (v, sl) in graph.trans
            fwd = graph.trans[(v, letter)]
            assert graph.trans[(fwd, -letter)] == v


def test_coset_of_examples(rng):
    graph = build_schreier(("a", "b"), AB_IMAGES)

    def coset_of(word):  # end vertex of the walk reading word from the basepoint
        v = 0
        for let in word:
            v = graph.trans[(v, let)]
        return v

    assert coset_of(()) == 0
    # the coset of ab is the vertex whose representative has image 1 = (1,1)
    v = coset_of((1, 2))
    assert word_image(AB_IMAGES, graph.reps[v]) == 1
    oracle = image_oracle(AB_IMAGES)
    for _ in range(100):
        word = free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(13)))
        assert oracle(word) == (coset_of(word) == 0)


def test_tree_reps_are_prefix_closed():
    graph = build_schreier(("h1", "h2", "x"), IMAGES_44)
    reps = set(graph.reps)
    for rep in graph.reps:
        assert rep[:-1] in reps


def test_bad_alphabet_rejected():
    with pytest.raises(ValueError):
        build_schreier((), ())
    with pytest.raises(ValueError):
        build_schreier(("a", "a"), AB_IMAGES)
    with pytest.raises(ValueError):
        build_schreier(("h1", "h2", "x"), AB_IMAGES)


def test_matches_oracle_reference_on_every_small_image_tuple():
    # every tuple of 1-4 letter images over Z/6: 6 + 36 + 216 + 1296
    group = range(6)
    count = 0
    for n in range(1, 5):
        letters = tuple(f"l{i}" for i in range(1, n + 1))
        for images in itertools.product(group, repeat=n):
            graph = build_schreier(letters, images)
            ref = oracle_schreier_reference(letters, image_oracle(images), 6)
            assert graph == ref, images
            assert subgroup_generators(graph) == subgroup_generators(ref), images
            count += 1
    assert count == 1554


def test_dot_output():
    graph = build_schreier(("h1", "h2", "x"), IMAGES_43)
    dot = to_dot(graph)
    assert dot.startswith("digraph")
    assert "style=bold" in dot
    assert 'label="h2"' in dot
