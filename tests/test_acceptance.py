"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
Everything here runs at desk scale; the underlying computations are exact,
so every tolerance is exact equality.
"""

import functools
import random
from collections import Counter

from heq.psl2 import IDENTITY, ProjMat2
from heq.words import decompose, format_ab_word
from heq.freewords import (
    free_reduce,
    invert_word,
    parse_free_word,
    parse_word,
    pq_to_matrix,
    rewrite_from,
)
from heq.words import abelianize, eval_ab
from heq.equations import (
    HContext,
    evaluate,
    parse_eq_word,
    reduce_equation,
    render_equation,
    substitute,
)
from heq.enumeration import enumerate_kernel
from heq.pipeline import VERDICT_ALGEBRAIC, VERDICT_TRANSCENDENTAL, analyze, verify
from heq.schreier import build_schreier
from heq.stallings import subgroup_presentation
from heq.cli import main as cli_main

import conftest

H1 = ProjMat2(2, -1, -1, 1)
H2 = ProjMat2(2, -5, 1, -2)
G43 = ProjMat2(5, 3, 3, 2)
G44 = ProjMat2(1, 0, -2, 1)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")
        return wrapper
    return deco


@criterion(1, "decomposition of the four example matrices is exact")
def test_criterion_1_decomposition_vector():
    cases = [
        (G43, "b a b^2 a b a b^2 a"),
        (H1, "a b^2 a b"),
        (H2, "b a b a b^2 a b^2"),
        (G44, "a b a b"),
    ]
    for matrix, text in cases:
        assert format_ab_word(decompose(matrix)) == text


@criterion(2, "first worked example end to end (index 2, transcendental)")
def test_criterion_2_first_example():
    report = analyze([H1, H2], G43)
    assert report.index == 2
    ctx = report.ctx
    want = Counter(reduce_equation(parse_eq_word(t, ctx), ctx) for t in
                   ["h1", "x", "h2^2", "h2 h1 h2^-1", "h2 x h2^-1"])
    assert Counter(report.w_equations) == want
    trivials = [eq for eq in report.w_equations if eq.is_trivial()]
    assert len(trivials) == 1
    assert report.v_words == (
        parse_free_word("p"),
        parse_free_word("q^2"),
        parse_free_word("q p q p^-1 q^-1 p^-1 q^-1"),
        parse_free_word("q p q^-2 p^-1 q^-1"),
    )
    assert report.presentation.rank == 4
    assert report.presentation.relators == ()
    assert report.verdict == VERDICT_TRANSCENDENTAL


REFERENCE_V_TABLE = {
    1: "p", 2: "q^-1 p^-1", 3: "p^-1 q p",
    4: "q p q p q^-1 p^-1 q^-1 p^-1 q^-1",
    5: "q p q p^-1 q^-1 p^-1 q^-1",
    6: "q p q^2 p q^-1 p^-1 q^-1",
    8: "p^-1 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1 q^-1",
    9: "q p q p q p^2 q p",
    10: "q^-4 p^-1 q^-1",
    11: "q p q^4",
    12: "q^-1 p^-1 q p",
    13: "q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1",
}

REFERENCE_RELATORS = [
    "v1^-2 v2^-1 v1 v3^-1",
    "v1^-1 v2^-2 v1 v2^3 v1 v4^-1",
    "v1^-1 v2^-2 v1^-1 v2^2 v1 v5^-1",
    "v1^-1 v2^-2 v1^-1 v2^-1 v1 v2^2 v1 v6^-1",
    "v1^-1 v2 v1^-1 v2^3 v1 v8^-1",
    "v1^-1 v2^-3 v1 v2^-1 v1 v9^-1",
    "v2 v1 v2 v1 v2 v1 v2^2 v1 v10^-1",
    "v1^-1 v2^-2 v1^-1 v2^-1 v1^-1 v2^-1 v1^-1 v2^-1 v11^-1",
    "v2 v1^-1 v2^-1 v1 v12^-1",
    "v1^-1 v2^-2 v1^-1 v2^-1 v1 v2^3 v1 v13^-1",
]


@criterion(3, "second worked example end to end (index 6, algebraic)")
def test_criterion_3_second_example():
    report = analyze([H1, H2], G44)
    assert report.index == 6
    assert len(report.w_words) == 13
    assert sum(eq.is_trivial() for eq in report.w_equations) == 1
    table = {k: parse_free_word(t) for k, t in REFERENCE_V_TABLE.items()}
    assert Counter(report.v_words) == Counter(table.values())
    assert report.presentation.rank == 2
    assert len(report.presentation.relators) == 10
    nontrivial = report.nontrivial_ideal_equations()
    assert len(nontrivial) == 10
    for word in report.ideal_words:
        assert evaluate(word, report.ctx) == IDENTITY
    assert report.verdict == VERDICT_ALGEBRAIC
    # normal-closure agreement: the reference relators hold on the v-words
    names = tuple(f"v{i}" for i in range(1, 14))
    for text in REFERENCE_RELATORS:
        relator = parse_word(text, names)
        value = []
        for let in relator:
            part = table[abs(let)]
            value.extend(part if let > 0 else invert_word(part))
        assert free_reduce(value) == ()


REFERENCE_W_TEXTS = [
    "h1", "x h1 x^-1", "x^-1 h1 x", "h2 x^-1 h1 x h2", "h2 h1 h2^-1",
    "h2 x h1 x^-1 h2^-1", "x^-1 h2 x h2^-1", "h2 x^-1 h2 x",
    "x h2 x^-1 h2^-1", "h2 x h2 x^-1", "x^3", "h2 x^3 h2^-1",
]


@criterion(4, "matrix-form rendering of the first equation, reference order")
def test_criterion_4_matrix_rendering():
    # Under the reference generator ordering the first relator is
    # x1^-2 x2^-1 x1 x3^-1; substituted and reduced it must render with the
    # printed coefficient matrices.  (Our pipeline's own BFS ordering gives a
    # normal-closure-equivalent list; see README on ordering sensitivity.)
    ctx = HContext.from_matrices([H1, H2], G44)
    v_words = [parse_free_word(REFERENCE_V_TABLE[k]) for k in sorted(REFERENCE_V_TABLE)]
    pres = subgroup_presentation(v_words)
    first = pres.relators[0]
    assert first == parse_word("x1^-2 x2^-1 x1 x3^-1",
                               tuple(f"x{i}" for i in range(1, 13)))
    ws = [parse_eq_word(t, ctx) for t in REFERENCE_W_TEXTS]
    eq = reduce_equation(substitute(first, ws), ctx)
    assert eq.coefficient_matrices() == (
        ProjMat2(2, 3, 3, 5),
        ProjMat2(1, 1, 1, 2),
        ProjMat2(2, -1, -1, 1),
        ProjMat2(1, 1, 1, 2),
        IDENTITY,
    )
    assert eq.signs == (1, -1, -1, 1)
    assert render_equation(eq, ctx, matrices=True) == (
        "[[2,3],[3,5]] X [[1,1],[1,2]] X^-1 [[2,-1],[-1,1]] X^-1 [[1,1],[1,2]] X")


@criterion(5, "oracle: no witness at length 8 / witness at length 10")
def test_criterion_5_oracle():
    ctx43 = HContext.from_matrices([H1, H2], G43)
    assert enumerate_kernel(ctx43, 8).witnesses == ()
    ctx44 = HContext.from_matrices([H1, H2], G44)
    found = enumerate_kernel(ctx44, 10).witnesses
    assert len(found) >= 1
    specific = parse_eq_word("h1 x^-1 h1^-1 x h1^-1 x^-1 h1 x^-2", ctx44)
    assert evaluate(specific, ctx44) == IDENTITY
    assert specific in found


@criterion(6, "the kernel Schreier graph over {a, b} is the quotient Cayley graph")
def test_criterion_6_kernel_graph():
    # C2 x C3 as Z/6, x <-> (x % 2, x % 3): a -> 3 = (1,0), b -> 4 = (0,1)
    images = [3, 4]

    def image_of(word):
        img = 0
        for let in word:
            img = (img + (images[abs(let) - 1] if let > 0 else -images[abs(let) - 1])) % 6
        return img

    graph = build_schreier(("a", "b"), images)
    assert graph.index == 6
    vertex_image = {v: image_of(rep) for v, rep in enumerate(graph.reps)}
    assert vertex_image[0] == 0
    assert sorted(vertex_image.values()) == list(range(6))
    for v in range(6):
        for letter, delta in ((1, images[0]), (2, images[1])):
            assert vertex_image[graph.trans[(v, letter)]] == (vertex_image[v] + delta) % 6
            assert vertex_image[graph.trans[(v, -letter)]] == (vertex_image[v] - delta) % 6


@criterion(7, "randomized property suites (seed-fixed)")
def test_criterion_7_property_suites():
    rng = random.Random(conftest.SEED)

    # 200 random kernel words round-trip through the gamma rewriting
    letters = ["a", "b", "b^-1"]
    done = 0
    while done < 200:
        word = conftest.reduce_ab_reference(
            rng.choice(letters) for _ in range(rng.randrange(1, 30)))
        if abelianize(word):
            continue
        free, end = rewrite_from(0, word)
        assert end == 0 and pq_to_matrix(free) == eval_ab(word)
        done += 1

    # 100 random generator tuples: relator count and soundness
    for _ in range(100):
        gens = [
            free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(7)))
            for _ in range(rng.randrange(1, 6))
        ]
        pres = subgroup_presentation(gens)
        assert len(pres.relators) == pres.generator_count - pres.rank
        for rel in pres.relators:
            value = []
            for let in rel:
                part = gens[abs(let) - 1]
                value.extend(part if let > 0 else invert_word(part))
            assert free_reduce(value) == ()

    # 50 random analyses: master invariant and double-coset verdict stability
    for _ in range(50):
        s = rng.randrange(1, 3)
        hs = [conftest.random_matrix(rng, 6) for _ in range(s)]
        g = conftest.random_matrix(rng, 6)
        report = analyze(hs, g)
        for word in report.ideal_words:
            assert evaluate(word, report.ctx) == IDENTITY
        ha = hs[rng.randrange(s)]
        hb = hs[rng.randrange(s)]
        moved = analyze(hs, ha * g * hb)
        assert moved.verdict == report.verdict

    # the 18 matrix identities behind the rewriting table
    assert conftest.check_syllable_steps() == 18


@criterion(8, "negative paths: exit codes, fault injection")
def test_criterion_8_negative_paths(capsys):
    code = cli_main(["analyze", "[[1,2],[3,4]]"])
    capsys.readouterr()
    assert code == 2

    from dataclasses import replace

    report = analyze([H1, H2], G44)
    tampered = replace(report, verdict=VERDICT_TRANSCENDENTAL)
    assert not verify(tampered).ok
    bad_words = (report.ideal_words[0] + (1,),) + report.ideal_words[1:]
    assert not verify(replace(report, ideal_words=bad_words)).ok
    assert verify(report).ok
