import itertools

import pytest

from heq import words
from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2
from heq.words import (
    abelianize,
    decompose,
    eval_ab,
    format_ab_word,
    image_pair,
    invert_ab,
    parse_ab_word,
    quotient_order,
    reduce_ab,
)
from heq.freewords import NotInKernel, rewrite_kernel

from conftest import random_matrix, run_python

_LETTER_MATS = {"a": MAT_A, "a^-1": MAT_A.inv(),
                "b": MAT_B, "b^-1": MAT_B.inv()}


def test_reduce_examples():
    assert reduce_ab(["a", "a"]) == ()
    assert reduce_ab(["b", "b", "b"]) == ()
    assert reduce_ab(["a", "b", "b", "a", "b"]) == ("a", "b2", "a", "b")


def test_reduce_handles_inverse_letters():
    assert reduce_ab(["a^-1"]) == ("a",)
    assert reduce_ab(["b^-1"]) == ("b2",)
    assert reduce_ab(["b", "b^-1"]) == ()


def test_eval_examples():
    assert eval_ab(()) == IDENTITY
    assert eval_ab(parse_ab_word("a b2 a b")) == ProjMat2(2, -1, -1, 1)
    assert eval_ab(parse_ab_word("a b a b")) == ProjMat2(1, 0, -2, 1)


def test_eval_matches_letterwise_product(rng):
    # independent oracle: multiply the letter matrices without any reduction
    letters = ["a", "a^-1", "b", "b^-1"]
    for _ in range(100):
        word = [rng.choice(letters) for _ in range(rng.randrange(30))]
        product = IDENTITY
        for letter in word:
            product = product * _LETTER_MATS[letter]
        assert eval_ab(reduce_ab(word)) == product


def test_invert_ab(rng):
    assert invert_ab(parse_ab_word("a b a b2")) == parse_ab_word("b a b2 a")
    assert invert_ab(()) == ()
    letters = ["a", "b", "b^-1"]
    for _ in range(200):
        word = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(30)))
        inv = invert_ab(word)
        assert eval_ab(inv) == eval_ab(word).inv()
        # the inverse of a normal form is a normal form
        assert reduce_ab(inv) == inv
        assert reduce_ab(word + inv) == ()


def test_decompose_examples():
    assert decompose(ProjMat2(5, 3, 3, 2)) == parse_ab_word("b a b2 a b a b2 a")
    assert decompose(ProjMat2(2, -5, 1, -2)) == parse_ab_word("b a b a b2 a b2")
    assert decompose(IDENTITY) == ()


def test_decompose_round_trip(rng):
    # uniqueness of normal forms: decompose(eval(w)) == w for normal-form w
    letters = ["a", "a^-1", "b", "b^-1"]
    for _ in range(200):
        word = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(40)))
        assert decompose(eval_ab(word)) == word


def test_decompose_word_budget(monkeypatch):
    # [[1,n],[0,1]] = (ba)^n expands to 2n letters; over the budget the
    # matrix is refused before any letter is built
    with pytest.raises(ValueError, match="budget"):
        decompose(ProjMat2(1, 10**9, 0, 1))
    assert len(decompose(ProjMat2(1, 3000, 0, 1))) == 6000
    monkeypatch.setattr(words, "WORD_BUDGET", 100)
    assert decompose(ProjMat2(1, 50, 0, 1)) == ("b", "a") * 50
    assert decompose(ProjMat2(1, -50, 0, 1)) == ("a", "b2") * 50
    for m in (ProjMat2(1, 51, 0, 1), ProjMat2(1, -51, 0, 1),
              # one a letter from a Euclidean round, then (ba)^50: 101 letters
              ProjMat2(0, -1, 1, 50)):
        with pytest.raises(ValueError, match="budget"):
            decompose(m)


_WRONG_EVAL = """
import heq.words
from heq.psl2 import IDENTITY, ProjMat2
if __debug__:
    raise SystemExit("not run under -O")
heq.words.eval_ab = lambda word: IDENTITY
try:
    heq.words.decompose(ProjMat2(2, 1, 1, 1))
except RuntimeError:
    print("RuntimeError")
"""


def test_decompose_self_check_survives_optimize():
    out = run_python(_WRONG_EVAL, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "RuntimeError"


_WRONG_TRANSLATION = """
import importlib
import heq.psl2
import heq.words
if __debug__:
    raise SystemExit("not run under -O")
heq.psl2.MAT_A = heq.psl2.MAT_B
try:
    importlib.reload(heq.words)
except RuntimeError:
    print("RuntimeError")
"""


def test_import_self_check_survives_optimize():
    # the import-time check that b*a is the translation T
    out = run_python(_WRONG_TRANSLATION, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "RuntimeError"


def test_abelianize_examples():
    # images are ints in Z/6 with a -> 3, b -> 4; image_pair gives (C2, C3)
    assert (abelianize(("a",)), abelianize(("b",))) == (3, 4)
    assert image_pair(abelianize(parse_ab_word("a b2 a b"))) == (0, 0)
    assert image_pair(abelianize(parse_ab_word("b a b a b2 a b2"))) == (1, 0)
    assert image_pair(abelianize(parse_ab_word("a b a b"))) == (0, 2)


def test_abelianize_is_homomorphism(rng):
    letters = ["a", "b", "b^-1"]
    for _ in range(100):
        u = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(15)))
        v = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(15)))
        assert abelianize(reduce_ab(u + v)) == (abelianize(u) + abelianize(v)) % 6


def test_kernel_iff_trivial_image(rng):
    # abelianize(w) == 0 exactly when the kernel rewriting succeeds
    for _ in range(50):
        w = decompose(random_matrix(rng))
        if abelianize(w) == 0:
            rewrite_kernel(w)
        else:
            with pytest.raises(NotInKernel):
                rewrite_kernel(w)


def test_quotient_subgroup_examples():
    assert quotient_order([0]) == 1
    assert quotient_order([3]) == 2  # (1,0)
    assert quotient_order([3, 2]) == 6  # (1,0), (0,2)
    # every tuple of up to 3 images against the closure under addition
    for n in range(4):
        for images in itertools.product(range(6), repeat=n):
            elems, frontier = {0}, [0]
            while frontier:
                cur = frontier.pop()
                for nxt in ((cur + img) % 6 for img in images):
                    if nxt not in elems:
                        elems.add(nxt)
                        frontier.append(nxt)
            assert quotient_order(images) == len(elems), images


def test_parse_format_round_trip():
    for text in ["", "a", "b a b2 a b a b2 a", "a b2"]:
        word = parse_ab_word(text)
        assert parse_ab_word(format_ab_word(word)) == word
    assert parse_ab_word("b,a b2 a^-1 b^-2 a b^-1 a") == parse_ab_word("b a b^2 a b a b^2 a")
    # one token grammar for every word: unspaced text is refused, like "pq"
    for text in ["a c b", "bab2abab2a", "ab"]:
        with pytest.raises(ValueError):
            parse_ab_word(text)
