import itertools

import pytest

from heq import words
from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2, _trusted
from heq.words import (
    abelianize,
    decompose,
    eval_ab,
    expand,
    image_pair,
    invert_ab,
    peel,
    peel_image,
    quotient_order,
)
from heq.freewords import NotInKernel, matrix_to_free_word, pq_to_matrix, rewrite_from

from conftest import random_matrix, reduce_ab_reference, run_python

_LETTER_MATS = {"a": MAT_A, "a^-1": MAT_A.inv(),
                "b": MAT_B, "b^-1": MAT_B.inv()}


def test_reduce_examples():
    assert reduce_ab_reference(["a", "a"]) == ()
    assert reduce_ab_reference(["b", "b", "b"]) == ()
    assert reduce_ab_reference(["a", "b", "b", "a", "b"]) == ("a", "b2", "a", "b")


def test_reduce_handles_inverse_letters():
    assert reduce_ab_reference(["a^-1"]) == ("a",)
    assert reduce_ab_reference(["b^-1"]) == ("b2",)
    assert reduce_ab_reference(["b", "b^-1"]) == ()


def test_eval_examples():
    assert eval_ab(()) == IDENTITY
    assert eval_ab(("a", "b2", "a", "b")) == ProjMat2(2, -1, -1, 1)
    assert eval_ab(("a", "b", "a", "b")) == ProjMat2(1, 0, -2, 1)


def test_eval_matches_letterwise_product(rng):
    # independent oracle: multiply the letter matrices without any reduction
    letters = ["a", "a^-1", "b", "b^-1"]
    for _ in range(100):
        word = [rng.choice(letters) for _ in range(rng.randrange(30))]
        product = IDENTITY
        for letter in word:
            product = product * _LETTER_MATS[letter]
        assert eval_ab(reduce_ab_reference(word)) == product


def test_invert_ab(rng):
    assert invert_ab(("a", "b", "a", "b2")) == ("b", "a", "b2", "a")
    assert invert_ab(()) == ()
    letters = ["a", "b", "b^-1"]
    for _ in range(200):
        word = reduce_ab_reference(rng.choice(letters) for _ in range(rng.randrange(30)))
        inv = invert_ab(word)
        assert eval_ab(inv) == eval_ab(word).inv()
        # the inverse of a normal form is a normal form
        assert reduce_ab_reference(inv) == inv
        assert reduce_ab_reference(word + inv) == ()


def test_decompose_examples():
    assert decompose(ProjMat2(5, 3, 3, 2)) == ("b", "a", "b2", "a", "b", "a", "b2", "a")
    assert decompose(ProjMat2(2, -5, 1, -2)) == ("b", "a", "b", "a", "b2", "a", "b2")
    assert decompose(IDENTITY) == ()


def test_decompose_round_trip(rng):
    # uniqueness of normal forms: decompose(eval(w)) == w for normal-form w
    letters = ["a", "a^-1", "b", "b^-1"]
    for _ in range(200):
        word = reduce_ab_reference(rng.choice(letters) for _ in range(rng.randrange(40)))
        assert decompose(eval_ab(word)) == word


def decompose_reference(m):
    """The normal form of m by peeling into a letter list and reducing it
    with reduce_ab_reference, as decompose did before the peel and the expansion were
    split: a reference for peel + expand."""
    factors = []  # ("T", n) or ("S", 0), left to right
    cur = m
    while cur.e21 != 0:
        e11, e12, e21, e22 = cur
        n = e11 // e21
        if n:
            factors.append(("T", n))
        cur = _trusted(-e21, -e22, e11 - n * e21, e12 - n * e22)
        factors.append(("S", 0))
    if cur.e12 != 0:
        factors.append(("T", cur.e12))
    letters = []
    for kind, n in factors:
        if kind == "S":
            letters.append("a")
        elif n > 0:
            letters.extend(["b", "a"] * n)
        else:
            letters.extend(["a", "b2"] * (-n))
    word = reduce_ab_reference(letters)
    assert eval_ab(word) == m
    return word


_T = ProjMat2(1, 1, 0, 1)
_U = ProjMat2(1, 0, 1, 1)


def _power(m, n):
    out = IDENTITY
    for _ in range(abs(n)):
        out = out * (m if n > 0 else m.inv())
    return out


def _check_against_reference(m):
    exponents = peel(m)
    ref = decompose_reference(m)
    assert expand(m, exponents) == ref == decompose(m), m
    assert peel_image(exponents) == abelianize(ref), m
    return exponents


def test_peel_and_expand_match_decompose_reference(rng):
    # products of a, b, b^2, T^+-1, T^+-2 and U^+-2, drawn from HEQ_SEED
    factors = [MAT_A, MAT_B, MAT_B * MAT_B] + [
        _power(m, n) for m, n in ((_T, 1), (_T, -1), (_T, 2), (_T, -2), (_U, 2), (_U, -2))]
    first_zero = last_zero = 0
    for _ in range(1500):
        m = IDENTITY
        for _ in range(rng.randrange(25)):
            m = m * rng.choice(factors)
        exponents = _check_against_reference(m)
        first_zero += len(exponents) > 1 and exponents[0] == 0
        last_zero += len(exponents) > 1 and exponents[-1] == 0
        # after the first round of the peel every inner exponent is <= -2
        assert all(n <= -2 for n in exponents[1:-1]), exponents
    assert first_zero > 50 and last_zero > 50
    # the identity, a, b, b^2 and the parabolic matrices
    assert peel(IDENTITY) == (0,) and decompose(IDENTITY) == ()
    for m in (IDENTITY, MAT_A, MAT_B, MAT_B * MAT_B):
        _check_against_reference(m)
    for n in (1, 2, 3, 7, 50, 1000):
        for m in (ProjMat2(1, n, 0, 1), ProjMat2(1, -n, 0, 1),
                  ProjMat2(1, 0, n, 1), ProjMat2(1, 0, -n, 1)):
            _check_against_reference(m)
    # entries of 100 bits and more
    big = 0
    for _ in range(40):
        m = IDENTITY
        while max(map(abs, m)).bit_length() < 100 + rng.randrange(60):
            m = m * rng.choice([_T, _U, _T.inv(), _U.inv(), MAT_A, MAT_B])
        _check_against_reference(m)
        big += max(map(abs, m)).bit_length() >= 100
    assert big == 40


def test_expand_matches_reference_on_any_exponents(rng):
    # expand joins any exponent sequence, including inner zeros, which the
    # peel never produces, so that every junction case is exercised
    for _ in range(2000):
        exponents = [rng.choice((0, 0, 1, -1, 2, -2, rng.randrange(-9, 10)))
                     for _ in range(rng.randrange(1, 12))]
        m = IDENTITY
        letters = []
        for i, n in enumerate(exponents):
            if i:
                m = m * MAT_A
                letters.append("a")
            m = m * _power(_T, n)
            letters += ["b", "a"] * n if n > 0 else ["a", "b2"] * -n
        assert expand(m, exponents) == reduce_ab_reference(letters) == decompose(m), exponents
        assert peel_image(exponents) == abelianize(reduce_ab_reference(letters))


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
    assert image_pair(abelianize(("a", "b2", "a", "b"))) == (0, 0)
    assert image_pair(abelianize(("b", "a", "b", "a", "b2", "a", "b2"))) == (1, 0)
    assert image_pair(abelianize(("a", "b", "a", "b"))) == (0, 2)


def test_abelianize_is_homomorphism(rng):
    letters = ["a", "b", "b^-1"]
    for _ in range(100):
        u = reduce_ab_reference(rng.choice(letters) for _ in range(rng.randrange(15)))
        v = reduce_ab_reference(rng.choice(letters) for _ in range(rng.randrange(15)))
        assert abelianize(reduce_ab_reference(u + v)) == (abelianize(u) + abelianize(v)) % 6


def test_kernel_iff_trivial_image(rng):
    # abelianize(w) == 0 exactly when the kernel rewriting succeeds: the walk
    # from state 0 ends at state 0, and matrix_to_free_word raises otherwise
    for _ in range(50):
        m = random_matrix(rng)
        w = decompose(m)
        assert rewrite_from(0, w)[1] == abelianize(w)
        if abelianize(w) == 0:
            assert pq_to_matrix(matrix_to_free_word(m)) == m
        else:
            with pytest.raises(NotInKernel):
                matrix_to_free_word(m)


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

