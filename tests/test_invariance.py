"""Invariants that need no oracle, at any input size.

Each move below leaves the Schreier index, the rank of V and the verdict
unchanged:

- conjugating h_1..h_s and g by one M in PSL2(Z).  F is the kernel of a map
  onto the abelian group Z/6, so it is normal and conjugation by M is an
  automorphism of F; the images in Z/6 do not move, V goes to M V M^-1 and
  the kernel of the evaluation x -> g is unchanged.
- replacing g by g^-1.  Evaluation at g^-1 is evaluation at g after the
  automorphism x -> x^-1 of H*<x>, so the Schreier graph is that of the
  inverse images, V is unchanged, and so is whether the kernel is trivial.
- replacing g by h_a g h_b for words h_a, h_b in the h's, a Nielsen move on
  the h's (h_1 -> h_1 h_2, h_1 -> h_1^-1, swapping h_1 and h_2), or
  appending the redundant generator h_1 h_2 (h_1^2 when s = 1).  Each keeps
  H and <H, g>, so the image in Z/6, V = <H, g> ∩ F and whether g is
  algebraic over H are unchanged (Lyndon-Schupp, Ch. I).

The conjugation and g -> g^-1 act on the oracle's witnesses too.
Conjugation maps H*<x> isomorphically onto its conjugate and fixes every
word, so the witnesses stay as they are; g -> g^-1 maps them by the letter
map x -> x^-1.

The contexts are drawn from HEQ_SEED: small random ones, the worked
examples, and one parabolic pair [[1,k],[0,1]], [[1,n],[0,1]] with n near
200, whose ideal words run to thousands of letters; the moves also run on
T^200 over T and on two sets of 32 to 38-letter words over Sanov's pair,
one a free basis and one with g in H.  The oracle runs on the worked
examples and the first 40 random ones.
"""

import random

import pytest

from heq.enumeration import enumerate_kernel
from heq.equations import HContext
from heq.pipeline import analyze
from heq.psl2 import ProjMat2

from conftest import SEED, random_matrix

# a fixed element of PSL2(Z) outside F: it maps to 1 in Z/6
M = ProjMat2(1, 1, 1, 2)


def invariants(hs, g):
    report = analyze(hs, g)
    return report.index, report.presentation.rank, report.verdict


def conjugated(hs, g):
    m_inv = M.inv()
    return [M * h * m_inv for h in hs], M * g * m_inv


def inverted(hs, g):
    return hs, g.inv()


def sandwiched(hs, g):
    # h_a = h_1 h_s and h_b = h_s^-1
    return hs, hs[0] * hs[-1] * g * hs[-1].inv()


def h1_times_h2(hs, g):
    return [hs[0] * hs[1], *hs[1:]], g


def h1_inverted(hs, g):
    return [hs[0].inv(), *hs[1:]], g


def h1_h2_swapped(hs, g):
    return [hs[1], hs[0], *hs[2:]], g


def redundant_appended(hs, g):
    # h_1 h_2, or h_1^2 when s = 1
    return [*hs, hs[0] * hs[1 if len(hs) > 1 else 0]], g


MOVES = [conjugated, inverted, sandwiched, h1_times_h2, h1_inverted, h1_h2_swapped,
         redundant_appended]
# these pass over the contexts with s = 1
TWO_H_MOVES = (h1_times_h2, h1_h2_swapped)


def drawn_contexts():
    rng = random.Random(SEED)
    h1, h2 = ProjMat2(2, -1, -1, 1), ProjMat2(2, -5, 1, -2)
    contexts = [([h1, h2], ProjMat2(5, 3, 3, 2)), ([h1, h2], ProjMat2(1, 0, -2, 1))]
    for _ in range(150):
        hs = [random_matrix(rng, 10) for _ in range(rng.randrange(1, 4))]
        contexts.append((hs, random_matrix(rng, 10)))
    k, n = rng.choice((2, 3)), rng.randrange(190, 211)
    contexts.append(([ProjMat2(1, k, 0, 1)], ProjMat2(1, n, 0, 1)))
    return contexts


# Sanov's pair A, B freely generates a free subgroup of PSL2(Z)
SANOV = {1: ProjMat2(1, 2, 0, 1), 2: ProjMat2(1, 0, 2, 1)}
SANOV.update({-let: mat.inv() for let, mat in list(SANOV.items())})


def sanov_word(rng, length):
    """Random freely reduced word in A^+-1, B^+-1 (letters +-1, +-2)."""
    word = []
    while len(word) < length:
        let = rng.choice((1, -1, 2, -2))
        if not word or word[-1] != -let:
            word.append(let)
    return tuple(word)


def cancellation(u, v):
    n = 0
    while n < min(len(u), len(v)) and u[-1 - n] == -v[n]:
        n += 1
    return n


def nielsen_reduced(words):
    """A sufficient test: every product of two of the words or their
    inverses, other than w w^-1, cancels less than half of each factor.
    Then N0-N2 hold, and the words are a free basis of what they generate
    (Lyndon-Schupp, Ch. I, Prop. 2.5)."""
    n = len(words)
    signed = list(words) + [tuple(-let for let in reversed(w)) for w in words]
    return all(2 * cancellation(u, v) < min(len(u), len(v))
               for i, u in enumerate(signed) for j, v in enumerate(signed)
               if j != (i + n) % (2 * n))


def c3_image(word):
    # A maps to 2 and B to 1 in C3
    return sum((2 if abs(let) == 1 else 1) * (1 if let > 0 else -1) for let in word) % 3


def sanov_triple(rng):
    """Three words of 32 to 38 letters, Nielsen-reduced, each with a
    nonzero image in C3, as matrices."""
    while True:
        words = [sanov_word(rng, rng.randrange(32, 39)) for _ in range(3)]
        if nielsen_reduced(words) and all(map(c3_image, words)):
            break
    mats = []
    for word in words:
        mat = SANOV[word[0]]
        for let in word[1:]:
            mat = mat * SANOV[let]
        mats.append(mat)
    return mats


def large_contexts():
    """T^200 over T, and two contexts shaped like perfbench's long_words
    (Schreier index 3): h_1, h_2 and g a free basis, and g = h_1 h_2^-1
    over h_1, h_2, h_3."""
    rng = random.Random(SEED)
    h1, h2, g = sanov_triple(rng)
    k1, k2, k3 = sanov_triple(rng)
    return [([ProjMat2(1, 200, 0, 1)], ProjMat2(1, 1, 0, 1)),
            ([h1, h2], g),
            ([k1, k2, k3], k1 * k2.inv())]


def test_large_contexts_have_their_verdicts():
    # T commutes with T^200; the Sanov words are built free or with g in H
    assert [invariants(hs, g)[2] for hs, g in large_contexts()] == [
        "algebraic", "transcendental", "algebraic"]


@pytest.mark.parametrize("move", MOVES)
def test_move_keeps_index_rank_and_verdict(move):
    verdicts = set()
    for hs, g in drawn_contexts() + large_contexts():
        if move in TWO_H_MOVES and len(hs) < 2:
            continue
        base = invariants(hs, g)
        assert invariants(*move(hs, g)) == base, (hs, g)
        verdicts.add(base[2])
    # both verdicts occur, so a move that flips every verdict is caught
    assert len(verdicts) == 2


def oracle_witnesses(hs, g):
    return enumerate_kernel(HContext.from_matrices(hs, g), 6).witnesses


def x_inverted(witnesses, x):
    """The witnesses under x -> x^-1, back in (length, word) order."""
    mapped = (tuple(-let if abs(let) == x else let for let in w) for w in witnesses)
    return tuple(sorted(mapped, key=lambda w: (len(w), w)))


@pytest.mark.parametrize("move", [conjugated, inverted])
def test_move_keeps_oracle_witnesses(move):
    with_witnesses = 0
    for hs, g in drawn_contexts()[:42]:
        base = oracle_witnesses(hs, g)
        moved = oracle_witnesses(*move(hs, g))
        if move is inverted:
            moved = x_inverted(moved, len(hs) + 1)
        assert moved == base, (hs, g)
        with_witnesses += bool(base)
    # most drawn contexts have witnesses at length 6, so the move is tested
    assert with_witnesses >= 20
