"""Invariants that need no oracle, at any input size.

Two moves on the inputs leave the Schreier index, the rank of V and the
verdict unchanged:

- conjugating h_1..h_s and g by one M in PSL2(Z).  F is the kernel of a map
  onto the abelian group Z/6, so it is normal and conjugation by M is an
  automorphism of F; the images in Z/6 do not move, V goes to M V M^-1 and
  the kernel of the evaluation x -> g is unchanged.
- replacing g by g^-1.  Evaluation at g^-1 is evaluation at g after the
  automorphism x -> x^-1 of H*<x>, so the Schreier graph is that of the
  inverse images, V is unchanged, and so is whether the kernel is trivial.

The same moves act on the oracle's witnesses.  Conjugation maps H*<x>
isomorphically onto its conjugate and fixes every word, so the witnesses
stay as they are; g -> g^-1 maps them by the letter map x -> x^-1.

The contexts are drawn from HEQ_SEED: small random ones, the worked
examples, and one parabolic pair [[1,k],[0,1]], [[1,n],[0,1]] with n near
200, whose ideal words run to thousands of letters.  The oracle runs on the
worked examples and the first 40 random ones.
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


@pytest.mark.parametrize("move", [conjugated, inverted])
def test_move_keeps_index_rank_and_verdict(move):
    verdicts = set()
    for hs, g in drawn_contexts():
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
