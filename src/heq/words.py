"""Canonical words for PSL2(Z) as the free product C2 * C3 = <a, b | a^2, b^3>.

An ABWord is the unique normal form of a group element: a tuple of syllables
from {"a", "b", "b2"} in which no two consecutive syllables come from the
same factor.  The empty tuple is the identity.  Because normal forms in a
free product are unique, two elements are equal iff their ABWords are equal.

The abelianization C2 x C3 is cyclic of order 6, and an image in it is an
int modulo QUOTIENT_ORDER, with a -> 3 and b -> 4.  image_pair gives the
(C2, C3) components that the text and JSON reports print.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .psl2 import MAT_A, MAT_B, ProjMat2, _block_product, _block_table, _trusted

ABWord = tuple[str, ...]

_MAT_B2 = MAT_B * MAT_B
_SYLLABLE_ENTRIES = {"a": tuple(MAT_A), "b": tuple(MAT_B), "b2": tuple(_MAT_B2)}
# every syllable sequence of 1..psl2.BLOCK syllables, normal or not -> the
# entries of its product
_SYLLABLE_BLOCKS = _block_table(_SYLLABLE_ENTRIES)

# Translation matrix T = b*a = [[1,1],[0,1]]; used by decompose().  The
# identity T = ba is re-verified at import time right below.
_MAT_T = ProjMat2(1, 1, 0, 1)
if MAT_B * MAT_A != _MAT_T:
    raise RuntimeError("b*a is not the translation [[1,1],[0,1]]")

# decompose() refuses a matrix whose expanded a/b-letter sequence would be
# longer than this: [[1,n],[0,1]] expands to 2n letters, so without a limit
# n = 10**9 would build a list of 2*10**9 letters and run out of memory
WORD_BUDGET = 10**6


# PSL2(Z) -> C2 x C3 = Z/6 on syllables: a -> 3 = (1,0), b -> 4 = (0,1)
QUOTIENT_ORDER = 6
SYLLABLE_IMAGE = {"a": 3, "b": 4, "b2": 2}


def image_pair(image: int) -> tuple[int, int]:
    """The (C2, C3) components of an image in Z/6: a -> (1,0), b -> (0,1)."""
    return image % 2, image % 3


_LETTER_TO_SYLLABLE = {
    "a": "a",
    "a^-1": "a",
    "b": "b",
    "b^-1": "b2",
    "b2": "b2",
    "b^2": "b2",
}


# the b-syllable that two merged b-syllables leave, None for b^3 = 1
_B_MERGED = {("b", "b"): "b2", ("b", "b2"): None, ("b2", "b"): None, ("b2", "b2"): "b"}


def reduce_ab(letters: Iterable[str]) -> ABWord:
    """Normal form of a product of generator letters.

    Accepts the letters a, a^-1, b, b^-1 (and the aliases b2, b^2 for b^-1);
    uses a^-1 = a and b^-1 = b^2.  One pass over a stack of syllables,
    its top kept in a local: a syllable from the other factor than the
    top's is pushed, a onto a cancels it, and b or b2 onto b or b2 merges
    with it.  Any other letter raises ValueError.
    """
    stack: list[str] = []
    top = ""  # stack[-1], or "" for an empty stack
    for letter in letters:
        try:
            syl = _LETTER_TO_SYLLABLE[letter]
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None
        if syl == "a":
            if top == "a":
                stack.pop()
                top = stack[-1] if stack else ""
            else:
                stack.append(syl)
                top = syl
        elif top == "a" or not top:
            stack.append(syl)
            top = syl
        else:
            # the syllable below a b-syllable is "a" or nothing, so the
            # merged syllable stays
            merged = _B_MERGED[top, syl]
            if merged:
                stack[-1] = top = merged
            else:
                stack.pop()
                top = stack[-1] if stack else ""
    return tuple(stack)


_AB_INVERSE = {"a": "a", "b": "b2", "b2": "b"}


def invert_ab(word: ABWord) -> ABWord:
    """Normal form of the inverse: the word reversed, with b and b2 swapped."""
    return tuple(map(_AB_INVERSE.__getitem__, reversed(word)))


def eval_ab(word: ABWord) -> ProjMat2:
    """Product of the generator matrices named by the word, which need not
    be in normal form.

    The word is multiplied out psl2.BLOCK syllables at a time, each slice
    looked up in _SYLLABLE_BLOCKS (see the psl2 module docstring).
    """
    return _block_product(_SYLLABLE_BLOCKS, word)


def abelianize(word: ABWord) -> int:
    """Image in Z/6 (a -> 3, b -> 4)."""
    return sum(map(SYLLABLE_IMAGE.__getitem__, word)) % QUOTIENT_ORDER


def decompose(m: ProjMat2) -> ABWord:
    """The unique normal-form word evaluating to m.

    Euclidean peeling: repeatedly strip factors T^n (T = ba = [[1,1],[0,1]])
    and a from the left until the identity remains, which shrinks the
    lower-left entry strictly at every round.  The resulting letter sequence
    is then reduced; uniqueness of normal forms makes the output independent
    of how the expression was found.

    Raises ValueError, before building any letter, when the sequence would
    have more than WORD_BUDGET letters.
    """
    factors: list[tuple[str, int]] = []  # ("T", n) or ("S", 0), left to right
    cur = m
    while cur.e21 != 0:
        e11, e12, e21, e22 = cur
        n = e11 // e21
        if n:
            factors.append(("T", n))
        # a^-1 T^-n on the left: subtract n times row 2 from row 1, then
        # swap the rows and negate one; both keep the determinant at 1
        cur = _trusted(-e21, -e22, e11 - n * e21, e12 - n * e22)
        factors.append(("S", 0))
    # cur is now [[1, n],[0, 1]] = T^n (sign normalization forces e11 = 1)
    if cur.e12 != 0:
        factors.append(("T", cur.e12))
    length = sum(2 * abs(n) if kind == "T" else 1 for kind, n in factors)
    if length > WORD_BUDGET:
        raise ValueError(f"{m} expands to {length} a/b letters, more than "
                         f"the budget of {WORD_BUDGET}")

    letters: list[str] = []
    for kind, n in factors:
        if kind == "S":
            letters.append("a")
        elif n > 0:
            letters.extend(["b", "a"] * n)  # T = ba
        else:
            letters.extend(["a", "b2"] * (-n))  # T^-1 = a b^2
    word = reduce_ab(letters)
    if eval_ab(word) != m:
        raise RuntimeError(f"decomposition of {m} does not evaluate back to it")
    return word


def quotient_order(images: Iterable[int]) -> int:
    """Order of the subgroup of Z/6 generated by the given images."""
    return QUOTIENT_ORDER // gcd(QUOTIENT_ORDER, *images)


def format_ab_word(word: ABWord) -> str:
    """Human form, with b^2 for the squared syllable.  Empty word -> ''."""
    return " ".join("b^2" if syl == "b2" else syl for syl in word)
