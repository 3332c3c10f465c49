"""Canonical words for PSL2(Z) as the free product C2 * C3 = <a, b | a^2, b^3>.

An ABWord is the unique normal form of a group element: a tuple of syllables
from {"a", "b", "b2"} in which no two consecutive syllables come from the
same factor.  The empty tuple is the identity.  Because normal forms in a
free product are unique, two elements are equal iff their ABWords are equal.

A matrix is decomposed in two steps.  peel runs the Euclidean algorithm on
the entries and writes m = T^n_0 a T^n_1 ... a T^n_r with T = ba; it checks
the word budget and multiplies the exponents back out, and peel_image reads
m's image in Z/6 off the exponents.  expand builds the normal form from the
exponents a chunk at a time and checks it with eval_ab.  decompose is the
two in a row; an HContext peels its matrices at construction and expands
them only when a reader asks for their words.

The abelianization C2 x C3 is cyclic of order 6, and an image in it is an
int modulo QUOTIENT_ORDER, with a -> 3 and b -> 4.  image_pair gives the
(C2, C3) components that the text and JSON reports print.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .psl2 import MAT_A, MAT_B, ProjMat2, _block_product, _block_table, _trusted

ABWord = tuple[str, ...]

_MAT_B2 = MAT_B * MAT_B
_SYLLABLE_ENTRIES = {"a": tuple(MAT_A), "b": tuple(MAT_B), "b2": tuple(_MAT_B2)}
# every syllable sequence of 1..psl2.BLOCK syllables, normal or not -> the
# entries of its product
_SYLLABLE_BLOCKS = _block_table(_SYLLABLE_ENTRIES)

# Translation matrix T = b*a = [[1,1],[0,1]], the power that peel strips and
# expand writes out.  The identity T = ba is re-verified at import time
# right below.
_MAT_T = ProjMat2(1, 1, 0, 1)
if MAT_B * MAT_A != _MAT_T:
    raise RuntimeError("b*a is not the translation [[1,1],[0,1]]")

# peel() refuses a matrix whose expanded a/b-letter sequence would be
# longer than this: [[1,n],[0,1]] expands to 2n letters, so without a limit
# n = 10**9 would build a list of 2*10**9 letters and run out of memory
WORD_BUDGET = 10**6


# PSL2(Z) -> C2 x C3 = Z/6 on syllables: a -> 3 = (1,0), b -> 4 = (0,1)
QUOTIENT_ORDER = 6
SYLLABLE_IMAGE = {"a": 3, "b": 4, "b2": 2}


def image_pair(image: int) -> tuple[int, int]:
    """The (C2, C3) components of an image in Z/6: a -> (1,0), b -> (0,1)."""
    return image % 2, image % 3


# the b-syllable that two merged b-syllables leave, None for b^3 = 1
_B_MERGED = {("b", "b"): "b2", ("b", "b2"): None, ("b2", "b"): None, ("b2", "b2"): "b"}


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


def peel(m: ProjMat2) -> tuple[int, ...]:
    """The exponents n_0..n_r with m = T^n_0 a T^n_1 ... a T^n_r, T = ba.

    Euclidean peeling on plain ints: repeatedly strip T^n and a from the
    left until a translation T^n_r = [[1, n_r], [0, 1]] remains, which
    shrinks the lower-left entry strictly at every round.  n_0 and n_r may
    be 0; after the first round the remainder is smaller than the divisor,
    so every inner exponent n_1..n_(r-1) is at most -2.

    Raises ValueError, before anything is built, when the letters
    T^n -> (ba)^n, T^-n -> (ab^2)^n, one a between consecutive powers,
    would be more than WORD_BUDGET: sum 2|n_i| + r letters.  The exponents
    are multiplied back out, as M a = [[q,-p],[s,-r]] and
    M T^n = [[p, pn+q],[r, rn+s]] for M = [[p,q],[r,s]], and RuntimeError
    is raised unless the product is m.
    """
    e11, e12, e21, e22 = m
    exponents: list[int] = []
    while e21:
        n, rem = divmod(e11, e21)
        exponents.append(n)
        # a^-1 T^-n on the left: subtract n times row 2 from row 1, then
        # swap the rows and negate one, with the sign chosen so that the
        # new e11 = |e21| is positive
        if e21 > 0:
            e11, e12, e21, e22 = e21, e22, -rem, n * e22 - e12
        else:
            e11, e12, e21, e22 = -e21, -e22, rem, e12 - n * e22
    # the determinant and e11 > 0 force e11 = e22 = 1: m's last factor T^e12
    exponents.append(e12)
    length = 2 * sum(map(abs, exponents)) + len(exponents) - 1
    if length > WORD_BUDGET:
        raise ValueError(f"{m} expands to {length} a/b letters, more than "
                         f"the budget of {WORD_BUDGET}")
    p, q, r, s = 1, exponents[0], 0, 1
    for n in exponents[1:]:
        p, q, r, s = q, q * n - p, s, s * n - r
    if _trusted(p, q, r, s) != m:
        raise RuntimeError(f"the peel of {m} does not multiply back to it")
    return tuple(exponents)


def peel_image(exponents: Sequence[int]) -> int:
    """Image in Z/6 of T^n_0 a T^n_1 ... a T^n_r: T = ba -> 1, a -> 3."""
    return (sum(exponents) + 3 * (len(exponents) - 1)) % QUOTIENT_ORDER


def _join_ab(out: list[str], chunk: list[str]) -> None:
    """Append a normal form to a normal form, reducing only where they meet.

    Two a's cancel and the next pair meets; two b-syllables merge, and a
    merged syllable stays, since the syllables around it are a's or ends,
    while b b^2 cancels and the next pair meets."""
    k, n = 0, len(chunk)
    while out and k < n:
        top, syl = out[-1], chunk[k]
        if (top == "a") != (syl == "a"):
            break
        k += 1
        merged = None if syl == "a" else _B_MERGED[top, syl]
        if merged:
            out[-1] = merged
            break
        out.pop()
    out += chunk[k:] if k else chunk


def expand(m: ProjMat2, exponents: Sequence[int]) -> ABWord:
    """The normal form of m from its peel, built a chunk at a time.

    The chunks are T^n_0, then a T^n_i for each later exponent, each a
    normal form built by list repetition: T^n = (ba)^n and
    a T^n = (ab)^n a for n > 0, T^-k = (ab^2)^k and
    a T^-k = (b^2 a)^(k-1) b^2.  Each is joined to the word so far only
    where they meet.  Raises RuntimeError unless the word evaluates to m.
    """
    n = exponents[0]
    out = ["b", "a"] * n if n > 0 else ["a", "b2"] * -n
    for n in exponents[1:]:
        if n > 0:
            chunk = ["a", "b"] * n
            chunk.append("a")
        elif n < 0:
            chunk = ["b2", "a"] * -n
            chunk.pop()
        else:
            chunk = ["a"]
        _join_ab(out, chunk)
    word = tuple(out)
    if eval_ab(word) != m:
        raise RuntimeError(f"decomposition of {m} does not evaluate back to it")
    return word


def decompose(m: ProjMat2) -> ABWord:
    """The unique normal-form word evaluating to m: expand(m, peel(m)).

    Uniqueness of normal forms makes the output independent of how the
    expression was found.  Raises ValueError, before building any letter,
    when the peel has more than WORD_BUDGET letters.
    """
    return expand(m, peel(m))


def quotient_order(images: Iterable[int]) -> int:
    """Order of the subgroup of Z/6 generated by the given images."""
    return QUOTIENT_ORDER // gcd(QUOTIENT_ORDER, *images)


def format_ab_word(word: ABWord) -> str:
    """Human form, with b^2 for the squared syllable.  Empty word -> ''."""
    return " ".join("b^2" if syl == "b2" else syl for syl in word)
