"""Canonical words for PSL2(Z) as the free product C2 * C3 = <a, b | a^2, b^3>.

An ABWord is the unique normal form of a group element: a tuple of syllables
from {"a", "b", "b2"} in which no two consecutive syllables come from the
same factor.  The empty tuple is the identity.  Because normal forms in a
free product are unique, two elements are equal iff their ABWords are equal.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .psl2 import MAT_A, MAT_B, ProjMat2, _product

ABWord = tuple[str, ...]

_MAT_B2 = MAT_B * MAT_B
_SYLLABLE_ENTRIES = {"a": MAT_A.entries(), "b": MAT_B.entries(), "b2": _MAT_B2.entries()}

# Translation matrix T = b*a = [[1,1],[0,1]]; used by decompose().  The
# identity T = ba is re-verified at import time right below.
_MAT_T = ProjMat2(1, 1, 0, 1)
if MAT_B * MAT_A != _MAT_T:
    raise RuntimeError("b*a is not the translation [[1,1],[0,1]]")
_MAT_S_INV = MAT_A.inv()


class C2xC3(NamedTuple):
    """An element of C2 x C3, the abelianization of PSL2(Z)."""

    c2: int
    c3: int

    def __add__(self, other: "C2xC3") -> "C2xC3":
        return C2xC3((self.c2 + other.c2) % 2, (self.c3 + other.c3) % 3)

    def __neg__(self) -> "C2xC3":
        return C2xC3(-self.c2 % 2, -self.c3 % 3)

    def __str__(self) -> str:
        return f"({self.c2},{self.c3})"


AB_ZERO = C2xC3(0, 0)
IMG_A = C2xC3(1, 0)
IMG_B = C2xC3(0, 1)
_SYLLABLE_IMAGES = {"a": IMG_A, "b": IMG_B, "b2": IMG_B + IMG_B}

_LETTER_TO_SYLLABLE = {
    "a": "a",
    "a^-1": "a",
    "b": "b",
    "b^-1": "b2",
    "b2": "b2",
    "b^2": "b2",
}


def _push(stack: list[str], syl: str) -> None:
    if not stack:
        stack.append(syl)
        return
    top = stack[-1]
    if syl == "a":
        if top == "a":
            stack.pop()
        else:
            stack.append(syl)
        return
    if top in ("b", "b2"):
        exp = (1 if top == "b" else 2) + (1 if syl == "b" else 2)
        stack.pop()
        exp %= 3
        if exp:
            _push(stack, "b" if exp == 1 else "b2")
        return
    stack.append(syl)


def reduce_ab(letters: Iterable[str]) -> ABWord:
    """Normal form of a product of generator letters.

    Accepts the letters a, a^-1, b, b^-1 (and the aliases b2, b^2 for b^-1);
    uses a^-1 = a and b^-1 = b^2.
    """
    stack: list[str] = []
    for letter in letters:
        try:
            _push(stack, _LETTER_TO_SYLLABLE[letter])
        except KeyError:
            raise ValueError(f"unknown letter {letter!r}") from None
    return tuple(stack)


def concat_ab(*words: ABWord) -> ABWord:
    """Normal form of a concatenation of ABWords."""
    stack: list[str] = []
    for w in words:
        for syl in w:
            _push(stack, syl)
    return tuple(stack)


def invert_ab(word: ABWord) -> ABWord:
    """Normal form of the inverse (a^-1 = a, b^-1 = b^2, (b^2)^-1 = b)."""
    inv = {"a": "a", "b": "b2", "b2": "b"}
    return tuple(inv[syl] for syl in reversed(word))


def eval_ab(word: ABWord) -> ProjMat2:
    """Product of the generator matrices named by the word."""
    return _product(map(_SYLLABLE_ENTRIES.__getitem__, word))


def abelianize(word: ABWord) -> C2xC3:
    """Image in C2 x C3 (a -> (1,0), b -> (0,1))."""
    img = AB_ZERO
    for syl in word:
        img = img + _SYLLABLE_IMAGES[syl]
    return img


def decompose(m: ProjMat2) -> ABWord:
    """The unique normal-form word evaluating to m.

    Euclidean peeling: repeatedly strip factors T^n (T = ba = [[1,1],[0,1]])
    and a from the left until the identity remains, which shrinks the
    lower-left entry strictly at every round.  The resulting letter sequence
    is then reduced; uniqueness of normal forms makes the output independent
    of how the expression was found.
    """
    factors: list[tuple[str, int]] = []  # ("T", n) or ("S", 0), left to right
    cur = m
    while cur.e21 != 0:
        n = cur.e11 // cur.e21
        if n:
            # T^-n on the left subtracts n times row 2 from row 1
            cur = ProjMat2(cur.e11 - n * cur.e21, cur.e12 - n * cur.e22,
                           cur.e21, cur.e22)
            factors.append(("T", n))
        cur = _MAT_S_INV * cur
        factors.append(("S", 0))
    # cur is now [[1, n],[0, 1]] = T^n (sign normalization forces e11 = 1)
    if cur.e12 != 0:
        factors.append(("T", cur.e12))

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


def quotient_subgroup(images: Iterable[C2xC3]) -> frozenset[C2xC3]:
    """Subgroup of C2 x C3 generated by the given elements."""
    elems = {AB_ZERO}
    frontier = list(elems)
    gens = list(images)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return frozenset(elems)


_AB_TOKEN = re.compile(r"b\^?2|b|a|[\s,]+")


def parse_ab_word(text: str) -> ABWord:
    """Parse 'b a b2 a' / 'bab2a' / 'b a b^2 a' into a normal-form ABWord."""
    pos = 0
    letters: list[str] = []
    while pos < len(text):
        mo = _AB_TOKEN.match(text, pos)
        if mo is None:
            raise ValueError(f"bad a/b word {text!r} at position {pos}")
        tok = mo.group(0)
        if not tok[0].isspace() and tok[0] != ",":
            letters.append("b2" if tok.startswith("b") and tok != "b" else tok)
        pos = mo.end()
    return reduce_ab(letters)


def format_ab_word(word: ABWord) -> str:
    """Human form, with b^2 for the squared syllable.  Empty word -> ''."""
    return " ".join("b^2" if syl == "b2" else syl for syl in word)
