"""The rank-2 free kernel F of PSL2(Z) -> C2 x C3, with basis {p, q}.

Also houses the small toolkit for words over arbitrary signed alphabets that
the rest of the package shares.  A word is a tuple of nonzero ints: letter k
(1-based) is written +k, its inverse -k.  Freely reduced means no adjacent
+k, -k pair.

The Reidemeister-Schreier rewriting of kernel elements into {p, q} walks the
Schreier graph of F (the Cayley graph of C2 x C3) with the transversal
{1, b, b^2, a, ab, ab^2} and emits one table entry per letter crossed,
looked up one syllable at a time.  The twelve table entries are frozen
data, re-verified against matrix arithmetic at import time.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .psl2 import MAT_A, MAT_B, MAT_P, MAT_Q, ProjMat2, _product
from .words import AB_ZERO, ABWord, C2xC3, IMG_A, IMG_B, abelianize, eval_ab

Word = tuple[int, ...]
FreeWord = Word


class NotInKernel(ValueError):
    """Raised when a word does not abelianize to (0,0)."""


# ---------------------------------------------------------------------------
# generic signed-word helpers
# ---------------------------------------------------------------------------

def free_reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a sequence of signed letters."""
    stack: list[int] = []
    for let in letters:
        if stack and stack[-1] == -let:
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


def invert_word(word: Word) -> Word:
    return tuple(-let for let in reversed(word))


def substitute(relator: Word, ws: Sequence[Word]) -> Word:
    """Replace each abstract letter x_i of the relator by ws[i-1], freely reduced."""
    out: list[int] = []
    inverses: dict[int, Word] = {}  # each ws[i] is inverted at most once
    for let in relator:
        if not 1 <= abs(let) <= len(ws):
            raise IndexError(f"relator letter {let} outside 1..{len(ws)}")
        if let > 0:
            out.extend(ws[let - 1])
        else:
            if let not in inverses:
                inverses[let] = invert_word(ws[-let - 1])
            out.extend(inverses[let])
    return free_reduce(out)


def format_word(word: Word, names: tuple[str, ...]) -> str:
    """Render with powers collected: (1, 1, -2, -2, -2) -> 'p^2 q^-3'."""
    parts: list[str] = []
    i = 0
    while i < len(word):
        let = word[i]
        j = i
        while j < len(word) and word[j] == let:
            j += 1
        exp = (j - i) * (1 if let > 0 else -1)
        name = names[abs(let) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def parse_word(text: str, names: tuple[str, ...]) -> Word:
    """Parse 'q p q^-2 p^-1' style text back into a word, letter for letter.

    Tokens are separated by whitespace or commas; each is a name from names,
    optionally followed by ^ and an integer exponent.  An unknown name or a
    bad exponent raises ValueError, a text that is not a string TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"word {text!r} is not a string")
    index = {name: i + 1 for i, name in enumerate(names)}
    letters: list[int] = []
    for token in text.replace(",", " ").split():
        name, caret, exp = token.partition("^")
        let = index.get(name)
        if let is None:
            raise ValueError(f"unknown letter {name!r} in a word")
        try:
            power = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
        letters.extend([let if power > 0 else -let] * abs(power))
    return tuple(letters)


# ---------------------------------------------------------------------------
# words over {p, q}
# ---------------------------------------------------------------------------

P, Q = 1, 2
PQ_NAMES = ("p", "q")

_PQ_ENTRIES = {let: m.entries() for let, m in
               ((P, MAT_P), (-P, MAT_P.inv()), (Q, MAT_Q), (-Q, MAT_Q.inv()))}


def pq_to_matrix(word: FreeWord) -> ProjMat2:
    """Product of the p/q matrices named by the word."""
    return _product(map(_PQ_ENTRIES.__getitem__, word))


def parse_free_word(text: str) -> FreeWord:
    return free_reduce(parse_word(text, PQ_NAMES))


def format_free_word(word: FreeWord) -> str:
    return format_word(word, PQ_NAMES)


# ---------------------------------------------------------------------------
# Reidemeister-Schreier rewriting into {p, q}
# ---------------------------------------------------------------------------

# Prefix-closed transversal of F in PSL2(Z), indexed by image in C2 x C3.
_TRANSVERSAL: dict[C2xC3, ABWord] = {
    C2xC3(0, 0): (),
    C2xC3(0, 1): ("b",),
    C2xC3(0, 2): ("b2",),
    C2xC3(1, 0): ("a",),
    C2xC3(1, 1): ("a", "b"),
    C2xC3(1, 2): ("a", "b2"),
}

# Schreier generator gamma(u, letter) = rep(u) letter rep(u letter)^-1, as a
# word in {p, q}.  All b-steps and the a-steps at (0,0), (1,0) are trivial.
_GAMMA: dict[tuple[C2xC3, str], FreeWord] = {
    (C2xC3(0, 1), "a"): (Q,),
    (C2xC3(0, 2), "a"): (-P,),
    (C2xC3(1, 1), "a"): (-Q,),
    (C2xC3(1, 2), "a"): (P,),
}

_LETTER_IMAGE = {"a": IMG_A, "b": IMG_B}
_LETTER_MAT = {"a": MAT_A, "b": MAT_B}


def gamma(u: C2xC3, letter: str) -> FreeWord:
    return _GAMMA.get((u, letter), ())


def gamma_table_self_check() -> None:
    """Verify the 12 identities gamma(u,l) = rep(u) l rep(u l)^-1 as matrices."""
    for u in _TRANSVERSAL:
        for letter in ("a", "b"):
            lhs = pq_to_matrix(gamma(u, letter))
            target = _TRANSVERSAL[u + _LETTER_IMAGE[letter]]
            rhs = eval_ab(_TRANSVERSAL[u]) * _LETTER_MAT[letter] * eval_ab(target).inv()
            if lhs != rhs:
                raise RuntimeError(f"gamma table wrong at ({u}, {letter})")


gamma_table_self_check()


def _syllable_steps() -> dict[tuple[C2xC3, str], tuple[FreeWord, C2xC3]]:
    """(state, syllable) -> (gammas emitted, next state), b2 being b twice."""
    steps = {}
    for u in _TRANSVERSAL:
        for syl, letters in (("a", "a"), ("b", "b"), ("b2", "bb")):
            out: list[int] = []
            state = u
            for letter in letters:
                out.extend(gamma(state, letter))
                state = state + _LETTER_IMAGE[letter]
            steps[u, syl] = (tuple(out), state)
    return steps


_SYLLABLE_STEP = _syllable_steps()


def rewrite_kernel(word: ABWord) -> FreeWord:
    """Rewrite a kernel element, given as an ABWord, as a free word in {p, q}.

    Raises NotInKernel if the word does not abelianize to (0,0).  The result
    is freely reduced and satisfies pq_to_matrix(result) = eval_ab(word).
    """
    if abelianize(word) != AB_ZERO:
        raise NotInKernel(f"word abelianizes to {abelianize(word)}, not (0,0)")
    out: list[int] = []
    state = AB_ZERO
    for syl in word:
        part, state = _SYLLABLE_STEP[state, syl]
        out.extend(part)
    return free_reduce(out)


def matrix_to_free_word(m: ProjMat2) -> FreeWord:
    """Rewrite a matrix known to lie in F; NotInKernel otherwise."""
    from .words import decompose

    return rewrite_kernel(decompose(m))
