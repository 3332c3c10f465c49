"""The rank-2 free kernel F of PSL2(Z) -> Z/6, with basis {p, q}.

Also houses the small toolkit for words over arbitrary signed alphabets that
the rest of the package shares.  A word is a tuple of nonzero ints: letter k
(1-based) is written +k, its inverse -k.  Freely reduced means no adjacent
+k, -k pair.

The Reidemeister-Schreier rewriting of kernel elements into {p, q} walks the
Schreier graph of F (the Cayley graph of Z/6, see words.abelianize) with the
transversal {1, b, b^2, a, ab, ab^2} and emits one table entry per syllable
crossed.  The table is derived at import time: each entry is the word among
1, p^+-1, q^+-1 whose matrix is rep(u) s rep(us)^-1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .psl2 import MAT_P, MAT_Q, ProjMat2, _product
from .words import (QUOTIENT_ORDER, SYLLABLE_IMAGE, WORD_BUDGET, ABWord, abelianize, decompose,
                    eval_ab)

Word = tuple[int, ...]
FreeWord = Word


class NotInKernel(ValueError):
    """Raised when a word does not abelianize to 0."""


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
    optionally followed by ^ and an integer exponent.  An unknown name, a
    bad exponent, or a word of more than WORD_BUDGET letters raises
    ValueError (the last before any letter is built), a text that is not a
    string TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"word {text!r} is not a string")
    index = {name: i + 1 for i, name in enumerate(names)}
    runs: list[tuple[int, int]] = []
    length = 0
    for token in text.replace(",", " ").split():
        name, caret, exp = token.partition("^")
        let = index.get(name)
        if let is None:
            raise ValueError(f"unknown letter {name!r} in a word")
        try:
            power = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
        runs.append((let if power > 0 else -let, abs(power)))
        length += abs(power)
    if length > WORD_BUDGET:
        raise ValueError(f"a word of {length} letters is over the budget of "
                         f"{WORD_BUDGET}")
    letters: list[int] = []
    for let, n in runs:
        letters.extend([let] * n)
    return tuple(letters)


# ---------------------------------------------------------------------------
# words over {p, q}
# ---------------------------------------------------------------------------

P, Q = 1, 2
PQ_NAMES = ("p", "q")

_PQ_ENTRIES = {let: tuple(m) for let, m in
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

# Prefix-closed transversal of F in PSL2(Z), indexed by image in Z/6.
_TRANSVERSAL: dict[int, ABWord] = {
    abelianize(rep): rep
    for rep in ((), ("b",), ("b2",), ("a",), ("a", "b"), ("a", "b2"))
}


def _syllable_steps() -> dict[tuple[int, str], tuple[FreeWord, int]]:
    """(state u, syllable s) -> (gamma, state us), gamma being the word among
    1, p^+-1, q^+-1 whose matrix is rep(u) s rep(us)^-1."""
    word_of = {pq_to_matrix(w): w for w in ((), (P,), (-P,), (Q,), (-Q,))}
    steps = {}
    for u, rep in _TRANSVERSAL.items():
        for syl, image in SYLLABLE_IMAGE.items():
            target = (u + image) % QUOTIENT_ORDER
            gamma = word_of.get(eval_ab(rep + (syl,)) * eval_ab(_TRANSVERSAL[target]).inv())
            if gamma is None:
                raise RuntimeError(f"no Schreier generator for {syl} at state {u}")
            steps[u, syl] = (gamma, target)
    return steps


_SYLLABLE_STEP = _syllable_steps()


def rewrite_kernel(word: ABWord) -> FreeWord:
    """Rewrite a kernel element, given as an ABWord, as a free word in {p, q}.

    Raises NotInKernel if the word does not abelianize to 0.  The result
    is freely reduced and satisfies pq_to_matrix(result) = eval_ab(word).
    """
    if abelianize(word):
        raise NotInKernel(f"word abelianizes to {abelianize(word)} in Z/6, not 0")
    out: list[int] = []
    state = 0
    for syl in word:
        part, state = _SYLLABLE_STEP[state, syl]
        out.extend(part)
    return free_reduce(out)


def matrix_to_free_word(m: ProjMat2) -> FreeWord:
    """Rewrite a matrix known to lie in F; NotInKernel otherwise.

    A public export: the pipeline reads generator values off their letters'
    a/b-words (HContext.ab_word) instead, and the tests compare the two.
    """
    return rewrite_kernel(decompose(m))
