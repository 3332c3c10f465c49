"""The group H*<x> of equations over a matrix subgroup H of PSL2(Z).

An EqWord is a raw word over the signed letters h1..hs, x (letter i <= s is
h_i, letter s+1 is the variable).  Its normal form as an element of H*<x>
is an HEquation: an alternating sequence c0 x^e1 c1 ... x^ed cd whose
coefficients are multiplied out as matrices, with x x^-1 pairs flanking a
trivial coefficient cancelled away.  Coefficient triviality is always
decided by matrix equality with the identity, never by the letters: H may
have torsion, so a nonempty coefficient word can still be trivial in H.

Word values are multiplied out by psl2._product over the context's table
of letter entry 4-tuples: a word is a product of determinant-1 matrices, so
its value needs no determinant check, only one sign normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

from .freewords import Word, format_word, parse_word
from .freewords import substitute  # part of this module's API
from .psl2 import IDENTITY, Entries, ProjMat2, _product
from .words import (QUOTIENT_ORDER, WORD_BUDGET, ABWord, abelianize, decompose, invert_ab,
                    reduce_ab)

EqWord = Word


@dataclass(frozen=True)
class HContext:
    """The ambient data of an analysis: H = <h_1..h_s> and the element g.

    A context is its matrices: h_mats may be given as any sequence and is
    stored as a tuple, and h_words and g_word, their canonical a/b-word
    decompositions, are derived at construction and take no part in
    equality or hashing.  The letter names h1..hs, x and each
    signed letter's entry 4-tuple, a/b-word (for -let the inverse of let's
    word) and image in Z/6 are computed once, at construction, so letter
    and word lookups do no matrix or word arithmetic.  ab_word(word)
    reduces the letters' a/b-words into the normal form of the word's value
    at g.
    equation(word) memoizes reduce_equation, so each word is reduced at most
    once per context, however many readers ask for its normal form.
    is_trivial(word) reads the flag without a normal form wherever the
    x-exponent sum or the value decides it, and through equation otherwise.
    """

    h_mats: tuple[ProjMat2, ...]
    g_mat: ProjMat2
    h_words: tuple[ABWord, ...] = field(init=False, repr=False, compare=False)
    g_word: ABWord = field(init=False, repr=False, compare=False)
    letter_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _entries: dict[int, Entries] = field(init=False, repr=False, compare=False)
    _ab_words: dict[int, ABWord] = field(init=False, repr=False, compare=False)
    _image: dict[int, int] = field(init=False, repr=False, compare=False)
    _equations: dict[EqWord, HEquation] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "h_mats", tuple(self.h_mats))
        mats = self.h_mats + (self.g_mat,)
        # decompose checks that each word evaluates back to its matrix
        words = tuple(map(decompose, mats))
        entries: dict[int, Entries] = {}
        ab_words: dict[int, ABWord] = {}
        image: dict[int, int] = {}
        for let, (mat, word) in enumerate(zip(mats, words), start=1):
            entries[let], entries[-let] = tuple(mat), tuple(mat.inv())
            ab_words[let], ab_words[-let] = word, invert_ab(word)
            image[let] = abelianize(word)
            image[-let] = -image[let] % QUOTIENT_ORDER
        object.__setattr__(self, "h_words", words[:-1])
        object.__setattr__(self, "g_word", words[-1])
        object.__setattr__(self, "letter_names",
                           tuple(f"h{i}" for i in range(1, self.s + 1)) + ("x",))
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_ab_words", ab_words)
        object.__setattr__(self, "_image", image)

    @classmethod
    def from_matrices(cls, h_mats: Sequence[ProjMat2], g_mat: ProjMat2) -> "HContext":
        """HContext(h_mats, g_mat).  Kept as the entry point analyze and the
        CLI call and perfbench's spans wrap by this name."""
        return cls(h_mats, g_mat)

    @property
    def s(self) -> int:
        return len(self.h_mats)

    @property
    def x_letter(self) -> int:
        return self.s + 1

    def letter_matrix(self, let: int) -> Entries:
        return self._entries[let]

    def letter_image(self, let: int) -> int:
        return self._image[let]

    def h_images(self) -> tuple[int, ...]:
        return tuple(self._image[let] for let in range(1, self.x_letter))

    def g_image(self) -> int:
        return self._image[self.x_letter]

    def word_image(self, word: EqWord) -> int:
        return sum(map(self._image.__getitem__, word)) % QUOTIENT_ORDER

    def ab_word(self, word: EqWord) -> ABWord:
        """The normal form of the value w(g) as an a/b-word, built without
        a matrix: the letters' words written one after another and reduced.
        Normal forms in C2 * C3 are unique, so this is
        decompose(evaluate(word, self)).

        Raises ValueError, before building any syllable, when the letters'
        words have more than WORD_BUDGET syllables in all.
        """
        parts = list(map(self._ab_words.__getitem__, word))
        length = sum(map(len, parts))
        if length > WORD_BUDGET:
            raise ValueError(f"a word's value spans {length} a/b letters before "
                             f"reduction, more than the budget of {WORD_BUDGET}")
        return reduce_ab(chain.from_iterable(parts))

    def equation(self, word: EqWord) -> HEquation:
        """reduce_equation(word, self), reduced once per word and context."""
        eq = self._equations.get(word)
        if eq is None:
            eq = self._equations[word] = reduce_equation(word, self)
        return eq

    def is_trivial(self, word: EqWord) -> bool:
        """Whether word is trivial in H*<x>, reduced only when nothing
        cheaper decides it.

        The exponent sum sigma: H*<x> -> Z, x -> 1 and H -> 0, is a
        homomorphism, so a word with sigma != 0 is nontrivial.  A word
        without x lies in H, where it is trivial exactly when its value is
        I.  Only a balanced word with x goes through equation(word).
        """
        x = self.x_letter
        ups = word.count(x)
        if ups != word.count(-x):
            return False
        if not ups:
            return evaluate(word, self) == IDENTITY
        return self.equation(word).is_trivial()


class HEquation:
    """Reduced element of H*<x>.

    coeffs[i] is a pair (matrix, provenance), the provenance being the
    h-letter word the coefficient was multiplied out from; signs[i] is the
    exponent of the i-th occurrence of x.  Equality compares coefficient
    matrices and signs only, which is exactly equality in H*<x>; provenance
    is kept for printing.
    """

    __slots__ = ("coeffs", "signs")

    def __init__(self, coeffs: Sequence[tuple[ProjMat2, Word]], signs: Sequence[int]):
        if len(coeffs) != len(signs) + 1:
            raise ValueError(f"{len(coeffs)} coefficients for {len(signs)} signs, "
                             "need one more coefficient than signs")
        self.coeffs = tuple(coeffs)
        self.signs = tuple(signs)

    @property
    def degree(self) -> int:
        return len(self.signs)

    def is_balanced(self) -> bool:
        return sum(self.signs) == 0

    def is_trivial(self) -> bool:
        return self.degree == 0 and self.coeffs[0][0] == IDENTITY

    def coefficient_matrices(self) -> tuple[ProjMat2, ...]:
        return tuple(mat for mat, _ in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HEquation):
            return NotImplemented
        return (self.coefficient_matrices() == other.coefficient_matrices()
                and self.signs == other.signs)

    def __hash__(self) -> int:
        return hash((self.coefficient_matrices(), self.signs))

    def __repr__(self) -> str:
        return f"HEquation(degree={self.degree}, coeffs={self.coefficient_matrices()}, signs={self.signs})"


def reduce_equation(word: EqWord, ctx: HContext) -> HEquation:
    """Normal form of a raw equation word in H*<x>.

    One left-to-right pass over the word cut at its x letters: an x^e
    reached while the current coefficient is trivial and the previous x had
    exponent -e cancels that x, and the coefficient before it merges into
    the current one.  A coefficient's provenance is the slice of the word it
    spans, less the x letters cancelled inside it.
    """
    word = tuple(word)
    x = ctx.x_letter
    entry = ctx._entries.__getitem__
    coeffs: list[tuple[ProjMat2, Word]] = []
    signs: list[int] = []
    starts: list[int] = []  # where each coefficient in coeffs begins in word
    carry: ProjMat2 | None = None  # a merged coefficient's matrix so far
    start = seg = 0  # the current coefficient and its last segment begin here
    for end in [i for i, let in enumerate(word) if let == x or let == -x] + [len(word)]:
        cur = _product(map(entry, word[seg:end]))
        if carry is not None:
            cur = carry * cur
        if end == len(word):
            break
        sign = 1 if word[end] > 0 else -1
        if signs and signs[-1] == -sign and cur == IDENTITY:
            signs.pop()
            carry = coeffs.pop()[0]
            start = starts.pop()
        else:
            coeffs.append((cur, _provenance(word[start:end], x)))
            starts.append(start)
            signs.append(sign)
            carry, start = None, end + 1
        seg = end + 1
    coeffs.append((cur, _provenance(word[start:], x)))
    return HEquation(coeffs, signs)


def _provenance(part: EqWord, x: int) -> Word:
    """The h-letters of a coefficient's slice: a merged coefficient's slice
    still holds the x letters that cancelled inside it."""
    if x not in part and -x not in part:
        return part
    return tuple(let for let in part if let != x and let != -x)


def evaluate(w: EqWord | HEquation, ctx: HContext) -> ProjMat2:
    """The matrix w(g): image under the evaluation homomorphism x -> g."""
    if isinstance(w, HEquation):
        factors = [w.coeffs[0][0]]
        for sign, (mat, _) in zip(w.signs, w.coeffs[1:]):
            factors += (ctx._entries[sign * ctx.x_letter], mat)
        return _product(factors)
    return _product(map(ctx._entries.__getitem__, w))


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def parse_eq_word(text: str, ctx: HContext) -> EqWord:
    return parse_word(text, ctx.letter_names)


def format_eq_word(word: EqWord, ctx: HContext) -> str:
    return format_word(word, ctx.letter_names)


def _x_runs(eq: HEquation) -> list[tuple[int, int, int]]:
    """Maximal runs of equal-signed x's separated by trivial coefficients:
    (start index into signs, run length, sign)."""
    runs = []
    i = 0
    while i < len(eq.signs):
        j = i + 1
        while (j < len(eq.signs) and eq.coeffs[j][0] == IDENTITY
               and eq.signs[j] == eq.signs[i]):
            j += 1
        runs.append((i, j - i, eq.signs[i]))
        i = j
    return runs


def render_equation(eq: HEquation, ctx: HContext, matrices: bool = False) -> str:
    """Display rendering: 'h1 x^-1 h1^-1 x ...' or the matrix form with
    X tokens.  Identity coefficients are omitted and consecutive x's with
    trivial coefficients in between are collected into powers."""
    if eq.is_trivial():
        return "I" if matrices else "1"
    var = "X" if matrices else "x"
    parts: list[str] = []

    def emit_coeff(idx: int) -> None:
        mat, prov = eq.coeffs[idx]
        if mat == IDENTITY:
            return
        if matrices:
            parts.append(str(mat))
        elif prov:
            parts.append(format_word(prov, ctx.letter_names))
        else:
            parts.append(str(mat))
    emit_coeff(0)
    for start, length, sign in _x_runs(eq):
        exp = length * sign
        parts.append(var if exp == 1 else f"{var}^{exp}")
        emit_coeff(start + length)
    return " ".join(parts)
