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
its value needs no determinant check, only one sign normalization.  A long
word whose x letters cut it into long segments, as the ideal words of
commuting inputs are, is multiplied one distinct segment at a time
(evaluate, _segments), and only once per context: reduce_equation keeps the
cuts and segment products of such a word on the context, and evaluate reads
them for the same word object.  render_equation formats each distinct
coefficient word once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .freewords import (FreeWord, NotInKernel, Word, format_word, free_reduce, parse_word,
                        rewrite_from)
from .freewords import substitute  # part of this module's API
from .psl2 import IDENTITY, Entries, ProjMat2, _product
from .words import QUOTIENT_ORDER, WORD_BUDGET, ABWord, expand, invert_ab, peel, peel_image

EqWord = Word


@dataclass(frozen=True)
class HContext:
    """The ambient data of an analysis: H = <h_1..h_s> and the element g.

    A context is its matrices: h_mats may be given as any sequence and is
    stored as a tuple, and everything derived from the matrices takes no
    part in equality or hashing.  The letter names h1..hs, x and each
    signed letter's entry 4-tuple and image in Z/6 are computed at
    construction, where each matrix is peeled (words.peel, which checks the
    word budget and the peel), so letter and word lookups do no matrix or
    word arithmetic.  The canonical a/b-words h_words and g_word, and each
    signed letter's a/b-word (for -let the inverse of let's word), are
    expanded from the peels on first read (ab_words) and memoized;
    rewrite_values reads them to rewrite words' values at g into {p, q}, and
    a report's to_dict prints them, while the Schreier graph, verify and the
    oracle never read them.  equation(word) memoizes reduce_equation, so
    each word is reduced at most once per context, however many readers ask
    for its normal form.  is_trivial(word) reads the flag without a normal
    form wherever the x-exponent sum or the value decides it, and through
    equation otherwise.

    _cuts shares one word's cuts and segment products between
    reduce_equation, which stores them, and evaluate, which reads them, so
    analyze cuts and multiplies each long ideal word once, not once to
    reduce it and again to check its value.  Only a tuple that evaluate's
    segment rule takes is kept, under id(word), with the word itself: a
    lookup hashes no letters, so a miss costs no pass over the word, and the
    held word keeps its id from being reused.  A hit must be that very
    object (kept[0] is word); an equal word that is another object, or a key
    carried over by copy or pickle, is cut again.  The products depend on
    the letters only, so reading them is exactly cutting the word again.
    """

    h_mats: tuple[ProjMat2, ...]
    g_mat: ProjMat2
    letter_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _entries: dict[int, Entries] = field(init=False, repr=False, compare=False)
    _image: dict[int, int] = field(init=False, repr=False, compare=False)
    _peels: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _ab_words: dict[int, ABWord] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _equations: dict[EqWord, HEquation] = field(
        init=False, repr=False, compare=False, default_factory=dict)
    _cuts: dict[int, tuple[EqWord, list[int], list[ProjMat2]]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "h_mats", tuple(self.h_mats))
        mats = self.h_mats + (self.g_mat,)
        # peel checks the budget and that each peel multiplies back to its matrix
        peels = tuple(map(peel, mats))
        entries: dict[int, Entries] = {}
        image: dict[int, int] = {}
        for let, (mat, exponents) in enumerate(zip(mats, peels), start=1):
            entries[let], entries[-let] = tuple(mat), tuple(mat.inv())
            image[let] = peel_image(exponents)
            image[-let] = -image[let] % QUOTIENT_ORDER
        object.__setattr__(self, "letter_names",
                           tuple(f"h{i}" for i in range(1, self.s + 1)) + ("x",))
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_image", image)
        object.__setattr__(self, "_peels", peels)

    def ab_words(self) -> dict[int, ABWord]:
        """Each signed letter's a/b-word, every matrix expanded once per
        context, the first time any reader asks.  Threads that ask at once
        may both expand a matrix and store the same words."""
        words = self._ab_words
        if len(words) < 2 * self.x_letter:
            mats = self.h_mats + (self.g_mat,)
            for let, (mat, exponents) in enumerate(zip(mats, self._peels), start=1):
                if let not in words:
                    # expand checks that the word evaluates back to its matrix
                    word = expand(mat, exponents)
                    words[-let] = invert_ab(word)
                    words[let] = word
        return words

    @property
    def h_words(self) -> tuple[ABWord, ...]:
        words = self.ab_words()
        return tuple(words[let] for let in range(1, self.x_letter))

    @property
    def g_word(self) -> ABWord:
        return self.ab_words()[self.x_letter]

    @classmethod
    def from_matrices(cls, h_mats: Sequence[ProjMat2], g_mat: ProjMat2) -> "HContext":
        """HContext(h_mats, g_mat).  Kept only because analyze calls it and
        perfbench's words.decompose span wraps it by this name."""
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

    The cuts and the segment products come from _segments, the same helper
    evaluate's segment path uses: a word with two or more x's multiplies
    each distinct segment once per call.  A merge multiplies the carried
    coefficient onto the segment's product afterwards, so a merged product
    never stands in for a segment's.  A coefficient that absorbed no merge
    spans one segment, which holds no x, so its slice is its provenance;
    only a merged coefficient's slice is rescanned (_provenance).

    A word given as a tuple that evaluate's segment rule takes leaves its
    cuts and segment products on the context (HContext._cuts) for evaluate
    to read instead of cutting and multiplying the word again.  They are
    what _segments returns for the word, before any merge, so evaluate's
    value is the one it would compute itself.
    """
    given, word = word, tuple(word)
    x = ctx.x_letter
    coeffs: list[tuple[ProjMat2, Word]] = []
    signs: list[int] = []
    starts: list[int] = []  # where each coefficient in coeffs begins in word
    carry: ProjMat2 | None = None  # a merged coefficient's matrix so far
    start = 0  # the current coefficient begins here
    cuts, products = _segments(word, x, ctx._entries.__getitem__)
    n, xs = len(word), len(cuts)
    # evaluate's segment rule; a list's tuple copy dies with this call
    if (n >= SEGMENT_MIN_LETTERS and xs >= 2 and n >= SEGMENT_MEAN * (xs + 1)
            and word is given):
        ctx._cuts[id(word)] = word, cuts, products
    for end, cur in zip(cuts, products):
        if carry is not None:
            cur = carry * cur
        sign = 1 if word[end] > 0 else -1
        if signs and signs[-1] == -sign and cur == IDENTITY:
            signs.pop()
            carry = coeffs.pop()[0]
            start = starts.pop()
        else:
            part = word[start:end]
            coeffs.append((cur, part if carry is None else _provenance(part, x)))
            starts.append(start)
            signs.append(sign)
            carry, start = None, end + 1
    cur = products[-1]
    part = word[start:]
    if carry is not None:
        cur, part = carry * cur, _provenance(part, x)
    coeffs.append((cur, part))
    return HEquation(coeffs, signs)


def _segments(word: Word, x: int, entry) -> tuple[list[int], list[ProjMat2]]:
    """(cuts, products): the positions of x and -x in word, in order, and
    the products of the len(cuts) + 1 segments they cut it into, the
    letters before the first x, between two x's and after the last.

    tuple.count and tuple.index find the cuts, so finding them costs Python
    work per x, not per letter.  A word with two or more x's multiplies
    each distinct segment once, keeping the products in a dict local to the
    call: the ideal words of commuting inputs repeat one segment dozens of
    times.  A word with at most one x, as most of the oracle's halves are,
    makes no dict.
    """
    ups, downs = word.count(x), word.count(-x)
    if ups + downs < 2:
        if not ups + downs:
            return [], [_product(map(entry, word))]
        cut = word.index(x if ups else -x)
        return [cut], [_product(map(entry, word[:cut])),
                       _product(map(entry, word[cut + 1:]))]
    n = len(word)
    index = word.index
    up = index(x) if ups else n
    down = index(-x) if downs else n
    cuts: list[int] = []
    for _ in range(ups + downs):
        if up < down:
            cuts.append(up)
            ups -= 1
            up = index(x, up + 1) if ups else n
        else:
            cuts.append(down)
            downs -= 1
            down = index(-x, down + 1) if downs else n
    memo: dict[Word, ProjMat2] = {}
    products: list[ProjMat2] = []
    seg = 0
    for end in (*cuts, n):
        part = word[seg:end]
        cur = memo.get(part)
        if cur is None:
            cur = memo[part] = _product(map(entry, part))
        products.append(cur)
        seg = end + 1
    return cuts, products


def _provenance(part: EqWord, x: int) -> Word:
    """The h-letters of a coefficient's slice: a merged coefficient's slice
    still holds the x letters that cancelled inside it."""
    return tuple(let for let in part if let != x and let != -x)


def rewrite_values(words: Sequence[EqWord], ctx: HContext) -> tuple[FreeWord, ...]:
    """The values w(g) of kernel words as freely reduced words in {p, q}.

    Reidemeister-Schreier, letter by letter.  The piece of a signed letter
    read at state u of the Schreier graph of F is the walk of its a/b-word
    from u (freewords.rewrite_from), whose matrix is rep(u) let(g) rep(t)^-1,
    t being the state that walk ends at and the next letter's start.  Along
    a word that ends at state 0 the pieces telescope to w(g), and p, q
    freely generate F, so the freely reduced join is
    freewords.matrix_to_free_word(evaluate(w, ctx)), with no a/b-word of
    the value ever built.  Each (piece, end state) is built the first time a
    word needs it and kept for the other words of this call only: one per
    state and signed letter, at most 6 * 2(s+1), the edges of the Schreier
    graph in both directions.  The letters' a/b-words come from
    ctx.ab_words, so in analyze this is where the input matrices are
    expanded, once each.

    Raises ValueError, before building any piece, when the letters' a/b-words
    of some word have more than WORD_BUDGET syllables in all, and
    NotInKernel when a word does not map to 0 in Z/6.
    """
    ab_words = ctx.ab_words()
    for word in words:
        length = sum(map(len, map(ab_words.__getitem__, word)))
        if length > WORD_BUDGET:
            raise ValueError(f"a word's value spans {length} a/b letters before "
                             f"reduction, more than the budget of {WORD_BUDGET}")
    steps: dict[tuple[int, int], tuple[FreeWord, int]] = {}
    values: list[FreeWord] = []
    for word in words:
        out: list[int] = []
        state = 0
        for let in word:
            step = steps.get((state, let))
            if step is None:
                step = steps[state, let] = rewrite_from(state, ab_words[let])
            piece, state = step
            out.extend(piece)
        if state:
            raise NotInKernel(f"word maps to {state} in Z/6, not 0")
        values.append(free_reduce(out))
    return tuple(values)


# evaluate goes segment by segment through a word of at least this many
# letters with two or more x's and segments of SEGMENT_MEAN letters or more
# on average; any other word is multiplied out letter by letter, which is
# the faster pass on shorter words and on words with shorter segments
SEGMENT_MIN_LETTERS = 64
SEGMENT_MEAN = 8


def evaluate(w: EqWord | HEquation, ctx: HContext) -> ProjMat2:
    """The matrix w(g): image under the evaluation homomorphism x -> g.

    A word of at least SEGMENT_MIN_LETTERS letters whose x's, two or more,
    cut it into segments of SEGMENT_MEAN letters or more on average, as the
    ideal words of commuting inputs are, is multiplied segment by segment:
    _segments multiplies each distinct segment once, and the segment
    products go to _product with g^+-1 in between, in order.  The value is
    the same product of the same letter matrices, bracketed differently and
    normalized once at the end, so it is exactly the letterwise value.  Any
    other word goes to _product letter by letter in one pass; the choice
    costs a length test, and for a long word two tuple.count calls.  The
    segment path pays for finding the cuts and for one slice, dict lookup
    and _product call per segment, and wins that back only where segments
    repeat or the word is long: on shorter words, and on words with
    segments of one or two letters such as the ideal words of T^1000 over
    T, the letterwise pass is the faster one.

    A word that reduce_equation has cut under this context, the same tuple
    object, takes its cuts and segment products from HContext._cuts and
    skips the rule, which held when they were stored; the lookup is by
    identity, so it costs no pass over the word when it misses.
    """
    entry = ctx._entries.__getitem__
    if isinstance(w, HEquation):
        x = ctx.x_letter
        g_entries = {1: entry(x), -1: entry(-x)}
        factors = [w.coeffs[0][0]]
        for sign, (mat, _) in zip(w.signs, w.coeffs[1:]):
            factors += (g_entries[sign], mat)
        return _product(factors)
    n = len(w)
    if n < SEGMENT_MIN_LETTERS:
        return _product(map(entry, w))
    kept = ctx._cuts.get(id(w))
    if kept is not None and kept[0] is w:
        _, cuts, products = kept
    else:
        word = tuple(w)
        x = ctx.x_letter
        xs = word.count(x) + word.count(-x)
        if xs < 2 or n < SEGMENT_MEAN * (xs + 1):
            return _product(map(entry, w))
        cuts, products = _segments(word, x, entry)
    factors = [products[0]]
    for end, cur in zip(cuts, products[1:]):
        factors += (entry(w[end]), cur)
    return _product(factors)


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
    trivial coefficients in between are collected into powers.

    Each distinct provenance is formatted once per call, its text kept in a
    dict local to the call: the ideal words of commuting inputs repeat one
    coefficient word dozens to hundreds of thousands of times.  The key is
    the provenance, not the matrix: under torsion two different words can
    have one matrix and must still print apart, while a coefficient's
    matrix is the product of its provenance's letters, so one provenance
    prints alike in both forms."""
    if eq.is_trivial():
        return "I" if matrices else "1"
    var = "X" if matrices else "x"
    parts: list[str] = []
    texts: dict[Word, str] = {}  # provenance -> its coefficient's text

    def emit_coeff(idx: int) -> None:
        mat, prov = eq.coeffs[idx]
        if mat == IDENTITY:
            return
        text = texts.get(prov)
        if text is None:
            if matrices or not prov:
                text = str(mat)
            else:
                text = format_word(prov, ctx.letter_names)
            texts[prov] = text
        parts.append(text)
    emit_coeff(0)
    for start, length, sign in _x_runs(eq):
        exp = length * sign
        parts.append(var if exp == 1 else f"{var}^{exp}")
        emit_coeff(start + length)
    return " ".join(parts)
