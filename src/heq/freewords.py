"""The rank-2 free kernel F of PSL2(Z) -> Z/6, with basis {p, q}.

Also houses the small toolkit for words over arbitrary signed alphabets that
the rest of the package shares.  A word is a tuple of nonzero ints: letter k
(1-based) is written +k, its inverse -k.  Freely reduced means no adjacent
+k, -k pair.  As text a word is a list of tokens, name or name^exponent, one
per run of equal letters.  format_word and parse_word share one token table
per alphabet (the names tuple), built once and kept in a small LRU memo: it
maps name, name^1 and name^-1 to their letters and each signed letter to
its one-letter token, so only powers go through int() or an f-string.  The
parser builds the word token by token and refuses, with ValueError, the
first token that would take it past WORD_BUDGET letters, before building
any of that token's letters.

The Reidemeister-Schreier rewriting of kernel elements into {p, q} walks the
Schreier graph of F (the Cayley graph of Z/6, see words.abelianize) with the
transversal {1, b, b^2, a, ab, ab^2} and emits one table entry per syllable
crossed.  The table is derived at import time: each entry (u, s) holds the
word among 1, p^+-1, q^+-1 whose matrix is rep(u) s rep(us)^-1, and the
state us the step ends at, so the table is also the walk in Z/6.
rewrite_from walks an a/b-word from any state and returns the rewritten
word with the state the walk ends at.  equations.rewrite_values joins the
walks of letters' a/b-words, so a generator value is never built as one
a/b-word; matrix_to_free_word walks a matrix's normal form from state 0.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import ne, neg
from typing import Iterable, Iterator, Sequence

from .psl2 import MAT_P, MAT_Q, ProjMat2, _block_product, _block_table
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


def join_reduced(words: Iterable[Word]) -> Word:
    """free_reduce of the freely reduced words written one after another.

    Only junctions can cancel: at each, the longest tail of the letters so
    far that the next word starts inverted goes, and the rest of that word
    is appended whole.
    """
    out: list[int] = []
    for word in words:
        if out and word and out[-1] == -word[0]:
            out.pop()
            k, n = 1, len(word)
            while out and k < n and out[-1] == -word[k]:
                out.pop()
                k += 1
            out += word[k:]
        else:
            out += word
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple(map(neg, reversed(word)))


# substitute goes run by run through a relator of at least this many
# letters and writes a shorter one out letter by letter
RUN_MIN_LETTERS = 32


def substitute(relator: Word, ws: Sequence[Word]) -> Word:
    """Replace each abstract letter x_i of the relator by ws[i-1], freely reduced.

    A relator of at least RUN_MIN_LETTERS letters goes run by run.  A run
    x_i^m becomes the power w^m of w, the free reduction of ws[i-1]
    (inverted for -i), built by tuple repetition as c z^m c^-1, where
    w = c z c^-1 with z cyclically reduced (Lyndon-Schupp, Ch. IV): that
    word is freely reduced.  join_reduced joins the powers, cancelling only
    at their junctions.  Free reduction is confluent, so the result is the
    free reduction of the letterwise substitution, letter for letter.  A
    shorter relator is written out letter by letter and freely reduced in
    one pass: there the run path's fixed cost, finding the runs, reducing
    and splitting each w and joining the pieces, outweighs the per-letter
    work it saves.  On either path a letter outside 1..len(ws) raises
    IndexError when it is reached, and no earlier.
    """
    if len(relator) >= RUN_MIN_LETTERS:
        return join_reduced(_run_powers(relator, ws))
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


def _run_powers(relator: Word, ws: Sequence[Word]) -> Iterator[Word]:
    """The freely reduced power of the substituted word for each run of the
    relator.  The runs are found by one C-level comparison of each letter
    with the one before it."""
    starts = [*compress(range(len(relator)), map(ne, relator, (None, *relator)))]
    splits: dict[int, tuple[Word, Word, Word]] = {}  # letter -> (c, z, c^-1)
    for start, end in zip(starts, [*starts[1:], len(relator)]):
        let = relator[start]
        split = splits.get(let)
        if split is None:
            if not 1 <= abs(let) <= len(ws):
                raise IndexError(f"relator letter {let} outside 1..{len(ws)}")
            word = free_reduce(ws[let - 1] if let > 0 else invert_word(ws[-let - 1]))
            split = splits[let] = _cyclic_split(word)
        c, z, c_inv = split
        yield c + z * (end - start) + c_inv


def _cyclic_split(word: Word) -> tuple[Word, Word, Word]:
    """(c, z, c^-1) with word = c z c^-1 and z cyclically reduced, for a
    freely reduced word; z is empty only for the empty word."""
    k, n = 0, len(word)
    while 2 * k + 1 < n and word[k] == -word[n - 1 - k]:
        k += 1
    return word[:k], word[k:n - k], word[n - k:]


@lru_cache(maxsize=32)
def _token_table(names: tuple[str, ...]) -> tuple[dict[str, int], dict[int, str]]:
    """The token table of an alphabet: (text -> letter, letter -> text).

    The first map takes each name, name^1 and name^-1 to its signed letter.
    A name holding '^' is left out: the parser splits every token at its
    first ^, so no token reads as that name.  A later duplicate name wins,
    as in a dict of the names.  The second map takes each signed letter to
    the token format_word writes for a run of one.  Both maps are shared
    by every caller with the same names and are only read.
    """
    parse: dict[str, int] = {}
    tokens: dict[int, str] = {}
    for let, name in enumerate(names, 1):
        tokens[let], tokens[-let] = name, f"{name}^-1"
        if "^" not in name:
            parse[name] = parse[f"{name}^1"] = let
            parse[f"{name}^-1"] = -let
    return parse, tokens


def format_word(word: Word, names: tuple[str, ...]) -> str:
    """Render with powers collected: (1, 1, -2, -2, -2) -> 'p^2 q^-3'.

    The word is walked one run at a time.  A run of one letter is written
    as its token from the alphabet's token table (name or name^-1), a
    longer run as name^exponent.
    """
    tokens = _token_table(names)[1]
    parts: list[str] = []
    i, n = 0, len(word)
    while i < n:
        let = word[i]
        j = i + 1
        while j < n and word[j] == let:
            j += 1
        token = tokens.get(let) if j == i + 1 else None
        if token is None:
            token = f"{names[abs(let) - 1]}^{j - i if let > 0 else i - j}"
        parts.append(token)
        i = j
    return " ".join(parts)


def parse_word(text: str, names: tuple[str, ...]) -> Word:
    """Parse 'q p q^-2 p^-1' style text back into a word, letter for letter.

    Tokens are separated by whitespace or commas; each is a name from names,
    optionally followed by ^ and an integer exponent.  A whole token found
    in the alphabet's token table (name, name^1, name^-1) gives its letter
    at once; any other token is split at its first ^ and its exponent read
    by int().  Letters are built token by token, and a token that would take
    the word past WORD_BUDGET letters raises ValueError before any of its
    letters is built, so no word of more than WORD_BUDGET letters is ever
    built.  An unknown name or a bad exponent raises ValueError, a text that
    is not a string TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"word {text!r} is not a string")
    table = _token_table(names)[0]
    letters: list[int] = []
    for token in text.replace(",", " ").split():
        let = table.get(token)
        if let is not None and len(letters) < WORD_BUDGET:
            letters.append(let)
            continue
        # a token the table misses, or any token once the word is full
        name, caret, exp = token.partition("^")
        let = table.get(name)
        if let is None:
            raise ValueError(f"unknown letter {name!r} in a word")
        try:
            power = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
        if len(letters) + abs(power) > WORD_BUDGET:
            raise ValueError(f"a word of at least {len(letters) + abs(power)} "
                             f"letters is over the budget of {WORD_BUDGET}")
        letters.extend([let if power > 0 else -let] * abs(power))
    return tuple(letters)


# ---------------------------------------------------------------------------
# words over {p, q}
# ---------------------------------------------------------------------------

P, Q = 1, 2
PQ_NAMES = ("p", "q")

_PQ_ENTRIES = {let: tuple(m) for let, m in
               ((P, MAT_P), (-P, MAT_P.inv()), (Q, MAT_Q), (-Q, MAT_Q.inv()))}
# every word of 1..psl2.BLOCK letters over p^+-1, q^+-1, reduced or not ->
# the entries of its product
_PQ_BLOCKS = _block_table(_PQ_ENTRIES)


def pq_to_matrix(word: FreeWord) -> ProjMat2:
    """Product of the p/q matrices named by the word, which need not be
    freely reduced.

    The word is multiplied out psl2.BLOCK letters at a time, each slice
    looked up in _PQ_BLOCKS (see the psl2 module docstring).
    """
    return _block_product(_PQ_BLOCKS, word)


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


def rewrite_from(state: int, word: ABWord) -> tuple[FreeWord, int]:
    """The walk of an ABWord from a state of the Schreier graph of F.

    Returns (piece, t): t = u + abelianize(word) is the state the walk ends
    at, u being the start state, read off the rewriting table step by step,
    and piece is the freely reduced word in {p, q} whose matrix is
    rep(u) eval_ab(word) rep(t)^-1.  A walk from state 0 that ends at state
    0 rewrites a kernel element; walks from other states are the pieces
    equations.rewrite_values joins.
    """
    out: list[int] = []
    for syl in word:
        part, state = _SYLLABLE_STEP[state, syl]
        out.extend(part)
    return free_reduce(out), state


def matrix_to_free_word(m: ProjMat2) -> FreeWord:
    """Rewrite a matrix known to lie in F; NotInKernel otherwise.

    The result is freely reduced and pq_to_matrix(result) = m.  A public
    export: the pipeline rewrites generator values letter by letter
    (equations.rewrite_values) instead, and the tests compare the two.
    """
    word, state = rewrite_from(0, decompose(m))
    if state:
        raise NotInKernel(f"matrix maps to {state} in Z/6, not 0")
    return word
