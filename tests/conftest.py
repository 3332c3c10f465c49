import os
import random
import subprocess
import sys
from itertools import chain

import pytest

import heq
from heq.psl2 import MAT_A, MAT_B, ProjMat2
from heq.equations import HContext
from heq.freewords import free_reduce, invert_word
from heq.words import invert_ab

# Fixed seed for the randomized property suites; override with HEQ_SEED.
SEED = int(os.environ.get("HEQ_SEED", "20250810"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this same heq."""
    src = os.path.dirname(os.path.dirname(heq.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def check_syllable_steps() -> int:
    """Check every entry of the rewriting table freewords._SYLLABLE_STEP
    against a transversal and letter matrices written out here, by (C2, C3)
    pair; returns the number of entries checked.

    Entry (u, s) -> (gamma, t) must have t = u + image(s) and
    gamma = rep(u) s rep(t)^-1 as matrices, gamma one of 1, p^+-1, q^+-1.
    """
    from heq.freewords import _SYLLABLE_STEP, pq_to_matrix

    b2 = MAT_B * MAT_B
    reps = {
        (0, 0): ProjMat2(1, 0, 0, 1), (0, 1): MAT_B, (0, 2): b2,
        (1, 0): MAT_A, (1, 1): MAT_A * MAT_B, (1, 2): MAT_A * b2,
    }
    syllables = {"a": ((1, 0), MAT_A), "b": ((0, 1), MAT_B), "b2": ((0, 2), b2)}
    assert {(u, s) for u, s in _SYLLABLE_STEP} == {
        (u, s) for u in range(6) for s in syllables}
    for (u, syl), (gamma, target) in _SYLLABLE_STEP.items():
        (d2, d3), mat = syllables[syl]
        c2, c3 = u % 2, u % 3
        assert (target % 2, target % 3) == ((c2 + d2) % 2, (c3 + d3) % 3)
        assert len(gamma) <= 1
        expected = reps[c2, c3] * mat * reps[target % 2, target % 3].inv()
        assert pq_to_matrix(gamma) == expected, (u, syl)
    return len(_SYLLABLE_STEP)


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


def reduce_ab_reference(letters) -> tuple[str, ...]:
    """Normal form of a product of generator letters, by a stack of
    syllables: the reference words.expand and the rewriting are checked
    against.

    Accepts the letters a, a^-1, b, b^-1 (and the aliases b2, b^2 for b^-1);
    uses a^-1 = a and b^-1 = b^2.  A syllable from the other factor than the
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


def letters_ab_word(word, ctx: HContext) -> tuple[str, ...]:
    """The a/b normal form of the value w(g), reduced from the letters'
    a/b-words written one after another: the route equations.rewrite_values
    replaced, kept as a reference for it."""
    words = ctx.h_words + (ctx.g_word,)
    return reduce_ab_reference(chain.from_iterable(
        words[let - 1] if let > 0 else invert_ab(words[-let - 1]) for let in word))


def substitute_reference(relator, ws) -> tuple[int, ...]:
    """The relator with each letter x_i written out as ws[i-1] (inverted for
    -i), letter by letter, then freely reduced in one pass: the route
    freewords.substitute's run path replaced, kept as a reference for it.
    Raises IndexError at the first letter outside 1..len(ws)."""
    out: list[int] = []
    for let in relator:
        if not 1 <= abs(let) <= len(ws):
            raise IndexError(f"relator letter {let} outside 1..{len(ws)}")
        out.extend(ws[let - 1] if let > 0 else invert_word(ws[-let - 1]))
    return free_reduce(out)


def random_matrix(rng: random.Random, max_len: int = 12) -> ProjMat2:
    """Random element of PSL2(Z) as a product of generator letters."""
    m = ProjMat2(1, 0, 0, 1)
    for _ in range(rng.randrange(max_len + 1)):
        m = m * rng.choice([MAT_A, MAT_B, MAT_B * MAT_B])
    return m


@pytest.fixture
def h1() -> ProjMat2:
    return ProjMat2(2, -1, -1, 1)


@pytest.fixture
def h2() -> ProjMat2:
    return ProjMat2(2, -5, 1, -2)


@pytest.fixture
def ctx_43(h1, h2) -> HContext:
    """Inputs of the first worked example: g = [[5,3],[3,2]]."""
    return HContext.from_matrices([h1, h2], ProjMat2(5, 3, 3, 2))


@pytest.fixture
def ctx_44(h1, h2) -> HContext:
    """Inputs of the second worked example: g = [[1,0],[-2,1]]."""
    return HContext.from_matrices([h1, h2], ProjMat2(1, 0, -2, 1))
