"""Brute-force enumeration of short equations satisfied by g.

Independent cross-check for the pipeline: walk every freely-reduced word of
bounded length over the signed letters h1..hs, x and collect those whose
matrix value at g is the identity and whose normal form in H*<x> is a
nontrivial equation.  Pruning never excludes a potential witness: words with
an adjacent letter-inverse pair are skipped because a shorter equal word is
enumerated anyway, and a branch is cut only when the image in C2 x C3 can no
longer reach (0,0) within the remaining length budget.

The search is a depth-first walk over exact (arbitrary-precision) integer
matrices.  Every candidate it reports is evaluated again through the
equation layer before it becomes a witness, so a fault in the search raises
instead of producing a wrong witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .equations import EqWord, HContext, evaluate, reduce_equation
from .psl2 import IDENTITY
from .words import AB_ZERO


@dataclass(frozen=True)
class EnumerationResult:
    max_len: int
    witnesses: tuple[EqWord, ...]
    backend: str = "python"  # one search path; the name stays for callers that record it


def _search_tables(ctx: HContext):
    """Signed-letter matrices, quotient transition table and the min-steps-
    to-zero table used for pruning.  Signed letter index 2i is letter i+1,
    index 2i+1 its inverse."""
    k = ctx.x_letter
    mats = []
    deltas = []
    for letter in range(1, k + 1):
        for sl in (letter, -letter):
            mats.append(ctx.letter_matrix(sl).entries())
            img = ctx.letter_image(sl)
            deltas.append(img.c2 * 3 + img.c3)

    def add(state: int, delta: int) -> int:
        return ((state // 3 + delta // 3) % 2) * 3 + (state % 3 + delta % 3) % 3

    trans = [[add(s, d) for d in deltas] for s in range(6)]
    inf = 10 ** 9
    min_steps = [inf] * 6
    min_steps[0] = 0
    frontier = [0]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for s in range(6):
            if min_steps[s] < inf:
                continue
            # s reaches 0 in `dist` steps iff some move takes it to a
            # (dist-1)-state; moves are symmetric, so walk backwards freely
            for d in deltas:
                if min_steps[add(s, d)] == dist - 1:
                    min_steps[s] = dist
                    nxt.append(s)
                    break
        frontier = nxt
    return mats, trans, min_steps


def _candidates(mats, trans, min_steps, max_len: int) -> list[tuple[int, ...]]:
    nsigned = len(mats)
    found: list[tuple[int, ...]] = []
    path: list[int] = []

    def rec(m, state: int, last: int) -> None:
        depth = len(path)
        a, b, c, d = m
        for idx in range(nsigned):
            if last >= 0 and idx == last ^ 1:
                continue
            st2 = trans[state][idx]
            if min_steps[st2] > max_len - depth - 1:
                continue
            e, f, g, h = mats[idx]
            m2 = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            path.append(idx)
            if m2[1] == 0 and m2[2] == 0 and m2[0] == m2[3] and m2[0] * m2[0] == 1:
                found.append(tuple(path))
            if depth + 1 < max_len:
                rec(m2, st2, idx)
            path.pop()

    rec((1, 0, 0, 1), 0, -1)
    return found


def enumerate_kernel(ctx: HContext, max_len: int) -> EnumerationResult:
    """Exhaustive witness search over words of length <= max_len.

    A witness is a word that evaluates to the identity at g but is a
    nontrivial element of H*<x>.  Witnesses come out as raw EqWords sorted
    by (length, word), letters compared as signed integers.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    candidates = _candidates(*_search_tables(ctx), max_len)

    witnesses: list[EqWord] = []
    for idx_path in candidates:
        word: EqWord = tuple(
            (idx // 2 + 1) * (1 if idx % 2 == 0 else -1) for idx in idx_path)
        if evaluate(word, ctx) != IDENTITY or ctx.word_image(word) != AB_ZERO:
            raise RuntimeError(f"search produced a non-witness {word}")
        if not reduce_equation(word, ctx).is_trivial():
            witnesses.append(word)
    witnesses.sort(key=lambda w: (len(w), w))
    return EnumerationResult(max_len, tuple(witnesses))


@dataclass(frozen=True)
class CrossCheckResult:
    passed: bool
    witness_count: int
    detail: str


def cross_check(report, max_len: int) -> CrossCheckResult:
    """Compare a report's verdict against the enumeration.

    A transcendental verdict fails if any witness exists; with no witness it
    is only consistent up to the explored depth, never proved.
    """
    from .pipeline import VERDICT_TRANSCENDENTAL

    result = enumerate_kernel(report.ctx, max_len)
    n = len(result.witnesses)
    if report.verdict == VERDICT_TRANSCENDENTAL:
        if n:
            return CrossCheckResult(False, n, f"transcendental verdict but {n} witness(es) found")
        return CrossCheckResult(True, 0, f"consistent up to length {max_len}")
    if n:
        return CrossCheckResult(True, n, f"algebraic verdict confirmed by {n} witness(es)")
    return CrossCheckResult(True, 0,
                            f"algebraic verdict; no witness within length {max_len}")
