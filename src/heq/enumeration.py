"""Brute-force enumeration of short equations satisfied by g.

Independent cross-check for the pipeline: find every freely reduced word of
length at most L over the signed letters h1..hs, x whose matrix value at g is
the identity, and keep those whose normal form in H*<x> is a nontrivial
equation.  Words with an adjacent letter-inverse pair are never candidates,
because the shorter word they reduce to is one anyway.

The search is a meet-in-the-middle join (Schroeppel-Shamir, SIAM J. Comput.
10(3), 1981) over exact (arbitrary-precision) integer matrices.

* The ball: every freely reduced word of length r <= R = ceil(L/2), built
  layer by layer, each layer indexed by its words' values up to sign (a
  sign-normalized entry 4-tuple).
* The split: a freely reduced word w of length l is u v with
  |u| = ceil(l/2) and |v| = floor(l/2), both freely reduced, and it is
  freely reduced exactly when u's last letter is not the inverse of v's
  first.  So each candidate has exactly one split, and the candidates are
  the pairs with value(u) = +-value(v)^-1 that pass this seam rule.
* The join: v^-1 runs over the same layer as v, so u v is a candidate
  exactly when u and a word t = v^-1 of length floor(l/2) share a key and
  end in different letters; the join yields the pair (u, t) of the
  candidate u t^-1.

No pruning by the image in Z/6 = C2 x C3 is needed: the map to Z/6 is a
homomorphism of PSL2(Z), so every word of value +-I has image 0, and the
join meets only words of value +-I.  A search that pruned by the image
would only skip words that can never be candidates.

Memory is the ball, the witnesses and one record per ball word that some
candidate has as a half; candidates stream into the re-check and are not
kept.  The ball holds sum_{r <= R} n (n-1)^(r-1) words, n = 2(s+1).
enumerate_kernel computes that number before building anything and raises
ValueError above BALL_BUDGET.  With entries of a machine word or two a word
costs up to about 420 bytes (on Python 3.11, 586k words with 542k distinct
values peaked at 261 MB), so a ball within the budget stays under about
256 MB; much larger entries cost more per word.  A record holds the word's
value, image, x-exponent sum and whether it contains x: about 260 bytes
with such entries (Python 3.11, the 117,187 words of the ball below).  Once
a balanced candidate with x asks for it, the record also holds the word's
normal form, kept as its signs and coefficient matrices only, not as an
HEquation with provenance words.  Records come on top of the ball, at most
one per ball word, so a search in which every ball word is a half would add
about 130 MB at the budget.  The second worked example at length 14, the
largest search the budget allows with two h's, keeps 67,616 records, 60,757
of them with a form, and peaked at 128 MB on Python 3.11.

The re-check goes through the equation layer, not the ball's arithmetic.
evaluate and word_image are homomorphisms, so a candidate u t^-1 has value
I and image 0 exactly when u and t have the same value and the same image.
Each ball word's value and image are computed once, the first time a
candidate has it as a half, and every candidate compares those of its two
halves before it can become a witness, so a fault in the search raises
instead of producing a wrong witness.

The witness rule rests on the exponent sum sigma: H*<x> -> Z, x -> 1 and
H -> 0.  It is a homomorphism, so a word with sigma != 0 is never trivial
and is a witness as it stands.  A word with no x lies in H, where it is
trivial exactly when its value is I, which the re-check has just asserted;
it is never a witness.  A balanced word u t^-1 that contains x is trivial
exactly when u = t in H*<x>, that is when the normal forms of u and t
(Lyndon-Schupp, Combinatorial Group Theory, Ch. IV) agree.  So the whole
candidate is never reduced: each ball word is reduced once, the first time
a balanced candidate with x has it as a half, and its form is kept for the
rest of the search.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .equations import EqWord, HContext, evaluate, reduce_equation
from .freewords import invert_word
from .pipeline import VERDICT_TRANSCENDENTAL
from .psl2 import ProjMat2

# Most words the ball may hold; a ball this size peaks under about 256 MB.
BALL_BUDGET = 500_000


@dataclass(frozen=True)
class EnumerationResult:
    witnesses: tuple[EqWord, ...]
    backend: str = "python"  # one search path; the name stays for callers that record it


@dataclass(slots=True)
class _Half:
    """What the re-check and the witness rule read off one ball word."""
    value: ProjMat2
    image: int
    sigma: int  # x-exponent sum
    has_x: bool
    form: tuple | None = None  # signs and coefficient matrices, once reduced


def _ball_size(nsigned: int, radius: int) -> int:
    """Number of freely reduced words of length 1..radius, counted only up
    to the first partial sum above BALL_BUDGET."""
    size, layer = 0, nsigned
    for _ in range(radius):
        size += layer
        if size > BALL_BUDGET:
            break
        layer *= nsigned - 1
    return size


def _ball(ctx: HContext, radius: int) -> list[dict[tuple, list[EqWord]]]:
    """layers[r] maps each value of a freely reduced word of length r,
    sign-normalized, to the words of length r with that value."""
    letters = [(sl, ctx.letter_matrix(sl))
               for letter in range(1, ctx.x_letter + 1) for sl in (letter, -letter)]
    layers: list[dict[tuple, list[EqWord]]] = [{(1, 0, 0, 1): [()]}]
    for _ in range(radius):
        nxt: dict[tuple, list[EqWord]] = {}
        for (a, b, c, d), words in layers[-1].items():
            for sl, (e, f, g, h) in letters:
                ext = [w + (sl,) for w in words if not w or w[-1] != -sl]
                if not ext:
                    continue
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                if m[0] < 0 or (m[0] == 0 and m[1] < 0):
                    m = (-m[0], -m[1], -m[2], -m[3])
                same = nxt.get(m)
                if same is None:
                    nxt[m] = ext
                else:
                    same.extend(ext)
        layers.append(nxt)
    return layers


def _candidates(ctx: HContext, max_len: int) -> Iterator[tuple[EqWord, EqWord]]:
    """Every freely reduced word of length 1..max_len with value +-I, once,
    as the pair (u, t) of ball words with the word u t^-1."""
    layers = _ball(ctx, (max_len + 1) // 2)
    for length in range(1, max_len + 1):
        left, right = layers[(length + 1) // 2], layers[length // 2]
        for key, us in left.items():
            same = right.get(key)
            if same is None:
                continue
            # t^-1 begins with the inverse of t's last letter, so the seam
            # rule reads u[-1] != t[-1]; the empty t (length 1) has no seam
            ts = [(t[-1] if t else 0, t) for t in same]
            for u in us:
                last = u[-1]
                for t_last, t in ts:
                    if t_last != last:
                        yield u, t


def enumerate_kernel(ctx: HContext, max_len: int) -> EnumerationResult:
    """Exhaustive witness search over words of length <= max_len.

    A witness is a word that evaluates to the identity at g but is a
    nontrivial element of H*<x>.  Every candidate u t^-1 is re-checked by
    comparing the values (evaluate) and images (word_image) of u and t,
    each computed once per ball word; a mismatch raises RuntimeError.
    Then a word whose x-exponent sum is nonzero is a witness without
    reduction, a word without x is not one, and a balanced word with x is
    one when the normal forms of u and t differ.  Only witnesses are built
    as whole words.
    Witnesses come out as raw EqWords sorted by (length, word), letters
    compared as signed integers.
    Raises ValueError when max_len < 1, or when the ball of words of length
    up to ceil(max_len/2) would hold more than BALL_BUDGET words.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    nsigned, radius = 2 * ctx.x_letter, (max_len + 1) // 2
    if _ball_size(nsigned, radius) > BALL_BUDGET:
        raise ValueError(
            f"max_len {max_len} needs more than {BALL_BUDGET} words of length "
            f"up to {radius} over {nsigned} signed letters")

    # one record per ball word a candidate has as a half; local, not
    # ctx.equation, whose memo would outlive the search
    x = ctx.x_letter
    records: dict[EqWord, _Half] = {}

    def record(half: EqWord, form: bool = False) -> _Half:
        rec = records.get(half)
        if rec is None:
            ups, downs = half.count(x), half.count(-x)
            rec = records[half] = _Half(evaluate(half, ctx), ctx.word_image(half),
                                        ups - downs, ups + downs > 0)
        if form and rec.form is None:
            eq = reduce_equation(half, ctx)
            rec.form = (eq.signs, eq.coefficient_matrices())
        return rec

    witnesses: list[EqWord] = []
    for u, t in _candidates(ctx, max_len):
        # most halves are recorded already, so the memo is read before the call
        ru, rt = records.get(u) or record(u), records.get(t) or record(t)
        # evaluate and word_image are homomorphisms: u t^-1 has value I and
        # image 0 exactly when u and t agree in both
        if ru.value != rt.value or ru.image != rt.image:
            raise RuntimeError(f"search produced a non-witness {u + invert_word(t)}")
        # a witness: sigma(u t^-1) != 0, or x occurs and u != t in H*<x>
        if ru.sigma != rt.sigma or ((ru.has_x or rt.has_x)
                                    and (ru.form or record(u, True).form)
                                    != (rt.form or record(t, True).form)):
            witnesses.append(u + invert_word(t))
    witnesses.sort(key=lambda w: (len(w), w))
    return EnumerationResult(tuple(witnesses))


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
