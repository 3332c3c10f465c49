"""Seeded benchmark inputs whose verdicts are fixed by construction.

Nothing here imports heq.  Matrices are 4-tuples (e11, e12, e21, e22) of
determinant 1, compared up to sign, and every expected answer follows from
how the instance was built:

* algebraic: g lies in H (witness x w^-1), g commutes with some h_i
  (witness x h_i x^-1 h_i^-1), or g has order 2 or 3 (witness x^2, x^3);
* transcendental: h_1..h_s, g are words over Sanov's pair
  A = [[1,2],[0,1]], B = [[1,0],[2,1]], which freely generates a free
  subgroup of PSL2(Z), and {h_1..h_s, g} is Nielsen-reduced as a set of
  words in A, B, hence a free basis of the subgroup it generates
  (Lyndon-Schupp, Ch. I, Prop. 2.5).  Then <H, g> = H * <g> and g
  satisfies no nontrivial equation over H.

Equation words use the letters 1..s for h_1..h_s and s+1 for x; a negative
letter is an inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Mat = tuple[int, int, int, int]

ALGEBRAIC = "algebraic"
TRANSCENDENTAL = "transcendental"

IDENTITY: Mat = (1, 0, 0, 1)
MAT_A: Mat = (0, -1, 1, 0)   # order 2
MAT_B: Mat = (1, -1, 1, 0)   # order 3
MAT_T: Mat = (1, 1, 0, 1)
MAT_U: Mat = (1, 0, 1, 1)
SANOV = {1: (1, 2, 0, 1), 2: (1, 0, 2, 1)}

# The paper's two worked examples: same H, one transcendental and one
# algebraic g.
WORKED_H: tuple[Mat, ...] = ((2, -1, -1, 1), (2, -5, 1, -2))
WORKED_G = {TRANSCENDENTAL: (5, 3, 3, 2), ALGEBRAIC: (1, 0, -2, 1)}


# ---------------------------------------------------------------------------
# 2x2 integer arithmetic, independent of heq.ProjMat2
# ---------------------------------------------------------------------------

def mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(m: Mat) -> Mat:
    a, b, c, d = m
    return (d, -b, -c, a)


def power(m: Mat, e: int) -> Mat:
    out = IDENTITY
    for _ in range(abs(e)):
        out = mul(out, m if e > 0 else inv(m))
    return out


def is_identity(m: Mat) -> bool:
    return m in ((1, 0, 0, 1), (-1, 0, 0, -1))


def conj(u: Mat, m: Mat) -> Mat:
    return mul(mul(u, m), inv(u))


def word_value(word, letter_mats: dict[int, Mat]) -> Mat:
    """Product of the matrices of a signed-letter word."""
    out = IDENTITY
    for let in word:
        m = letter_mats[abs(let)]
        out = mul(out, m if let > 0 else inv(m))
    return out


def eq_letter_mats(hs: tuple[Mat, ...], g: Mat) -> dict[int, Mat]:
    mats = {i + 1: h for i, h in enumerate(hs)}
    mats[len(hs) + 1] = g
    return mats


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for let in word:
        if out and out[-1] == -let:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def invert(word) -> tuple[int, ...]:
    return tuple(-let for let in reversed(word))


def nontrivial_equation(word, hs: tuple[Mat, ...]) -> bool:
    """Whether an equation word is a nontrivial element of H * <x>.

    The word is cut at its x letters into coefficients of H, multiplied out
    as matrices; a pair x^e c x^-e with c = 1 in H cancels, and the stack
    reduction below removes every such pair, cascades included.  The result
    is trivial exactly when no x survives and the last coefficient is 1.
    """
    x = len(hs) + 1
    coeffs: list[Mat] = [IDENTITY]
    signs: list[int] = []
    for let in word:
        if abs(let) == x:
            sign = 1 if let > 0 else -1
            if signs and signs[-1] == -sign and is_identity(coeffs[-1]):
                signs.pop()
                coeffs.pop()
            else:
                signs.append(sign)
                coeffs.append(IDENTITY)
        else:
            h = hs[abs(let) - 1]
            coeffs[-1] = mul(coeffs[-1], h if let > 0 else inv(h))
    return bool(signs) or not is_identity(coeffs[0])


# ---------------------------------------------------------------------------
# Nielsen reduction over Sanov's pair
# ---------------------------------------------------------------------------

def nielsen_reduced(words: list[tuple[int, ...]]) -> bool:
    """Lyndon-Schupp N0-N2 for a finite set of freely reduced words.

    N0: no element is trivial.  N1: |uv| >= |u|, |v| whenever uv != 1.
    N2: |uvw| > |u| - |v| + |w| whenever uv != 1 and vw != 1.  u, v, w
    range over the elements and their inverses, which must be pairwise
    distinct so that the set really has len(words) elements.
    """
    signed = [tuple(w) for w in words] + [invert(w) for w in words]
    if any(not w or free_reduce(w) != w for w in signed):
        return False
    if len(set(signed)) != len(signed):
        return False
    for u in signed:
        for v in signed:
            uv = free_reduce(u + v)
            if not uv:
                continue
            if len(uv) < max(len(u), len(v)):
                return False
            for w in signed:
                if not free_reduce(v + w):
                    continue
                if len(free_reduce(uv + w)) <= len(u) - len(v) + len(w):
                    return False
    return True


def random_free_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """Uniform freely reduced word of the given length over A, B."""
    word: list[int] = []
    while len(word) < length:
        let = rng.choice((1, -1, 2, -2))
        if not word or word[-1] != -let:
            word.append(let)
    return tuple(word)


# A, A^-1, B, B^-1 as syllables of PSL2(Z) = <a> * <b>: 0 = a, 1 = b,
# 2 = b^2, with T = ba, A = T^2, B = U^2 and U = b^2 a.
SANOV_SYLLABLES = {1: (1, 0, 1, 0), -1: (0, 2, 0, 2), 2: (2, 0, 2, 0), -2: (0, 1, 0, 1)}


def ab_length(word) -> int:
    """Length of a word in A, B as a reduced word in a, b, b^2: the length
    of the word heq's decomposition gives its matrix."""
    stack: list[int] = []
    for let in word:
        for syl in SANOV_SYLLABLES[let]:
            if stack and syl == 0 and stack[-1] == 0:
                stack.pop()
            elif stack and syl and stack[-1]:
                power = (stack.pop() + syl) % 3
                if power:
                    stack.append(power)
            else:
                stack.append(syl)
    return len(stack)


def random_ab_word(rng: random.Random, length: int) -> tuple[int, ...]:
    """Random freely reduced word in A, B of the given length whose
    ab_length is within 1 of its typical value, 10 syllables per 3 letters.

    The letters alone leave the syllable count free to vary by +-10%, and
    heq's Stallings work grows faster than linearly in it."""
    target = round(length * 10 / 3)
    while True:
        word = random_free_word(rng, length)
        if abs(ab_length(word) - target) <= 1:
            return word


def nielsen_set(rng: random.Random, lengths: list[int], draw=random_free_word
                ) -> list[tuple[int, ...]]:
    """Random Nielsen-reduced set of words in A, B with the given lengths,
    each drawn by draw(rng, length).

    Drawing again is part of the construction, not a retry of a failed
    analysis: the set is fixed before heq sees it.
    """
    while True:
        words = [draw(rng, n) for n in lengths]
        if nielsen_reduced(words):
            return words


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """One input set with its known answer.

    witness is an equation word that holds by construction (None for a
    transcendental instance); oracle_len is the enumeration depth used to
    cross-check the instance.  family names symmetric variants of one base
    context: their witness sets must map onto each other under relabel.
    """

    name: str
    hs: tuple[Mat, ...]
    g: Mat
    expected: str
    witness: tuple[int, ...] | None
    oracle_len: int
    family: str | None = None
    relabel: dict[int, int] | None = None

    def __post_init__(self):
        if self.witness is not None:
            if self.expected != ALGEBRAIC:
                raise ValueError(f"{self.name}: witness on a transcendental instance")
            if not is_identity(word_value(self.witness, eq_letter_mats(self.hs, self.g))):
                raise ValueError(f"{self.name}: constructed witness does not hold")
            if not nontrivial_equation(self.witness, self.hs):
                raise ValueError(f"{self.name}: constructed witness is trivial")


def random_short_matrix(rng: random.Random, max_letters: int = 8) -> Mat:
    """A nonidentity product of 1..max_letters letters from {a, b, b^2}."""
    while True:
        m = IDENTITY
        for _ in range(rng.randint(1, max_letters)):
            m = mul(m, rng.choice((MAT_A, MAT_B, mul(MAT_B, MAT_B))))
        if not is_identity(m):
            return m


def distinct_matrices(rng: random.Random, count: int) -> list[Mat]:
    """count matrices of infinite order, no two equal up to sign or inversion.

    An elliptic or repeated coefficient (h_1 = a, or h_1 = h_2^-1) makes
    whole families of words equations, so the oracle's witness count, and
    its time, would swing with how often a seed draws one: over eight seeds
    of small_batch the oracle's time spread by 15% with them and 5%
    without.
    """
    out: list[Mat] = []
    while len(out) < count:
        m = _infinite_order_matrix(rng)
        same = {m, inv(m), tuple(-e for e in m), tuple(-e for e in inv(m))}
        if not same & set(out):
            out.append(m)
    return out


def _infinite_order_matrix(rng: random.Random) -> Mat:
    while True:
        m = random_short_matrix(rng, 6)
        if abs(m[0] + m[3]) >= 2:
            return m


def _worked(kind: str, oracle_len: int) -> Instance:
    """A worked example; its verdict is the one the paper proves."""
    return Instance(f"worked-{kind}", WORKED_H, WORKED_G[kind], kind, None, oracle_len)


def small_instance(rng: random.Random, kind: str, s: int, index: int) -> Instance:
    """One small instance of the given construction with s coefficients."""
    name = f"small-{index}-{kind}-s{s}"
    x = s + 1
    if kind == "free":
        words = nielsen_set(rng, [4] * (s + 1))
        mats = tuple(word_value(w, SANOV) for w in words)
        return Instance(name, mats[:-1], mats[-1], TRANSCENDENTAL, None, 4)
    hs = distinct_matrices(rng, s)
    if kind == "member":
        while True:
            w = free_reduce(rng.choice((1, -1)) * rng.randint(1, s)
                            for _ in range(rng.randint(1, 3)))
            g = word_value(w, eq_letter_mats(tuple(hs), IDENTITY))
            if w and not is_identity(g):
                break
        witness = free_reduce((x,) + invert(w))
    elif kind == "commute":
        i = rng.randrange(s)
        c = _infinite_order_matrix(rng)
        hs[i] = power(c, rng.choice((2, 3)))
        g = c if rng.random() < 0.5 else inv(c)
        witness = (x, i + 1, -x, -(i + 1))
    elif kind in ("order2", "order3"):
        u = random_short_matrix(rng, 4)
        g = conj(u, MAT_A if kind == "order2" else MAT_B)
        witness = (x,) * (2 if kind == "order2" else 3)
    else:
        raise ValueError(f"unknown construction {kind!r}")
    return Instance(name, tuple(hs), g, ALGEBRAIC, witness, 4)


SMALL_KINDS = ("member", "commute", "order2", "order3", "free")


def small_batch(rng: random.Random, count: int) -> list[Instance]:
    """The two worked examples, then count seeded small instances.

    Kinds and s = 1..3 cycle in a fixed pattern so that every seed yields
    the same mix; only the matrices are drawn from the seed.
    """
    out = [_worked(TRANSCENDENTAL, 4), _worked(ALGEBRAIC, 4)]
    for i in range(count):
        kind = SMALL_KINDS[i % len(SMALL_KINDS)]
        s = 1 + (i // len(SMALL_KINDS)) % 3
        out.append(small_instance(rng, kind, s, i))
    return out


def parabolic(rng: random.Random, targets: tuple[int, ...]) -> list[Instance]:
    """h = [[1,k],[0,1]] and g = [[1,n],[0,1]], k in {2, 3}, n a multiple
    of k within 1% of each target.  g = h^(n/k) commutes with h."""
    out = []
    for k in (2, 3):
        for target in targets:
            spread = max(1, target // 100)
            n = k * max(1, (target + rng.randint(-spread, spread)) // k)
            h = (1, k, 0, 1)
            out.append(Instance(f"parabolic-k{k}-n{n}", (h,), (1, n, 0, 1),
                                ALGEBRAIC, (2, 1, -2, -1), 4))
    return out


def c3_image(word: tuple[int, ...]) -> int:
    """Image of a word in A, B under PSL2(Z) -> C3.

    T = ba maps to 1, A = T^2 to 2, and B = (a T^-1 a^-1)^2 to 1.
    """
    return sum((2 if abs(let) == 1 else 1) * (1 if let > 0 else -1) for let in word) % 3


def long_words(rng: random.Random, lengths: tuple[int, ...], count: int
               ) -> list[Instance]:
    """Words of the given lengths over A, B.  Even slots are Nielsen-reduced
    (transcendental) sets; odd slots take g = h_1^e h_2^f (algebraic).

    Slot j uses s = 2 or 3 and lengths in a fixed rotation, and every h_i
    and g has a nonzero image in C3, so the Schreier graph (index 3) has
    the same shape for every seed and only the letters change.  Every drawn
    word has its typical syllable count (random_ab_word), which halves how
    much the slowest and the median instance's work moves with the seed.
    """
    out = []
    for j in range(count):
        s = 2 + (j // 2) % 2
        sizes = [lengths[(j + t) % len(lengths)] for t in range(s + 1)]
        free = j % 2 == 0
        while True:
            words = nielsen_set(rng, sizes if free else sizes[:s], random_ab_word)
            e, f = rng.choice((1, -1)), rng.choice((1, -1))
            g_image = c3_image(words[-1]) if free else (
                e * c3_image(words[0]) + f * c3_image(words[1])) % 3
            if g_image and all(c3_image(w) for w in words):
                break
        mats = tuple(word_value(w, SANOV) for w in words)
        if free:
            out.append(Instance(f"long-{j}-free-s{s}", mats[:-1], mats[-1],
                                TRANSCENDENTAL, None, 4))
            continue
        g = mul(power(mats[0], e), power(mats[1], f))
        witness = (s + 1, -f * 2, -e * 1)
        out.append(Instance(f"long-{j}-member-s{s}", mats, g, ALGEBRAIC, witness, 4))
    return out


# Base context for the oracle: h = T^2, U^2 and g = a of order 2, so x^2
# is a witness; about 7k witnesses at L=8, so the re-checks dominate.
ORACLE_FAMILY = "T2-U2-a"
ORACLE_BASE = ((power(MAT_T, 2), power(MAT_U, 2)), MAT_A, (3, 3))


def _variant(rng: random.Random, oracle_len: int, tag: str) -> Instance:
    """A seeded symmetric image of the base context.

    Relabelling h1 <-> h2, inverting some h_i or g, and conjugating
    everything by a = [[0,-1],[1,0]] permute the equations that hold, so
    the witness set is the base's one with letters renamed; none of them
    changes the size of any matrix entry, so the search costs the same.
    """
    hs, g, base_witness = ORACLE_BASE
    s = len(hs)
    perm = list(range(1, s + 1))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(s + 1)]
    flip = rng.random() < 0.5
    # relabel[old letter] = signed new letter
    relabel = {i + 1: signs[i] * perm[i] for i in range(s)}
    relabel[s + 1] = signs[s] * (s + 1)
    new_hs: list[Mat] = [IDENTITY] * s
    for old, new in relabel.items():
        if old <= s:
            new_hs[abs(new) - 1] = hs[old - 1] if new > 0 else inv(hs[old - 1])
    new_g = g if signs[s] > 0 else inv(g)
    if flip:
        new_hs = [conj(MAT_A, h) for h in new_hs]
        new_g = conj(MAT_A, new_g)
    witness = tuple((1 if let > 0 else -1) * relabel[abs(let)] for let in base_witness)
    return Instance(f"oracle-{ORACLE_FAMILY}-{tag}", tuple(new_hs), new_g, ALGEBRAIC,
                    witness, oracle_len, family=ORACLE_FAMILY, relabel=relabel)


def oracle(rng: random.Random, oracle_len: int, variants: int) -> list[Instance]:
    """Both worked examples, then seeded variants of the base context."""
    out = [_worked(TRANSCENDENTAL, oracle_len), _worked(ALGEBRAIC, oracle_len)]
    out.extend(_variant(rng, oracle_len, f"v{i}") for i in range(variants))
    return out
