import pytest

import heq.enumeration
from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2
from heq.equations import HContext, evaluate, parse_eq_word, reduce_equation
from heq.enumeration import (BALL_BUDGET, _ball_size, _candidates, cross_check,
                             enumerate_kernel)
from heq.freewords import invert_word
from heq.pipeline import VERDICT_TRANSCENDENTAL, analyze
from heq.words import image_pair

from conftest import random_matrix, run_python


# ---------------------------------------------------------------------------
# reference: the depth-first search the meet-in-the-middle join replaced,
# kept verbatim but for reading the letter images through image_pair, with
# its pruning by the image in C2 x C3


def _search_tables(ctx: HContext):
    """Signed-letter matrices, quotient transition table and the min-steps-
    to-zero table used for pruning.  Signed letter index 2i is letter i+1,
    index 2i+1 its inverse."""
    k = ctx.x_letter
    mats = []
    deltas = []
    for letter in range(1, k + 1):
        for sl in (letter, -letter):
            mats.append(tuple(ctx.letter_matrix(sl)))
            c2, c3 = image_pair(ctx.letter_image(sl))
            deltas.append(c2 * 3 + c3)

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


def _candidates_dfs(mats, trans, min_steps, max_len: int) -> list[tuple[int, ...]]:
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


def _dfs_candidates(ctx: HContext, max_len: int) -> list[tuple[int, ...]]:
    """The reference search's candidates as signed-letter words."""
    return [tuple((idx // 2 + 1) * (1 if idx % 2 == 0 else -1) for idx in idx_path)
            for idx_path in _candidates_dfs(*_search_tables(ctx), max_len)]


def _assert_join_matches_dfs(ctx: HContext, max_len: int) -> int:
    """Same candidate multiset and same witness tuple as the reference;
    returns the number of candidates."""
    expected = sorted(_dfs_candidates(ctx, max_len))
    assert sorted(u + invert_word(t) for u, t in _candidates(ctx, max_len)) == expected
    witnesses = sorted((w for w in expected if not reduce_equation(w, ctx).is_trivial()),
                       key=lambda w: (len(w), w))
    assert enumerate_kernel(ctx, max_len).witnesses == tuple(witnesses)
    return len(expected)


def _power(m: ProjMat2, k: int) -> ProjMat2:
    out = IDENTITY
    for _ in range(k):
        out = out * m
    return out


def _seeded_contexts(rng) -> list[tuple[HContext, int]]:
    """(context, max_len): random ones with s = 1..3, then the edge cases."""
    big = _power(ProjMat2(3, 1, -1, 0), 50)
    assert max(abs(e) for e in big) > 2 ** 64
    cases = []
    for i in range(32):
        s = 1 + i % 3
        cases.append(([random_matrix(rng, 8) for _ in range(s)], random_matrix(rng, 8)))
    h, k = random_matrix(rng, 8), random_matrix(rng, 8)
    cases += [
        ([IDENTITY, h], k),                 # an identity h
        ([MAT_A], h),                       # torsion h of order 2
        ([MAT_B, h], k),                    # torsion h of order 3
        ([h, k], IDENTITY),                 # g = I
        ([h, k], h * k.inv() * h),          # g in H
        ([MAT_B], MAT_B.inv()),             # torsion g in H
        ([big], h),                         # entries above 2^64
        ([big, h], big),                    # ... and g in H
    ]
    return [(HContext.from_matrices(hs, g), 6 if len(hs) < 3 else 5) for hs, g in cases]


def test_join_matches_dfs_reference(ctx_43, ctx_44, rng):
    for ctx in (ctx_43, ctx_44):
        for max_len in range(1, 9):
            _assert_join_matches_dfs(ctx, max_len)
    assert _assert_join_matches_dfs(_t2_u2_context(), 8) == 7224
    for ctx, max_len in _seeded_contexts(rng):
        _assert_join_matches_dfs(ctx, max_len)


def _t2_u2_context() -> HContext:
    """The T^2, U^2, a context of the oracle benchmark: x^2 is a witness."""
    return HContext.from_matrices([ProjMat2(1, 2, 0, 1), ProjMat2(1, 0, 2, 1)], MAT_A)


def _form(word: tuple, ctx: HContext) -> tuple:
    eq = reduce_equation(word, ctx)
    return eq.signs, eq.coefficient_matrices()


def test_half_forms_decide_join_pairs(ctx_43, ctx_44, rng):
    # u t^-1 is trivial in H*<x> exactly when u = t there, that is when
    # their normal forms agree
    contexts = [(ctx_43, 8), (ctx_44, 8), (_t2_u2_context(), 6)] + _seeded_contexts(rng)
    pairs = trivial = 0
    for ctx, max_len in contexts:
        for u, t in _candidates(ctx, max_len):
            same = _form(u, ctx) == _form(t, ctx)
            assert same == reduce_equation(u + invert_word(t), ctx).is_trivial(), (u, t)
            pairs += 1
            trivial += same
    assert pairs > 10_000 and trivial > 1_000


def test_sigma_shortcut_reduces_only_balanced_words_with_x(monkeypatch):
    # a word with nonzero x-exponent sum is a witness and one without x is
    # not; a balanced word u t^-1 with x is decided by the normal forms of
    # its halves u and t, and each half reaches reduce_equation once
    ctx = _t2_u2_context()
    x = ctx.x_letter
    expected = enumerate_kernel(ctx, 8).witnesses
    reduced = []

    def counting(word, ctx):
        reduced.append(word)
        return reduce_equation(word, ctx)

    monkeypatch.setattr(heq.enumeration, "reduce_equation", counting)
    assert enumerate_kernel(ctx, 8).witnesses == expected
    halves = set()
    for u, t in _candidates(ctx, 8):
        word = u + invert_word(t)
        if word.count(x) == word.count(-x) > 0:
            halves.update((u, t))
    assert sorted(reduced) == sorted(halves)
    assert len(reduced) == 768 < 2208  # of the 2208 balanced candidates with x


def test_first_example_has_no_short_witness(ctx_43):
    result = enumerate_kernel(ctx_43, 10)
    assert result.witnesses == ()
    assert sum(1 for _ in _candidates(ctx_43, 10)) == 8042


def test_second_example_has_witnesses(ctx_44):
    result = enumerate_kernel(ctx_44, 10)
    assert len(result.witnesses) == 1268
    assert sum(1 for _ in _candidates(ctx_44, 10)) == 9310
    specific = parse_eq_word("h1 x^-1 h1^-1 x h1^-1 x^-1 h1 x^-2", ctx_44)
    assert evaluate(specific, ctx_44) == IDENTITY
    assert specific in result.witnesses


def test_witnesses_are_nontrivial_identities(ctx_44):
    # whole witness words, not only the halves the search compared
    for ctx, max_len in ((ctx_44, 7), (_t2_u2_context(), 8)):
        result = enumerate_kernel(ctx, max_len)
        assert result.witnesses
        for word in result.witnesses:
            assert evaluate(word, ctx) == IDENTITY
            assert ctx.word_image(word) == 0
            assert not reduce_equation(word, ctx).is_trivial()
            # freely reduced: no adjacent inverse pair survives the search
            assert all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def test_recheck_raises_on_a_non_witness(ctx_44, monkeypatch):
    # a fault in the search that pairs halves of different values must
    # raise, not yield a witness: here h1 t^-1 with t empty, of value h1
    def faulty(ctx, max_len):
        yield from _candidates(ctx, max_len)
        yield (1,), ()

    monkeypatch.setattr(heq.enumeration, "_candidates", faulty)
    with pytest.raises(RuntimeError, match="non-witness"):
        enumerate_kernel(ctx_44, 6)


def test_recheck_raises_on_a_bad_pair_after_a_good_one_with_the_same_u(ctx_44, monkeypatch):
    # u's record is read once per run of pairs, but every pair is still
    # compared: a good pair (u, t), then (u, ()) of value u != I
    def faulty(ctx, max_len):
        for u, t in _candidates(ctx, max_len):
            yield u, t
            if evaluate(u, ctx) != IDENTITY:
                yield u, ()
                return

    monkeypatch.setattr(heq.enumeration, "_candidates", faulty)
    with pytest.raises(RuntimeError, match="non-witness"):
        enumerate_kernel(ctx_44, 6)


def test_witnesses_do_not_depend_on_candidate_order(ctx_44, rng, monkeypatch):
    # witnesses are gathered per length and sorted there: the candidates
    # in reverse order give the same tuple
    contexts = [(ctx_44, 8), (_t2_u2_context(), 6)] + _seeded_contexts(rng)[:8]
    expected = [enumerate_kernel(ctx, max_len).witnesses for ctx, max_len in contexts]
    assert sum(map(len, expected)) > 1_000
    monkeypatch.setattr(heq.enumeration, "_candidates",
                        lambda ctx, max_len: reversed(list(_candidates(ctx, max_len))))
    for (ctx, max_len), witnesses in zip(contexts, expected):
        assert enumerate_kernel(ctx, max_len).witnesses == witnesses


def test_longer_search_is_superset(ctx_44):
    small = set(enumerate_kernel(ctx_44, 6).witnesses)
    large = set(enumerate_kernel(ctx_44, 7).witnesses)
    assert small <= large


def test_membership_witness_at_length_two():
    m = ProjMat2(2, 1, 1, 1)
    ctx = HContext.from_matrices([m], m)
    result = enumerate_kernel(ctx, 2)
    assert (-1, 2) in result.witnesses  # h1^-1 x
    # nothing at length 1 for nontrivial h1 = g
    assert all(len(w) == 2 for w in result.witnesses)


def test_large_entries_membership_witness():
    # h has 23-bit entries; the exact search puts no bound on entry size
    h = _power(ProjMat2(3, 1, -1, 0), 16)
    ctx = HContext.from_matrices([h], h)
    result = enumerate_kernel(ctx, 2)
    assert (-1, 2) in result.witnesses


def test_max_len_validation(ctx_43):
    with pytest.raises(ValueError):
        enumerate_kernel(ctx_43, 0)
    # s = 2, so 6 signed letters: max_len 14 needs the ball of radius 7,
    # max_len 15 the one of radius 8, over the budget; the check comes
    # before any word is built
    assert _ball_size(6, 7) == 117186 <= BALL_BUDGET < _ball_size(6, 8) == 585936
    for max_len in (15, 60, 10 ** 9):
        with pytest.raises(ValueError, match="more than"):
            enumerate_kernel(ctx_43, max_len)


def test_cross_check_consistent(h1, h2, ctx_43, ctx_44):
    rep43 = analyze([h1, h2], ProjMat2(5, 3, 3, 2))
    rep44 = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    res43 = cross_check(rep43, 8)
    assert res43.passed and res43.witness_count == 0
    assert "consistent up to" in res43.detail
    res44 = cross_check(rep44, 10)
    assert res44.passed and res44.witness_count >= 1
    # the shortest witness of the second example has length 6
    res44 = cross_check(rep44, 5)
    assert res44.passed and res44.witness_count == 0
    assert res44.detail == "algebraic verdict; no witness within length 5"
    assert cross_check(rep44, 6).witness_count == 4


def test_cross_check_catches_fault(h1, h2):
    from dataclasses import replace

    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    tampered = replace(report, verdict=VERDICT_TRANSCENDENTAL)
    result = cross_check(tampered, 10)
    assert not result.passed


_THIRD_PARTY_IMPORTS = """
import sys
before = set(sys.modules)
import heq
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"heq"}))
"""


def test_import_needs_only_the_standard_library():
    out = run_python(_THIRD_PARTY_IMPORTS)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
