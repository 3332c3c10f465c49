import copy
import json
import pickle
import sys
import threading
from itertools import product

import pytest

import heq.equations

from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2, _product
from heq.equations import (
    SEGMENT_MEAN,
    SEGMENT_MIN_LETTERS,
    HContext,
    HEquation,
    _provenance,
    evaluate,
    format_eq_word,
    parse_eq_word,
    reduce_equation,
    render_equation,
    rewrite_values,
    substitute,
)
from heq.freewords import (NotInKernel, free_reduce, invert_word, matrix_to_free_word,
                           parse_free_word, pq_to_matrix, rewrite_from)
from heq.pipeline import AnalysisReport, analyze, verify
from heq.words import abelianize, decompose, quotient_order

from conftest import letters_ab_word, random_matrix, run_python


def cyclic_reduce(word):
    word = free_reduce(word)
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def conjugate_as_words(u, v):
    u, v = cyclic_reduce(u), cyclic_reduce(v)
    if len(u) != len(v):
        return False
    return any(u[i:] + u[:i] == v for i in range(max(1, len(u))))


def test_reduce_trivial_torsion_coefficient(ctx_43):
    # h2 h2 multiplies out to the identity matrix: the trivial equation
    eq = reduce_equation(parse_eq_word("h2 h2", ctx_43), ctx_43)
    assert eq.is_trivial() and eq.degree == 0


def test_reduce_cancels_x_pair(ctx_43):
    eq = reduce_equation(parse_eq_word("x x^-1", ctx_43), ctx_43)
    assert eq.is_trivial()


def test_reduce_conjugation_shape(ctx_43):
    eq = reduce_equation(parse_eq_word("h2 x h2^-1", ctx_43), ctx_43)
    assert eq.degree == 1
    h2 = ctx_43.h_mats[1]
    assert eq.coefficient_matrices() == (h2, h2.inv())
    assert eq.signs == (1,)
    assert not eq.is_trivial()


def test_reduce_cascades_through_torsion(ctx_43):
    # x h2 h2 x^-1 collapses entirely: trivial coefficient between x and x^-1
    eq = reduce_equation(parse_eq_word("x h2 h2 x^-1", ctx_43), ctx_43)
    assert eq.is_trivial()


def reduce_equation_reference(word, ctx):
    """The restart-after-every-cancellation reduction that the one-pass
    reduce_equation replaced, kept as the reference."""
    x = ctx.x_letter
    coeffs = []
    signs = []
    cur_mat, cur_prov = IDENTITY, ()
    for let in word:
        if abs(let) == x:
            coeffs.append((cur_mat, cur_prov))
            signs.append(1 if let > 0 else -1)
            cur_mat, cur_prov = IDENTITY, ()
        else:
            cur_mat = cur_mat * ctx.letter_matrix(let)
            cur_prov = cur_prov + (let,)
    coeffs.append((cur_mat, cur_prov))
    changed = True
    while changed:
        changed = False
        for i in range(1, len(signs)):
            if coeffs[i][0] == IDENTITY and signs[i - 1] == -signs[i]:
                merged_mat = coeffs[i - 1][0] * coeffs[i][0] * coeffs[i + 1][0]
                merged_prov = coeffs[i - 1][1] + coeffs[i][1] + coeffs[i + 1][1]
                coeffs[i - 1:i + 2] = [(merged_mat, merged_prov)]
                del signs[i - 1:i + 1]
                changed = True
                break
    return HEquation(coeffs, signs)


def evaluate_reference(w, ctx):
    """The ProjMat2-product evaluation that the entry-tuple loop replaced,
    kept as the reference."""
    if isinstance(w, HEquation):
        m = w.coeffs[0][0]
        for sign, (mat, _) in zip(w.signs, w.coeffs[1:]):
            m = m * ctx.letter_matrix(sign * ctx.x_letter) * mat
        return m
    m = IDENTITY
    for let in w:
        m = m * ctx.letter_matrix(let)
    return m


def run_word(rng, letters, runs):
    """A random word of `runs` runs; one run in four has 100-160 letters."""
    word = []
    for _ in range(runs):
        length = rng.randrange(100, 161) if rng.random() < 0.25 else rng.randrange(1, 4)
        word += [rng.choice(letters)] * length
    return tuple(word)


def test_entry_products_match_object_reference(ctx_43, rng):
    hyperbolic = ProjMat2(2, 1, 1, 1)
    big = IDENTITY
    for _ in range(50):
        big = big * hyperbolic
    assert big.e11 > 2 ** 64
    contexts = [
        ctx_43,                                                   # h2 of order 2
        HContext.from_matrices([MAT_B, MAT_A], MAT_B),            # torsion h and g
        HContext.from_matrices([ProjMat2(1, 2, 0, 1)], ProjMat2(1, 60, 0, 1)),  # parabolic
        HContext.from_matrices([hyperbolic, big], ProjMat2(5, 3, 3, 2)),        # past 2^64
    ]
    for ctx in contexts:
        x = ctx.x_letter
        letters = [x, -x, x, -x] + [s * i for i in range(1, x) for s in (1, -1)]
        for _ in range(60):
            word = run_word(rng, letters, rng.randrange(16))
            eq = reduce_equation(word, ctx)
            ref = reduce_equation_reference(word, ctx)
            assert eq.coeffs == ref.coeffs and eq.signs == ref.signs, word
            assert render_equation(eq, ctx) == render_equation(ref, ctx)
            value = evaluate(word, ctx)
            assert tuple(value) == tuple(evaluate_reference(word, ctx))
            assert tuple(evaluate(eq, ctx)) == tuple(evaluate_reference(eq, ctx))
            as_list = reduce_equation(list(word), ctx)
            assert as_list.coeffs == eq.coeffs and as_list.signs == eq.signs
            assert evaluate(list(word), ctx) == value


def test_one_pass_reduction_matches_reference(ctx_43, ctx_44, h1, rng):
    # torsion coefficients (h2 of order 2, b of order 3, an identity h)
    # make trivial coefficients, and hence cascading cancellations, common
    contexts = [ctx_43, ctx_44,
                HContext.from_matrices([MAT_B, MAT_A], MAT_B),
                HContext.from_matrices([IDENTITY, h1], ProjMat2(5, 3, 3, 2))]
    for ctx in contexts:
        x = ctx.x_letter
        letters = [x, -x, x, -x] + [s * i for i in range(1, x) for s in (1, -1)]
        for _ in range(1500):
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(25)))
            eq = reduce_equation(word, ctx)
            ref = reduce_equation_reference(word, ctx)
            assert eq.coeffs == ref.coeffs and eq.signs == ref.signs, word
            assert render_equation(eq, ctx) == render_equation(ref, ctx)


def reduce_equation_letterwise(word, ctx):
    """reduce_equation's one-pass loop with every segment multiplied out
    where it is met, kept as the reference for the per-call segment memo."""
    word = tuple(word)
    x = ctx.x_letter
    coeffs, signs, starts = [], [], []
    carry = None
    start = seg = 0
    for end in [i for i, let in enumerate(word) if let == x or let == -x] + [len(word)]:
        cur = _product(map(ctx.letter_matrix, word[seg:end]))
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


def test_segment_memo_matches_letterwise_loop(h1, rng):
    """Words cut into few distinct segments, over torsion h's whose
    nonempty segments can be trivial, so that x^e . x^-e merges carry a
    coefficient onto a segment that comes back later."""
    contexts = [HContext.from_matrices([MAT_A, MAT_B], ProjMat2(5, 3, 3, 2)),
                HContext.from_matrices([MAT_B, h1], MAT_A),
                HContext.from_matrices([MAT_A, MAT_B, h1], ProjMat2(1, 0, -2, 1))]
    words = [(2, 3, 1, 1, -3, 2, 3, 2)]  # h2 x h1 h1 x^-1 h2 x h2 in the first
    for ctx in contexts:
        x = ctx.x_letter
        hs = [s * i for i in range(1, x) for s in (1, -1)]
        for _ in range(150):
            pool = [tuple(rng.choice(hs) for _ in range(rng.randrange(4)))
                    for _ in range(rng.randrange(1, 4))]
            word = list(rng.choice(pool))
            for _ in range(rng.randrange(40)):
                word += [rng.choice((x, -x)), *rng.choice(pool)]
            words.append(tuple(word))
    merged = 0
    for ctx in contexts:
        for word in words:
            if any(abs(let) > ctx.x_letter for let in word):
                continue
            eq = reduce_equation(word, ctx)
            ref = reduce_equation_letterwise(word, ctx)
            assert eq.coeffs == ref.coeffs and eq.signs == ref.signs, word
            assert eq.coeffs == reduce_equation_reference(word, ctx).coeffs
            merged += eq.degree < word.count(ctx.x_letter) + word.count(-ctx.x_letter)
    assert merged > 100


def test_evaluate_segment_path_matches_reference(h1, rng, monkeypatch):
    """Long words cut by their x's into repeated, unrepeated and empty
    segments, and words on both sides of each edge of the rule that picks
    the segment path, against the ProjMat2 reference."""
    taken = []
    segments = heq.equations._segments

    def counting(word, x, entry):
        taken.append(word)
        return segments(word, x, entry)

    monkeypatch.setattr(heq.equations, "_segments", counting)
    contexts = [HContext.from_matrices([ProjMat2(1, 2, 0, 1)], ProjMat2(1, 60, 0, 1)),
                HContext.from_matrices([MAT_A, MAT_B], h1),
                HContext.from_matrices([h1, ProjMat2(2, 1, 1, 1)], ProjMat2(5, 3, 3, 2))]
    words = []
    for ctx in contexts:
        x = ctx.x_letter
        hs = [s * i for i in range(1, x) for s in (1, -1)]
        for _ in range(100):
            # parabolic-shaped: one long segment that comes back, fresh
            # segments, and empty ones, the first and last included
            power = (rng.choice(hs),) * rng.randrange(8, 40)
            parts = []
            for _ in range(rng.randrange(2, 30)):
                kind = rng.random()
                parts.append(power if kind < 0.6 else () if kind < 0.8
                             else tuple(rng.choice(hs) for _ in range(rng.randrange(1, 12))))
            word = list(parts[0])
            for part in parts[1:]:
                word += [rng.choice((x, -x)), *part]
            words.append((ctx, tuple(word)))
    # the rule's edges, over the first context: 64 letters with 2 x's and
    # 63; 100 letters with 2 x's and with 1; 64 letters with 7 x's
    # (segments of 8 on average) and with 8
    ctx = contexts[0]
    x = ctx.x_letter
    edges = {(1,) * 30 + (x,) + (1,) * 2 + (-x,) + (1,) * 30: True,
             (1,) * 30 + (x,) + (1,) + (-x,) + (1,) * 30: False,
             (1,) * 49 + (x, x) + (-1,) * 49: True,
             (1,) * 49 + (x,) + (-1,) * 50: False,
             (x,) + ((1,) * 8 + (-x,)) * 6 + (1,) * 9: True,
             (x,) + ((1,) * 7 + (-x,)) * 7 + (1,) * 7: False}
    assert {len(word) for word in edges} == {63, 64, 100}
    for word, segment_path in edges.items():
        before = len(taken)
        assert tuple(evaluate(word, ctx)) == tuple(evaluate_reference(word, ctx)), word
        assert (len(taken) > before) == segment_path, word
    for ctx, word in words:
        assert tuple(evaluate(word, ctx)) == tuple(evaluate_reference(word, ctx)), word
        assert evaluate(list(word), ctx) == evaluate(word, ctx)
    # each word goes segment by segment exactly when the rule says so
    rule = set()
    for ctx, word in words:
        xs = word.count(ctx.x_letter) + word.count(-ctx.x_letter)
        if len(word) >= SEGMENT_MIN_LETTERS and xs >= 2 and len(word) >= SEGMENT_MEAN * (xs + 1):
            rule.add(word)
    assert set(taken) == rule | {w for w, on in edges.items() if on}
    assert 100 < len(rule) < len(words) - 30

def test_reduced_invariant_holds(ctx_43, rng):
    letters = [1, -1, 2, -2, 3, -3]
    for _ in range(100):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(12)))
        eq = reduce_equation(word, ctx_43)
        for i in range(1, eq.degree):
            if eq.coeffs[i][0] == IDENTITY:
                assert eq.signs[i - 1] == eq.signs[i]


def test_evaluate_examples(ctx_43):
    assert evaluate(parse_eq_word("x", ctx_43), ctx_43) == ProjMat2(5, 3, 3, 2)
    got = evaluate(parse_eq_word("h2 x h2^-1", ctx_43), ctx_43)
    assert got == pq_to_matrix(parse_free_word("q p q^-2 p^-1 q^-1"))
    assert evaluate((), ctx_43) == IDENTITY
    assert evaluate(reduce_equation((), ctx_43), ctx_43) == IDENTITY


def test_evaluate_is_homomorphism(ctx_44, rng):
    letters = [1, -1, 2, -2, 3, -3]
    for _ in range(50):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(8)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(8)))
        assert evaluate(u + v, ctx_44) == evaluate(u, ctx_44) * evaluate(v, ctx_44)


def test_reduction_preserves_evaluation(ctx_44, rng):
    letters = [1, -1, 2, -2, 3, -3]
    for _ in range(100):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(14)))
        assert evaluate(reduce_equation(word, ctx_44), ctx_44) == evaluate(word, ctx_44)


def test_degree_balance_trivial(ctx_43):
    eq = reduce_equation(parse_eq_word("h1 x^2 h2 x^-2", ctx_43), ctx_43)
    assert eq.degree == 4 and sum(eq.signs) == 0 and not eq.is_trivial()
    const = reduce_equation(parse_eq_word("h1", ctx_43), ctx_43)
    assert const.degree == 0 and sum(const.signs) == 0 and not const.is_trivial()
    assert reduce_equation((), ctx_43).is_trivial()


def test_degree_bounds_exponent_sum(ctx_43, ctx_44, rng):
    # the exponent sum sigma (x -> 1, H -> 0) is a homomorphism on H*<x>,
    # so the normal form keeps it: degree >= |sigma|, of the same parity,
    # and a word without x is trivial exactly when its value is I.  The
    # oracle decides its witnesses on this without reducing.
    contexts = [ctx_43, ctx_44,
                HContext.from_matrices([MAT_A], ProjMat2(2, 1, 1, 1)),  # H = <a>
                HContext.from_matrices([MAT_B], MAT_A)]                 # H = <b>
    without_x = 0
    for ctx in contexts:
        x = ctx.x_letter
        h_letters = [s * i for i in range(1, x) for s in (1, -1)]
        for i in range(200):
            letters = h_letters + ([x, -x] if i % 3 else [])
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(16)))
            sigma = word.count(x) - word.count(-x)
            eq = reduce_equation(word, ctx)
            assert eq.degree >= abs(sigma) and (eq.degree - sigma) % 2 == 0, word
            if x not in word and -x not in word:
                assert eq.degree == 0
                assert eq.is_trivial() == (evaluate(word, ctx) == IDENTITY), word
                without_x += 1
    assert without_x > 250  # of the 800 words


def test_is_trivial_matches_normal_form(ctx_43, ctx_44, h1, rng):
    # raw and freely reduced words, and u c u^-1 with c in H, whose
    # triviality rests on the value of c: h2 has order 2 in ctx_43 and h1
    # is the identity in the last context
    contexts = [ctx_43, ctx_44,
                HContext.from_matrices([MAT_A], ProjMat2(2, 1, 1, 1)),      # H = <a>
                HContext.from_matrices([IDENTITY, h1], ProjMat2(5, 3, 3, 2))]
    seen = {"unbalanced": 0, "without x": 0, "trivial with x": 0, "nontrivial with x": 0}
    for ctx in contexts:
        x = ctx.x_letter
        h_letters = [s * i for i in range(1, x) for s in (1, -1)]
        letters = h_letters + [x, -x, x, -x]
        for i in range(150):
            word = tuple(rng.choice(letters) for _ in range(rng.randrange(14)))
            if i % 3 == 1:
                word = free_reduce(word)
            elif i % 3 == 2:
                c = tuple(rng.choice(h_letters) for _ in range(rng.randrange(4)))
                word = word + c + invert_word(word)
            trivial = ctx.is_trivial(word)
            assert trivial == reduce_equation(word, ctx).is_trivial(), word
            if word.count(x) != word.count(-x):
                seen["unbalanced"] += 1
            elif x not in word and -x not in word:
                seen["without x"] += 1
            else:
                seen["trivial with x" if trivial else "nontrivial with x"] += 1
    assert sum(seen.values()) == 600
    assert min(seen.values()) >= 50, seen


def test_verify_reduces_only_balanced_words_with_x(monkeypatch):
    # check (e) stops at the first nontrivial ideal word, so the words it
    # reads are the ideal words up to that one
    def read_by_verify(report):
        words = list(report.w_words)
        for w in report.ideal_words:
            words.append(w)
            if not report.ctx.is_trivial(w):
                break
        x = report.ctx.x_letter
        return {w for w in words if w.count(x) == w.count(-x) > 0}

    reduced = []

    def counting(word, ctx):
        reduced.append(word)
        return reduce_equation(word, ctx)

    inputs = [([ProjMat2(1, 2, 0, 1)], ProjMat2(1, 100, 0, 1)),
              ([ProjMat2(2, -1, -1, 1), ProjMat2(2, -5, 1, -2)], ProjMat2(5, 3, 3, 2)),
              ([ProjMat2(2, -1, -1, 1), ProjMat2(2, -5, 1, -2)], ProjMat2(1, 0, -2, 1))]
    counts = []
    for hs, g in inputs:
        data = json.loads(json.dumps(analyze(hs, g).to_dict()))
        report = AnalysisReport.from_dict(data)
        with monkeypatch.context() as patch:
            patch.setattr(heq.equations, "reduce_equation", counting)
            assert verify(report).ok
        counts.append(len(reduced))
        assert sorted(reduced) == sorted(read_by_verify(report))
        reduced.clear()
    # every generator and ideal word of the parabolic pair and of the first
    # worked example is decided by the exponent sum or the value
    assert counts == [0, 0, 9]


def test_equality_by_matrices(ctx_43):
    # h2 = h2^-1 in PSL2(Z), so the two spellings are the same equation
    a = reduce_equation(parse_eq_word("h2 x h2", ctx_43), ctx_43)
    b = reduce_equation(parse_eq_word("h2 x h2^-1", ctx_43), ctx_43)
    assert a == b and hash(a) == hash(b)


def test_substitute_single_letter(ctx_43):
    assert substitute((1,), [(1,)]) == (1,)
    assert substitute((), [(1,)]) == ()
    with pytest.raises(IndexError):
        substitute((2,), [(1,)])


REFERENCE_W_TEXTS = [
    "h1", "x h1 x^-1", "x^-1 h1 x", "h2 x^-1 h1 x h2", "h2 h1 h2^-1",
    "h2 x h1 x^-1 h2^-1", "x^-1 h2 x h2^-1", "h2 x^-1 h2 x",
    "x h2 x^-1 h2^-1", "h2 x h2 x^-1", "x^3", "h2 x^3 h2^-1",
]


def test_substitute_paper_relator_matches_ninth_equation(ctx_44):
    ws = [parse_eq_word(t, ctx_44) for t in REFERENCE_W_TEXTS]
    # the relator v2 v1^-1 v2^-1 v1 v12^-1 in the reference numbering;
    # v12 sits at position 11 once the trivial generator is skipped
    relator = (2, -1, -2, 1, -11)
    got = substitute(relator, ws)
    want = parse_eq_word("h1 x^-1 h1^-1 x h1^-1 x^-1 h1 x^-2", ctx_44)
    # the reference form is the cyclic reduction of the literal substitution
    assert conjugate_as_words(got, want)
    assert evaluate(got, ctx_44) == IDENTITY
    assert evaluate(want, ctx_44) == IDENTITY


def test_substitute_paper_relator_matches_third_equation(ctx_44):
    ws = [parse_eq_word(t, ctx_44) for t in REFERENCE_W_TEXTS]
    relator = (-1, -2, -2, -1, 2, 2, 1, -5)  # v1^-1 v2^-2 v1^-1 v2^2 v1 v5^-1
    got = reduce_equation(substitute(relator, ws), ctx_44)
    want = reduce_equation(
        parse_eq_word("h1^-1 x h1^-2 x^-1 h1^-1 x h1^2 x^-1 h1 h2 h1^-1 h2^-1", ctx_44),
        ctx_44)
    assert got == want


def test_render_collects_powers(ctx_43):
    eq = reduce_equation(parse_eq_word("h1 x x h2 x^-1 x^-1", ctx_43), ctx_43)
    assert render_equation(eq, ctx_43) == "h1 x^2 h2 x^-2"
    assert render_equation(reduce_equation((), ctx_43), ctx_43) == "1"
    assert render_equation(reduce_equation((), ctx_43), ctx_43, matrices=True) == "I"


def test_render_matrix_form(ctx_43):
    eq = reduce_equation(parse_eq_word("h2 x h2^-1", ctx_43), ctx_43)
    assert render_equation(eq, ctx_43, matrices=True) == \
        "[[2,-5],[1,-2]] X [[2,-5],[1,-2]]"


def test_format_parse_round_trip(ctx_44, rng):
    letters = [1, -1, 2, -2, 3, -3]
    for _ in range(50):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(10)))
        text = format_eq_word(word, ctx_44)
        assert parse_eq_word(text, ctx_44) == word


def test_context_is_its_matrices(h1, h2):
    # the words are derived from the matrices, and equality, hashing,
    # deepcopy and pickle see the matrices only, whether or not the words
    # have been expanded yet
    g = ProjMat2(5, 3, 3, 2)
    ctx = HContext((h1, h2), g)
    unread = [copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))]
    assert not ctx._ab_words and not any(c._ab_words for c in unread)
    assert ctx.h_words == (decompose(h1), decompose(h2)) and ctx.g_word == decompose(g)
    twin = HContext.from_matrices([h1, h2], g)
    twin._ab_words.update({1: (), 2: (), 3: ("a",)})
    assert twin == ctx and hash(twin) == hash(ctx)
    assert HContext((h2, h1), g) != ctx and HContext((h1, h2), h1) != ctx
    # any sequence of h_i makes the same context
    listed = HContext([h1, h2], g)
    assert listed.h_mats == (h1, h2)
    assert listed == ctx and hash(listed) == hash(ctx)
    for copied in unread + [copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))]:
        assert copied == ctx and hash(copied) == hash(ctx)
        assert copied.h_words == ctx.h_words and copied.g_word == ctx.g_word


def test_threads_share_a_context_before_its_words_are_read(rng):
    # threads that read a fresh context's words at once, with the
    # interpreter switching threads as often as it can, each see every
    # word whole: a reader returns only once every signed letter is stored
    contexts = [HContext.from_matrices([random_matrix(rng, 60) for _ in range(3)],
                                       random_matrix(rng, 60)) for _ in range(50)]
    seen, errors = [], []
    start = threading.Barrier(8)

    def read():
        try:
            start.wait(timeout=60)
            for ctx in contexts:
                words = ctx.ab_words()
                seen.append((ctx, ctx.h_words, ctx.g_word,
                             [words[-let] for let in range(1, ctx.x_letter + 1)]))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(seen) == 8 * len(contexts)
    for ctx, h_words, g_word, inverses in seen:
        assert h_words == tuple(map(decompose, ctx.h_mats)) and g_word == decompose(ctx.g_mat)
        assert inverses == [decompose(m.inv()) for m in ctx.h_mats + (ctx.g_mat,)]


def test_context_tables_match_first_principles(rng):
    # the per-letter tables against h_i, g and the abelianization of their
    # words, and the Schreier index against the order of the image in Z/6
    for _ in range(30):
        hs = [random_matrix(rng, 8) for _ in range(rng.randrange(1, 4))]
        g = random_matrix(rng, 8)
        ctx = HContext.from_matrices(hs, g)
        images = [abelianize(decompose(m)) for m in hs + [g]]
        for let, (mat, img) in enumerate(zip(hs + [g], images), start=1):
            assert ctx.letter_matrix(let) == mat
            assert ctx.letter_matrix(-let) == mat.inv()
            assert ctx.letter_image(let) == img
            assert ctx.letter_image(-let) == -img % 6
        assert ctx.h_images() == tuple(images[:-1]) and ctx.g_image() == images[-1]
        letters = [sign * let for let in range(1, ctx.x_letter + 1) for sign in (1, -1)]
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(10)))
        assert ctx.word_image(word) == abelianize(decompose(evaluate(word, ctx)))
        if ctx.word_image(word):
            with pytest.raises(NotInKernel):
                rewrite_values([word], ctx)
        else:
            assert rewrite_values([word], ctx) == (matrix_to_free_word(evaluate(word, ctx)),)
        assert analyze(hs, g).index == quotient_order(images)


def test_rewrite_values_match_both_references(rng):
    # the seams of the rewriting table: torsion h's (a of order 2, b of
    # order 3), h = I and g = I with an empty a/b-word, a repeated h; on each
    # context every word of up to 6 letters that maps to 0 in Z/6 is
    # rewritten in one call, and each value equals the matrix route and the
    # letters' reduced a/b-word, both rewritten from state 0
    ident = ProjMat2(1, 0, 0, 1)
    contexts = [([MAT_A], ident), ([MAT_B], MAT_A), ([ident], MAT_B), ([MAT_B, MAT_B], ident),
                ([MAT_A, ident], MAT_B), ([MAT_A, MAT_B], MAT_A * MAT_B)]
    pool = [MAT_A, MAT_B, ident]
    for _ in range(4):
        pool.append(random_matrix(rng, 6))
        hs = [rng.choice(pool) for _ in range(rng.randrange(1, 3))]
        contexts.append((hs, rng.choice(pool)))
    checked = 0
    for hs, g in contexts:
        ctx = HContext.from_matrices(hs, g)
        letters = [sign * let for let in range(1, ctx.x_letter + 1) for sign in (1, -1)]
        words = [()]
        for length in range(1, 7):
            words += product(letters, repeat=length)
        words = [w for w in words if not ctx.word_image(w)]
        for w, v in zip(words, rewrite_values(words, ctx), strict=True):
            assert v == matrix_to_free_word(evaluate(w, ctx))
            assert rewrite_from(0, letters_ab_word(w, ctx)) == (v, 0)
        checked += len(words)
    assert checked > 10000


def test_ab_word_budget(monkeypatch):
    # rewrite_values counts the letters' a/b-words before any piece of its
    # rewriting table is built, so the cancelling word h1 h1^-1 is refused
    # over the budget as well, and a refused call builds no piece at all
    t400, t = ProjMat2(1, 400, 0, 1), ProjMat2(1, 1, 0, 1)
    ctx = HContext.from_matrices([t400], t)
    # h1 = T^400 maps to 4 in Z/6 and x = T to 1
    for word in ((1, 2, -1), (1, 1)):
        with pytest.raises(NotInKernel):
            rewrite_values([word], ctx)
    assert rewrite_values([(1, 2, -1, 2, 2, 2, 2, 2), (1, 1, 1)], ctx) == (
        matrix_to_free_word(ProjMat2(1, 6, 0, 1)), matrix_to_free_word(ProjMat2(1, 1200, 0, 1)))
    pieces = []
    walk = heq.equations.rewrite_from

    def counted(state, word):
        pieces.append(word)
        return walk(state, word)

    monkeypatch.setattr(heq.equations, "rewrite_from", counted)
    monkeypatch.setattr(heq.equations, "WORD_BUDGET", 1000)
    # 800 + 2 + 2 a/b letters, the value T^402 maps to 0
    assert rewrite_values([(1, 2, 2)], ctx) == (matrix_to_free_word(t400 * t * t),)
    assert len(pieces) == 3
    pieces.clear()
    for word in ((1, 1), (1, -1), (-1, 2, -1)):
        with pytest.raises(ValueError, match="budget"):
            rewrite_values([word], ctx)
        # a word under the budget ahead of it does not get rewritten either
        with pytest.raises(ValueError, match="budget"):
            rewrite_values([(2,) * 6, word], ctx)
    assert pieces == []


_UNBALANCED_EQUATION = """
from heq.equations import HEquation
from heq.psl2 import IDENTITY
if __debug__:
    raise SystemExit("not run under -O")
try:
    HEquation([(IDENTITY, ())], [1])
except ValueError:
    print("ValueError")
"""


def test_equation_shape_check_survives_optimize():
    out = run_python(_UNBALANCED_EQUATION, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ValueError"
