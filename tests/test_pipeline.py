import copy
import dataclasses
import json
import pickle
from collections import Counter
from dataclasses import replace

import pytest


import heq.equations
import heq.freewords
import heq.pipeline
import heq.stallings
from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2
from heq.equations import evaluate, parse_eq_word, reduce_equation
from heq.freewords import matrix_to_free_word, rewrite_from
from heq.freewords import parse_free_word as pw
from heq.pipeline import (
    AnalysisReport,
    VERDICT_ALGEBRAIC,
    VERDICT_TRANSCENDENTAL,
    analyze,
    verify,
)
from heq.words import WORD_BUDGET, quotient_order

from conftest import letters_ab_word, random_matrix


def equation_multiset(ctx, texts):
    return Counter(reduce_equation(parse_eq_word(t, ctx), ctx) for t in texts)


def test_first_example_end_to_end(h1, h2):
    report = analyze([h1, h2], ProjMat2(5, 3, 3, 2))
    assert report.index == 2
    got = Counter(report.w_equations)
    want = equation_multiset(report.ctx, ["h1", "x", "h2^2", "h2 h1 h2^-1", "h2 x h2^-1"])
    assert got == want
    assert sum(eq.is_trivial() for eq in report.w_equations) == 1
    assert report.v_words == (
        pw("p"), pw("q^2"), pw("q p q p^-1 q^-1 p^-1 q^-1"), pw("q p q^-2 p^-1 q^-1"))
    assert report.presentation.rank == 4
    assert report.presentation.relators == ()
    assert report.ideal_equations == ()
    assert report.verdict == VERDICT_TRANSCENDENTAL
    assert verify(report).ok


REFERENCE_V_WORDS = [
    "p", "q^-1 p^-1", "p^-1 q p", "q p q p q^-1 p^-1 q^-1 p^-1 q^-1",
    "q p q p^-1 q^-1 p^-1 q^-1", "q p q^2 p q^-1 p^-1 q^-1",
    "p^-1 q^-1 p^-2 q^-1 p^-1 q^-1 p^-1 q^-1", "q p q p q p^2 q p",
    "q^-4 p^-1 q^-1", "q p q^4", "q^-1 p^-1 q p",
    "q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1",
]


def test_second_example_end_to_end(h1, h2):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    assert report.index == 6
    assert len(report.w_words) == 13
    assert sum(eq.is_trivial() for eq in report.w_equations) == 1
    assert Counter(report.v_words) == Counter(pw(t) for t in REFERENCE_V_WORDS)
    assert report.presentation.rank == 2
    assert len(report.presentation.relators) == 10
    nontrivial = report.nontrivial_ideal_equations()
    assert len(nontrivial) == 10
    for word in report.ideal_words:
        assert evaluate(word, report.ctx) == IDENTITY
    assert report.verdict == VERDICT_ALGEBRAIC
    assert verify(report).ok


def test_index_equals_quotient_order(h1, h2):
    for g in (ProjMat2(5, 3, 3, 2), ProjMat2(1, 0, -2, 1)):
        report = analyze([h1, h2], g)
        images = list(report.ctx.h_images()) + [report.ctx.g_image()]
        assert report.index == quotient_order(images)


def test_member_of_subgroup_is_algebraic():
    # degree-1 equation g^-1 x when g generates H
    m = ProjMat2(2, 1, 1, 1)
    report = analyze([m], m)
    assert report.verdict == VERDICT_ALGEBRAIC
    assert any(eq.degree == 1 for eq in report.nontrivial_ideal_equations())


def test_product_of_generators_is_algebraic(h1, h2):
    report = analyze([h1, h2], h1 * h2)
    assert report.verdict == VERDICT_ALGEBRAIC


def test_full_group_makes_everything_algebraic(rng):
    # H of finite index (here the whole group): every g is algebraic
    g = random_matrix(rng)
    report = analyze([MAT_A, MAT_B], g)
    assert report.verdict == VERDICT_ALGEBRAIC


def test_conjugacy_intersection_is_algebraic():
    # T normalizes <T^2> without lying in it: balanced degree-2 witness
    t = ProjMat2(1, 1, 0, 1)
    t2 = ProjMat2(1, 2, 0, 1)
    report = analyze([t2], t)
    assert report.verdict == VERDICT_ALGEBRAIC
    assert any(sum(eq.signs) == 0 and eq.degree == 2
               for eq in report.nontrivial_ideal_equations())


def test_trivial_subgroup_torsion_cases():
    # over the trivial subgroup only torsion is algebraic, via x^k
    for g, power in ((MAT_A, 2), (MAT_B, 3), (IDENTITY, 1)):
        report = analyze([], g)
        assert report.verdict == VERDICT_ALGEBRAIC
        gens = report.nontrivial_ideal_equations()
        expected = reduce_equation((report.ctx.x_letter,) * power, report.ctx)
        assert list(gens) == [expected]
    report = analyze([], ProjMat2(1, 1, 0, 1))
    assert report.verdict == VERDICT_TRANSCENDENTAL
    assert report.ideal_equations == ()


def test_torsion_generator_with_itself(h2):
    # every value w(g) is trivial: empty v-words drive the degenerate path
    report = analyze([h2], h2)
    assert report.verdict == VERDICT_ALGEBRAIC
    assert report.presentation.rank == 0
    assert set(report.presentation.relators) == {(1,), (2,)}
    assert all(v == () for v in report.v_words)


def test_double_coset_stability(h1, h2, rng):
    for _ in range(10):
        g = random_matrix(rng, 8)
        base = analyze([h1, h2], g)
        ha = h1 if rng.random() < 0.5 else h2
        hb = h1 if rng.random() < 0.5 else h2
        moved = analyze([h1, h2], ha * g * hb)
        assert base.verdict == moved.verdict


def test_json_round_trip(h1, h2):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    blob = json.dumps(report.to_dict())
    restored = AnalysisReport.from_dict(json.loads(blob))
    assert restored.to_dict() == report.to_dict()
    assert verify(restored).ok


def test_report_stores_raw_data_only():
    assert [f.name for f in dataclasses.fields(AnalysisReport)] == [
        "ctx", "index", "w_words", "v_words", "presentation", "ideal_words", "verdict"]


def test_from_dict_reduces_no_word(h1, h2, monkeypatch):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    data = json.loads(json.dumps(report.to_dict()))

    def refuse(word, ctx):
        raise AssertionError("from_dict reduced a word")

    monkeypatch.setattr(heq.equations, "reduce_equation", refuse)
    monkeypatch.setattr(heq.pipeline, "reduce_equation", refuse)
    restored = AnalysisReport.from_dict(data)
    monkeypatch.undo()
    assert restored.to_dict() == report.to_dict()


@pytest.mark.parametrize("g", [ProjMat2(5, 3, 3, 2), ProjMat2(1, 0, -2, 1)])
def test_derived_equations_are_the_reduced_words(h1, h2, g):
    report = analyze([h1, h2], g)
    restored = AnalysisReport.from_dict(json.loads(json.dumps(report.to_dict())))
    for rep in (report, restored):
        ctx = rep.ctx
        w_equations = tuple(reduce_equation(w, ctx) for w in rep.w_words)
        assert rep.w_equations == w_equations
        assert rep.nontrivial_indices == tuple(
            i for i, eq in enumerate(w_equations) if not eq.is_trivial())
        assert rep.ideal_equations == tuple(reduce_equation(w, ctx) for w in rep.ideal_words)
        # each word is reduced once per context, so every read returns the
        # same objects
        assert all(a is b for a, b in zip(rep.w_equations, rep.w_equations))


def test_from_dict_ignores_v_matrices(h1, h2):
    # reports written before v_matrices was dropped still read back, whatever
    # that key holds
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    data = json.loads(json.dumps(report.to_dict()))
    assert "v_matrices" not in data
    data["v_matrices"] = [[[1, 0], [0, 1]]]
    restored = AnalysisReport.from_dict(data)
    assert restored.to_dict() == report.to_dict()
    assert verify(restored).ok


def test_from_dict_ignores_basis(h1, h2):
    # reports written before presentation.basis was dropped still read back
    # and verify; the basis is read off the folded automaton instead
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    data = json.loads(json.dumps(report.to_dict()))
    assert "basis" not in data["presentation"]
    data["presentation"]["basis"] = ["p", "q"]
    restored = AnalysisReport.from_dict(data)
    assert restored.to_dict() == report.to_dict()
    assert verify(restored).ok


def test_verify_detects_corrupt_equation(h1, h2):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    # corrupt the first ideal generator by appending a stray h1
    bad_words = (report.ideal_words[0] + (1,),) + report.ideal_words[1:]
    tampered = replace(report, ideal_words=bad_words)
    result = verify(tampered)
    assert not result.ok
    failed = {name for name, passed, _ in result.checks if not passed}
    assert "ideal generators evaluate to I" in failed


def test_verify_detects_wrong_verdict(h1, h2):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    tampered = replace(report, verdict=VERDICT_TRANSCENDENTAL)
    result = verify(tampered)
    assert not result.ok
    failed = {name for name, passed, _ in result.checks if not passed}
    assert "verdict is consistent" in failed


def test_verify_detects_corrupt_v_word(h1, h2):
    report = analyze([h1, h2], ProjMat2(5, 3, 3, 2))
    bad = (pw("q"),) + report.v_words[1:]
    tampered = replace(report, v_words=bad)
    result = verify(tampered)
    assert not result.ok


def test_verify_fails_a_relator_naming_no_generator(h1, h2):
    # a relator letter outside x1..xn, n the nontrivial generators, fails
    # the substitution check (g) instead of raising from substitute
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    pres = report.presentation
    assert len(report.v_words) == pres.generator_count == 12
    beyond = replace(pres, relators=((99,),) + pres.relators[1:])
    extra = replace(pres, relators=pres.relators + ((13,),))
    for tampered in (replace(report, presentation=beyond),
                     replace(report, v_words=report.v_words + (pw("p"),), presentation=extra)):
        result = verify(tampered)
        assert not result.ok
        failed = {name for name, passed, _ in result.checks if not passed}
        assert "ideal words are the substituted relators" in failed


def test_master_invariant_random(rng):
    # every ideal generator evaluates to the identity, whatever the inputs
    for _ in range(10):
        s = rng.randrange(1, 3)
        hs = [random_matrix(rng, 6) for _ in range(s)]
        g = random_matrix(rng, 6)
        report = analyze(hs, g)
        for word in report.ideal_words:
            assert evaluate(word, report.ctx) == IDENTITY
        assert verify(report).ok


def test_random_verdicts_survive_brute_force(rng):
    # independent end-to-end guard: whenever the pipeline answers
    # transcendental, the exhaustive search must come up empty-handed
    from heq.enumeration import cross_check

    for _ in range(10):
        s = rng.randrange(1, 3)
        hs = [random_matrix(rng, 5) for _ in range(s)]
        g = random_matrix(rng, 5)
        report = analyze(hs, g)
        assert cross_check(report, 6).passed


def test_symbolic_values_match_matrix_route(h1, h2, rng):
    # v_i is rewritten letter by letter; the routes it replaced must agree
    # on every nontrivial generator: the letters' a/b-words reduced into the
    # value's a/b-word, and the matrix route (multiply w_i(g) out, peel it
    # back into an a/b-word), each rewritten from state 0
    contexts = [([h1, h2], ProjMat2(5, 3, 3, 2)), ([h1, h2], ProjMat2(1, 0, -2, 1))]
    for _ in range(60):
        hs = [random_matrix(rng, 6) for _ in range(rng.randrange(1, 4))]
        contexts.append((hs, random_matrix(rng, 6)))
    checked = 0
    for hs, g in contexts:
        report = analyze(hs, g)
        ctx = report.ctx
        values = [report.w_words[i] for i in report.nontrivial_indices]
        assert len(values) == len(report.v_words)
        for w, v in zip(values, report.v_words):
            assert rewrite_from(0, letters_ab_word(w, ctx)) == (v, 0)
            assert matrix_to_free_word(evaluate(w, ctx)) == v
            checked += 1
    assert checked > 200


def test_analyze_decomposes_only_the_inputs(h1, h2, monkeypatch):
    # each input matrix is peeled once, at construction, and expanded once,
    # and no generator value is ever peeled, expanded or decomposed
    calls = []

    def counted(name, fn):
        def wrapper(m, *rest):
            calls.append((name, m))
            return fn(m, *rest)
        return wrapper

    for name in ("peel", "expand"):
        monkeypatch.setattr(heq.equations, name, counted(name, getattr(heq.equations, name)))
    monkeypatch.setattr(heq.freewords, "decompose", counted("decompose", heq.freewords.decompose))
    g = ProjMat2(1, 0, -2, 1)
    report = analyze([h1, h2], g)
    assert len(report.v_words) == 12
    assert calls == [("peel", h1), ("peel", h2), ("peel", g),
                     ("expand", h1), ("expand", h2), ("expand", g)]


def test_words_are_expanded_only_when_read(h1, h2, rng, monkeypatch):
    # analyze expands each input matrix exactly once, inside rewrite_values;
    # to_dict reads the memo, and from_dict followed by verify expands nothing
    expanded = []
    expand = heq.equations.expand

    def counted(m, exponents):
        expanded.append(m)
        return expand(m, exponents)

    monkeypatch.setattr(heq.equations, "expand", counted)
    contexts = [([h1, h2], ProjMat2(5, 3, 3, 2)), ([h1, h2], ProjMat2(1, 0, -2, 1))]
    for _ in range(20):
        contexts.append(([random_matrix(rng, 8) for _ in range(rng.randrange(1, 4))],
                         random_matrix(rng, 8)))
    for hs, g in contexts:
        expanded.clear()
        report = analyze(hs, g)
        assert expanded == [*hs, g]
        data = json.loads(json.dumps(report.to_dict()))
        assert expanded == [*hs, g]
        expanded.clear()
        assert verify(AnalysisReport.from_dict(data)).ok
        assert expanded == []


def test_analyze_refuses_generator_value_over_budget():
    # h1^3 = [[1,600000],[0,1]] is a generator value of 1200000 a/b letters
    with pytest.raises(ValueError, match="budget"):
        analyze([ProjMat2(1, 200000, 0, 1)], ProjMat2(1, 1, 0, 1))


def test_report_survives_copy_and_pickle(h1, h2):
    report = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    for clone in (copy.copy(report), copy.deepcopy(report),
                  pickle.loads(pickle.dumps(report))):
        assert clone.to_dict() == report.to_dict()
        assert verify(clone).ok


def test_relators_are_not_expanded_through_v_words(monkeypatch):
    # T^400 over T: relators of up to 34980 letters over v-words of up to
    # 800; expanded through the v-words they reach 14 million letters.
    # substitute hands a relator without runs to heq.freewords.free_reduce
    # whole, and the powers of a relator with runs to
    # heq.freewords.join_reduced: both are recorded, join_reduced by the
    # letters of all the words it joins in one call.
    longest = {"free_reduce": 0, "join_reduced": 0}
    free_reduce = heq.freewords.free_reduce
    join_reduced = heq.freewords.join_reduced

    def recording_reduce(letters):
        letters = list(letters)
        longest["free_reduce"] = max(longest["free_reduce"], len(letters))
        return free_reduce(letters)

    def recording_join(words):
        words = list(words)
        total = sum(map(len, words))
        longest["join_reduced"] = max(longest["join_reduced"], total)
        return join_reduced(words)

    monkeypatch.setattr(heq.freewords, "free_reduce", recording_reduce)
    monkeypatch.setattr(heq.freewords, "join_reduced", recording_join)
    report = analyze([ProjMat2(1, 400, 0, 1)], ProjMat2(1, 1, 0, 1))
    restored = AnalysisReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert verify(restored).ok
    assert 0 < longest["free_reduce"] <= WORD_BUDGET
    assert 0 < longest["join_reduced"] <= WORD_BUDGET


def test_analyze_catches_a_relator_that_does_not_kill_the_v_words(h1, h2, monkeypatch):
    # x1 alone does not kill v_1: its ideal word w_1 does not evaluate to I
    fold_generators = heq.stallings.fold_generators

    def forged(gens):
        aut, relators = fold_generators(gens)
        return aut, ((1,),) + relators[1:]

    monkeypatch.setattr(heq.stallings, "fold_generators", forged)
    with pytest.raises(RuntimeError, match="ideal generator does not evaluate"):
        analyze([h1, h2], ProjMat2(1, 0, -2, 1))


def test_analyze_faults_on_a_generator_value_outside_the_kernel(h1, h2, monkeypatch):
    # one nontrivial generator swapped for a word that does not map to 0 in
    # Z/6, the count kept: a fault of the pipeline, so RuntimeError, not the
    # NotInKernel (a ValueError, exit 2 in the CLI) the rewriting raises
    subgroup_generators = heq.pipeline.subgroup_generators
    g = ProjMat2(1, 0, -2, 1)
    ctx = heq.equations.HContext.from_matrices([h1, h2], g)
    x = ctx.x_letter
    outside = next(w for w in ((x,), (1, x), (2, x), (1, 2, x))
                   if ctx.word_image(w) and not ctx.is_trivial(w))

    def forged(graph):
        words = list(subgroup_generators(graph))
        first = next(i for i, w in enumerate(words) if not ctx.is_trivial(w))
        words[first] = outside
        return tuple(words)

    monkeypatch.setattr(heq.pipeline, "subgroup_generators", forged)
    with pytest.raises(RuntimeError, match="does not lie in the kernel F"):
        analyze([h1, h2], g)
