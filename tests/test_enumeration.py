import pytest

from heq.psl2 import IDENTITY, ProjMat2
from heq.equations import HContext, evaluate, parse_eq_word, reduce_equation
from heq.enumeration import cross_check, enumerate_kernel
from heq.pipeline import VERDICT_TRANSCENDENTAL, analyze

from conftest import run_python


def test_first_example_has_no_short_witness(ctx_43):
    result = enumerate_kernel(ctx_43, 8)
    assert result.witnesses == ()


def test_second_example_has_witnesses(ctx_44):
    result = enumerate_kernel(ctx_44, 10)
    assert len(result.witnesses) >= 1
    specific = parse_eq_word("h1 x^-1 h1^-1 x h1^-1 x^-1 h1 x^-2", ctx_44)
    assert evaluate(specific, ctx_44) == IDENTITY
    assert specific in result.witnesses


def test_witnesses_are_nontrivial_identities(ctx_44):
    result = enumerate_kernel(ctx_44, 7)
    for word in result.witnesses:
        assert evaluate(word, ctx_44) == IDENTITY
        assert not reduce_equation(word, ctx_44).is_trivial()
        # freely reduced: no adjacent inverse pair survives the search
        assert all(word[i] != -word[i + 1] for i in range(len(word) - 1))


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


def _power(m: ProjMat2, k: int) -> ProjMat2:
    out = IDENTITY
    for _ in range(k):
        out = out * m
    return out


def test_large_entries_membership_witness():
    # h has 23-bit entries; the exact search puts no bound on entry size
    h = _power(ProjMat2(3, 1, -1, 0), 16)
    ctx = HContext.from_matrices([h], h)
    result = enumerate_kernel(ctx, 2)
    assert (-1, 2) in result.witnesses


def test_max_len_validation(ctx_43):
    with pytest.raises(ValueError):
        enumerate_kernel(ctx_43, 0)


def test_cross_check_consistent(h1, h2, ctx_43, ctx_44):
    rep43 = analyze([h1, h2], ProjMat2(5, 3, 3, 2))
    rep44 = analyze([h1, h2], ProjMat2(1, 0, -2, 1))
    res43 = cross_check(rep43, 8)
    assert res43.passed and res43.witness_count == 0
    assert "consistent up to" in res43.detail
    res44 = cross_check(rep44, 10)
    assert res44.passed and res44.witness_count >= 1


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
