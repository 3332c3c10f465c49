from collections import Counter
from itertools import product

import pytest

from heq.freewords import _PQ_BLOCKS, _PQ_ENTRIES, pq_to_matrix
from heq.psl2 import (
    BLOCK, IDENTITY, MAT_A, MAT_B, MAT_P, MAT_Q, NotUnimodular, ProjMat2, _product,
)
from heq.words import _SYLLABLE_BLOCKS, _SYLLABLE_ENTRIES, eval_ab

from conftest import random_matrix


def test_normalize_identity_class():
    assert ProjMat2(-1, 0, 0, -1) == IDENTITY


def test_normalize_sign_rule():
    # (0,-1,1,0) and its negation name the same element
    assert ProjMat2(0, -1, 1, 0) == ProjMat2(0, 1, -1, 0)
    assert tuple(ProjMat2(0, -1, 1, 0)) == (0, 1, -1, 0)


def test_normalize_keeps_positive_leading():
    assert tuple(ProjMat2(2, 1, 1, 1)) == (2, 1, 1, 1)


@pytest.mark.parametrize("entries", [(1, 2, 3, 4), (1, 0, 0, -1), (2, 0, 0, 2)])
def test_not_unimodular_rejected(entries):
    with pytest.raises(NotUnimodular):
        ProjMat2(*entries)


def test_from_rows_inverts_rows(rng):
    for _ in range(50):
        m = random_matrix(rng)
        assert ProjMat2.from_rows(m.rows()) == m
    with pytest.raises(NotUnimodular):
        ProjMat2.from_rows([[1, 2], [3, 4]])


@pytest.mark.parametrize("rows", [
    [[1.0, 0], [0, 1]], [[True, 0], [0, True]], [[1, "0"], [0, 1]], [[1, 0, 0], [1]],
    [[1, 0], [0, 1], []], [[1, 0]], ((1, 0), (0, 1)), "[[1,0],[0,1]]", None,
])
def test_from_rows_refuses_non_integer_or_misshaped_rows(rows):
    with pytest.raises(TypeError):
        ProjMat2.from_rows(rows)


def test_generator_relations():
    assert MAT_A * MAT_A == IDENTITY
    assert MAT_B * MAT_B * MAT_B == IDENTITY


def test_pq_do_not_commute():
    assert tuple(MAT_P * MAT_Q) == (3, 1, -1, 0)
    assert tuple(MAT_Q * MAT_P) == (3, -1, 1, 0)
    assert MAT_P * MAT_Q != MAT_Q * MAT_P


def test_inv_examples():
    assert IDENTITY.inv() == IDENTITY
    assert tuple(ProjMat2(2, -1, -1, 1).inv()) == (1, 1, 1, 2)


def test_inv_matches_adjugate(rng):
    # independent oracle: the adjugate of a determinant-1 matrix is its inverse
    for _ in range(50):
        m = random_matrix(rng)
        a, b, c, d = tuple(m)
        assert m.inv() == ProjMat2(d, -b, -c, a)
        assert m * m.inv() == IDENTITY
        assert m.inv() * m == IDENTITY


def test_trusted_results_match_checked_constructor(rng):
    # products and inverses skip the determinant check and normalize only;
    # the checked constructor on the raw entries is the reference
    shapes = Counter()
    for _ in range(400):
        m, n = random_matrix(rng), random_matrix(rng)
        a, b, c, d = tuple(m)
        e, f, g, h = tuple(n)
        raw = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        assert tuple(m * n) == tuple(ProjMat2(*raw))
        assert tuple(m.inv()) == tuple(ProjMat2(d, -b, -c, a))
        if raw[0] == 0:
            shapes["e11 zero, e12 negative" if raw[1] < 0 else "e11 zero"] += 1
        elif raw[0] < 0 and raw[1] < 0:
            shapes["e11 and e12 negative"] += 1
        if d == 0:
            shapes["inverse e11 zero"] += 1
    assert len(shapes) == 4, shapes


def test_product_of_entries_matches_object_products(rng):
    for _ in range(100):
        mats = [random_matrix(rng, 6) for _ in range(rng.randrange(8))]
        want = IDENTITY
        for m in mats:
            want = want * m
        # any sign of a factor names the same element
        factors = [tuple(-x for x in m) if rng.random() < 0.5 else tuple(m)
                   for m in mats]
        assert tuple(_product(factors)) == tuple(want)
    assert _product([]) == IDENTITY


def test_associativity_spot_check(rng):
    for _ in range(50):
        m1, m2, m3 = (random_matrix(rng) for _ in range(3))
        assert (m1 * m2) * m3 == m1 * (m2 * m3)


def test_normalization_idempotent(rng):
    for _ in range(50):
        m = random_matrix(rng)
        assert ProjMat2(*m) == m


def test_hashable_and_immutable():
    m = ProjMat2(2, 1, 1, 1)
    assert hash(m) == hash(ProjMat2(-2, -1, -1, -1))
    with pytest.raises(AttributeError):
        m.e11 = 5


def test_matrix_is_its_entry_tuple():
    m = ProjMat2(-2, -1, -1, -1)
    assert isinstance(m, tuple) and m == (2, 1, 1, 1)
    assert (m.e11, m.e12, m.e21, m.e22) == tuple(m) == (2, 1, 1, 1)
    assert type(tuple(m)) is tuple
    assert ProjMat2.from_rows(m.rows()) == m


def test_letter_tables_hold_exact_tuples():
    from heq.equations import HContext

    ctx = HContext.from_matrices([MAT_P, MAT_Q], MAT_P * MAT_Q)
    for table in (ctx._entries, _PQ_ENTRIES, _SYLLABLE_ENTRIES, _PQ_BLOCKS, _SYLLABLE_BLOCKS):
        assert all(type(entries) is tuple for entries in table.values())


# the block products against _product fed one letter at a time: every word
# of up to 9 letters (two full blocks and a one-letter rest), normal or not
BLOCK_CASES = {
    "pq": (pq_to_matrix, _PQ_ENTRIES, _PQ_BLOCKS, 340),
    "ab": (eval_ab, _SYLLABLE_ENTRIES, _SYLLABLE_BLOCKS, 120),
}


def letterwise(entries, word):
    return _product(map(entries.__getitem__, word))


@pytest.mark.parametrize("alphabet", sorted(BLOCK_CASES))
def test_block_tables_hold_every_short_word(alphabet):
    multiply, entries, blocks, size = BLOCK_CASES[alphabet]
    assert BLOCK == 4
    assert len(blocks) == size
    assert set(blocks) == {w for n in range(1, BLOCK + 1) for w in product(entries, repeat=n)}
    assert all(blocks[w] == letterwise(entries, w) for w in blocks)
    # a word of up to BLOCK letters is looked up, not multiplied
    assert all(type(multiply(w)) is ProjMat2 for w in [(), *blocks])


@pytest.mark.parametrize("alphabet", sorted(BLOCK_CASES))
def test_block_products_match_letterwise_on_short_words(alphabet):
    multiply, entries, _, _ = BLOCK_CASES[alphabet]
    for n in range(10):
        bad = [w for w in product(entries, repeat=n) if multiply(w) != letterwise(entries, w)]
        assert not bad[:3], n


@pytest.mark.parametrize("alphabet", sorted(BLOCK_CASES))
def test_block_products_match_letterwise_on_long_words(alphabet, rng):
    # HEQ_SEED-drawn words of 100-2000 letters, reduced or not, of every
    # length mod BLOCK
    multiply, entries, _, _ = BLOCK_CASES[alphabet]
    letters = sorted(entries, key=str)
    for _ in range(24):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(100, 2001)))
        assert multiply(word) == letterwise(entries, word), len(word)
        assert multiply(list(word)) == multiply(word)
