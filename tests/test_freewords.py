import pytest

from heq.psl2 import IDENTITY, MAT_A, MAT_B, ProjMat2
from heq.words import AB_ZERO, abelianize, eval_ab, parse_ab_word, reduce_ab
from heq.freewords import (
    NotInKernel,
    PQ_NAMES,
    format_free_word,
    format_word,
    free_reduce,
    gamma,
    gamma_table_self_check,
    invert_word,
    matrix_to_free_word,
    parse_free_word,
    parse_word,
    pq_to_matrix,
    rewrite_kernel,
)


def test_free_reduce_examples():
    assert free_reduce([1, -1]) == ()
    # q p q^-1 q p^-1 q^-1 collapses completely
    assert free_reduce([2, 1, -2, 2, -1, -2]) == ()
    already = parse_free_word("q^-1 p^-1 q p")
    assert free_reduce(already) == already


def test_invert_word():
    assert invert_word((1, -2, 2)) == (-2, 2, -1)
    assert free_reduce((1, 2) + invert_word((1, 2))) == ()


def test_pq_to_matrix_examples():
    assert pq_to_matrix(()) == IDENTITY
    assert pq_to_matrix(parse_free_word("p")) == ProjMat2(2, -1, -1, 1)
    assert pq_to_matrix(parse_free_word("q^2")) == ProjMat2(5, 3, 3, 2)


def test_pq_basis_words():
    # p = a b^2 a b and q = b a b^2 a
    assert pq_to_matrix((1,)) == eval_ab(parse_ab_word("a b2 a b"))
    assert pq_to_matrix((2,)) == eval_ab(parse_ab_word("b a b2 a"))


def test_gamma_table_self_check():
    gamma_table_self_check()


def test_gamma_table_against_transversal():
    # re-derive the 12 identities from scratch with an independently written
    # transversal, letter by letter
    reps = {
        (0, 0): "", (0, 1): "b", (0, 2): "b2",
        (1, 0): "a", (1, 1): "a b", (1, 2): "a b2",
    }
    images = {"a": (1, 0), "b": (0, 1)}
    mats = {"a": MAT_A, "b": MAT_B}
    count = 0
    for (c2, c3), rep in reps.items():
        for letter in ("a", "b"):
            d2, d3 = images[letter]
            target = reps[((c2 + d2) % 2, (c3 + d3) % 3)]
            expected = (eval_ab(parse_ab_word(rep)) * mats[letter]
                        * eval_ab(parse_ab_word(target)).inv())
            from heq.words import C2xC3
            assert pq_to_matrix(gamma(C2xC3(c2, c3), letter)) == expected
            count += 1
    assert count == 12


def test_rewrite_kernel_examples():
    assert rewrite_kernel(parse_ab_word("b a b2 a")) == parse_free_word("q")
    h2 = ProjMat2(2, -5, 1, -2)
    v5 = h2 * ProjMat2(5, 3, 3, 2) * h2.inv()
    assert matrix_to_free_word(v5) == parse_free_word("q p q^-2 p^-1 q^-1")
    g = ProjMat2(1, 0, -2, 1)
    v13 = h2 * g * g * g * h2.inv()
    assert matrix_to_free_word(v13) == parse_free_word("q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1")


def test_rewrite_kernel_rejects_nonkernel():
    with pytest.raises(NotInKernel):
        rewrite_kernel(parse_ab_word("a"))


def test_rewrite_kernel_round_trip(rng):
    # 200 random kernel words: the rewriting must evaluate back to the input
    letters = ["a", "b", "b^-1"]
    done = 0
    while done < 200:
        word = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(1, 30)))
        if abelianize(word) != AB_ZERO:
            continue
        assert pq_to_matrix(rewrite_kernel(word)) == eval_ab(word)
        done += 1


def test_format_parse_round_trip(rng):
    for _ in range(50):
        word = free_reduce(rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12)))
        assert parse_free_word(format_free_word(word)) == word
    assert format_free_word(parse_free_word("q p q^-2 p^-1 q^-1")) == "q p q^-2 p^-1 q^-1"


def test_generic_word_names():
    names = ("x1", "x2", "x10")
    word = parse_word("x10^-2 x1 x2^3", names)
    assert word == (-3, -3, 1, 2, 2, 2)
    assert format_word(word, names) == "x10^-2 x1 x2^3"
    assert parse_word("x1,x2^3", names) == (1, 2, 2, 2)
    assert parse_word(" x1 ,, x2^3\n", names) == (1, 2, 2, 2)
    with pytest.raises(ValueError):
        parse_word("x3", names)
    # tokens are whitespace- or comma-separated: unspaced letters are one
    # unknown name
    with pytest.raises(ValueError):
        parse_word("pq", PQ_NAMES)
    with pytest.raises(ValueError):
        parse_word("p^x", PQ_NAMES)
    with pytest.raises(ValueError):
        parse_word("p^", PQ_NAMES)
    with pytest.raises(TypeError):
        parse_word(5, names)
