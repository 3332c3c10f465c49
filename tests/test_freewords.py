import pytest

from heq.psl2 import IDENTITY, ProjMat2
from heq.words import abelianize, eval_ab, reduce_ab
from heq.freewords import (
    NotInKernel,
    PQ_NAMES,
    format_free_word,
    format_word,
    free_reduce,
    invert_word,
    matrix_to_free_word,
    parse_free_word,
    parse_word,
    pq_to_matrix,
    rewrite_kernel,
)

from conftest import check_syllable_steps, run_python


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
    assert pq_to_matrix((1,)) == eval_ab(("a", "b2", "a", "b"))
    assert pq_to_matrix((2,)) == eval_ab(("b", "a", "b2", "a"))


_WRONG_P = """
import importlib
import heq.psl2
import heq.freewords
if __debug__:
    raise SystemExit("not run under -O")
heq.psl2.MAT_P = heq.psl2.MAT_Q
try:
    importlib.reload(heq.freewords)
except RuntimeError:
    print("RuntimeError")
"""


def test_gamma_table_self_check():
    # the import-time derivation of the rewriting table raises, also under
    # -O, when no word among 1, p^+-1, q^+-1 has the required matrix
    out = run_python(_WRONG_P, "-O")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "RuntimeError"


def test_gamma_table_against_transversal():
    # all 18 (state, syllable) entries against an independently written
    # transversal and letter matrices
    assert check_syllable_steps() == 18


def test_rewrite_kernel_examples():
    assert rewrite_kernel(("b", "a", "b2", "a")) == parse_free_word("q")
    h2 = ProjMat2(2, -5, 1, -2)
    v5 = h2 * ProjMat2(5, 3, 3, 2) * h2.inv()
    assert matrix_to_free_word(v5) == parse_free_word("q p q^-2 p^-1 q^-1")
    g = ProjMat2(1, 0, -2, 1)
    v13 = h2 * g * g * g * h2.inv()
    assert matrix_to_free_word(v13) == parse_free_word("q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1")


def test_rewrite_kernel_rejects_nonkernel():
    with pytest.raises(NotInKernel):
        rewrite_kernel(("a",))


def test_rewrite_kernel_round_trip(rng):
    # 200 random kernel words: the rewriting must evaluate back to the input
    letters = ["a", "b", "b^-1"]
    done = 0
    while done < 200:
        word = reduce_ab(rng.choice(letters) for _ in range(rng.randrange(1, 30)))
        if abelianize(word):
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
