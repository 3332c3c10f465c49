import pytest

import heq.freewords
from heq.psl2 import IDENTITY, MAT_A, ProjMat2
from heq.words import WORD_BUDGET, abelianize, eval_ab, invert_ab
from heq.freewords import (
    NotInKernel,
    PQ_NAMES,
    _token_table,
    format_free_word,
    format_word,
    free_reduce,
    invert_word,
    join_reduced,
    matrix_to_free_word,
    parse_free_word,
    parse_word,
    pq_to_matrix,
    rewrite_from,
    RUN_MIN_LETTERS,
    substitute,
)

from conftest import check_syllable_steps, reduce_ab_reference, run_python, substitute_reference


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
    assert rewrite_from(0, ("b", "a", "b2", "a")) == (parse_free_word("q"), 0)
    h2 = ProjMat2(2, -5, 1, -2)
    v5 = h2 * ProjMat2(5, 3, 3, 2) * h2.inv()
    assert matrix_to_free_word(v5) == parse_free_word("q p q^-2 p^-1 q^-1")
    g = ProjMat2(1, 0, -2, 1)
    v13 = h2 * g * g * g * h2.inv()
    assert matrix_to_free_word(v13) == parse_free_word("q p q^2 p q^-1 p^-1 q^-1 p^-1 q^-1")


def test_rewrite_kernel_rejects_nonkernel():
    # the walk of a from state 0 ends at state 3, so a is no kernel element
    assert rewrite_from(0, ("a",))[1] == 3
    with pytest.raises(NotInKernel):
        matrix_to_free_word(MAT_A)


def test_rewrite_kernel_round_trip(rng):
    # 200 random kernel words: the walk from state 0 ends at state 0 and
    # its rewriting must evaluate back to the input
    letters = ["a", "b", "b^-1"]
    done = 0
    while done < 200:
        word = reduce_ab_reference(rng.choice(letters) for _ in range(rng.randrange(1, 30)))
        if abelianize(word):
            continue
        free, end = rewrite_from(0, word)
        assert end == 0
        assert pq_to_matrix(free) == eval_ab(word)
        done += 1


# the transversal of F, written out by image in Z/6 (a -> 3, b -> 4)
_REPS = {0: (), 4: ("b",), 2: ("b2",), 3: ("a",), 1: ("a", "b"), 5: ("a", "b2")}


def test_rewrite_from_end_state_and_piece(rng):
    # from any state u, the walk of an a/b-word w, normal or not, ends at
    # u + abelianize(w), and its piece is freely reduced with matrix
    # rep(u) w rep(end)^-1
    syllables = ["a", "b", "b2"]
    for _ in range(600):
        u = rng.randrange(6)
        word = tuple(rng.choice(syllables) for _ in range(rng.randrange(25)))
        piece, end = rewrite_from(u, word)
        assert end == (u + abelianize(word)) % 6
        assert piece == free_reduce(piece)
        assert pq_to_matrix(piece) == eval_ab(_REPS[u] + word + invert_ab(_REPS[end]))


def drawn_reduced_word(rng, length):
    word = []
    while len(word) < length:
        let = rng.choice([1, -1, 2, -2, 3, -3])
        if not word or let != -word[-1]:
            word.append(let)
    return tuple(word)


def test_join_reduced_matches_free_reduce(rng):
    """The junction join of freely reduced words is their free reduction,
    on drawn words and on the cancelling shapes drawn words rarely give."""
    cases = [((), ()), ((1, 2), ()), ((), (-2, 3)), ((1, 2), (-2, -1)), ((1,), (-1, 2))]
    for _ in range(400):
        a = drawn_reduced_word(rng, rng.randrange(12))
        b = drawn_reduced_word(rng, rng.randrange(12))
        cut = rng.randrange(len(a) + 1)
        # total cancellation, an empty side, and b starting with the inverse
        # of a's last `len(a) - cut` letters
        cases += [(a, b), (a, invert_word(a)), (a, ()), ((), b),
                  (a, free_reduce(invert_word(a[cut:]) + b))]
    shapes = set()
    for a, b in cases:
        assert join_reduced((a, b)) == free_reduce(a + b), (a, b)
        cancelled = (len(a) + len(b) - len(free_reduce(a + b))) // 2
        shapes.add((not a, not b, cancelled == min(len(a), len(b)) > 0, cancelled > 0))
    assert {(True, False, False, False), (False, True, False, False),
            (False, False, True, True), (False, False, False, True)} <= shapes
    for _ in range(200):
        words = []
        for _ in range(rng.randrange(6)):
            prev = words[-1] if words else ()
            cut = rng.randrange(len(prev) + 1)
            words.append(free_reduce(invert_word(prev[cut:])
                                     + drawn_reduced_word(rng, rng.randrange(8))))
        assert join_reduced(iter(words)) == free_reduce(let for w in words for let in w)


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


# ---------------------------------------------------------------------------
# reference: the word codec read one token at a time through partition and
# int(), and written one run at a time through the f-string; the token table
# must give the same words, the same strings and the same exception types
# ---------------------------------------------------------------------------

def reference_format(word, names):
    parts = []
    i = 0
    while i < len(word):
        let = word[i]
        j = i
        while j < len(word) and word[j] == let:
            j += 1
        exp = (j - i) * (1 if let > 0 else -1)
        name = names[abs(let) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)


def reference_parse(text, names):
    if not isinstance(text, str):
        raise TypeError(f"word {text!r} is not a string")
    index = {name: i + 1 for i, name in enumerate(names)}
    runs = []
    length = 0
    for token in text.replace(",", " ").split():
        name, caret, exp = token.partition("^")
        let = index.get(name)
        if let is None:
            raise ValueError(f"unknown letter {name!r} in a word")
        try:
            power = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
        runs.append((let if power > 0 else -let, abs(power)))
        length += abs(power)
    if length > WORD_BUDGET:
        raise ValueError(f"a word of {length} letters is over the budget")
    letters = []
    for let, n in runs:
        letters.extend([let] * n)
    return tuple(letters)


def raised(parse, text, names):
    """The type of the exception parse raises on text, None if it returns."""
    try:
        parse(text, names)
    except Exception as exc:
        return type(exc)
    return None


X12_NAMES = tuple(f"x{i}" for i in range(1, 13))


def random_run_word(rng, size):
    """Up to 8 runs of mixed signs, each of 1 to 30 letters (mostly 1)."""
    word = []
    for _ in range(rng.randrange(9)):
        length = rng.choice((1, 1, 1, 2, rng.randrange(1, 31)))
        word.extend([rng.choice((1, -1)) * rng.randrange(1, size + 1)] * length)
    return tuple(word)


def test_codec_matches_reference_on_random_words(rng):
    for names in (PQ_NAMES, ("h1", "h2", "x"), X12_NAMES):
        for _ in range(300):
            word = random_run_word(rng, len(names))
            text = format_word(word, names)
            assert text == reference_format(word, names)
            assert parse_word(text, names) == reference_parse(text, names) == word
    # x1 is a prefix of x10, x11 and x12, and each has a token of its own
    clash = (1, 10, 10, -10, 1, -1, -1, 11, -12)
    text = format_word(clash, X12_NAMES)
    assert text == reference_format(clash, X12_NAMES) == "x1 x10^2 x10^-1 x1 x1^-2 x11 x12^-1"
    assert parse_word(text, X12_NAMES) == clash


def test_codec_matches_reference_on_hand_written_texts():
    names = ("x", "x1", "x2")
    for text in ("x^1", "x^-1", "x^+2", "x^0", "x^1_0", "x1,,x2^3", "x^-1 x^1 x x^-0",
                 "  x x1^-1 ", "\tx2,\n", "", " , "):
        assert parse_word(text, names) == reference_parse(text, names), text
    for text in ("pq", "p^x", "p^", "^2", "p^^2", "p^-1^2", "p^1.0", "P", 5, None, b"p"):
        kind = raised(reference_parse, text, PQ_NAMES)
        assert kind is not None, text
        assert raised(parse_word, text, PQ_NAMES) is kind, text
    # a name holding ^ is never read back whole: the token splits at its ^
    assert raised(reference_parse, "a^b", ("a^b", "a")) is ValueError
    assert raised(parse_word, "a^b", ("a^b", "a")) is ValueError


def test_parse_budget_edge(monkeypatch):
    # the table path adds bare, ^1 and ^-1 tokens one letter at a time; a
    # token that would pass the budget is refused, exactly at the edge
    monkeypatch.setattr(heq.freewords, "WORD_BUDGET", 10)
    assert parse_word("p " * 10, PQ_NAMES) == (1,) * 10
    assert parse_word("p^4 q^-6", PQ_NAMES) == (1,) * 4 + (-2,) * 6
    assert parse_word("p^-1 " * 9 + "q^1", PQ_NAMES) == (-1,) * 9 + (2,)
    for text in ("p " * 11, "p^5 p^6", "p^11", "p^-1 " * 11, "p^10 q", "p^-1 p^10"):
        with pytest.raises(ValueError, match="budget"):
            parse_word(text, PQ_NAMES)


def test_token_table_memo_is_bounded():
    # reports bring their own x1..xn alphabets; the memo keeps at most maxsize
    maxsize = _token_table.cache_info().maxsize
    for n in range(1, 2 * maxsize + 2):
        names = tuple(f"x{i}" for i in range(1, n + 1))
        assert parse_word(f"x{n}^-1 x1", names) == (-n, 1)
        assert format_word((-n, 1), names) == f"x{n}^-1 x1"
    assert 0 < _token_table.cache_info().currsize <= maxsize


def test_substitute_run_path_matches_reference(rng, monkeypatch):
    """Relators with and without runs, runs of both signs, over words that
    are conjugates, empty, proper powers or not freely reduced, on both
    sides of the length rule that picks the run path, against the
    letterwise reference."""
    taken = []
    run_powers = heq.freewords._run_powers

    def counting(relator, ws):
        taken.append(relator)
        return run_powers(relator, ws)

    monkeypatch.setattr(heq.freewords, "_run_powers", counting)
    fixed = [(1, 3, -1), (), (2, 2, 2), (1, 3, 1, 3), (1, -1, 3), (3, 2, -2, -3, 1),
             (-2, 1, 3, 2), (1, 2, -1, -2)]
    letters = [1, -1, 2, -2, 3, -3]
    relators = []
    for _ in range(300):
        ws = fixed + [tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
                      for _ in range(rng.randrange(4))]
        rng.shuffle(ws)
        relator: list[int] = []
        # runs of 1..12 letters, or of one letter only, in relators long and
        # short enough that either kind falls on either side of the rule
        longest = rng.choice((1, 2, 12))
        for _ in range(rng.randrange(1, 45)):
            let = rng.choice((1, -1)) * rng.randrange(1, len(ws) + 1)
            if relator and let == relator[-1]:
                let = -let
            relator += [let] * rng.randrange(1, longest + 1)
        relator = tuple(relator)
        relators.append(relator)
        assert substitute(relator, ws) == substitute_reference(relator, ws), (relator, ws)
    # the rule at its edges: 32 and 31 letters, in 2 runs and in one-letter
    # runs only
    ws = fixed
    no_runs = (1, 2, -3, 4, 5, -6, 7, 8) * 4
    edges = {(2,) * 16 + (-7,) * 16: True,
             (2,) * 16 + (-7,) * 15: False,
             no_runs: True,
             no_runs[:-1]: False}
    assert {len(r) for r in edges} == {RUN_MIN_LETTERS, RUN_MIN_LETTERS - 1}
    for relator, run_path in edges.items():
        relators.append(relator)
        before = len(taken)
        assert substitute(relator, ws) == substitute_reference(relator, ws), relator
        assert (len(taken) > before) == run_path, relator
    # each relator goes run by run exactly when the rule says so, with and
    # without runs
    rule = {r for r in relators if len(r) >= RUN_MIN_LETTERS}
    assert set(taken) == rule
    assert 100 < len(rule) < len(relators) - 100
    assert sum(all(a != b for a, b in zip(r, r[1:])) for r in rule) > 10
    # an out-of-range letter after a run raises on both paths
    for relator in ((1,) * 40 + (9,), (1,) * 40 + (-2, 0), (1, 2, 9), (-1, 0)):
        with pytest.raises(IndexError):
            substitute(relator, ws)
        with pytest.raises(IndexError):
            substitute_reference(relator, ws)
    assert (1,) * 40 + (9,) in taken and (1, 2, 9) not in taken
