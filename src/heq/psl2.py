"""Exact arithmetic in PSL2(Z).

Elements are 2x2 integer matrices of determinant 1 taken modulo the center
{I, -I}.  A ProjMat2 is the tuple (e11, e12, e21, e22) of its entries,
stored sign-normalized: the first nonzero entry in reading order is
positive, which makes the class representative unique, so tuple equality
and hashing are equality and hashing in PSL2(Z), and a matrix equals the
plain 4-tuple of its entries.  All entries are plain Python integers, so
there is no overflow anywhere.

Only the public constructors ProjMat2(...) and ProjMat2.from_rows (which
reads every JSON matrix, on the command line and in reports) check the
determinant.  Products and inverses are trusted: det(AB) = det A * det B = 1
and the adjugate of a determinant-1 matrix has determinant 1, so they are
only sign-normalized.  Every word value in the pipeline (equations.evaluate,
the coefficients of equations.reduce_equation, words.eval_ab,
freewords.pq_to_matrix) is multiplied out by _product over the letters'
entries, as plain ints, with one sign normalization at the end.  Only the
enumeration oracle keeps its own entry arithmetic, so that it stays an
independent cross-check.

The letter tables that _product and the oracle's ball loop over once per
letter (HContext._entries, which HContext.letter_matrix and so
enumeration._ball read, words._SYLLABLE_ENTRIES and freewords._PQ_ENTRIES)
hold tuple(m), an exact tuple, not the ProjMat2: CPython unpacks an exact
tuple faster than an instance of a tuple subclass, and a ProjMat2 equals
its tuple, so one table serves as both.  Elsewhere matrices go to _product
as they are.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable

Entries = tuple[int, int, int, int]


class NotUnimodular(ValueError):
    """Raised when a raw matrix does not have determinant 1."""


class ProjMat2(tuple):
    """A sign-normalized element of PSL2(Z): the tuple (e11, e12, e21, e22).

    tuple supplies immutability, equality and hashing, so a matrix equals
    the plain 4-tuple of its entries; e11..e22 name the four items.
    """

    __slots__ = ()

    def __new__(cls, e11: int, e12: int, e21: int, e22: int) -> "ProjMat2":
        det = e11 * e22 - e12 * e21
        if det != 1:
            raise NotUnimodular(
                f"determinant is {det}, expected 1: [[{e11},{e12}],[{e21},{e22}]]"
            )
        return _trusted(e11, e12, e21, e22)

    e11 = property(itemgetter(0))
    e12 = property(itemgetter(1))
    e21 = property(itemgetter(2))
    e22 = property(itemgetter(3))

    @classmethod
    def from_rows(cls, rows) -> "ProjMat2":
        """The inverse of rows(): read [[e11, e12], [e21, e22]].

        Raises TypeError unless rows is a list of two lists of two ints
        (floats and bools are refused), NotUnimodular unless the
        determinant is 1.
        """
        if (not isinstance(rows, list) or len(rows) != 2
                or any(not isinstance(row, list) or len(row) != 2 for row in rows)
                or any(type(x) is not int for row in rows for x in row)):
            raise TypeError(f"{rows!r} is not [[a,b],[c,d]] with integer entries")
        (e11, e12), (e21, e22) = rows
        return cls(e11, e12, e21, e22)

    def __getnewargs__(self) -> Entries:
        # copy and pickle call __new__ with these; tuple's own would pass
        # the entries as one argument
        return tuple(self)

    def rows(self) -> list[list[int]]:
        e11, e12, e21, e22 = self
        return [[e11, e12], [e21, e22]]

    def __mul__(self, other: "ProjMat2") -> "ProjMat2":
        a, b, c, d = self
        e, f, g, h = other
        return _trusted(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inv(self) -> "ProjMat2":
        # adjugate; determinant is 1 so no division is needed
        e11, e12, e21, e22 = self
        return _trusted(e22, -e12, -e21, e11)

    def __repr__(self) -> str:
        return "ProjMat2({}, {}, {}, {})".format(*self)

    def __str__(self) -> str:
        return "[[{},{}],[{},{}]]".format(*self)


_new = tuple.__new__


def _trusted(e11: int, e12: int, e21: int, e22: int) -> ProjMat2:
    """ProjMat2 of a matrix whose determinant is 1 by construction,
    sign-normalized.  With determinant 1, e11 and e12 are never both 0, so
    the first nonzero entry is e11 or e12."""
    if e11 < 0 or (e11 == 0 and e12 < 0):
        return _new(ProjMat2, (-e11, -e12, -e21, -e22))
    return _new(ProjMat2, (e11, e12, e21, e22))


def _product(factors: Iterable[Entries]) -> ProjMat2:
    """The product of a sequence of determinant-1 entry 4-tuples or
    matrices, multiplied as plain ints and sign-normalized once at the end."""
    a, b, c, d = 1, 0, 0, 1
    for e, f, g, h in factors:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return _trusted(a, b, c, d)


IDENTITY = ProjMat2(1, 0, 0, 1)

# The fixed generators of PSL2(Z) = C2 * C3 and the free basis of the
# commutator subgroup F (kernel of the abelianization onto C2 x C3):
#   a^2 = b^3 = 1,  p = a b^2 a b,  q = b a b^2 a.
MAT_A = ProjMat2(0, -1, 1, 0)
MAT_B = ProjMat2(1, -1, 1, 0)
MAT_P = ProjMat2(2, -1, -1, 1)
MAT_Q = ProjMat2(2, 1, 1, 1)


def order(m: ProjMat2) -> int | float:
    """Torsion order of m in PSL2(Z): one of 1, 2, 3 or math.inf.

    The answer is read off the trace of the normalized representative
    (0 -> order 2, +-1 -> order 3, anything else nontrivial -> infinite) and
    then re-verified by explicit powering, so it does not depend on the
    trace criterion being right.
    """
    if m == IDENTITY:
        return 1
    tr = abs(m.e11 + m.e22)
    if tr == 0:
        guess: int | float = 2
    elif tr == 1:
        guess = 3
    else:
        guess = math.inf
    m2 = m * m
    m3 = m2 * m
    if guess == 2:
        confirmed = m2 == IDENTITY
    elif guess == 3:
        confirmed = m2 != IDENTITY and m3 == IDENTITY
    else:
        confirmed = m2 != IDENTITY and m3 != IDENTITY
    if not confirmed:
        raise RuntimeError(f"trace criterion gave order {guess} for {m}")
    return guess
