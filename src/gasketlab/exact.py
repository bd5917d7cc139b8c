"""Exact 3x3 kernel on integer numerators, shared by the gasket, harmonic and
measure modules.

A_i = A_INT[i]/5, P = P_INT/3, Y_i = P A_i P = Y_INT[i]/5, and the midpoint
map F_i on a cell's corner coordinates is MID_INT[i]/2. A state is a 3-vector
of ints over one denominator: 5^k * d after k restriction steps from data
with common denominator d (3 * 5^k on the Y-route, which starts from P; 2^k * d
on the midpoint route). `cell_leaves` is the one cell-tree traversal.
Fractions are built only at the API boundary; normalised Fractions are
canonical, so they equal what step-by-step Fraction arithmetic gives.

Word convention: a cell word w = w1 w2 ... wm over {1,2,3} addresses the cell
F_{w1} o F_{w2} o ... o F_{wm} (unit gasket). Restriction matrices compose in
the reversed order, M_[w] = M_{wm} ... M_{w1}, i.e. the first letter acts
first on boundary data.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import UsageError

IntMat = tuple[tuple[int, int, int], ...]

# Projection onto the mean-zero plane: P = I - (1/3) ones, over 3.
P_INT: IntMat = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

# Harmonic restriction matrices over 5: row j of A_i gives the harmonic value
# at the j-th corner image of cell i in terms of the three parent corner values.
A_INT: dict[int, IntMat] = {
    1: ((5, 0, 0), (2, 2, 1), (2, 1, 2)),
    2: ((2, 2, 1), (0, 5, 0), (1, 2, 2)),
    3: ((2, 1, 2), (1, 2, 2), (0, 0, 5)),
}


# Midpoint matrices over 2: row j of MID_INT[i] is e_j + e_i, so the child's
# j-th corner is the midpoint of the parent's corners j and i, and corner i
# stays put.
MID_INT: dict[int, IntMat] = {
    i: tuple(tuple((k == j) + (k == i - 1) for k in range(3)) for j in range(3))
    for i in (1, 2, 3)
}


def _imat_mul(x: IntMat, y: IntMat) -> IntMat:
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] + x[i][2] * y[2][j] for j in range(3))
        for i in range(3)
    )


# Y_i = P A_i P = (P_INT A_INT[i] P_INT) / 45, and every entry divides by 9.
Y_INT: dict[int, IntMat] = {
    i: tuple(tuple(x // 9 for x in row) for row in _imat_mul(_imat_mul(P_INT, a), P_INT))
    for i, a in A_INT.items()
}


class RatMat(tuple):
    """A 3x3 matrix as a tuple of Fraction rows that keeps its integer
    numerators `num` over the single denominator `den`."""

    def __new__(cls, num: IntMat, den: int):
        self = super().__new__(cls, (tuple(Fraction(x, den) for x in row) for row in num))
        self.num, self.den = num, den
        return self


P_MAT = RatMat(P_INT, 3)
A_MATS: dict[int, RatMat] = {i: RatMat(a, 5) for i, a in A_INT.items()}
Y_MATS: dict[int, RatMat] = {i: RatMat(y, 5) for i, y in Y_INT.items()}


def to_numerators(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators of rational `values` over the lcm of their
    denominators; a float is taken at its exact binary value."""
    fr = [x if type(x) in (int, Fraction) else Fraction(x) for x in values]
    d = math.lcm(*[x.denominator for x in fr])
    return tuple([x.numerator * (d // x.denominator) for x in fr]), d


def _imat_vec(x: IntMat, v) -> tuple[int, int, int]:
    a, b, c = v
    r0, r1, r2 = x
    return (r0[0] * a + r0[1] * b + r0[2] * c,
            r1[0] * a + r1[1] * b + r1[2] * c,
            r2[0] * a + r2[1] * b + r2[2] * c)


def pairwise_sq(v) -> int:
    """sum_{i<j} (v_i - v_j)^2 = 3 v^T P v, for integer v."""
    d01, d02, d12 = v[0] - v[1], v[0] - v[2], v[1] - v[2]
    return d01 * d01 + d02 * d02 + d12 * d12


_SYMBOLS = ((1, "1"), (2, "2"), (3, "3"))


def _child(i: int, states: tuple, gens: tuple) -> tuple:
    return tuple([_imat_vec(g[i], v) for g, v in zip(gens, states)])


def restrict_states(word: str, states: tuple, gens: tuple) -> tuple:
    """Carry integer states down one word: state k moves by gens[k][symbol],
    A_INT or Y_INT, so each letter puts a factor 5 on its denominator."""
    for s in word:
        states = _child(int(s), states, gens)
    return states


def cell_leaves(m: int, states: tuple, gens: tuple):
    """Yield (word, states) for every level-m cell, depth first, so in reverse
    lexicographic order.

    The root carries `states`; a child's state k is gens[k][i] times its
    parent's, as in `restrict_states`. Leaf states are integer numerators
    over 5^m (2^m for MID_INT) times the root's denominators. UsageError
    for a negative m, whose tree has no leaves.
    """
    if m < 0:
        raise UsageError(f"level {m} is negative")
    stack = [("", states)]
    while stack:
        word, st = stack.pop()
        if len(word) == m:
            yield word, st
        else:
            stack.extend([(word + s, _child(i, st, gens)) for i, s in _SYMBOLS])


def mat_mul(x: RatMat, y: RatMat) -> RatMat:
    return RatMat(_imat_mul(x.num, y.num), x.den * y.den)


def mat_vec(x: RatMat, v) -> tuple[Fraction, Fraction, Fraction]:
    """x v for a rational vector v, exact."""
    nums, d = to_numerators(v)
    den = x.den * d
    return tuple([Fraction(n, den) for n in _imat_vec(x.num, nums)])


def quad_form_p(v) -> Fraction:
    """v^T P v = (1/3) sum_{i<j} (v_i - v_j)^2; exact for rational inputs."""
    nums, d = to_numerators(v)
    return Fraction(pairwise_sq(nums), 3 * d * d)


def validate_word(word: str) -> str:
    if not all(c in "123" for c in word):
        raise UsageError(f"cell word must use symbols 1,2,3 only: {word!r}")
    return word
