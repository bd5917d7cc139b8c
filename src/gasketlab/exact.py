"""Exact 3x3 kernel on integer numerators, shared by the gasket, harmonic and
measure modules.

A_i = A_INT[i]/5, P = P_INT/3, Y_i = P A_i P = Y_INT[i]/5, and the midpoint
map F_i on a cell's corner coordinates is MID_INT[i]/2. A state is a 3-vector
of ints over one denominator: 5^k * d after k restriction steps from data
with common denominator d (3 * 5^k on the Y-route, which starts from P; 2^k * d
on the midpoint route). Fractions are built only at the API boundary;
normalised Fractions are canonical, so they equal what step-by-step Fraction
arithmetic gives.

`cell_leaves` is the one cell-tree traversal, level-order in int64. Only
fixed routes travel it: the unit triples down A and P down Y (in
`route_table` alone), corner coordinates down the midpoint maps. Up to each
route's level guard every entry and sum of squares stays far below 2^63
(A-route entries are at most 5^m; a test bounds all three in Python ints).
User data enters int64 only under a bound: by linearity its leaf states are
the unit-triple leaves times its integer numerators (`times_numerators`), in
int64 when max|leaf| sum|nums| < 2^29, else in Python ints, as single words.

Word convention: a cell word w = w1 w2 ... wm over {1,2,3} addresses the cell
F_{w1} o F_{w2} o ... o F_{wm} (unit gasket). Restriction matrices compose in
the reversed order, M_[w] = M_{wm} ... M_{w1}, i.e. the first letter acts
first on boundary data.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np

from .errors import UsageError

IntMat = tuple[tuple[int, int, int], ...]

# Projection onto the mean-zero plane: P = I - (1/3) ones, over 3.
P_INT: IntMat = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
BASIS: IntMat = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the unit triples; A_[w] are their leaves

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


# Y_i = P A_i P = (P_INT A_INT[i] P_INT) / 45, and every entry divides by 9.
Y_INT: dict[int, IntMat] = {
    i: tuple(map(tuple, (np.array(P_INT) @ a @ np.array(P_INT) // 9).tolist()))
    for i, a in A_INT.items()
}


def as_rational(x) -> Fraction:
    """x as a Fraction, a float at its exact binary value. UsageError for NaN,
    an infinity, None or anything else that is not a finite rational."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise UsageError(f"{x!r} is not a finite rational") from exc


def to_numerators(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators of rational `values` over the lcm of their
    denominators (see as_rational)."""
    fr = [x if type(x) in (int, Fraction) else as_rational(x) for x in values]
    d = math.lcm(*[x.denominator for x in fr])
    return tuple([x.numerator * (d // x.denominator) for x in fr]), d


def _imat_vec(x: IntMat, v) -> tuple[int, int, int]:
    a, b, c = v
    r0, r1, r2 = x
    return (r0[0] * a + r0[1] * b + r0[2] * c,
            r1[0] * a + r1[1] * b + r1[2] * c,
            r2[0] * a + r2[1] * b + r2[2] * c)


def pairwise_sq(v) -> int:
    """sum_{i<j} (v_i - v_j)^2 = 3 v^T P v, for integer v, or elementwise for
    v[0], v[1], v[2] integer arrays."""
    d01, d02, d12 = v[0] - v[1], v[0] - v[2], v[1] - v[2]
    return d01 * d01 + d02 * d02 + d12 * d12


def restrict_states(word: str, states: tuple, gens: dict[int, IntMat]) -> tuple:
    """Carry integer states down one word: letter i moves every state by
    gens[i], A_INT or Y_INT, so each letter puts a factor 5 on its denominator."""
    for s in word:
        g = gens[int(s)]
        states = tuple([_imat_vec(g, v) for v in states])
    return states


def cell_leaves(m: int, root, gens: dict[int, IntMat]) -> tuple[list[str], np.ndarray]:
    """Words and leaf states of every level-m cell, in lexicographic order.

    The rows of `root` are the root's k states; a child's states are gens[i]
    times its parent's, as in `restrict_states`. Level by level, all cells of
    a level are one int64 array, made by one product with the three maps
    side by side. Returns the 3^m words and a (3^m, 3, k) array, [c, :, j]
    being cell c's state j over 5^m (2^m for MID_INT) times the root's
    denominators. Reversed, both are in depth-first order. UsageError for a
    negative m, whose tree has no leaves.
    """
    if m < 0:
        raise UsageError(f"level {m} is negative")
    k = len(root)
    # a state row v times maps is the row (G1 v, G2 v, G3 v)
    maps = np.hstack([np.array(gens[i], dtype=np.int64).T for i in (1, 2, 3)])
    words = [""]
    states = np.array(root, dtype=np.int64)  # (cells * k, 3): one state per row
    for _ in range(m):
        # rows (parent, state) x columns (child, corner) -> rows (parent, child, state)
        states = (states @ maps).reshape(-1, k, 3, 3).transpose(0, 2, 1, 3).reshape(-1, 3)
        words = [w + s for w in words for s in "123"]
    return words, states.reshape(-1, k, 3).transpose(0, 2, 1)


@cache
def route_table(route: str, m: int) -> np.ndarray:
    """Read-only level-m table, rows in cell_words order, kept for the process:
    "A", BASIS down A_INT, the (3^m, 3, 3) leaves, 72 * 3^m bytes (0.16 MB at
    m = 7, 4.3 MB at 10); "Y", P down Y_INT, each leaf's sum of squares, 8 * 3^m."""
    _, table = cell_leaves(m, *{"A": (BASIS, A_INT), "Y": (P_INT, Y_INT)}[route])
    if route == "Y":
        table = (table * table).sum(axis=(1, 2))
    table.flags.writeable = False
    return table


@cache
def cell_words(m: int) -> tuple[str, ...]:
    """The level-m words in lexicographic order, kept (~70 bytes a word)."""
    return tuple(map("".join, product("123", repeat=m)))


def times_numerators(leaves: np.ndarray, nums) -> np.ndarray:
    """leaves @ nums, exact. On A-route leaves of BASIS this is, by linearity,
    the leaves of data with numerators nums. In int64 when
    max|leaf| * sum|nums| < 2^29: every entry is then below 2^29 and its
    pairwise_sq below 3 (2^30)^2 < 2^63. Else in Python ints (object dtype)."""
    if int(np.abs(leaves).max(initial=0)) * sum(map(abs, nums)) < 2**29:
        return leaves @ np.array(nums, dtype=np.int64)
    return leaves.astype(object) @ np.array(nums, dtype=object)


def fractions_over(nums, den: int) -> list[Fraction]:
    """[Fraction(n, den) for n in nums] for ints or an int array nums and a
    positive den (UsageError otherwise), built in bulk: one gcd reduces each
    pair (np.gcd for int64 nums and den), and each Fraction gets its coprime
    pair by setting its two slots, skipping Fraction.__new__'s normalisation.
    Fraction has no __dict__: were a slot renamed, the assignment would raise."""
    if den <= 0:
        raise UsageError(f"denominator {den} is not positive")
    if isinstance(nums, np.ndarray) and nums.dtype == np.int64 and den < 2**63:
        g = np.gcd(nums, den)
        pairs = zip((nums // g).tolist(), (den // g).tolist())
    else:
        ints = nums.tolist() if isinstance(nums, np.ndarray) else nums
        pairs = ((n // g, den // g) for n in ints for g in (math.gcd(n, den),))
    new, out = object.__new__, []
    for n, d in pairs:
        f = new(Fraction)
        f._numerator, f._denominator = n, d
        out.append(f)
    return out


def quad_form_p(v) -> Fraction:
    """v^T P v = (1/3) sum_{i<j} (v_i - v_j)^2; exact for rational inputs."""
    nums, d = to_numerators(v)
    return Fraction(pairwise_sq(nums), 3 * d * d)


def validate_word(word: str) -> str:
    if not all(c in "123" for c in word):
        raise UsageError(f"cell word must use symbols 1,2,3 only: {word!r}")
    return word
