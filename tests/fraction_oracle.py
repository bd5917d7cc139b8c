"""Step-by-step Fraction reference for the exact layer.

The package carries integer numerators over one denominator; this module
redoes the same cell-tree walks with Fraction matrices and vectors, one
Fraction operation at a time, so the tests can require `==` between the two.
"""

from fractions import Fraction

import numpy as np


def _mat(rows, den):
    return tuple(tuple(Fraction(x, den) for x in r) for r in rows)


P = _mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3)
A = {
    1: _mat([[5, 0, 0], [2, 2, 1], [2, 1, 2]], 5),
    2: _mat([[2, 2, 1], [0, 5, 0], [1, 2, 2]], 5),
    3: _mat([[2, 1, 2], [1, 2, 2], [0, 0, 5]], 5),
}
IDENTITY = _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)


def mat_mul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def mat_vec(x, v):
    return tuple(sum(x[i][k] * v[k] for k in range(3)) for i in range(3))


Y = {i: mat_mul(mat_mul(P, A[i]), P) for i in (1, 2, 3)}


def quad_form_p(v):
    d01, d02, d12 = v[0] - v[1], v[0] - v[2], v[1] - v[2]
    return (d01 * d01 + d02 * d02 + d12 * d12) / 3


def leaves(m, seed, extend):
    """Depth-first (word, product) over the level-m cells."""
    stack = [("", seed)]
    while stack:
        w, prod = stack.pop()
        if len(w) == m:
            yield w, prod
        else:
            for i in (1, 2, 3):
                stack.append((w + str(i), extend(i, prod)))


def triple(u):
    return tuple(Fraction(x) for x in u)


def energy_table(u, m):
    scale = Fraction(3, 2) * Fraction(5, 3) ** m
    return {w: scale * quad_form_p(t)
            for w, t in leaves(m, triple(u), lambda i, t: mat_vec(A[i], t))}


def kusuoka_table(m):
    scale = Fraction(1, 2) * Fraction(5, 3) ** m
    return {w: scale * sum(x * x for row in y for x in row)
            for w, y in leaves(m, P, lambda i, y: mat_mul(Y[i], y))}


def extension(u, g):
    vals = [None] * g.n_vertices
    for w, t in leaves(g.level, triple(u), lambda i, t: mat_vec(A[i], t)):
        for vid, val in zip(g.cells[w], t):
            assert vals[vid] is None or vals[vid] == val
            vals[vid] = val
    return vals


def a_product(word):
    m = IDENTITY
    for s in word:
        m = mat_mul(A[int(s)], m)
    return m


def gradient_tables(g):
    """(nu, pattern) float arrays as built from Fraction A-products."""
    words = list(g.cells)
    pf = np.array([[float(x) for x in row] for row in P])
    nus = np.empty(len(words))
    pats = np.empty((len(words), 3))
    for k, w in enumerate(words):
        aw = np.array([[float(x) for x in row] for row in a_product(w)])
        b = pf @ aw
        nus[k] = 0.5 * (5.0 / 3.0) ** g.level * (b * b).sum()
        uu, _, _ = np.linalg.svd(b)
        e = uu[:, 0]
        d = e @ b[:, 0]
        if abs(d) < 1e-13:
            if e @ b[:, 1] < 0:
                e = -e
        elif d > 0:
            e = -e
        pats[k] = e
    return nus, pats


def seeded_triples(seed, count=4):
    """Fixed triples with zero, negative, integer, string and float entries,
    then `count` seeded rational ones."""
    rng = np.random.default_rng(seed)
    out = [(0, -3, 7), ("1/3", 0.1, -2), (Fraction(-4, 9), "5/7", 0), (2, 2, 2)]
    for _ in range(count):
        out.append(tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                         for _ in range(3)))
    return out
