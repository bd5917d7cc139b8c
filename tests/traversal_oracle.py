"""Depth-first reference for the cell-tree traversal.

The package walks the tree level by level in int64 (`exact.cell_leaves`);
this module keeps the per-node Python-int generator, one tuple per tree
node, so the tests can require equal values in the same order.
"""

from gasketlab.errors import UsageError


def _imat_vec(x, v):
    a, b, c = v
    r0, r1, r2 = x
    return (r0[0] * a + r0[1] * b + r0[2] * c,
            r1[0] * a + r1[1] * b + r1[2] * c,
            r2[0] * a + r2[1] * b + r2[2] * c)


_SYMBOLS = ((1, "1"), (2, "2"), (3, "3"))


def _child(i: int, states: tuple, gens: tuple) -> tuple:
    return tuple([_imat_vec(g[i], v) for g, v in zip(gens, states)])


def cell_leaves(m: int, states: tuple, gens: tuple):
    """Yield (word, states) for every level-m cell, depth first, so in reverse
    lexicographic order.

    The root carries `states`; a child's state k is gens[k][i] times its
    parent's. Leaf states are integer numerators
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
