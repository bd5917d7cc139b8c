"""Two-branch reference for the walk step.

The package's `walk_steps` has one loop body: killed paths stop by reading
a copy of the neighbour table whose V_0 rows point to themselves, and the
neighbour index is the plain floor of u * deg. This module keeps the older
form, one branch per mode, a mask that holds stopped paths in place and a
clamp on the index, so the tests can require byte equality.
"""

import numpy as np


def walk_steps(kernel, pos, n_steps, rng, killed):
    deg, isb = kernel.deg, kernel.is_boundary
    nbr = kernel.nbr.ravel()
    live = np.ones(len(pos), dtype=bool) if killed else None
    for k in range(n_steps):
        u = rng.random(len(pos))
        d = deg[pos]
        j = np.minimum((u * d).astype(np.int64), d - 1)
        slot = 4 * pos + j
        if killed:
            pos = np.where(live, nbr[slot], pos)
            yield k, slot, live, pos
            live = live & ~isb[pos]
        else:
            pos = nbr[slot]
            yield k, slot, None, pos
