"""Full-width, mask-form reference for the walk step.

The package's `walk_steps` keeps an index array of live paths and steps only
those. This module keeps every path in one array, one branch per mode: each
step draws live.sum() bytes from the raw 64-bit words (little-endian), hands
them to the live paths in index order, takes neighbour j = byte mod deg and
holds stopped paths in place with a mask. It yields (k, live, slot, pos) over
all paths, with live None in reflected mode and slot -1 where a path did not
step, so the tests can require byte equality after scattering the package's
compacted yields.
"""

import numpy as np


def _bytes(rng, n):
    raw = rng.bit_generator.random_raw((n + 7) // 8)
    return np.frombuffer(raw.astype("<u8").tobytes(), dtype=np.uint8)[:n].astype(np.int64)


def walk_steps(kernel, pos, n_steps, rng, killed):
    deg, isb, nbr = kernel.deg, kernel.is_boundary, kernel.nbr
    pos = pos.copy()
    live = np.ones(len(pos), dtype=bool)
    for k in range(n_steps):
        if killed:
            j = np.zeros(len(pos), dtype=np.int64)
            j[live] = _bytes(rng, int(live.sum())) % deg[pos[live]]
            slot = np.where(live, 4 * pos + j, -1)
            pos = np.where(live, nbr[pos, j], pos)
            yield k, live.copy(), slot, pos
            live = live & ~isb[pos]
        else:
            j = _bytes(rng, len(pos)) % deg[pos]
            slot = 4 * pos + j
            pos = nbr[pos, j]
            yield k, None, slot, pos
