"""Full-width, mask-form reference for the walk step.

The package's `walk_steps` keeps an index array of live paths and reads the
four steps of a block from tables. This module keeps every path in one array
and composes four single steps per block: each block draws live.sum() bytes
from the raw 64-bit words (little-endian), hands them to the live paths in
index order, and substep s takes neighbour j = (byte >> 2s) mod deg at the
path's current vertex. Stopped paths are held in place with a mask. A block
of r < 4 steps (the tail) uses the first r substeps of its bytes.

It yields (k, r, live, slot, pos, hit_step) per block over all paths: live
is the mask of paths drawn for (None in reflected mode), slot and pos are
(r, n) with slot -1 where a path did not step, and hit_step is the first
V_0 arrival step so far, or -1. The tests require byte equality after
scattering the package's compacted yields.
"""

import numpy as np


def _bytes(rng, n):
    raw = rng.bit_generator.random_raw((n + 7) // 8)
    return np.frombuffer(raw.astype("<u8").tobytes(), dtype=np.uint8)[:n].astype(np.int64)


def walk_steps(kernel, pos, n_steps, rng, killed):
    deg, isb, nbr = kernel.deg, kernel.is_boundary, kernel.nbr
    n = len(pos)
    pos = pos.copy()
    live = np.ones(n, dtype=bool)
    hit_step = np.full(n, -1, dtype=np.int64)
    for k in range(0, n_steps, 4):
        r = min(4, n_steps - k)
        drawn = live.copy()
        byte = np.zeros(n, dtype=np.int64)
        byte[drawn] = _bytes(rng, int(drawn.sum()))
        slot = np.full((r, n), -1, dtype=np.int64)
        path = np.empty((r, n), dtype=np.int64)
        for s in range(r):
            j = (byte >> 2 * s) % deg[pos]
            slot[s] = np.where(live, 4 * pos + j, -1)
            pos = np.where(live, nbr[pos, j], pos)
            path[s] = pos
            if killed:
                arrived = live & isb[pos]
                hit_step[arrived] = k + s + 1
                live = live & ~arrived
        yield k, r, drawn if killed else None, slot, path, hit_step.copy()
