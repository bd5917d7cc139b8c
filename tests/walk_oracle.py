"""Full-width, mask-form reference for the walk step.

The package's walk loop, `walk._simulate_block`, keeps an index array of
live paths and reads the four steps of a block from tables. This module
keeps every path in one array and composes four single steps per block:
each block draws live.sum() bytes from the raw 64-bit words
(little-endian), hands them to the live paths in index order, and substep
s takes neighbour j = (byte >> 2s) mod deg at the path's current vertex.
Stopped paths are held in place with a mask. A block of r < 4 steps (the
tail) uses the first r substeps of its bytes.

It yields (k, r, live, slot, pos, hit_step) per block over all paths: live
is the mask of paths drawn for (None in reflected mode), slot and pos are
(r, n) with slot -1 where a path did not step, and hit_step is the first
V_0 arrival step so far, or -1. The tests require byte equality with the
package's walk recorded at every layer.

`block_tables` is the code-by-code reference for the package's four-step
tables: it walks all 256*V codes through the four substeps in turn, where the
package builds each substep on the distinct low-bit prefixes of the byte.
"""

import numpy as np

from gasketlab.walk import BlockTables


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


def block_tables(kernel, killed, clock):
    """BlockTables over the codes 256*x + byte, one substep at a time over
    every code; clock is the per-slot clock over the 4V slots."""
    n_codes = 256 * kernel.n_vertices
    y, byte = np.divmod(np.arange(n_codes), 256)
    nbr, isb, mask = kernel.nbr.ravel(), kernel.is_boundary, kernel.deg - 1
    clock = np.append(clock, 0)  # slot 4V: a stopped path's substep
    pos = np.empty((4, n_codes), dtype=np.intp)
    sums = np.empty((4, n_codes), dtype=clock.dtype)
    hit = np.zeros(n_codes, dtype=np.uint8)
    for s in range(4):
        step = byte >> 2 * s
        step &= mask[y]
        step += 4 * y
        np.take(nbr, step, out=pos[s])
        if killed:
            stay = hit > 0
            step[stay] = len(nbr)
            pos[s][stay] = y[stay]
            hit[~stay & isb[pos[s]]] = s + 1
        np.take(clock, step, out=sums[s])
        if s:
            sums[s] += sums[s - 1]
        y = pos[s]
    return BlockTables(pos=pos, hit=hit, clock=sums)
