"""Per-vertex and per-cell reference for the step kernel and the gradient tables.

The package builds both from one integer corner-harmonic table with batched
NumPy; this module keeps the loop form, one vertex or one cell at a time with
exact Fraction clock rates, so the tests can require byte equality.
"""

import math
from fractions import Fraction

import fraction_oracle
import numpy as np
import scipy.sparse as sp
from traversal_oracle import cell_leaves

from gasketlab.exact import A_INT
from gasketlab.harmonic import harmonic_extend_to_level
from gasketlab.walk import StepKernel, step_duration


def step_kernel(g) -> StepKernel:
    m = g.level
    n = g.n_vertices
    h_exact = [harmonic_extend_to_level(
        tuple(Fraction(1 if j == i else 0) for j in range(3)), m, g) for i in range(3)]
    hf = np.array([[float(h_exact[i][v]) for i in range(3)] for v in range(n)])

    nbr = np.zeros((n, 4), dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    dWm = np.zeros((n, 4))
    dqv = np.zeros(n)
    direction = np.zeros((n, 3))

    for x in range(n):
        ns = list(g.neighbors_of[x])
        d = len(ns)
        deg[x] = d
        nbr[x, :d] = ns
        if d < 4:
            nbr[x, d:] = x
        acc = Fraction(0)
        for i in range(3):
            for y in ns:
                diff = h_exact[i][y] - h_exact[i][x]
                acc += diff * diff
        dqv[x] = float(acc / (6 * d))

        dh = hf[ns] - hf[x]
        mbar = dh.mean(axis=0)
        cov = dh.T @ dh / d - np.outer(mbar, mbar)
        e = np.linalg.eigh(cov)[1][:, -1]
        if abs(e[0]) < 1e-13:
            if e[1] < 0:
                e = -e
        elif e[0] > 0:
            e = -e
        raw = (dh - mbar) @ e
        raw -= raw.mean()
        scale = math.sqrt(dqv[x] / float((raw * raw).mean()))
        dWm[x, :d] = raw * scale
        direction[x] = e

    isb = np.zeros(n, dtype=bool)
    isb[list(g.boundary_ids)] = True
    mu_w = deg.astype(float) / deg.sum()

    real = np.arange(4) < deg[:, None]
    rows = np.repeat(np.arange(n), deg)
    weight = 1.0 / deg[rows]
    pmat = sp.csr_matrix((weight, (rows, nbr[real])), shape=(n, n))
    qmat = sp.csr_matrix((weight * dWm[real], (rows, nbr[real])), shape=(n, n))

    return StepKernel(
        level=m, dt=step_duration(m), nbr=nbr, deg=deg, dW=dWm, dqv=dqv,
        direction=direction, is_boundary=isb,
        mu_weight=mu_w, h_values=hf, P=pmat, Q=qmat,
    )


def gradient_tables(g):
    """(corners, nu, pattern) of CellGradientTables, one cell at a time."""
    words = list(g.cells)
    corners = np.array([g.cells[w] for w in words], dtype=np.int64)
    pf = np.array([[float(x) for x in row] for row in fraction_oracle.P])
    nus = np.empty(len(words))
    pats = np.empty((len(words), 3))
    columns = dict(cell_leaves(g.level, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (A_INT,) * 3))
    den = 5**g.level
    for k, w in enumerate(words):
        aw = np.array([[col[r] / den for col in columns[w]] for r in range(3)])
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
    return corners, nus, pats


def moment_defects(kernel):
    """Worst conditional-mean and second-moment defects of dW, one vertex at a time."""
    worst_mean = 0.0
    worst_second = 0.0
    for x in range(kernel.n_vertices):
        d = kernel.deg[x]
        w = kernel.dW[x, :d]
        worst_mean = max(worst_mean, abs(float(w.mean())))
        second = float((w * w).mean())
        worst_second = max(worst_second,
                           abs(second - kernel.dqv[x]) / max(kernel.dqv[x], 1e-300))
    return worst_mean, worst_second
