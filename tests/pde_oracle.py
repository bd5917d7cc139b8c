"""Reference weak-PDE solve: the layer loop the package replaced.

Each layer solves with the sparse boundary product and boolean masks, takes
the gradients in the (ncells, 3) layout, forms the nu-average through the
sparse cell incidence, and evaluates the IMEX residual at once. `trans`
selects SuperLU's plain ("N") or transposed ("T") solve; A_ii is symmetric,
so both solve the same system. The package carries only the dependency chain
in its loop, computes the residuals afterwards in row blocks and solves
transposed, so the tests can require `==` against trans="T".
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gasketlab.bsde import _terminal_values
from gasketlab.gasket import build_level_graph
from gasketlab.harmonic import CellGradientTables
from gasketlab.pde import BROWNIAN_GRADIENT_SCALE, assemble_masses, stiffness_matrix
from gasketlab.walk import layer_count


def gradients(tables, values):
    v = values[tables.corners]
    vc = v - v.mean(axis=1, keepdims=True)
    q = tables.scale * (vc * vc).sum(axis=1)
    sgn = np.sign((vc * tables.pattern).sum(axis=1))
    return sgn * np.sqrt(q / tables.nu)


def solve_weak_pde(problem, trans, g=None):
    """(u, gradients, residuals) of the per-layer IMEX loop."""
    if g is None:
        g = build_level_graph(problem.level)
    h = problem.time_step
    n = g.n_vertices
    K = layer_count(problem.horizon, h)

    mu_ex, nu_ex = assemble_masses(g)
    mu = np.array([float(x) for x in mu_ex])
    nu = np.array([float(x) for x in nu_ex])
    S = stiffness_matrix(g)
    tables = CellGradientTables(g)
    ncells = len(tables.words)
    incidence = sp.csr_matrix(
        (np.ones(3 * ncells), (tables.corners.ravel(), np.repeat(np.arange(ncells), 3))),
        shape=(n, ncells))
    nu_around = incidence @ tables.nu

    def zbar(grads_k):
        return incidence @ (tables.nu * (BROWNIAN_GRADIENT_SCALE * grads_k)) / nu_around

    xs = np.arange(n)

    def load(t, u, z):
        return problem.g(t, xs, u) * mu + problem.f(t, xs, u, z) * nu

    bnd = np.array(g.boundary_ids)
    inter = np.ones(n, dtype=bool)
    inter[bnd] = False

    A = sp.csr_matrix(sp.diags(mu / h) + S)
    A_ii = A[inter][:, inter].tocsc()
    A_ib = A[inter][:, ~inter].tocsc()
    lu = spla.splu(A_ii)

    psi = _terminal_values(problem.terminal_psi, g, n)
    u = np.empty((K + 1, n))
    grads = np.empty((K + 1, ncells))
    residuals = np.empty(K)
    u[K] = psi
    u[K][bnd] = np.asarray(problem.boundary_phi(problem.horizon), dtype=float)
    grads[K] = gradients(tables, u[K])

    z = zbar(grads[K])
    for k in range(K - 1, -1, -1):
        t = k * h
        un = u[k + 1]
        uk = u[k]
        uk[bnd] = problem.boundary_phi(t)
        uk[inter] = lu.solve((mu / h * un + load(t, un, z))[inter] - A_ib @ uk[~inter],
                             trans=trans)
        grads[k] = gradients(tables, uk)
        z = zbar(grads[k])
        res = (mu / h) * (uk - un) + (S @ uk) - load(t, uk, z)
        residuals[k] = float(np.abs(res[inter]).max())
    return u, grads, residuals
