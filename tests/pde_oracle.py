"""Reference weak-PDE solves: the parent layer loop and the three-product layer.

`solve_weak_pde_parent` is the loop the package replaced. Each layer solves
with the sparse boundary product and boolean masks, takes the gradients from
the centred corner triple in the (ncells, 3) layout, forms the nu-average
through the sparse cell incidence and evaluates the IMEX residual at once.
It solves transposed, as the package does; A_ii is symmetric.

`solve_weak_pde_products` is the package's layer written per layer in plain
`@` and array form: the right-hand side from B times the window u[k:k+2]
(B built densely here), the rank-2 gradient from the corner differences,
the average with the weights sqrt(2) nu_c / (nu_c0 + nu_c1), and the
residual of each layer at once. Each sum starts from 0.0 and adds its terms
in the CSR order, so the package, which carries only the dependency chain in
its loop, runs its products in-place and computes the residuals afterwards
in row blocks, must give its bytes; against the parent loop it moves at the
ulp level only.
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
    """The parent's gradient, from the centred corner triple."""
    v = values[tables.corners]
    vc = v - v.mean(axis=1, keepdims=True)
    q = tables.scale * (vc * vc).sum(axis=1)
    sgn = np.sign((vc * tables.pattern).sum(axis=1))
    return sgn * np.sqrt(q / tables.nu)


def solve_weak_pde_parent(problem, g=None):
    """(u, gradients, residuals) of the parent's per-layer IMEX loop."""
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
                             trans="T")
        grads[k] = gradients(tables, uk)
        z = zbar(grads[k])
        res = (mu / h) * (uk - un) + (S @ uk) - load(t, uk, z)
        residuals[k] = float(np.abs(res[inter]).max())
    return u, grads, residuals


def product_gradients(tables, values):
    """sign(a) hypot(a, b) from the corner differences d1 = v1 - v0, d2 = v2 - v0."""
    c0, c1, c2 = tables.corners.T
    d1, d2 = values[c1] - values[c0], values[c2] - values[c0]
    s = np.sqrt(tables.scale / tables.nu)
    p = tables.pattern
    r1, r2 = (p[:, 0] - p[:, 2]) / np.sqrt(3.0), (p[:, 1] - p[:, 0]) / np.sqrt(3.0)
    a = 0.0 + (s * p[:, 1]) * d1 + (s * p[:, 2]) * d2
    b = 0.0 + (s * r1) * d1 + (s * r2) * d2
    return np.sign(a) * np.hypot(a, b)


def solve_weak_pde_products(problem, g=None):
    """(u, gradients, residuals) of the three-product layer, per layer."""
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
    ii = np.arange(3, n)
    mu_i, nu_i = mu[3:], nu[3:]
    # the two cells c0 < c1 around each interior vertex
    c0, c1 = np.array([sorted(tables.word_index[w] for w in g.cells_at_vertex(x))
                       for x in ii]).T
    around = tables.nu[c0] + tables.nu[c1]
    w0 = BROWNIAN_GRADIENT_SCALE * tables.nu[c0] / around
    w1 = BROWNIAN_GRADIENT_SCALE * tables.nu[c1] / around

    def zbar(grads_k):
        return 0.0 + w0 * grads_k[c0] + w1 * grads_k[c1]

    A = (sp.diags(mu / h) + S).toarray()
    B = sp.csr_matrix(np.hstack([-A[3:, :3], np.zeros((n - 3, n)), np.diag(mu_i / h)]))
    lu = spla.splu(sp.csc_matrix(A[3:, 3:]))

    psi = _terminal_values(problem.terminal_psi, g, n)
    u = np.empty((K + 1, n))
    grads = np.empty((K + 1, len(tables.words)))
    residuals = np.empty(K)
    u[K] = psi
    u[K, :3] = np.asarray(problem.boundary_phi(problem.horizon), dtype=float)
    grads[K] = product_gradients(tables, u[K])
    z = zbar(grads[K])
    for k in range(K - 1, -1, -1):
        t = k * h
        u[k, :3] = problem.boundary_phi(t)
        un = u[k + 1, 3:]
        rhs = B @ u[k:k + 2].ravel() + problem.g(t, ii, un) * mu_i + problem.f(t, ii, un, z) * nu_i
        u[k, 3:] = lu.solve(rhs, trans="T")
        grads[k] = product_gradients(tables, u[k])
        z = zbar(grads[k])
        uk = u[k, 3:]
        res = ((mu_i / h) * (uk - un) + (S @ u[k])[3:]
               - (problem.g(t, ii, uk) * mu_i + problem.f(t, ii, uk, z) * nu_i))
        residuals[k] = float(np.abs(res).max())
    return u, grads, residuals
