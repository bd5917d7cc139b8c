"""Reference V^beta norm and Picard loop: the bodies the package replaced.

The norm rebuilds the path weights on every call and evaluates on (N, K+1)
arrays with a two-array gather and each step's own dqv. The Picard loop
calls the drivers once per layer, with a scalar t, and forms Z layer by
layer. The DP layers run on the same sweep, with separate P and Q products
per layer. The package evaluates the norm time-major, in cache-sized blocks,
on a per-(layer, vertex) weight field and against weights built once per
ensemble, and calls the drivers once per sweep, keeping every operand order,
so the tests can require `==` between the two.
"""

import math

import numpy as np

from gasketlab.bsde import _pinned_terminal


def _path_fields(paths, y_field, z_field, weights):
    """(ew, shift, yv, zv), path-major (N, K+1): the weights and the fields
    read along each path."""
    K = paths.n_steps
    tgrid = np.arange(K + 1) * paths.dt
    qv = np.concatenate([np.zeros((paths.n_paths, 1)), paths.cum_qv], axis=1)
    expo = 2 * weights.b0 * tgrid[None, :] + 2 * weights.b1 * qv  # (N, K+1)
    shift = max(0.0, float(expo.max()) - 600.0)
    ew = np.exp(expo - shift)
    yv = y_field[np.arange(K + 1)[None, :], paths.vertices]
    zv = z_field[np.arange(K + 1)[None, :], paths.vertices]
    return ew, shift, yv, zv


def _suffix_sum(x):
    """S[:, k] = sum_{r>=k} x[:, r], added from the last column."""
    return np.cumsum(x[:, ::-1], axis=1)[:, ::-1]


def vbeta_sups(paths, y_field, z_field, weights):
    """(sup, shift): each path's sup_k [e_k y_k^2 + S_k] with
    S_k = S_{k+1} + e_k (y_k^2 dt + (y_k^2 + z_k^2) dqv_k), e_k shifted."""
    ew, shift, yv, zv = _path_fields(paths, y_field, z_field, weights)
    y2 = yv * yv
    w = y2[:, :-1] * paths.dt + (y2[:, :-1] + zv[:, :-1] ** 2) * paths.dqv
    run = np.zeros_like(yv)
    run[:, :-1] = _suffix_sum(ew[:, :-1] * w)
    total = ew * y2 + run
    return total.max(axis=1), shift


def vbeta_sups_parent(paths, y_field, z_field, weights):
    """vbeta_sups in the form before the weight field: two running sums, one
    of y^2 e dt and one of (y^2 + z^2) e dqv, each grouped its own way."""
    ew, shift, yv, zv = _path_fields(paths, y_field, z_field, weights)
    y2e = yv * yv * ew
    run_dr = np.zeros_like(yv)
    run_dqv = np.zeros_like(yv)
    run_dr[:, :-1] = _suffix_sum(y2e[:, :-1] * paths.dt)
    zi = (yv[:, :-1] ** 2 + zv[:, :-1] ** 2) * ew[:, :-1] * paths.dqv
    run_dqv[:, :-1] = _suffix_sum(zi)
    total = y2e + run_dr + run_dqv
    return total.max(axis=1), shift


def _mean_norm(sup, shift):
    return math.sqrt(float(sup.mean()) * math.exp(shift))


def vbeta_norm(paths, y_field, z_field, weights):
    return _mean_norm(*vbeta_sups(paths, y_field, z_field, weights))


def vbeta_norm_parent(paths, y_field, z_field, weights):
    return _mean_norm(*vbeta_sups_parent(paths, y_field, z_field, weights))


def _sweep(problem, kernel, terminal, layer):
    """One backward pass, z and the boundary pinned layer by layer."""
    K = int(round(problem.horizon / kernel.dt))
    Y = np.empty((K + 1, kernel.n_vertices))
    Z = np.zeros((K + 1, kernel.n_vertices))
    Y[K] = terminal
    for k in range(K - 1, -1, -1):
        t = k * kernel.dt
        z = (kernel.Q @ Y[k + 1]) / kernel.dqv
        y = layer(k, t, kernel.P @ Y[k + 1], z)
        if problem.duration == "killed":
            y[kernel.is_boundary] = problem.boundary_phi(t)
            z[kernel.is_boundary] = 0.0
        Y[k] = y
        Z[k] = z
    return Y, Z


def picard_iterate(problem, kernel, n_iters, paths, weights, initial=None,
                   stop_rel=1e-13):
    """The Picard loop measured with the reference norm: distances, ratios, last iterate."""
    dt = kernel.dt
    xs = np.arange(kernel.n_vertices)
    terminal = _pinned_terminal(problem, None, kernel.n_vertices)
    shape = (paths.n_steps + 1, kernel.n_vertices)
    y_prev = np.zeros(shape) if initial is None else initial.copy()
    z_prev = np.zeros(shape)

    def frozen(k, t, ey, z):
        return (ey + problem.g(t, xs, y_prev[k]) * dt
                + problem.f(t, xs, y_prev[k], z_prev[k]) * kernel.dqv)

    distances = []
    for _ in range(n_iters):
        Y, Z = _sweep(problem, kernel, terminal, frozen)
        distances.append(vbeta_norm(paths, Y - y_prev, Z - z_prev, weights))
        y_prev, z_prev = Y, Z
        if distances[-1] <= stop_rel * distances[0]:
            break
    ratios = [distances[i + 1] / distances[i]
              for i in range(len(distances) - 1) if distances[i] > 0]
    return {"distances": distances, "ratios": ratios, "final": (Y, Z)}


def solve_dp(problem, kernel, scheme):
    """(Y, Z) of the DP layers, explicit or picard-in-step, on the per-layer sweep."""
    dt, dqv = kernel.dt, kernel.dqv
    xs = np.arange(kernel.n_vertices)

    def explicit(k, t, ey, z):
        return ey + problem.g(t, xs, ey) * dt + problem.f(t, xs, ey, z) * dqv

    def in_step(k, t, ey, z):
        y = ey
        for _ in range(50):
            y_new = ey + problem.g(t, xs, y) * dt + problem.f(t, xs, y, z) * dqv
            delta = float(np.abs(y_new - y).max())
            y = y_new
            if delta < 1e-12:
                return y
        raise AssertionError("in-step fixed point did not converge")

    terminal = _pinned_terminal(problem, None, kernel.n_vertices)
    return _sweep(problem, kernel, terminal, explicit if scheme == "explicit" else in_step)
