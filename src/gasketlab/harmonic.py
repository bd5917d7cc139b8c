"""Harmonic extension, graph energies E^(m), cell energy measures, gradients.

Convention for E^(m): the sum runs over unordered neighbor pairs with the 1/2
retained,

    E^(m)(u,v) = sum_{unordered edges} (1/2)(5/3)^m [u(x)-u(y)][v(x)-v(y)],

which is the unique reading under which E^(0)(u,u) = (3/2) u^T P u holds; the
ordered-pair reading gives twice that value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .exact import (
    A_INT,
    P_INT,
    as_rational,
    fractions_over,
    pairwise_sq,
    quad_form_p,
    restrict_states,
    route_table,
    times_numerators,
    to_numerators,
    validate_word,
)
from .gasket import LevelGraph, build_level_graph

Triple = tuple[Fraction, Fraction, Fraction]


def _as_triple(u) -> Triple:
    """Boundary data as three Fractions; UsageError unless u holds exactly
    three finite rationals."""
    if not hasattr(u, "__len__") or len(u) != 3:
        raise UsageError("boundary data must have exactly 3 values")
    return tuple([as_rational(x) for x in u])


def harmonic_restrict(u, word: str) -> Triple:
    """Corner values of the harmonic extension on the addressed cell.

    Applies the reversed product A_{wm} ... A_{w1} to u; the empty word is the
    identity.
    """
    validate_word(word)
    nums, d = to_numerators(_as_triple(u))
    (v,) = restrict_states(word, (nums,), A_INT)
    return tuple(Fraction(x, d * 5 ** len(word)) for x in v)


def harmonic_extend_to_level(u, m: int, g: LevelGraph | None = None) -> list[Fraction]:
    """Values of Hu at every vertex of V_m, exact.

    Hu = u_1 h_1 + u_2 h_2 + u_3 h_3, so the values are corner_harmonics(g)
    times u's integer numerators (exact.times_numerators). Well-definedness (the
    same vertex reached through different cells gets the same value) is
    asserted on that basis table, and holds for every triple by linearity.
    """
    if g is None:
        g = build_level_graph(m)
    elif g.level != m:
        raise UsageError("graph level does not match m")
    nums, d = to_numerators(_as_triple(u))
    return fractions_over(times_numerators(corner_harmonics(g), nums), d * 5**m)


def corner_harmonics(g: LevelGraph) -> np.ndarray:
    """(V, 3) int64 numerators over 5^m of h_1, h_2, h_3 on V_m.

    Column i is the harmonic extension of the i-th unit triple: the level's
    A-route table (exact.route_table) scattered onto g.corners, once per graph
    and cached on g, read-only. Asserted well-defined: every cell at a vertex
    gives it the same values.
    """
    table = g._derived.get("corner_harmonics")
    if table is None:
        values = route_table("A", g.level)  # (cell, corner, i)
        table = np.empty((g.n_vertices, 3), dtype=np.int64)
        table[g.corners] = values
        assert (table[g.corners] == values).all(), "harmonic extension ill-defined"
        table.flags.writeable = False
        g._derived["corner_harmonics"] = table
    return table


def graph_energy(g: LevelGraph, u_table, v_table=None):
    """E^(m)(u,v) over the level graph, exact for rational tables."""
    if v_table is None:
        v_table = u_table
    n = g.n_vertices
    for t in (u_table, v_table):
        if len(t) != n or any(x is None for x in t):
            raise UsageError("tables must assign a value to every vertex of V_m")
    un, ud = _vertex_numerators(u_table)
    vn, vd = (un, ud) if v_table is u_table else _vertex_numerators(v_table)
    # each edge term is at most 4 max|un| max|vn|: under this bound their sum
    # fits in int64, past it the terms are summed as Python ints
    if (isinstance(un, np.ndarray) and isinstance(vn, np.ndarray)
            and 4 * g.n_edges * int(np.abs(un).max()) * int(np.abs(vn).max()) < 2**63):
        a, b = g.edge_ends
        acc = int(np.dot(un[a] - un[b], vn[a] - vn[b]))
    else:
        un, vn = list(map(int, un)), list(map(int, vn))
        acc = sum((un[a] - un[b]) * (vn[a] - vn[b]) for a, b in g.edges)
    return Fraction(5**g.level * acc, 2 * 3**g.level * ud * vd)


def _vertex_numerators(table):
    """to_numerators(table): an int64 array when max|numerator| * lcm < 2^62
    (then every numerator over the lcm fits), else a list of Python ints. A
    table of Fractions is read straight off their two slots, the ones
    exact.fractions_over sets; any other entry goes through as_rational."""
    try:
        nums, dens = [x._numerator for x in table], [x._denominator for x in table]
    except AttributeError:
        fr = [x if type(x) in (int, Fraction) else as_rational(x) for x in table]
        nums, dens = [x.numerator for x in fr], [x.denominator for x in fr]
    d = math.lcm(*set(dens))
    if max(max(nums), -min(nums)) * d < 2**62:
        return np.array(nums, dtype=np.int64) * (d // np.array(dens, dtype=np.int64)), d
    return [n * (d // q) for n, q in zip(nums, dens)], d


def harmonic_energy(u):
    """E(Hu, Hu) = (3/2) u^T P u, exact."""
    return Fraction(3, 2) * quad_form_p(_as_triple(u))


def cell_energy_measure(u, word: str):
    """nu_<Hu>(cell w) = (3/2)(5/3)^m (A_w u)^T P (A_w u), exact: with n the
    numerators of u over d, pairwise_sq(A_INT[w] n) / (2 * 15^m * d^2), as
    in energy_measure_table."""
    validate_word(word)
    nums, d = to_numerators(_as_triple(u))
    (v,) = restrict_states(word, (nums,), A_INT)
    return Fraction(pairwise_sq(v), 2 * 15 ** len(word) * d * d)


# --- discrete gradients -----------------------------------------------------
#
# Magnitude: |grad u(w)|^2 * nu(w) = (3/2)(5/3)^m v^T P v with v the cell's
# corner triple (the energy-measure mass of the cell's harmonic interpolant),
# so that sum_w grad^2 nu(w) = E(u) exactly for harmonic u.
# Sign: projection of the centered corner triple onto the cell's principal
# harmonic pattern, oriented so that h1's gradient is negative (tie-broken on
# h2 positive; relevant where the principal pattern has no h1 component).


class CellGradientTables:
    """Per-cell tables and the compiled gradient operator at one level.

    The cell's pattern p and r = (1,1,1)/sqrt(3) x p are orthonormal and
    orthogonal to (1,1,1), so with d = (v1 - v0, v2 - v0) and
    s = sqrt(scale / nu) the gradient is sign(a) hypot(a, b), where
    a = s (p1 d1 + p2 d2) and b = s (r1 d1 + r2 d2): rank 2. gradients()
    makes two products through bsde._csr_product, the +-1 differences, then
    the per-cell 2x2 map, so a constant gives exactly 0.0. They write into
    buffers the tables own: one thread at a time.
    """

    def __init__(self, g: LevelGraph):
        import scipy.sparse as sp

        from .bsde import _csr_product  # bsde imports walk, which imports this module

        self.level = g.level
        self.words = list(g.cells)
        self.corners = g.corners
        self.scale = 1.5 * (5.0 / 3.0) ** g.level
        pf = np.array(P_INT) / 3
        # b[k] = P A_[w]: the centered corner patterns of (h1,h2,h3) on cell k,
        # A_[w] being the cell's (corner, harmonic) values
        b = pf @ (corner_harmonics(g) / 5**g.level)[self.corners]
        self.nu = 0.5 * (5.0 / 3.0) ** g.level * (b * b).sum(axis=(1, 2))
        e = np.linalg.svd(b)[0][:, :, 0]  # principal pattern per cell
        d = np.einsum("ki,kij->kj", e, b)  # h_j's component along it
        flip = np.where(np.abs(d[:, 0]) < 1e-13, d[:, 1] < 0, d[:, 0] > 0)
        self.pattern = p = np.where(flip[:, None], -e, e)
        self.word_index = {w: k for k, w in enumerate(self.words)}

        nc = len(self.words)
        c0, c1, c2 = self.corners.T
        k, ptr = np.arange(nc), np.arange(0, 4 * nc + 1, 2)  # two entries a row
        diff = sp.csr_matrix((np.tile([1.0, -1.0], 2 * nc), np.column_stack(
            [np.r_[c1, c2], np.r_[c0, c0]]).ravel(), ptr), shape=(2 * nc, g.n_vertices))
        s = np.sqrt(self.scale / self.nu)
        r = (p[:, [0, 1]] - p[:, [2, 0]]) / math.sqrt(3.0)  # (r1, r2)
        proj = sp.csr_matrix(((np.tile(s, 2)[:, None] * np.r_[p[:, 1:], r]).ravel(),
                              np.tile(np.column_stack([k, k + nc]), (2, 1)).ravel(), ptr),
                             shape=(2 * nc, 2 * nc))
        self._differences, self._d = _csr_product(diff)
        self._project, self._ab = _csr_product(proj)
        self._a, self._b = self._ab[:nc], self._ab[nc:]
        self._sign = np.empty(nc)

    def gradients(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Signed gradient per cell of a vertex-value array, into out or a fresh array."""
        self._differences(values)
        self._project(self._d)
        out = np.hypot(self._a, self._b, out=out)
        out *= np.sign(self._a, out=self._sign)
        return out


def discrete_gradient(u_table, word: str, g: LevelGraph, tables: CellGradientTables | None = None) -> float:
    """Signed gradient on cell word of a vertex table (module notes give the
    normalization and sign): the word's entry of CellGradientTables.gradients.
    UsageError for a word, value table or tables not of g's level."""
    if tables is None:
        tables = CellGradientTables(g)
    if tables.level != g.level:
        raise UsageError(f"gradient tables at level {tables.level}, graph at level {g.level}")
    if word not in tables.word_index:
        raise UsageError(f"{word!r} is not a level-{g.level} cell")
    if len(u_table) != g.n_vertices:
        raise UsageError(f"value table has {len(u_table)} entries, V_{g.level} has {g.n_vertices}")
    k = tables.word_index[word]
    if tables.nu[k] <= 0:  # Kusuoka cell masses are strictly positive
        raise UsageError("degenerate cell measure")
    return float(tables.gradients(np.asarray([float(x) for x in u_table]))[k])


def oscillation_constant_probe(
    sample_count: int, m: int = 6, seed: int = 0
) -> dict:
    """Empirical lower bound for the oscillation constant C_*.

    Samples rational boundary triples, extends harmonically to V_m and
    records osc(Hu)/sqrt(E(u)). Constants are excluded (0/0).
    """
    rng = np.random.default_rng(seed)
    g = build_level_graph(m)
    ratios = []
    triples = [(Fraction(1), Fraction(0), Fraction(0))]
    for _ in range(max(0, sample_count - 1)):
        t = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))) for _ in range(3))
        if t[0] == t[1] == t[2]:
            continue
        triples.append(t)
    for t in triples:
        e = harmonic_energy(t)
        if e == 0:
            continue
        tab = harmonic_extend_to_level(t, m, g)
        osc = max(tab) - min(tab)
        ratios.append((t, float(osc) / math.sqrt(float(e))))
    best = max(r for _, r in ratios)
    return {
        "level": m,
        "samples": len(ratios),
        "ratios": [(tuple(str(x) for x in t), r) for t, r in ratios],
        "lower_bound": best,
    }
