"""Harmonic extension, energies, energy measures and discrete gradients."""

import dataclasses
import math
from fractions import Fraction

import fraction_oracle as oracle
import graph_oracle
import numpy as np
import pde_oracle
import pytest

from gasketlab import (
    UsageError,
    cell_energy_measure,
    discrete_gradient,
    energy_measure_table,
    graph_energy,
    harmonic,
    harmonic_energy,
    harmonic_extend_to_level,
    harmonic_restrict,
    oscillation_constant_probe,
)
from gasketlab.exact import A_INT, P_INT, Y_INT, to_numerators
from gasketlab.harmonic import CellGradientTables
from gasketlab.measures import kusuoka_measure

E1 = (Fraction(1), Fraction(0), Fraction(0))


def rand_triple(rng):
    return tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                 for _ in range(3))


# --- matrix identities --------------------------------------------------------

def over(mat, den):
    """An integer matrix over den as Fraction rows."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in mat)


def test_matrix_identities():
    ones = (Fraction(1), Fraction(1), Fraction(1))
    p = over(P_INT, 3)
    assert oracle.mat_mul(p, p) == p
    assert oracle.mat_vec(p, ones) == (0, 0, 0)
    for i in (1, 2, 3):
        assert oracle.mat_vec(over(A_INT[i], 5), ones) == ones
        assert oracle.mat_vec(over(Y_INT[i], 5), ones) == (0, 0, 0)
        # the integer tables against the oracle's own literals: Y_i = P A_i P
        assert over(A_INT[i], 5) == oracle.A[i]
        assert over(Y_INT[i], 5) == oracle.Y[i]
    assert p == oracle.P


def test_y1_eigenvalues_on_range_p():
    # characteristic polynomial of the explicit rational 3x3 matrix:
    # det(Y1 - x) = -x (x - 3/5)(x - 1/5)
    y = over(Y_INT[1], 5)
    tr = y[0][0] + y[1][1] + y[2][2]
    m2 = sum(
        y[i][i] * y[j][j] - y[i][j] * y[j][i]
        for i in range(3) for j in range(3) if i < j
    )
    det = (
        y[0][0] * (y[1][1] * y[2][2] - y[1][2] * y[2][1])
        - y[0][1] * (y[1][0] * y[2][2] - y[1][2] * y[2][0])
        + y[0][2] * (y[1][0] * y[2][1] - y[1][1] * y[2][0])
    )
    assert det == 0
    assert tr == Fraction(3, 5) + Fraction(1, 5)
    assert m2 == Fraction(3, 5) * Fraction(1, 5)


# --- harmonic restriction / extension ------------------------------------------

def test_restrict_examples():
    assert harmonic_restrict(E1, "") == E1
    assert harmonic_restrict(E1, "1") == (1, Fraction(2, 5), Fraction(2, 5))
    # matrix-product oracle for "12": A_2 A_1 u
    expect = oracle.mat_vec(oracle.A[2], oracle.mat_vec(oracle.A[1], E1))
    assert harmonic_restrict(E1, "12") == expect


def test_extend_level1_values(graphs):
    g = graphs(1)
    tab = harmonic_extend_to_level(E1, 1, g)
    def at(x, y):
        return tab[g.index_by_coord[(Fraction(x), Fraction(y))]]
    assert at(0, 0) == 1 and at(1, 0) == 0 and at(Fraction(1, 2), Fraction(1, 2)) == 0
    assert at(Fraction(1, 2), 0) == Fraction(2, 5)        # midpoint p1-p2
    assert at(Fraction(1, 4), Fraction(1, 4)) == Fraction(2, 5)  # midpoint p1-p3
    assert at(Fraction(3, 4), Fraction(1, 4)) == Fraction(1, 5)  # opposite p1


@pytest.mark.parametrize("m", range(7))
def test_extend_equals_fraction_oracle(graphs, m):
    g = graphs(m)
    for u in oracle.seeded_triples(37):
        assert harmonic_extend_to_level(u, m, g) == oracle.extension(u, g)


def test_extend_constant(graphs):
    c = Fraction(7, 3)
    tab = harmonic_extend_to_level((c, c, c), 3, graphs(3))
    assert all(v == c for v in tab)


def test_extend_vs_dirichlet_solve(graphs):
    # oracle: solve the discrete minimization directly at m=3
    g = graphs(3)
    tab = harmonic_extend_to_level(E1, 3, g)
    n = g.n_vertices
    lap = np.zeros((n, n))
    for a, b in g.edges:
        lap[a, b] -= 1
        lap[b, a] -= 1
        lap[a, a] += 1
        lap[b, b] += 1
    inter = np.ones(n, dtype=bool)
    inter[list(g.boundary_ids)] = False
    bvals = np.zeros(n)
    bvals[g.boundary_ids[0]] = 1.0
    rhs = -lap[np.ix_(inter, ~inter)] @ bvals[~inter]
    sol = np.linalg.solve(lap[np.ix_(inter, inter)], rhs)
    expect = np.array([float(v) for v in tab])
    got = bvals.copy()
    got[inter] = sol
    assert np.abs(got - expect).max() < 1e-12


# --- energies -------------------------------------------------------------------

def test_energy_examples(graphs):
    assert harmonic_energy(E1) == 1
    assert harmonic_energy((5, 5, 5)) == 0
    g0 = graphs(0)
    tab = harmonic_extend_to_level(E1, 0, g0)
    assert graph_energy(g0, tab) == 1
    # two-route agreement for (1,2,3)
    u = (Fraction(1), Fraction(2), Fraction(3))
    tab = harmonic_extend_to_level(u, 0, g0)
    assert graph_energy(g0, tab) == harmonic_energy(u)


def test_energy_constant_zero(graphs):
    g = graphs(2)
    tab = [Fraction(4, 7)] * g.n_vertices
    assert graph_energy(g, tab) == 0


def test_harmonic_energy_invariant_all_levels(graphs):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rand_triple(rng)
        target = harmonic_energy(u)
        for m in (1, 2, 3, 4, 5):
            g = graphs(m)
            tab = harmonic_extend_to_level(u, m, g)
            assert graph_energy(g, tab) == target


def test_energy_minimality_under_perturbation(graphs):
    g = graphs(2)
    u = (Fraction(2), Fraction(-1), Fraction(1, 3))
    tab = harmonic_extend_to_level(u, 2, g)
    base = graph_energy(g, tab)
    interior = [v.id for v in g.vertices if not v.is_boundary]
    for vid in interior[:4]:
        pert = list(tab)
        pert[vid] += Fraction(1, 17)
        assert graph_energy(g, pert) > base


def test_self_similarity_random_tables(graphs):
    rng = np.random.default_rng(23)
    for child_level in (1, 2, 3):
        gc, gp = graphs(child_level), graphs(child_level - 1)
        u = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for _ in range(gc.n_vertices)]
        v = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for _ in range(gc.n_vertices)]
        lhs = graph_energy(gc, u, v)
        rhs = Fraction(0)
        for i in (1, 2, 3):
            mapping = graph_oracle.subtriangle_vertex_map(gc, gp, i)
            ui = [u[mapping[x]] for x in range(gp.n_vertices)]
            vi = [v[mapping[x]] for x in range(gp.n_vertices)]
            rhs += graph_energy(gp, ui, vi)
        assert lhs == Fraction(5, 3) * rhs


def python_int_graph_energy(g, u_table, v_table):
    """graph_energy as one Python-int sum over the edges of to_numerators'
    numerators."""
    un, ud = to_numerators(u_table)
    vn, vd = to_numerators(v_table)
    acc = sum((un[a] - un[b]) * (vn[a] - vn[b]) for a, b in g.edges)
    return Fraction(5**g.level * acc, 2 * 3**g.level * ud * vd)


@pytest.mark.parametrize("m", (0, 1, 3, 5))
def test_graph_energy_routes_equal_python_int_sum(graphs, m):
    # the int64 edge sum runs only under its bound: extended triples and
    # small ints take it; numerators past 2^62, or int64 numerators whose
    # edge terms could pass 2^63, are summed as Python ints
    g = graphs(m)
    rng = np.random.default_rng(m)
    small = harmonic_extend_to_level(rand_triple(rng), m, g)
    other = harmonic_extend_to_level(rand_triple(rng), m, g)
    ints = [int(x) for x in rng.integers(-50, 50, g.n_vertices)]
    huge = harmonic_extend_to_level((Fraction(10**22, 3), 1, Fraction(-3, 7)), m, g)
    wide = [Fraction(2**40 + int(x), 3) for x in rng.integers(0, 1000, g.n_vertices)]
    assert isinstance(harmonic._vertex_numerators(huge)[0], list)
    assert isinstance(harmonic._vertex_numerators(wide)[0], np.ndarray)
    for u, v, int64 in ((small, small, True), (small, other, True), (ints, small, True),
                        (huge, huge, False), (small, huge, False), (wide, wide, False),
                        (wide, ints, True)):
        spy = EdgeReadSpy(g)
        assert graph_energy(spy, u, v) == python_int_graph_energy(g, u, v)
        # the int64 sum reads the edge array, the Python-int sum the edge tuple
        assert spy.reads == (["edge_ends"] if int64 else ["edges"])


class EdgeReadSpy:
    """g, recording each read of its edge tuple or its edge array."""

    def __init__(self, g):
        self._g, self.reads = g, []

    def __getattr__(self, name):
        if name in ("edges", "edge_ends"):
            self.reads.append(name)
        return getattr(self._g, name)


# --- cell energy measures --------------------------------------------------------

def test_cell_energy_examples():
    assert cell_energy_measure(E1, "") == 1
    assert cell_energy_measure((3, 3, 3), "121") == 0
    children = sum(cell_energy_measure(E1, w) for w in ("1", "2", "3"))
    assert children == 1


def test_cell_energy_additivity_deeper():
    words2 = [a + b for a in "123" for b in "123"]
    assert sum(cell_energy_measure(E1, w) for w in words2) == 1


# --- discrete gradients -----------------------------------------------------------

def test_gradient_h1_at_level0(graphs):
    g = graphs(0)
    tab = [Fraction(1), Fraction(0), Fraction(0)]
    grad = discrete_gradient(tab, "", g)
    assert grad < 0  # sign convention: h1 decreases along the walk direction
    assert abs(abs(grad) - 1.0) < 1e-14


def test_gradient_constants(graphs):
    g = graphs(2)
    tables = CellGradientTables(g)
    tab = [Fraction(2)] * g.n_vertices
    for w in list(g.cells)[:5]:
        assert discrete_gradient(tab, w, g, tables) == 0.0
    # h1+h2+h3 = constant 1
    hs = [harmonic_extend_to_level(tuple(Fraction(1 if j == i else 0) for j in range(3)), 2, g)
          for i in range(3)]
    tot = [sum(col) for col in zip(*hs)]
    for w in list(g.cells)[:5]:
        assert discrete_gradient(tot, w, g, tables) == 0.0


@pytest.mark.parametrize("m", range(5))
def test_gradient_tables_equal_fraction_oracle(graphs, m):
    tables = CellGradientTables(graphs(m))
    nu, pattern = oracle.gradient_tables(graphs(m))
    assert np.array_equal(tables.nu, nu)
    assert np.array_equal(tables.pattern, pattern)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_gradient_isometry_exact(graphs, m):
    # sum_w grad^2 nu(w) = E(u) for harmonic u (float route, 1e-12)
    g = graphs(m)
    tables = CellGradientTables(g)
    nu = kusuoka_measure(m)
    rng = np.random.default_rng(5)
    for _ in range(3):
        u = rand_triple(rng)
        tab = harmonic_extend_to_level(u, m, g)
        vals = np.array([float(x) for x in tab])
        grads = tables.gradients(vals)
        total = float(sum(grads[k] ** 2 * float(nu.masses[w])
                          for k, w in enumerate(tables.words)))
        assert abs(total - float(harmonic_energy(u))) < 1e-12 * max(1.0, total)


def test_gradient_magnitude_matches_energy_ratio(graphs):
    g = graphs(2)
    tables = CellGradientTables(g)
    nu = kusuoka_measure(2)
    u = (Fraction(1), Fraction(-2), Fraction(1, 2))
    tab = harmonic_extend_to_level(u, 2, g)
    for w in ("11", "23", "32"):
        grad = discrete_gradient(tab, w, g, tables)
        expect = float(cell_energy_measure(u, w) / nu.masses[w])
        assert abs(grad * grad - expect) < 1e-11 * max(1.0, expect)


@pytest.mark.parametrize("m", range(7))
def test_gradients_equal_centred_corner_formula(graphs, m):
    # the rank-2 map from corner differences against the centred corner
    # triple it replaced: equal to the ulp level
    tables = CellGradientTables(graphs(m))
    vals = np.random.default_rng(m).standard_normal(graphs(m).n_vertices)
    ref = pde_oracle.gradients(tables, vals)
    assert np.abs(tables.gradients(vals) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("m", range(7))
def test_gradients_of_constants_are_exactly_zero(graphs, m):
    # corner differences of a constant are exactly 0.0, and so is the map
    tables = CellGradientTables(graphs(m))
    for c in (0.7, -3.0, 1e12, 2.0**-40):
        grads = tables.gradients(np.full(graphs(m).n_vertices, c))
        assert grads.tobytes() == np.zeros(len(tables.words)).tobytes()


def test_gradients_return_no_view_of_a_buffer(graphs):
    g = graphs(3)
    tables = CellGradientTables(g)
    rng = np.random.default_rng(8)
    first = tables.gradients(rng.standard_normal(g.n_vertices))
    kept = first.copy()
    second = tables.gradients(rng.standard_normal(g.n_vertices))
    assert first.tobytes() == kept.tobytes() and not np.shares_memory(first, second)
    for buffer in (tables._d, tables._ab):
        assert not np.shares_memory(first, buffer)
    out = np.empty(len(tables.words))
    assert tables.gradients(g.n_vertices * [1.0], out=out) is out and not out.any()


def test_discrete_gradient_is_the_table_entry(graphs):
    g = graphs(3)
    tables = CellGradientTables(g)
    vals = np.random.default_rng(3).integers(-2, 3, g.n_vertices).astype(float)
    grads = tables.gradients(vals)
    assert [discrete_gradient(vals, w, g, tables) for w in tables.words] == list(grads)


@pytest.mark.parametrize("word, values, table_level, match", [
    ("45", None, 2, "not a level-2 cell"),   # used to raise KeyError
    ("1", None, 2, "not a level-2 cell"),
    ("12", [1.0, 0.0, 0.0], 2, "3 entries"),  # used to raise IndexError
    ("12", None, 3, "tables at level 3"),    # used to read another level's cell
])
def test_discrete_gradient_rejects_mismatched_inputs(graphs, word, values, table_level,
                                                     match):
    g = graphs(2)
    if values is None:
        values = [Fraction(x % 3) for x in range(g.n_vertices)]
    with pytest.raises(UsageError, match=match):
        discrete_gradient(values, word, g, CellGradientTables(graphs(table_level)))


def test_discrete_gradient_rejects_a_degenerate_cell(graphs):
    g = graphs(1)
    tables = CellGradientTables(g)
    tables.nu[tables.word_index["2"]] = 0.0
    with pytest.raises(UsageError, match="degenerate"):
        discrete_gradient([1.0] * g.n_vertices, "2", g, tables)


BAD_ENTRIES = (float("nan"), float("inf"), float("-inf"), np.float64("nan"), "abc", "1/0", None)
BOUNDARY_ENTRY_POINTS = {
    "harmonic_restrict": lambda u: harmonic_restrict(u, "12"),
    "harmonic_extend_to_level": lambda u: harmonic_extend_to_level(u, 2),
    "harmonic_energy": harmonic_energy,
    "cell_energy_measure": lambda u: cell_energy_measure(u, "12"),
    "energy_measure_table": lambda u: energy_measure_table(u, 2),
}


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
@pytest.mark.parametrize("entry", BOUNDARY_ENTRY_POINTS)
def test_non_rational_boundary_entry_is_a_usage_error(entry, bad):
    # used to raise a bare ValueError (NaN, "abc"), OverflowError (inf),
    # ZeroDivisionError ("1/0") or TypeError (None)
    with pytest.raises(UsageError, match="not a finite rational"):
        BOUNDARY_ENTRY_POINTS[entry]((1, bad, 0))


@pytest.mark.parametrize("word", ("14", "1a", "0"))
@pytest.mark.parametrize("entry", (harmonic_restrict, cell_energy_measure))
def test_word_off_the_alphabet_is_a_usage_error(entry, word):
    with pytest.raises(UsageError, match="must use symbols 1,2,3"):
        entry((1, 0, 0), word)


@pytest.mark.parametrize("u", (None, 5, (1, 2)), ids=repr)
@pytest.mark.parametrize("entry", BOUNDARY_ENTRY_POINTS)
def test_boundary_data_that_is_not_a_triple_is_a_usage_error(entry, u):
    with pytest.raises(UsageError, match="exactly 3 values"):
        BOUNDARY_ENTRY_POINTS[entry](u)


@pytest.mark.parametrize("bad", BAD_ENTRIES[:-1], ids=repr)
def test_non_rational_table_entry_is_a_usage_error(graphs, bad):
    g = graphs(1)
    table = [Fraction(1)] * g.n_vertices
    table[4] = bad
    with pytest.raises(UsageError, match="not a finite rational"):
        graph_energy(g, table)


def test_extension_asserts_well_definedness(graphs):
    # two cells that trade corners give their shared vertices two values
    g = graphs(2)
    cells = dict(g.cells)
    cells["11"], cells["33"] = cells["33"], cells["11"]
    with pytest.raises(AssertionError, match="ill-defined"):
        harmonic_extend_to_level(E1, 2, dataclasses.replace(g, cells=cells))


def test_oscillation_probe():
    rep = oscillation_constant_probe(12, m=4, seed=2)
    assert rep["lower_bound"] >= 1.0  # e1 already achieves ratio 1
    assert all(r > 0 for _, r in rep["ratios"])
