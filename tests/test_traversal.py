"""The level-order int64 cell-tree traversal against its depth-first oracle.

`traversal_oracle.cell_leaves` is the per-node Python-int generator the
package used before; every table, extension and graph built on the new
traversal must equal what that generator gives, in the same key order.
"""

from fractions import Fraction

import fraction_oracle
import numpy as np
import pytest
import traversal_oracle as dfs

from gasketlab import (
    UsageError,
    cell_energy_measure,
    energy_measure_table,
    harmonic_extend_to_level,
    kusuoka_identity_check,
    kusuoka_measure,
)
from gasketlab.exact import (
    A_INT,
    BASIS,
    MID_INT,
    P_INT,
    Y_INT,
    cell_leaves,
    fractions_over,
    pairwise_sq,
    restrict_states,
    times_numerators,
    to_numerators,
)
from gasketlab.gasket import MAX_LEVEL
from gasketlab.harmonic import corner_harmonics
from gasketlab.measures import MAX_TABLE_LEVEL
from gasketlab.pde import assemble_masses

LEVELS = range(9)
MID_ROOT = ((0, 2, 1), (0, 0, 1))  # corner x and y numerators over 2, as in build_level_graph
ROUTES = {"A": (BASIS, A_INT), "Y": (P_INT, Y_INT), "mid": (MID_ROOT, MID_INT)}
# zero, negative, float, string and rational entries, then seeded rational ones
TRIPLES = fraction_oracle.seeded_triples(53) + [(-0.75, 1e-3, 3.5), (-2.5, -1, "-7/3")]
INT64_LIMIT = 2**63


def kusuoka_oracle(m):
    return {w: Fraction(sum(x * x for col in cols for x in col), 18 * 15**m)
            for w, cols in dfs.cell_leaves(m, P_INT, (Y_INT,) * 3)}


def energy_oracle(u, m):
    nums, d = to_numerators([Fraction(x) for x in u])
    return {w: Fraction(pairwise_sq(v), 2 * 15**m * d * d)
            for w, (v,) in dfs.cell_leaves(m, (nums,), (A_INT,))}


def extension_oracle(u, g):
    """The per-vertex fill over the depth-first leaves, asserting agreement."""
    nums, d = to_numerators([Fraction(x) for x in u])
    vals = [None] * g.n_vertices
    for word, (triple,) in dfs.cell_leaves(g.level, (nums,), (A_INT,)):
        for vid, val in zip(g.cells[word], triple):
            assert vals[vid] in (None, val)
            vals[vid] = val
    return [Fraction(x, d * 5**g.level) for x in vals]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("m", LEVELS)
def test_leaves_equal_depth_first_oracle(m, route):
    root, gens = ROUTES[route]
    words, leaves = cell_leaves(m, root, gens)
    ref = list(dfs.cell_leaves(m, root, (gens,) * len(root)))
    assert leaves.dtype == np.int64 and leaves.shape == (3**m, 3, len(root))
    # reversed, the level-order result is the depth-first one
    assert words[::-1] == [w for w, _ in ref]
    assert [tuple(map(tuple, c.T.tolist())) for c in leaves[::-1]] == [st for _, st in ref]


@pytest.mark.parametrize("m", LEVELS)
def test_tables_equal_depth_first_oracle_in_key_order(m):
    nu = kusuoka_measure(m)
    assert (nu.kind, nu.level) == ("kusuoka", m)
    assert list(nu.masses.items()) == list(kusuoka_oracle(m).items())
    for u in TRIPLES:
        table = energy_measure_table(u, m)
        assert table.kind == f"energy-of({tuple(str(Fraction(x)) for x in u)})"
        assert list(table.masses.items()) == list(energy_oracle(u, m).items())


@pytest.mark.parametrize("m", LEVELS)
def test_extension_and_corner_harmonics_equal_oracle(graphs, m):
    g = graphs(m)
    table = corner_harmonics(g)
    assert table.dtype == np.int64 and table.shape == (g.n_vertices, 3)
    for i, e in enumerate(BASIS):
        assert table[:, i].tolist() == [x * 5**m for x in extension_oracle(e, g)]
    for u in TRIPLES:
        assert harmonic_extend_to_level(u, m, g) == extension_oracle(u, g)
    assert harmonic_extend_to_level(TRIPLES[1], m) == extension_oracle(TRIPLES[1], g)


def test_corner_harmonics_one_traversal_per_graph(monkeypatch):
    # the step kernel, the gradient tables and every extension share the
    # table cached on the graph, scattered from the one cached A-route
    # table: one A-route traversal per level, whatever the graph, read-only
    from gasketlab import build_level_graph, build_step_kernel, exact
    from gasketlab.harmonic import CellGradientTables

    calls = []

    def spy(m, root, gens):
        calls.append(m)
        return cell_leaves(m, root, gens)

    exact.route_table.cache_clear()
    monkeypatch.setattr(exact, "cell_leaves", spy)
    try:
        for m in (3, 4):
            for _ in range(2):
                g = build_level_graph(m)
                build_step_kernel(g)
                CellGradientTables(g)
                for u in TRIPLES[:10]:
                    harmonic_extend_to_level(u, m, g)
                table = corner_harmonics(g)
                assert table is corner_harmonics(g) and not table.flags.writeable
        assert calls == [3, 4]
    finally:
        exact.route_table.cache_clear()


def entry_bound(root, gens, m):
    """Entrywise bound, in Python ints, on every level-m leaf state.

    |G_i x| <= |G_i| |x| entrywise, so U_{l+1} = max_i |G_i| U_l bounds the
    level-(l+1) states when U_l bounds the level-l ones.
    """
    bound = [[abs(x) for x in state] for state in root]
    for _ in range(m):
        bound = [[max(sum(abs(g[r][c]) * s[c] for c in range(3)) for g in gens.values())
                  for r in range(3)] for s in bound]
    return bound


def pairwise_bound(state_bound):
    a, b, c = state_bound
    return (a + b) ** 2 + (a + c) ** 2 + (b + c) ** 2


@pytest.mark.parametrize("route, guard", [
    ("A", MAX_LEVEL),        # corner_harmonics and the extension on any admitted graph
    ("A", MAX_TABLE_LEVEL),  # energy tables
    ("Y", MAX_TABLE_LEVEL),  # Kusuoka tables
    ("mid", MAX_LEVEL),      # level graphs
])
def test_fixed_routes_fit_int64_up_to_their_guards(route, guard):
    root, gens = ROUTES[route]
    bound = entry_bound(root, gens, guard)
    largest = max(max(s) for s in bound)
    squares = sum(x * x for s in bound for x in s)
    assert largest < INT64_LIMIT and squares < INT64_LIMIT
    if route == "A":  # rows of A_i sum to 5, so no entry passes 5^m, and 1^m reaches it
        assert largest == 5**guard == restrict_states("1" * guard, BASIS, A_INT)[0][0]
    if route == "mid":  # coordinates lie in [0, 1]: numerators over 2^(m+1)
        assert largest == 2 ** (guard + 1)


def test_identity_check_fits_int64_up_to_its_guard():
    """|S - 3 sum_j Q_j| with S the Y-route square sum and Q_j the pairwise
    squares of the A-route leaves stays below 2^63 at m = 8."""
    m = 8
    with pytest.raises(UsageError, match="guarded to m <= 8"):
        kusuoka_identity_check(m + 1)
    s = sum(x * x for col in entry_bound(P_INT, Y_INT, m) for x in col)
    q = sum(pairwise_bound(col) for col in entry_bound(BASIS, A_INT, m))
    assert s + 3 * q < INT64_LIMIT


@pytest.mark.parametrize("route", ROUTES)
def test_entry_bound_holds_on_every_leaf(route):
    root, gens = ROUTES[route]
    m = 6
    bound = entry_bound(root, gens, m)
    for _, states in dfs.cell_leaves(m, root, (gens,) * len(root)):
        assert all(abs(x) <= b for st, bs in zip(states, bound) for x, b in zip(st, bs))


# --- int64 products under a bound, and bulk-built Fractions -------------------

def same_fractions(got, want):
    """Equal lists of Fractions, down to the type of each part and the hash."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is Fraction and type(a.numerator) is int and type(a.denominator) is int
        assert (a.numerator, a.denominator, hash(a), repr(a)) == \
            (b.numerator, b.denominator, hash(b), repr(b))


BIG = 2**63 + 5


@pytest.mark.parametrize("nums, den", [
    (np.array([0, 6, -6, 7, -15, 2**40, -(2**40) - 3, 2**62], dtype=np.int64), 2 * 15**6 * 36),
    (np.array([0, 3, -9, 2**62], dtype=np.int64), 3 * 2**63),  # den past int64: math.gcd
    ([0, 1, -1, 12, -18, BIG, -BIG * 3, 10**40], 6),             # Python ints past 2^63
    ([0, 5, -10, 3**50, BIG], 5 * BIG),
    (np.array([4, -8, 10**30], dtype=object), 2**70),            # an object array
    ([], 7),
])
def test_fractions_over_equals_fraction(nums, den):
    want = [Fraction(n, den) for n in (nums.tolist() if isinstance(nums, np.ndarray) else nums)]
    same_fractions(fractions_over(nums, den), want)
    assert fractions_over(nums, den) == want


def test_fractions_over_rejects_a_denominator_that_is_not_positive():
    for den in (0, -3):
        with pytest.raises(UsageError, match="not positive"):
            fractions_over([1, 2], den)


def test_fractions_over_builds_values_fraction_arithmetic_accepts():
    a, b = fractions_over(np.array([6, -4], dtype=np.int64), 8)
    assert (a, b) == (Fraction(3, 4), Fraction(-1, 2))
    assert a + b == Fraction(1, 4) and a * b == Fraction(-3, 8) and a / b == -Fraction(3, 2)
    assert {a: 1}[Fraction(3, 4)] == 1 and a > b and float(a) == 0.75 and str(b) == "-1/2"


@pytest.mark.parametrize("m", (0, 3, 6))
def test_times_numerators_equal_on_both_sides_of_the_int64_bound(m):
    _, leaves = cell_leaves(m, BASIS, A_INT)
    edge = (2**29 - 1) // 5**m  # the largest sum |nums| on the int64 side
    for total, dtype in ((edge, np.int64), (edge + 1, object)):
        for nums in ((total, 0, 0), (-total, 0, 0), (total // 3, -(total // 3), total - 2 * (total // 3)),
                     (0, total - 1, -1)):
            got = times_numerators(leaves, nums)
            assert got.dtype == dtype
            want = leaves.astype(object) @ np.array(nums, dtype=object)
            assert got.tolist() == want.tolist()
            assert pairwise_sq(got.T).tolist() == pairwise_sq(want.T).tolist()


# past the int64 product: numerators beyond the bound, then an int64 product
# over a denominator beyond 2^63
PYTHON_INT_TRIPLES = [(10**22, 0, 1), (Fraction(1, 2**63), 0, Fraction(-3, 2**63))]


@pytest.mark.parametrize("u", PYTHON_INT_TRIPLES)
@pytest.mark.parametrize("m", (0, 2, 4))
def test_tables_past_the_int64_bound_equal_the_fraction_oracle(graphs, u, m):
    nums, d = to_numerators([Fraction(x) for x in u])
    large = u[0] == 10**22
    assert (times_numerators(cell_leaves(m, BASIS, A_INT)[1], nums).dtype == object) == large
    assert large or d * 5**m >= INT64_LIMIT
    table = energy_measure_table(u, m).masses
    assert list(table.items()) == list(fraction_oracle.energy_table(u, m).items())
    same_fractions(list(table.values()), list(fraction_oracle.energy_table(u, m).values()))
    g = graphs(m)
    got = harmonic_extend_to_level(u, m, g)
    same_fractions(got, fraction_oracle.extension(u, g))


@pytest.mark.parametrize("m", (0, 1, 3))
def test_cell_energy_measure_equals_the_fraction_oracle(m):
    for u in TRIPLES + PYTHON_INT_TRIPLES:
        table = fraction_oracle.energy_table(u, m)
        same_fractions([cell_energy_measure(u, w) for w in table], list(table.values()))


@pytest.mark.parametrize("m", (0, 1, 3, 4))
def test_kusuoka_table_and_masses_equal_the_fraction_oracle(graphs, m):
    nu = fraction_oracle.kusuoka_table(m)
    table = kusuoka_measure(m).masses
    assert list(table) == list(nu)
    same_fractions(list(table.values()), list(nu.values()))
    g = graphs(m)
    want_mu, want_nu = [Fraction(0)] * g.n_vertices, [Fraction(0)] * g.n_vertices
    for w, corners in g.cells.items():
        for c in corners:
            want_mu[c] += Fraction(1, 3 ** (m + 1))
            want_nu[c] += nu[w] / 3
    mu_got, nu_got = assemble_masses(g)
    same_fractions(mu_got, want_mu)
    same_fractions(nu_got, want_nu)


def test_energy_tables_share_one_read_only_traversal_per_level(monkeypatch):
    from gasketlab import exact

    calls = []
    route_of = {id(A_INT): "A", id(Y_INT): "Y"}

    def spy(m, root, gens):
        calls.append((route_of[id(gens)], m))
        return cell_leaves(m, root, gens)

    exact.route_table.cache_clear()
    monkeypatch.setattr(exact, "cell_leaves", spy)
    try:
        for u in TRIPLES + PYTHON_INT_TRIPLES:
            for m in (2, 3):
                assert list(energy_measure_table(u, m).masses.items()) == \
                    list(energy_oracle(u, m).items())
        assert kusuoka_identity_check(3) == 0
        assert calls == [("A", 2), ("A", 3), ("Y", 3)]  # the identity check reads the Y route too
        for m in (2, 3):
            leaves = exact.route_table("A", m)
            assert not leaves.flags.writeable and type(exact.cell_words(m)) is tuple
            with pytest.raises(ValueError):
                leaves[0, 0, 0] = 7
    finally:
        exact.route_table.cache_clear()


def test_each_fixed_route_is_traversed_once_per_level(monkeypatch):
    # every table over the A and Y routes reads exact.route_table: in one
    # process, two graphs a level and every consumer make one traversal per
    # (route, level), and each cached table is read-only. The spy stands in
    # for cell_leaves in every module, so a direct call is counted too
    from gasketlab import (build_level_graph, build_step_kernel, exact, gasket, graph_energy,
                           harmonic, harmonic_energy, measures, pde, walk)
    from gasketlab.harmonic import CellGradientTables

    calls = []
    route_of = {id(A_INT): "A", id(Y_INT): "Y", id(MID_INT): "mid"}

    def spy(m, root, gens):
        calls.append((route_of[id(gens)], m))
        return cell_leaves(m, root, gens)

    exact.route_table.cache_clear()
    for module in (exact, gasket, harmonic, measures, pde, walk):
        monkeypatch.setattr(module, "cell_leaves", spy, raising=False)
    try:
        for m in (3, 4):
            for _ in range(2):
                g = build_level_graph(m)
                build_step_kernel(g)
                CellGradientTables(g)
                for u in TRIPLES[:10]:
                    assert graph_energy(g, harmonic_extend_to_level(u, m, g)) == harmonic_energy(u)
                mu, nu = assemble_masses(g)
                assert sum(mu) == sum(nu) == 1
                table = corner_harmonics(g)
                assert table is corner_harmonics(g) and not table.flags.writeable
            for u in TRIPLES + PYTHON_INT_TRIPLES:
                assert list(energy_measure_table(u, m).masses.items()) == \
                    list(energy_oracle(u, m).items())
            assert list(kusuoka_measure(m).masses.items()) == list(kusuoka_oracle(m).items())
            assert kusuoka_identity_check(m) == 0
        assert sorted(calls) == [("A", 3), ("A", 4), ("Y", 3), ("Y", 4)] + [("mid", 3)] * 2 + \
            [("mid", 4)] * 2  # the midpoint route builds each graph
        for route in ("A", "Y"):
            for m in (3, 4):
                with pytest.raises(ValueError):
                    exact.route_table(route, m).flat[0] = 7
        assert type(exact.cell_words(4)) is tuple
    finally:
        exact.route_table.cache_clear()
