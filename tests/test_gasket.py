"""Combinatorics and exact geometry of the level graphs."""

import dataclasses
from fractions import Fraction

import graph_oracle
import numpy as np
import pytest

from gasketlab import CapacityError, UsageError, build_level_graph, cell_corners, neighbors
from gasketlab.exact import cell_words
from gasketlab.gasket import BOUNDARY_COORDS, graph_to_json


def brute_force_vertex_count(m):
    """Set-union enumeration of F_[w](V_0) over all length-m words."""
    pts = set()
    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(1, 2), Fraction(1, 2))]

    def rec(tri, depth):
        if depth == 0:
            pts.update(tri)
            return
        for i in range(3):
            child = tuple(((a[0] + tri[i][0]) / 2, (a[1] + tri[i][1]) / 2) for a in tri)
            rec(child, depth - 1)

    rec(tuple(corners), m)
    return len(pts)


@pytest.mark.parametrize("m", range(0, 9))
def test_graph_equals_fraction_midpoint_oracle(graphs, m):
    # integer numerators down exact.cell_leaves vs level-by-level Fraction midpoints
    g, ref = graphs(m), graph_oracle.build_level_graph(m)
    for name in ("level", "vertices", "edges", "neighbors_of", "boundary_ids"):
        assert getattr(g, name) == getattr(ref, name), name
    assert list(g.cells.items()) == list(ref.cells.items())
    assert list(g.index_by_coord.items()) == list(ref.index_by_coord.items())
    for v in range(ref.n_vertices):
        assert g.cells_at_vertex(v) == ref.cells_at_vertex(v)


@pytest.mark.parametrize("m", range(0, 7))
def test_graph_arrays_follow_the_route_word_order(graphs, m):
    # __post_init__ builds the arrays, so the oracle's hand-built graph has
    # them too; row c of corners is the c-th word of exact.cell_words, the
    # row order of every route table
    for g in (graphs(m), graph_oracle.build_level_graph(m)):
        assert g.corners.dtype == g.edge_ends.dtype == np.int64
        assert g.corners.tolist() == [list(g.cells[w]) for w in cell_words(m)]
        assert g.edge_ends.T.tolist() == [list(e) for e in g.edges]
        for a in (g.corners, g.edge_ends):
            with pytest.raises(ValueError):
                a[0, 0] = 7


def test_graph_rejects_cells_out_of_word_order(graphs):
    g = graphs(2)
    with pytest.raises(UsageError, match="lexicographic"):
        dataclasses.replace(g, cells=dict(reversed(g.cells.items())))


def test_base_counts(graphs):
    g0 = graphs(0)
    assert (g0.n_vertices, g0.n_edges, len(g0.cells)) == (3, 3, 1)
    g1 = graphs(1)
    assert (g1.n_vertices, g1.n_edges, len(g1.cells)) == (6, 9, 3)
    g2 = graphs(2)
    assert (g2.n_vertices, g2.n_edges, len(g2.cells)) == (15, 27, 9)


@pytest.mark.parametrize("m", range(0, 9))
def test_counts_formula_vs_enumeration(graphs, m):
    g = graphs(m)
    assert g.n_vertices == (3 ** (m + 1) + 3) // 2
    assert g.n_edges == 3 ** (m + 1)
    if m <= 5:  # brute force oracle gets slow beyond this
        assert g.n_vertices == brute_force_vertex_count(m)


def test_degree_structure(graphs):
    for m in (1, 2, 3):
        g = graphs(m)
        for v in g.vertices:
            expected = 2 if v.is_boundary else 4
            assert g.degree(v.id) == expected


def test_each_edge_in_one_cell(graphs):
    g = graphs(3)
    seen = {}
    for w, (a, b, c) in g.cells.items():
        for e in ((a, b), (a, c), (b, c)):
            key = (min(e), max(e))
            assert key not in seen, "edge shared between cells"
            seen[key] = w
    assert len(seen) == g.n_edges


def test_cell_corners_identity_and_composition(graphs):
    g0 = graphs(0)
    assert cell_corners("", g0) == tuple(g0.boundary_ids)

    g1 = graphs(1)
    ids = cell_corners("1", g1)
    coords = [(g1.vertices[i].x, g1.vertices[i].y) for i in ids]
    assert coords == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 4)),
    ]

    # direct composition oracle for w = "12": F_1(F_2(p_j))
    g2 = graphs(2)
    ids = cell_corners("12", g2)

    def f(i, p):
        q = BOUNDARY_COORDS[i - 1]
        return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

    for j, vid in enumerate(ids):
        expect = f(1, f(2, BOUNDARY_COORDS[j]))
        assert (g2.vertices[vid].x, g2.vertices[vid].y) == expect


def test_cell_word_length_mismatch(graphs):
    with pytest.raises(UsageError):
        cell_corners("1", graphs(2))


def test_neighbors(graphs):
    g0 = graphs(0)
    p1, p2, p3 = g0.boundary_ids
    assert neighbors(p1, g0) == {p2, p3}

    g1 = graphs(1)
    mid = g1.index_by_coord[(Fraction(1, 2), Fraction(0))]  # midpoint of (p1,p2)
    assert len(neighbors(mid, g1)) == 4
    assert len(neighbors(g1.boundary_ids[0], g1)) == 2
    with pytest.raises(UsageError):
        neighbors(10**6, g1)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_level_graph(13)


def test_nesting_property(graphs):
    # each level-(m+1) cell's corners lie in the refinement of its parent cell
    gp, gc = graphs(2), graphs(3)
    parent_coords = {
        w: {(gp.vertices[i].x, gp.vertices[i].y) for i in ids}
        for w, ids in gp.cells.items()
    }
    for w, ids in gc.cells.items():
        pw = w[:-1]
        child_pts = {(gc.vertices[i].x, gc.vertices[i].y) for i in ids}
        # children corners are midpoints/corners of the parent triangle
        pts = parent_coords[pw]
        hull = pts | {
            ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a in pts for b in pts
        }
        assert child_pts <= hull


def test_refine_coarsen_exact_roundtrip(graphs):
    # coordinates of V_m re-appear exactly inside V_{m+1} through F_i
    gp, gc = graphs(2), graphs(3)
    for i in (1, 2, 3):
        mapping = graph_oracle.subtriangle_vertex_map(gc, gp, i)
        for v in gp.vertices:
            img = gc.vertices[mapping[v.id]]
            assert img.x == (v.x + BOUNDARY_COORDS[i - 1][0]) / 2
            assert img.y == (v.y + BOUNDARY_COORDS[i - 1][1]) / 2


def test_json_export_schema(graphs):
    doc = graph_to_json(graphs(1))
    assert doc["level"] == 1
    assert len(doc["vertices"]) == 6
    assert {"id", "x_rational", "y_coeff_sqrt3_rational", "boundary"} == set(doc["vertices"][0])
    assert len(doc["edges"]) == 9
    assert len(doc["cells"]) == 3
    assert doc["cells"][0]["word"] in ("1", "2", "3")
