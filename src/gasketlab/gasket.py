"""Exact combinatorics and geometry of the level-m gasket approximations V_m.

Coordinates are exact rationals in the basis (1, sqrt(3)): a vertex stores
(x, y) with Euclidean position (x, y*sqrt(3)). On V_m both are integer
numerators over 2^(m+1) (2^13 at MAX_LEVEL), carried down the
cell tree by `exact.cell_leaves`, one level at a time in int64, with the
midpoint matrices. Vertex deduplication is by integer key, never by
tolerance.

Corner order is significant everywhere: a cell's corners are listed as the
images of (p1, p2, p3), because the restriction matrices act on triples in
that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapacityError, UsageError
from .exact import MID_INT, as_rational, cell_leaves

MAX_LEVEL = 12  # |V_12| ~ 8e5 vertices; deeper levels exhaust memory for no gain

Coord = tuple[Fraction, Fraction]

P1: Coord = (Fraction(0), Fraction(0))
P2: Coord = (Fraction(1), Fraction(0))
P3: Coord = (Fraction(1, 2), Fraction(1, 2))  # (1/2, (1/2)*sqrt3)

BOUNDARY_COORDS: tuple[Coord, Coord, Coord] = (P1, P2, P3)


@dataclass(frozen=True)
class Vertex:
    id: int
    x: Fraction
    y: Fraction  # coefficient of sqrt(3)
    is_boundary: bool

    def euclidean(self) -> tuple[float, float]:
        return float(self.x), float(self.y) * 3.0**0.5


@dataclass(frozen=True)
class LevelGraph:
    """Immutable level-m graph; safe to share across threads after build.

    cells is in lexicographic word order, as exact.route_table's rows; its
    corner ids and the edges' end ids are the read-only int64 arrays corners
    (3^m, 3) and edge_ends (2, E). _derived caches tables of g (corner_harmonics).
    """

    level: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    cells: dict[str, tuple[int, int, int]]  # word -> corner ids in (p1,p2,p3) order
    neighbors_of: tuple[tuple[int, ...], ...]
    boundary_ids: tuple[int, int, int]
    index_by_coord: dict[Coord, int] = field(repr=False, default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.neighbors_of[v])

    def cells_at_vertex(self, v: int) -> tuple[str, ...]:
        return self._incidence[v]

    def __post_init__(self):
        inc: list[list[str]] = [[] for _ in range(len(self.vertices))]
        for w, corners in self.cells.items():
            for c in corners:
                inc[c].append(w)
        object.__setattr__(self, "_incidence", tuple(tuple(ws) for ws in inc))
        if list(self.cells) != sorted(self.cells):
            raise UsageError("cells must be listed in lexicographic word order")
        for name, a in (("corners", np.array(list(self.cells.values()), dtype=np.int64)),
                        ("edge_ends", np.array(self.edges, dtype=np.int64).T.copy())):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def vertex_count(m: int) -> int:
    """|V_m| = (3^(m+1) + 3) / 2."""
    return (3 ** (m + 1) + 3) // 2


def build_level_graph(m: int) -> LevelGraph:
    """Construct V_m with cells, edges and exact coordinates.

    Refinement rule: the child cell w+str(i) of a cell with corners
    (v1, v2, v3) has corners (mid(v_j, v_i))_j, with corner i staying put.
    Vertex ids follow first appearance in lexicographic word order, after
    p1, p2, p3.
    """
    if not (0 <= m <= MAX_LEVEL):
        raise CapacityError(f"level {m} outside guard range 0..{MAX_LEVEL}")

    # corners' x and y numerators over 2, carried to 2^(m+1) by the midpoint
    # maps, one int key x * side + y per point; p1, p2, p3 take ids 0, 1, 2
    root = ((0, 2, 1), (0, 0, 1))
    words, xy = cell_leaves(m, root, MID_INT)
    side = 2 ** (m + 1) + 1
    index = {(x * side + y) << m: i for i, (x, y) in enumerate(zip(*root))}
    ids = [index.setdefault(k, len(index))
           for k in (xy[:, :, 0] * side + xy[:, :, 1]).ravel().tolist()]
    cells = dict(zip(words, zip(ids[0::3], ids[1::3], ids[2::3])))

    # each side lies in one cell, so no neighbour is listed twice
    nbrs: list[list[int]] = [[] for _ in range(len(index))]
    for a, b, c in cells.values():
        nbrs[a] += (b, c)
        nbrs[b] += (a, c)
        nbrs[c] += (a, b)
    neighbors_of = tuple([tuple(sorted(ns)) for ns in nbrs])
    edges = tuple([(a, b) for a, ns in enumerate(neighbors_of) for b in ns if b > a])

    den = 2 ** (m + 1)
    frac = [Fraction(k, den) for k in range(den + 1)]  # every coordinate is one of these
    coords = [(frac[k // side], frac[k % side]) for k in index]
    vertices = tuple(Vertex(i, x, y, i < 3) for i, (x, y) in enumerate(coords))

    g = LevelGraph(
        level=m,
        vertices=vertices,
        edges=edges,
        cells=cells,
        neighbors_of=neighbors_of,
        boundary_ids=(0, 1, 2),
        index_by_coord={c: i for i, c in enumerate(coords)},
    )
    assert g.n_vertices == vertex_count(m)
    assert g.n_edges == 3 ** (m + 1)
    return g


def cell_corners(word: str, g: LevelGraph) -> tuple[int, int, int]:
    """Corner vertex ids of the addressed cell, in (p1, p2, p3)-image order."""
    if len(word) != g.level:
        raise UsageError(f"word length {len(word)} != graph level {g.level}")
    if word not in g.cells:
        raise UsageError(f"unknown cell word {word!r}")
    return g.cells[word]


def neighbors(v: int, g: LevelGraph) -> set[int]:
    if not (0 <= v < g.n_vertices):
        raise UsageError(f"unknown vertex id {v}")
    return set(g.neighbors_of[v])


def vertex_by_coord(g: LevelGraph, coord: Coord) -> int:
    """The id of the vertex at exact coordinate coord; UsageError for none,
    for a coord that is not a pair, or for an entry that is not a finite
    rational (see exact.as_rational)."""
    try:
        x, y = coord
    except (TypeError, ValueError) as exc:
        raise UsageError(f"a coordinate is a pair (x, y), got {coord!r}") from exc
    key = (as_rational(x), as_rational(y))
    if key not in g.index_by_coord:
        raise UsageError(f"no vertex at exact coordinate {coord}")
    return g.index_by_coord[key]


def graph_to_json(g: LevelGraph) -> dict:
    """JSON-ready export matching the documented schema."""
    return {
        "level": g.level,
        "vertices": [
            {
                "id": v.id,
                "x_rational": f"{v.x.numerator}/{v.x.denominator}",
                "y_coeff_sqrt3_rational": f"{v.y.numerator}/{v.y.denominator}",
                "boundary": v.is_boundary,
            }
            for v in g.vertices
        ],
        "edges": [[a, b] for a, b in g.edges],
        "cells": [{"word": w, "corners": list(c)} for w, c in g.cells.items()],
    }
