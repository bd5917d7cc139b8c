"""Fraction-midpoint reference for the level graph.

The package carries integer coordinate numerators down `exact.cell_leaves`;
this module keeps the level-by-level refinement with Fraction midpoints and
Fraction-pair keys, so the tests can require equal graphs. It also holds
`subtriangle_vertex_map`, the vertex map of F_i that the self-similarity
tests use.
"""

from gasketlab import UsageError
from gasketlab.gasket import BOUNDARY_COORDS, LevelGraph, Vertex


def _midpoint(a, b):
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def build_level_graph(m: int) -> LevelGraph:
    index = {}

    def vid(c):
        if c not in index:
            index[c] = len(index)
        return index[c]

    for c in BOUNDARY_COORDS:
        vid(c)

    cells_coords = {"": BOUNDARY_COORDS}
    for _ in range(m):
        nxt = {}
        for w, cs in cells_coords.items():
            for i in (1, 2, 3):
                vi = cs[i - 1]
                nxt[w + str(i)] = tuple(_midpoint(c, vi) for c in cs)
        cells_coords = nxt

    cells = {w: tuple(vid(c) for c in cs) for w, cs in sorted(cells_coords.items())}

    edge_set = set()
    for a, b, c in cells.values():
        for e in ((a, b), (a, c), (b, c)):
            edge_set.add((min(e), max(e)))
    edges = tuple(sorted(edge_set))

    nbrs = [[] for _ in range(len(index))]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)

    boundary_ids = tuple(index[c] for c in BOUNDARY_COORDS)
    vertices = tuple(
        Vertex(i, c[0], c[1], i in boundary_ids)
        for c, i in sorted(index.items(), key=lambda kv: kv[1])
    )
    return LevelGraph(
        level=m,
        vertices=vertices,
        edges=edges,
        cells=cells,
        neighbors_of=tuple(tuple(sorted(ns)) for ns in nbrs),
        boundary_ids=boundary_ids,
        index_by_coord=index,
    )


def subtriangle_vertex_map(g_child: LevelGraph, g_parent: LevelGraph, i: int) -> list[int]:
    """Ids in g_child of F_i(V_parent): entry v is the image of parent vertex v."""
    if g_child.level != g_parent.level + 1:
        raise UsageError("child graph must be one level deeper than parent")
    pi = BOUNDARY_COORDS[i - 1]
    out = []
    for v in g_parent.vertices:
        img = ((v.x + pi[0]) / 2, (v.y + pi[1]) / 2)
        out.append(g_child.index_by_coord[img])
    return out
