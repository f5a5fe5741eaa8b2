"""Vertex adjacency, diameter, and shape checks of the polytope.

Two vertices given by nonempty blocksets are adjacent exactly when their
union induces a disconnected subgraph, or one contains the other and
exactly one block of the difference touches the smaller set.  The empty
blockset is adjacent precisely to the singletons.  The geometric test is
kept as an independent implementation for cross-checking: two vertices
are adjacent when the smallest face containing both is the segment
between them.  It runs on integer bitmasks built once per vertex list,
one mask of tight rows per vertex and one mask of tight vertices per row;
vertices i and j span an edge exactly when the AND of the row masks over
the rows tight at both is the mask of {i, j}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AssertionFailure,
    BudgetExceeded,
    DimensionMismatch,
    NotAVertex,
    NotConnectedSubset,
)
from .graphs import BlockDecomposition, graph_to_json
from .hull import RationalPolyhedron, _clear_denominators
from .vertices import BlockSubset, enumerate_vertices, is_connected_blockset, to_incidence

MAX_DIAMETER_VERTICES = 2**16


def adjacent_combinatorial(d: BlockDecomposition, a1, a2) -> bool:
    """Edge test on two distinct connected blocksets, by the block criterion."""
    s1, s2 = frozenset(a1), frozenset(a2)
    if s1 == s2:
        raise ValueError("adjacency needs two distinct blocksets")
    for s in (s1, s2):
        if not is_connected_blockset(d, s):
            raise NotConnectedSubset(f"blockset {tuple(sorted(s))} is not connected")
    if not s1 or not s2:
        return len(s1 | s2) == 1
    if not is_connected_blockset(d, s1 | s2):
        return True
    if not (s1 < s2 or s2 < s1):
        return False
    small, big = (s1, s2) if s1 < s2 else (s2, s1)
    small_vertices = set()
    for i in small:
        small_vertices |= d.blocks[i].vertices
    touching = [b for b in big - small if d.blocks[b].vertices & small_vertices]
    return len(touching) == 1


def _tight_masks(h: RationalPolyhedron, verts) -> tuple[list[int], list[int]]:
    """Validate a vertex list and return its tight-set masks.

    Bit r of the k-th vertex mask marks row r tight at vertex k; bit k of
    the r-th row mask marks the same incidence.
    """
    points = [tuple(Fraction(x) for x in p) for p in verts]
    for p in points:
        if len(p) != h.dim:
            raise DimensionMismatch(f"point has dimension {len(p)}, polyhedron {h.dim}")
    if len(set(points)) != len(points):
        raise NotAVertex("vertex list contains duplicates")
    vertex_rows = [0] * len(points)
    row_vertices = [0] * len(h.rows)
    for k, p in enumerate(points):
        denom, *q = _clear_denominators((1,) + p)
        for r, (a, b) in enumerate(h.rows):
            if sum(c * v for c, v in zip(a, q)) == b * denom:
                vertex_rows[k] |= 1 << r
                row_vertices[r] |= 1 << k
    return vertex_rows, row_vertices


def _spans_edge(vertex_rows: list[int], row_vertices: list[int], i: int, j: int) -> bool:
    """True when the rows tight at vertices i and j cut out just those two."""
    pair = (1 << i) | (1 << j)
    face = (1 << len(vertex_rows)) - 1
    common = vertex_rows[i] & vertex_rows[j]
    while common and face != pair:
        low = common & -common
        face &= row_vertices[low.bit_length() - 1]
        common ^= low
    return face == pair


def adjacent_geometric(h: RationalPolyhedron, verts, i: int, j: int) -> bool:
    """Edge test via the face spanned by the rows tight at both vertices.

    The vertex list holds distinct rational points of the polyhedron's
    dimension.
    """
    vertex_rows, row_vertices = _tight_masks(h, verts)
    if not (0 <= i < len(vertex_rows)) or not (0 <= j < len(vertex_rows)):
        raise NotAVertex(f"vertex index out of range: {i}, {j}")
    if i == j:
        raise ValueError("adjacency needs two distinct vertex indices")
    return _spans_edge(vertex_rows, row_vertices, i, j)


@dataclass(eq=False)
class PolytopeGraph:
    """Vertex list plus adjacency sets, indices into the vertex list."""

    vertices: tuple[BlockSubset, ...]
    neighbors: tuple[frozenset[int], ...]

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])


def build_polytope_graph(
    d: BlockDecomposition,
    h: RationalPolyhedron | None = None,
    method: str = "combinatorial",
) -> PolytopeGraph:
    """Assemble the full skeleton with either adjacency test."""
    verts = enumerate_vertices(d)
    nb: list[set[int]] = [set() for _ in verts]
    if method == "combinatorial":
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if adjacent_combinatorial(d, verts[i], verts[j]):
                    nb[i].add(j)
                    nb[j].add(i)
    elif method == "geometric":
        if h is None:
            raise ValueError("geometric method needs the H-description")
        vertex_rows, row_vertices = _tight_masks(h, [to_incidence(d, a) for a in verts])
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                if _spans_edge(vertex_rows, row_vertices, i, j):
                    nb[i].add(j)
                    nb[j].add(i)
    else:
        raise ValueError(f"unknown method {method!r}")
    return PolytopeGraph(vertices=verts, neighbors=tuple(frozenset(s) for s in nb))


def diameter(pg: PolytopeGraph, max_vertices: int = MAX_DIAMETER_VERTICES) -> int:
    """Largest breadth-first distance over all vertex pairs."""
    n = len(pg.vertices)
    if n > max_vertices:
        raise BudgetExceeded(f"{n} vertices exceed the diameter cap {max_vertices}")
    best = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for w in pg.neighbors[v]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        if len(dist) != n:
            raise AssertionFailure("polytope graph is disconnected")
        best = max(best, max(dist.values()))
    return best


@dataclass(frozen=True)
class HirschReport:
    diameter: int
    dim: int
    facet_count: int
    hirsch_bound: int
    diameter_le_dim: bool
    hirsch_ok: bool
    facet_count_ok: bool


def hirsch_check(d: BlockDecomposition, pg: PolytopeGraph, h: RationalPolyhedron) -> HirschReport:
    """Assert diameter <= dim, diameter <= facets - dim, facets >= 2 dim."""
    dim = len(d.blocks)
    diam = diameter(pg)
    m = len(h.rows)
    report = HirschReport(
        diameter=diam,
        dim=dim,
        facet_count=m,
        hirsch_bound=m - dim,
        diameter_le_dim=diam <= dim,
        hirsch_ok=diam <= m - dim,
        facet_count_ok=m >= 2 * dim,
    )
    if not (report.diameter_le_dim and report.hirsch_ok and report.facet_count_ok):
        raise AssertionFailure(
            "diameter bound violated",
            payload={"graph": graph_to_json(d.graph), "report": report.__dict__.copy()},
        )
    return report


@dataclass(frozen=True)
class SimplicityReport:
    is_simple: bool
    is_simplicial: bool
    predicted_simple: bool
    predicted_simplicial: bool


def simplicity_report(
    d: BlockDecomposition, pg: PolytopeGraph, h: RationalPolyhedron
) -> SimplicityReport:
    """Geometric simplicity and simpliciality next to the structural predictions.

    The polytope is simple exactly when the graph has at most one cut
    vertex, and simplicial exactly when there are at most two blocks.
    """
    dim = len(d.blocks)
    is_simple = all(pg.degree(i) == dim for i in range(len(pg.vertices)))
    _, row_vertices = _tight_masks(h, [to_incidence(d, a) for a in pg.vertices])
    is_simplicial = all(mask.bit_count() == dim for mask in row_vertices)
    return SimplicityReport(
        is_simple=is_simple,
        is_simplicial=is_simplicial,
        predicted_simple=len(d.cut_vertices) <= 1,
        predicted_simplicial=dim <= 2,
    )
