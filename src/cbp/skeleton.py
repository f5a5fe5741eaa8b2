"""Vertex adjacency, diameter, and shape checks of the polytope.

Two vertices given by nonempty blocksets are adjacent exactly when their
union induces a disconnected subgraph, or one contains the other and
exactly one block of the difference touches the smaller set.  The empty
blockset is adjacent precisely to the singletons.  The skeleton applies
this rule to the whole vertex list at once, on the graph's block columns
(`GraphContext.columns`: bit k of column b marks that vertex k contains
block b).  For each nonempty vertex S, with near(S) the blocks sharing a
graph vertex with S, `vertices._pair_masks` gives the vertices whose
union meets S's (meet), those containing S (sup) and those contained in
S (sub), each from O(blocks) big-int operations.  The neighbors of S are
every nonempty vertex outside meet, the supersets with exactly one block
in near(S) minus S, and the subsets T for which exactly one block b of S
is missing from T and touches it; both "exactly one" masks are ones/twos
counters over the columns.  The per-pair form of the rule on frozensets
is the reference in `tests/oracles.py`.

The geometric test is kept as an independent implementation for
cross-checking: two vertices are adjacent when the smallest face
containing both is the segment between them, that is, when no third
vertex is tight on every row tight at both.  It reads no coordinates,
only the graph's tight-row table (`GraphContext.tight_rows`, one mask of
tight vertices per row), which the facet certificates and the
simpliciality test read too, transposed into one mask of tight rows per
vertex.  With D_k the rows tight at both vertex i and vertex k, the
neighbors of i are the vertices j whose D_j is inclusion-maximal among
the D_k and belongs to j alone.  `adjacent_geometric` is the per-pair
view of the same test.

The diameter is found by a breadth-first search from every vertex at
once on int masks: each level ORs, for every vertex, the masks of the
vertices its neighbors reach into the mask of the vertices it reaches,
so a level costs one OR per edge end and there are as many levels as the
diameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssertionFailure, BudgetExceeded, NotAVertex
from .graphs import BlockDecomposition, graph_to_json
from .hull import RationalPolyhedron
from .vertices import BlockSubset, _bits, _pair_masks

MAX_DIAMETER_VERTICES = 2**14
MAX_GEOMETRIC_VERTICES = 2**12


def _vertex_rows(tight_rows, n: int) -> list[int]:
    """The tight-row table of n vertices transposed: bit r of the k-th mask
    marks row r tight at vertex k."""
    vertex_rows = [0] * n
    for r, (tight, _) in enumerate(tight_rows):
        for k in _bits(tight):
            vertex_rows[k] |= 1 << r
    return vertex_rows


def _face_neighbors(vertex_rows: list[int], i: int) -> int:
    """Mask of the vertices that span an edge with vertex i.

    With D_k the rows tight at both i and k, vertex j is a neighbor exactly
    when no other vertex k has D_k containing D_j: D_j is inclusion-maximal
    among the D_k and belongs to j alone.
    """
    rows_i = vertex_rows[i]
    owner: dict[int, int | None] = {}
    for k, rows_k in enumerate(vertex_rows):
        if k != i:
            shared = rows_k & rows_i
            owner[shared] = None if shared in owner else k
    nb = 0
    maximal: list[int] = []
    # only a larger set contains another strictly, and whatever lies below
    # a non-maximal set lies below a maximal one
    for shared in sorted(owner, key=int.bit_count, reverse=True):
        for m in maximal:
            if shared & m == shared:
                break
        else:
            maximal.append(shared)
            if owner[shared] is not None:
                nb |= 1 << owner[shared]
    return nb


def adjacent_geometric(tight_rows, n: int, i: int, j: int) -> bool:
    """Edge test via the face spanned by the rows tight at both vertices,
    on the tight-row table of a vertex list of n vertices."""
    if not (0 <= i < n) or not (0 <= j < n):
        raise NotAVertex(f"vertex index out of range: {i}, {j}")
    if i == j:
        raise ValueError("adjacency needs two distinct vertex indices")
    if any(tight >> n for tight, _ in tight_rows):
        raise NotAVertex(f"tight-row table names a vertex past the {n} given")
    return bool(_face_neighbors(_vertex_rows(tight_rows, n), i) >> j & 1)


@dataclass(eq=False)
class PolytopeGraph:
    """Vertex list plus adjacency masks: bit j of neighbors[i] marks the edge
    between vertices i and j of the vertex list."""

    vertices: tuple[BlockSubset, ...]
    neighbors: tuple[int, ...]

    def degree(self, i: int) -> int:
        return self.neighbors[i].bit_count()


def _exactly_one(masks) -> int:
    """Bits set in exactly one of the masks: a ones/twos counter."""
    ones = twos = 0
    for m in masks:
        twos |= ones & m
        ones |= m
    return ones & ~twos


def _combinatorial_neighbors(d: BlockDecomposition, verts, cols: list[int]) -> list[int]:
    """Neighbor mask of every vertex by the block rule on the block columns
    `cols` of the vertex list.

    A block b of S is missing from a subset T and touches it exactly when
    T's bit is set in touch[b] & ~cols[b], touch[b] being the OR of the
    columns of the blocks sharing a graph vertex with b.
    """
    near = d.near
    missing = []
    for b, col in enumerate(cols):
        touch = 0
        for c in _bits(near[b]):
            touch |= cols[c]
        missing.append(touch & ~col)
    full = (1 << len(verts)) - 1
    empty = full
    for col in cols:
        empty &= ~col
    singletons = _exactly_one(cols)
    nb = []
    for a, (s, reach, meet, sup, sub) in zip(verts, _pair_masks(d, verts, cols)):
        if not a:
            nb.append(singletons)
            continue
        supersets = sup & _exactly_one(cols[b] for b in _bits(reach & ~s))
        subsets = sub & _exactly_one(missing[b] for b in a)
        mask = full & ~(meet | empty) | supersets | subsets
        nb.append(mask | empty if len(a) == 1 else mask)
    return nb


def build_polytope_graph(
    d: BlockDecomposition, table, method: str, *, vertices: tuple[BlockSubset, ...]
) -> PolytopeGraph:
    """Assemble the full skeleton on the vertices `enumerate_vertices(d)`
    with either adjacency test, from the per-vertex table that the method
    reads: for "combinatorial" the block columns of the vertices
    (GraphContext.columns), for "geometric" the tight-row table of an
    H-description (GraphContext.tight_rows).
    """
    if method == "combinatorial":
        nb = _combinatorial_neighbors(d, vertices, table)
    elif method == "geometric":
        vertex_rows = _vertex_rows(table, len(vertices))
        nb = [_face_neighbors(vertex_rows, i) for i in range(len(vertices))]
    else:
        raise ValueError(f"unknown method {method!r}")
    return PolytopeGraph(vertices=vertices, neighbors=tuple(nb))


def _check_vertex_cap(n: int) -> None:
    if n > MAX_DIAMETER_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceed the diameter cap {MAX_DIAMETER_VERTICES}")


def _check_geometric_cap(n: int) -> None:
    if n > MAX_GEOMETRIC_VERTICES:
        raise BudgetExceeded(f"{n} vertices exceed the geometric skeleton cap {MAX_GEOMETRIC_VERTICES}")


def diameter(pg: PolytopeGraph) -> int:
    """Largest breadth-first distance over all vertex pairs.

    The search runs from every vertex at once: level t holds, per vertex,
    the mask of the vertices within distance t, and the next level ORs the
    masks of its neighbors into it.  The diameter is the first level at
    which every mask is full.
    """
    n = len(pg.vertices)
    everything = (1 << n) - 1
    balls = [1 << v for v in range(n)]
    depth = 0
    while any(ball != everything for ball in balls):
        grown = []
        for ball, ws in zip(balls, pg.neighbors):
            for w in _bits(ws):
                ball |= balls[w]
            grown.append(ball)
        if grown == balls:
            raise AssertionFailure("polytope graph is disconnected")
        balls = grown
        depth += 1
    return depth


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


def simplicity_report(d: BlockDecomposition, pg: PolytopeGraph, tight_rows) -> SimplicityReport:
    """Geometric simplicity and simpliciality next to the structural predictions.

    Simpliciality is read off the tight masks of the tight-row table of
    the H-description on pg's vertices (GraphContext.tight_rows): every
    facet must hold exactly dim vertices.  The polytope is simple exactly
    when the graph has at most one cut vertex, and simplicial exactly when
    there are at most two blocks.
    """
    dim = len(d.blocks)
    is_simple = all(pg.degree(i) == dim for i in range(len(pg.vertices)))
    is_simplicial = all(tight.bit_count() == dim for tight, _ in tight_rows)
    return SimplicityReport(
        is_simple=is_simple,
        is_simplicial=is_simplicial,
        predicted_simple=len(d.cut_vertices) <= 1,
        predicted_simplicial=dim <= 2,
    )
