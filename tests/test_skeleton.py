"""Polytope graph: adjacency rules, diameter bounds, simplicity flags."""

import itertools
import random
from functools import partial

import pytest

import oracles
from oracles import adjacent_combinatorial
from cbp import verify
from cbp.corpus import flower, path_graph, random_block_tree, star_graph, triangle_chain
from cbp.errors import AssertionFailure, BudgetExceeded, NotAVertex
from cbp.graphs import Graph, block_decomposition
from cbp.skeleton import (
    PolytopeGraph,
    _bits,
    adjacent_geometric,
    build_polytope_graph,
    diameter,
    hirsch_check,
    simplicity_report,
)
from cbp.toric import _leading_masks
from cbp.verify import GraphContext
from cbp.vertices import _columns, _row_masks, enumerate_vertices, to_incidence


def skeleton_of(d):
    """The combinatorial skeleton of d, from its context."""
    return GraphContext(d.graph).skeleton


def test_empty_set_is_adjacent_to_singletons_only(path3_d):
    assert adjacent_combinatorial(path3_d, (), (0,))
    assert adjacent_combinatorial(path3_d, (2,), ())
    assert not adjacent_combinatorial(path3_d, (), (0, 1))
    assert not adjacent_combinatorial(path3_d, (), (0, 1, 2))


def test_adjacency_rules_on_path3(path3_d):
    # disconnected union
    assert adjacent_combinatorial(path3_d, (0,), (2,))
    # incomparable with connected union
    assert not adjacent_combinatorial(path3_d, (0,), (1,))
    assert not adjacent_combinatorial(path3_d, (0, 1), (1, 2))
    assert not adjacent_combinatorial(path3_d, (0,), (1, 2))
    # containment: exactly one difference block may touch the smaller set
    assert adjacent_combinatorial(path3_d, (0,), (0, 1))
    assert adjacent_combinatorial(path3_d, (0, 1), (0, 1, 2))
    # blocks 1 and 2 lie on one side of {0}, so only block 1 touches it
    assert adjacent_combinatorial(path3_d, (0,), (0, 1, 2))


def test_containment_with_two_touching_blocks_is_no_edge(star3_d):
    # on the cube both difference blocks meet the hub: Hamming distance 2
    assert not adjacent_combinatorial(star3_d, (0,), (0, 1, 2))
    assert adjacent_combinatorial(star3_d, (0,), (0, 1))
    assert adjacent_combinatorial(star3_d, (0, 1), (0, 1, 2))


def test_geometric_matches_combinatorial_everywhere(small_corpus):
    graphs = list(small_corpus) + [
        ("flower-9", flower(9)),
        ("random-10", random_block_tree(random.Random(7), 10)),
    ]
    for name, g in graphs:
        ctx = GraphContext(g)
        d = ctx.decomposition
        comb, geo = ctx.skeleton, ctx.geometric_skeleton
        assert comb.vertices == geo.vertices == enumerate_vertices(d), name
        assert comb.neighbors == geo.neighbors, name


def test_combinatorial_skeleton_matches_pairwise_oracle(oracle_graphs):
    # the column kernels of the skeleton and of the leading terms against
    # their per-pair references, up to a thousand vertices
    extra = [
        ("flower-9", flower(9)),
        ("star-10", star_graph(10)),
        ("random-10", random_block_tree(random.Random(5), 10)),
    ]
    for name, d in oracle_graphs + [(name, block_decomposition(g)) for name, g in extra]:
        pg = skeleton_of(d)
        connected = oracles.blockset_connectivity(d)
        expected = oracles.pairwise_neighbors(pg.vertices, partial(adjacent_combinatorial, d, connected=connected))
        assert tuple(frozenset(_bits(m)) for m in pg.neighbors) == expected, name
        expected = oracles.pairwise_neighbors(pg.vertices, partial(oracles.leading_pair, d, connected=connected))
        leading = _leading_masks(d, pg.vertices, _columns(d, pg.vertices))
        assert tuple(frozenset(_bits(m)) for m in leading) == expected, name


def test_diameter_matches_bfs_oracle(oracle_graphs):
    for name, d in oracle_graphs:
        pg = skeleton_of(d)
        neighbors = [frozenset(_bits(m)) for m in pg.neighbors]
        assert diameter(pg) == oracles.bfs_diameter(neighbors), name


def bouquet(rng: random.Random, k: int) -> Graph:
    """k blocks glued at vertex 0, each an edge or a cycle of 3 to 5 vertices."""
    edges, n = [], 1
    for _ in range(k):
        ring = [0] + list(range(n, n + rng.randint(1, 4)))
        n += len(ring) - 1
        pairs = zip(ring, ring[1:] + ring[:1]) if len(ring) > 2 else [ring]
        edges += [tuple(sorted(e)) for e in pairs]
    return Graph(n, tuple(sorted(edges)))


def test_one_cut_vertex_polytope_is_the_cube():
    # every block holds the one cut vertex, so every blockset is connected
    # and the polytope is the unit n-cube: the skeleton joins exactly the
    # blocksets that differ in one block, every degree and the diameter are
    # n, and the H-description is the 2n box rows
    rng = random.Random(11)
    graphs = [(f"star-{k}", star_graph(k)) for k in range(1, 11)]
    graphs += [(f"bouquet-{k}", bouquet(rng, k)) for k in (2, 4, 6, 8)]
    for name, g in graphs:
        ctx = GraphContext(g)
        n = len(ctx.decomposition.blocks)
        assert len(ctx.decomposition.cut_vertices) <= 1, name
        pg = ctx.skeleton
        index = {frozenset(a): k for k, a in enumerate(pg.vertices)}
        assert len(index) == 2**n, name
        for k, a in enumerate(pg.vertices):
            flips = frozenset(index[frozenset(a) ^ {b}] for b in range(n))
            assert frozenset(_bits(pg.neighbors[k])) == flips, (name, a)
            assert pg.degree(k) == n, (name, a)
        assert diameter(pg) == n, name
        unit = [tuple(int(i == b) for i in range(n)) for b in range(n)]
        box = {(tuple(-c for c in e), 0) for e in unit} | {(e, 1) for e in unit}
        assert len(ctx.hrep.rows) == 2 * n and set(ctx.hrep.rows) == box, name


def test_diameter_rejects_disconnected_graph():
    # the pair {(), (0,)} has no path to the isolated (1,)
    pg = PolytopeGraph(
        vertices=((), (0,), (1,)),
        neighbors=(0b010, 0b001, 0b000),
    )
    assert oracles.bfs_diameter([frozenset(_bits(m)) for m in pg.neighbors]) is None
    with pytest.raises(AssertionFailure):
        diameter(pg)


def test_geometric_skeleton_matches_face_oracle(small_corpus):
    graphs = list(small_corpus) + [("triangle-chain-6", triangle_chain(6)), ("flower-4", flower(4))]
    for name, g in graphs:
        d = block_decomposition(g)
        h = GraphContext(d.graph).hrep
        verts = enumerate_vertices(d)
        tight = _row_masks(h.rows, _columns(d, verts), len(verts))
        pg = build_polytope_graph(d, tight, "geometric", vertices=verts)
        points = [to_incidence(d, a) for a in pg.vertices]
        for i, j in itertools.combinations(range(len(points)), 2):
            expected = oracles.face_adjacent(h.rows, points, i, j)
            assert (j in frozenset(_bits(pg.neighbors[i]))) == expected, (name, i, j)
            if name == "flower-4":
                assert adjacent_geometric(tight, len(verts), i, j) == expected, (name, i, j)


def test_build_polytope_graph_methods_agree(path3_d):
    h = GraphContext(path3_d.graph).hrep
    verts = enumerate_vertices(path3_d)
    cols = _columns(path3_d, verts)
    a = build_polytope_graph(path3_d, cols, "combinatorial", vertices=verts)
    b = build_polytope_graph(path3_d, _row_masks(h.rows, cols, len(verts)), "geometric", vertices=verts)
    assert a.vertices == b.vertices
    assert a.neighbors == b.neighbors
    with pytest.raises(ValueError):
        build_polytope_graph(path3_d, cols, "nonsense", vertices=verts)
    # the table is required: no method builds one of its own
    with pytest.raises(TypeError):
        build_polytope_graph(path3_d, method="geometric", vertices=verts)


def test_origin_neighbors_are_singletons(small_corpus):
    for name, g in small_corpus:
        pg = GraphContext(g).skeleton
        assert pg.vertices[0] == ()
        singles = {i for i, a in enumerate(pg.vertices) if len(a) == 1}
        assert frozenset(_bits(pg.neighbors[0])) == frozenset(singles), name


def test_diameters():
    # single block: a segment
    assert diameter(GraphContext(path_graph(1)).skeleton) == 1
    # three blocks at a hub: the 3-cube
    assert diameter(GraphContext(star_graph(3)).skeleton) == 3
    # block path of three: squashed to 2 by the long diagonal edges
    assert diameter(GraphContext(path_graph(3)).skeleton) == 2


def test_given_vertices_build_the_same_skeleton(oracle_graphs):
    # a vertex list and decomposition built apart from the context give the
    # context's skeleton with either method, and the list is kept as given
    for name, d in oracle_graphs:
        h = GraphContext(d.graph).hrep
        verts = enumerate_vertices(d)
        own = skeleton_of(d)
        cols = _columns(d, verts)
        tables = {"combinatorial": cols, "geometric": _row_masks(h.rows, cols, len(verts))}
        for method, table in tables.items():
            given = build_polytope_graph(d, table, method, vertices=verts)
            assert given.vertices is verts
            assert given.neighbors == own.neighbors, (name, method)


def test_vertex_cap_fires_before_enumerating(monkeypatch):
    # star-17 has 2**17 connected blocksets, predicted without listing them
    monkeypatch.setattr(verify, "enumerate_vertices", None)
    with pytest.raises(BudgetExceeded, match="131072 vertices exceed the diameter cap 16384"):
        GraphContext(star_graph(17)).skeleton


def test_hirsch_path3(path3_d):
    h = GraphContext(path3_d.graph).hrep
    pg = skeleton_of(path3_d)
    report = hirsch_check(path3_d, pg, h)
    assert report.diameter == 2
    assert report.dim == 3
    assert report.facet_count == 7
    assert report.hirsch_bound == 4
    assert report.diameter_le_dim and report.hirsch_ok and report.facet_count_ok


def test_hirsch_cube(star3_d):
    h = GraphContext(star3_d.graph).hrep
    pg = skeleton_of(star3_d)
    report = hirsch_check(star3_d, pg, h)
    assert (report.diameter, report.facet_count, report.hirsch_bound) == (3, 6, 3)


def test_hirsch_over_corpus(small_corpus):
    for name, g in small_corpus:
        ctx = GraphContext(g)
        report = hirsch_check(ctx.decomposition, ctx.skeleton, ctx.hrep)
        assert report.diameter <= report.dim, name


def test_simplicity_square(path2_d):
    report = simplicity_report(path2_d, skeleton_of(path2_d), GraphContext(path2_d.graph).tight_rows)
    assert report.is_simple and report.is_simplicial
    assert report.predicted_simple and report.predicted_simplicial


def test_simplicity_cube(star3_d):
    report = simplicity_report(star3_d, skeleton_of(star3_d), GraphContext(star3_d.graph).tight_rows)
    assert report.is_simple and not report.is_simplicial
    assert report.predicted_simple and not report.predicted_simplicial


def test_simplicity_path3(path3_d):
    report = simplicity_report(path3_d, skeleton_of(path3_d), GraphContext(path3_d.graph).tight_rows)
    assert not report.is_simple and not report.is_simplicial


def test_predictions_match_measurements(small_corpus):
    for name, g in small_corpus:
        ctx = GraphContext(g)
        report = simplicity_report(ctx.decomposition, ctx.skeleton, ctx.tight_rows)
        assert report.is_simple == report.predicted_simple, name
        assert report.is_simplicial == report.predicted_simplicial, name


def test_nonadjacency_midpoint_witness(small_corpus):
    # an incomparable non-edge pair shares its midpoint with meet and join,
    # and both of those are vertices of the polytope
    from cbp.vertices import is_connected_blockset

    for name, g in small_corpus:
        d = block_decomposition(g)
        verts = enumerate_vertices(d)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                s1, s2 = set(verts[i]), set(verts[j])
                if s1 <= s2 or s2 <= s1:
                    continue
                if not is_connected_blockset(d, s1 | s2):
                    continue
                assert not adjacent_combinatorial(d, verts[i], verts[j])
                meet, join = s1 & s2, s1 | s2
                assert is_connected_blockset(d, meet), (name, meet)
                x1 = to_incidence(d, verts[i])
                x2 = to_incidence(d, verts[j])
                lo = to_incidence(d, meet)
                hi = to_incidence(d, join)
                assert all(
                    a + b == c + e for a, b, c, e in zip(x1, x2, lo, hi)
                ), (name, verts[i], verts[j])


def test_adjacent_geometric_rejects_bad_points(path3_d):
    tight = GraphContext(path3_d.graph).tight_rows
    n = len(enumerate_vertices(path3_d))
    assert adjacent_geometric(tight, n, 0, 1)
    # a table of more vertices than given
    with pytest.raises(NotAVertex):
        adjacent_geometric(tight, n - 1, 0, 1)
    with pytest.raises(NotAVertex):
        adjacent_geometric(tight, n, 0, n)
    with pytest.raises(NotAVertex):
        adjacent_geometric(tight, n, -1, 0)
    with pytest.raises(ValueError):
        adjacent_geometric(tight, n, 1, 1)
