"""Block decomposition against brute-force oracles and pinned examples."""

import itertools
import json
import random

import networkx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbp.cli import main
from cbp.corpus import (
    corpus,
    flower,
    path_graph,
    random_block_tree,
    showcase_graph,
    spider,
    star_graph,
    triangle_chain,
)
from cbp.errors import EmptyGraph, InvalidGraph, NotConnected, ParseError
from cbp.graphs import (
    Graph,
    _walk,
    block_decomposition,
    blockset_closure,
    classify,
    graph_from_json,
    graph_to_json,
    parse_edge_list,
)
from cbp.vertices import is_connected_blockset


def test_graph_normalizes_and_deduplicates_edges():
    g = Graph(3, ((2, 1), (0, 1), (1, 2)))
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.sorted_edges() == ((0, 1), (1, 2))
    assert g.adjacency() == {0: (1,), 1: (0, 2), 2: (1,)}


def test_graph_rejects_bad_input():
    with pytest.raises(InvalidGraph):
        Graph(3, ((1, 1),))
    with pytest.raises(InvalidGraph):
        Graph(2, ((0, 2),))
    with pytest.raises(InvalidGraph):
        Graph(-1, ())
    # the same int check as graph_from_json, ahead of any comparison: a
    # float endpoint would reach the decomposition, and bool endpoints
    # would serialize as false and true
    for n, edges in (
        (3, ((0.5, 1), (1, 2))),
        (3, ((0, 1.0), (1, 2))),
        (3, ((False, True), (1, 2))),
        (3.0, ((0, 1), (1, 2))),
        (True, ()),
    ):
        with pytest.raises(InvalidGraph, match="is not an int$"):
            Graph(n, edges)
    # an edge that is not a pair is refused before its endpoints are read:
    # a triple would fail to unpack, and an int cannot be iterated
    for edges in (((0, 1, 2),), (5,), ((0,),), ("01",)):
        with pytest.raises(InvalidGraph, match="is not a pair of endpoints$"):
            Graph(3, edges)


def test_graph_json_roundtrip():
    g = path_graph(3)
    assert graph_from_json(graph_to_json(g)) == g
    assert graph_to_json(g) == {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
    with pytest.raises(InvalidGraph):
        graph_from_json({"n": 2, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(InvalidGraph):
        graph_from_json({"edges": []})
    # every value must be an int, not a bool: int() would turn these into
    # other graphs
    for data in (
        {"n": 2.9, "edges": [[0, 1.5]]},
        {"n": 2.0, "edges": [[0, 1]]},
        {"n": "2", "edges": [[0, 1]]},
        {"n": True, "edges": [[0, 1]]},
        {"n": 2, "edges": [[0, 1.0]]},
        {"n": 2, "edges": [["0", 1]]},
        {"n": 2, "edges": [[False, True]]},
    ):
        with pytest.raises(InvalidGraph, match="is not an int$"):
            graph_from_json(data)


def test_parse_edge_list():
    g = parse_edge_list("0 1\n\n1 2\n")
    assert g == path_graph(2)
    assert parse_edge_list("n 3\n0 1\n1 2\n") == path_graph(2)


def test_parse_edge_list_compacts_isolated_vertices():
    with pytest.warns(UserWarning, match="isolated"):
        g = parse_edge_list("n 4\n0 1\n1 3\n")
    assert g == Graph(3, ((0, 1), (1, 2)))


def test_parse_edge_list_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 x\n")
    with pytest.raises(ParseError):
        parse_edge_list("-1 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("n x\n")
    with pytest.raises(InvalidGraph, match="self-loop"):
        parse_edge_list("2 2\n")
    with pytest.raises(InvalidGraph, match="duplicate"):
        parse_edge_list("0 1\n1 0\n")
    with pytest.raises(InvalidGraph, match="exceeds"):
        parse_edge_list("n 2\n0 5\n")


def test_is_connected():
    # block_decomposition accepts exactly the connected, non-empty graphs
    assert len(block_decomposition(path_graph(2)).blocks) == 2
    with pytest.raises(NotConnected):
        block_decomposition(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(EmptyGraph):
        block_decomposition(Graph(0, ()))


def test_block_decomposition_requires_connected_nonempty():
    with pytest.raises(EmptyGraph):
        block_decomposition(Graph(1, ()))
    with pytest.raises(NotConnected, match="^graph must be connected$"):
        block_decomposition(Graph(4, ((0, 1), (2, 3))))
    # an isolated vertex is a component of its own
    with pytest.raises(NotConnected, match="^graph must be connected$"):
        block_decomposition(Graph(3, ((0, 1),)))


def test_path3_blocks(path3_d):
    assert [sorted(b.vertices) for b in path3_d.blocks] == [[0, 1], [1, 2], [2, 3]]
    assert path3_d.cut_vertices == frozenset({1, 2})
    assert path3_d.blocks_at_vertex == {0: (0,), 1: (0, 1), 2: (1, 2), 3: (2,)}


def test_star3_blocks(star3_d):
    assert [sorted(b.vertices) for b in star3_d.blocks] == [[0, 1], [0, 2], [0, 3]]
    assert star3_d.cut_vertices == frozenset({0})


def test_bowtie_blocks(bowtie_d):
    assert [sorted(b.vertices) for b in bowtie_d.blocks] == [[0, 1, 2], [0, 3, 4]]
    assert bowtie_d.cut_vertices == frozenset({0})
    assert len(bowtie_d.blocks[0].edges) == 3


def test_showcase_blocks():
    d = block_decomposition(showcase_graph())
    assert [sorted(b.vertices) for b in d.blocks] == [
        [0, 1, 2],
        [0, 3],
        [0, 4],
        [4, 5],
        [4, 6],
        [6, 7, 8],
        [7, 9],
        [8, 10, 11, 12],
    ]
    assert d.cut_vertices == frozenset({0, 4, 6, 7, 8})


def test_blocks_match_brute_force(small_corpus):
    for name, g in small_corpus:
        if g.vertex_count > 9:
            continue
        d = block_decomposition(g)
        got = [(b.vertices, b.edges) for b in d.blocks]
        assert got == oracles.brute_blocks(g), name
        assert d.cut_vertices == frozenset(oracles.brute_cut_vertices(g)), name


def test_blocks_hold_the_graphs_edge_tuples():
    # no block keeps a copy of an edge: each one is the graph's own tuple
    for name, g in corpus(5, 7, 26):
        own = {e: e for e in g.edges}
        for blk in block_decomposition(g).blocks:
            assert all(own[e] is e for e in blk.edges), name


def block_cut_tree(d):
    """The block-cut tree as a networkx graph, read off blocks_at_vertex."""
    tree = networkx.Graph()
    tree.add_nodes_from(("B", i) for i in range(len(d.blocks)))
    tree.add_edges_from((("B", i), ("C", v)) for v in d.cut_vertices for i in d.blocks_at_vertex[v])
    return tree


def test_block_cut_tree_path3(path3_d):
    tree = block_cut_tree(path3_d)
    assert sorted(tree) == [("B", 0), ("B", 1), ("B", 2), ("C", 1), ("C", 2)]
    assert tree.number_of_edges() == 4
    assert networkx.is_tree(tree)
    assert set(tree[("C", 1)]) == {("B", 0), ("B", 1)}
    assert set(tree[("C", 2)]) == {("B", 1), ("B", 2)}


def test_blockset_closure_path3(path3_d):
    assert blockset_closure(path3_d, (1,)) == frozenset({1})
    assert blockset_closure(path3_d, (0, 2)) == frozenset({0, 1, 2})
    assert blockset_closure(path3_d, (0, 1)) == frozenset({0, 1})
    assert blockset_closure(path3_d, ()) == frozenset()
    with pytest.raises(IndexError):
        blockset_closure(path3_d, (9,))


def test_blockset_closure_refuses_an_index_that_names_no_block(path3_d):
    # past the end, negative, and bools, which would name block 0 or 1
    for a in ([5], [-1], [True], [0, -3], [True, 2]):
        with pytest.raises(IndexError):
            blockset_closure(path3_d, a)


def test_split_components(path3_d):
    # the components oracle that `facets._part_sums` is checked against
    assert oracles.split_components_at(path3_d, 1) == (frozenset({0}), frozenset({1, 2}))
    assert oracles.split_components_at(path3_d, 2) == (frozenset({0, 1}), frozenset({2}))
    assert oracles.split_components_at(path3_d, 0) == (frozenset({0, 1, 2}),)


def test_split_components_showcase():
    d = block_decomposition(showcase_graph())
    assert oracles.split_components_at(d, 4) == (
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({4, 5, 6, 7}),
    )


def classify_graph(g):
    return classify(g, block_decomposition(g))


def test_classify():
    assert classify_graph(path_graph(3)) == classify_graph(path_graph(3))
    c = classify_graph(path_graph(3))
    assert c.is_tree and c.is_cactus and c.is_block_path
    assert not c.is_eulerian_cactus
    assert c.cut_vertex_count == 2

    c = classify_graph(triangle_chain(2))
    assert c.is_eulerian_cactus and c.is_block_path and not c.is_tree

    c = classify_graph(star_graph(3))
    assert c.is_tree and not c.is_block_path

    c = classify_graph(flower(2))
    assert c.is_eulerian_cactus and c.is_block_path

    c = classify_graph(showcase_graph())
    assert c.is_cactus and not c.is_eulerian_cactus and not c.is_tree
    assert not c.is_block_path
    assert c.cut_vertex_count == 5

    assert not classify_graph(spider((2, 1, 1))).is_block_path


def connected_graphs(max_n=7):
    """Random connected graphs: a recursive spanning tree plus extra edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
        edges = {(parents[i - 1], i) for i in range(1, n)}
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        extra = draw(st.lists(st.sampled_from(pool), max_size=8))
        edges.update(extra)
        return Graph(n, tuple(edges))

    return build()


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_decomposition_properties(g):
    d = block_decomposition(g)
    block_edges = sorted(e for b in d.blocks for e in b.edges)
    assert block_edges == sorted(g.edges)
    for i in range(len(d.blocks)):
        for j in range(i + 1, len(d.blocks)):
            shared = d.blocks[i].vertices & d.blocks[j].vertices
            assert len(shared) <= 1
            assert all(v in d.cut_vertices for v in shared)
    assert d.cut_vertices == frozenset(oracles.brute_cut_vertices(g))
    for v in range(g.vertex_count):
        assert d.blocks_at_vertex[v] == tuple(i for i, b in enumerate(d.blocks) if v in b.vertices)
    assert networkx.is_tree(block_cut_tree(d))


def _assert_blocks_match_networkx(g):
    nxg = networkx.Graph(g.sorted_edges())
    nx_blocks = sorted(
        sorted(tuple(sorted(e)) for e in comp) for comp in networkx.biconnected_component_edges(nxg)
    )
    d = block_decomposition(g)
    assert sorted(sorted(b.edges) for b in d.blocks) == nx_blocks, g
    assert d.cut_vertices == frozenset(networkx.articulation_points(nxg)), g


def test_blocks_match_networkx_on_corpus():
    for entry in corpus(5, 7, 26):
        _assert_blocks_match_networkx(entry.graph)


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_blocks_match_networkx(g):
    _assert_blocks_match_networkx(g)


@pytest.fixture(scope="module")
def walk_cases(oracle_graphs):
    """The corpus of at most 5 blocks and the oracle graphs (up to 8 blocks)."""
    return [(e.name, block_decomposition(e.graph)) for e in corpus(5, 7, 26)] + list(oracle_graphs)


def networkx_block_cut_tree(d):
    """The graph in networkx and the block-cut tree networkx finds for it,
    its block nodes numbered by matching edge sets with d's blocks."""
    nxg = networkx.Graph(d.graph.sorted_edges())
    cuts = set(networkx.articulation_points(nxg))
    index = {b.edges: i for i, b in enumerate(d.blocks)}
    tree = networkx.Graph()
    for comp in networkx.biconnected_component_edges(nxg):
        edges = frozenset(tuple(sorted(e)) for e in comp)
        node = ("B", index[edges])
        tree.add_node(node)
        for v in cuts & {w for e in edges for w in e}:
            tree.add_edge(node, ("C", v))
    return nxg, tree


def test_walk_matches_the_vertex_scanning_walk(walk_cases):
    # block_cuts holds each block's cut vertices, one entry per tree edge,
    # and the walk over it visits, enters and sets parents as the vertex
    # scan does: on the small graphs from every root, and on seeded random
    # block trees of 64-256 blocks from a few roots
    rng = random.Random(33)
    for name, d in walk_cases:
        cuts = oracles.brute_cut_vertices(d.graph)
        assert [set(held) for held in d.block_cuts] == [b.vertices & cuts for b in d.blocks], name
        assert sum(map(len, d.block_cuts)) == len(d.blocks) + len(d.cut_vertices) - 1, name
        n = len(d.blocks)
        for root in range(n):
            bans = [frozenset()] + [frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(4)]
            for banned in bans:
                expected = oracles.vertex_scan_walk(d, root, banned)
                assert _walk(d, root, banned) == expected, (name, root, sorted(banned))
    for n in (64, 128, 256):
        d = block_decomposition(random_block_tree(rng, n))
        assert sum(map(len, d.block_cuts)) == n + len(d.cut_vertices) - 1, n
        for root in [0, n - 1, *rng.sample(range(1, n - 1), 3)]:
            bans = [frozenset()] + [frozenset(rng.sample(range(n), rng.randint(1, n // 8))) for _ in range(3)]
            for banned in bans:
                order, entry, parent = walk = _walk(d, root, banned)
                assert walk == oracles.vertex_scan_walk(d, root, banned), (n, root, sorted(banned))
                assert entry[root] is parent[root] is None
                assert all(parent[b] is None for b in set(range(n)) - set(order))
                if not banned:
                    assert len(order) == n, (n, root)


def test_closure_matches_networkx_paths(walk_cases):
    # every blockset, as the block nodes of the tree paths from its smallest block
    for name, d in walk_cases:
        _, tree = networkx_block_cut_tree(d)
        n = len(d.blocks)
        for root in range(n):
            paths = networkx.single_source_shortest_path(tree, ("B", root))
            for k in range(n - root):
                for rest in itertools.combinations(range(root + 1, n), k):
                    nodes = {("B", root)}.union(*(paths[("B", b)] for b in rest))
                    expected = {i for kind, i in nodes if kind == "B"}
                    assert blockset_closure(d, (root, *rest)) == expected, (name, root, rest)


def test_blocks_command_tree_matches_networkx(walk_cases, tmp_path, capsys):
    # the `cbp blocks` tree JSON and the block-path flag, against networkx
    path = tmp_path / "graph.txt"
    for name, d in walk_cases:
        path.write_text("".join(f"{u} {v}\n" for u, v in d.graph.sorted_edges()))
        assert main(["blocks", "--graph", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        _, tree = networkx_block_cut_tree(d)
        nodes = sorted(tree)
        edges = sorted(sorted(e) for e in tree.edges)
        assert payload["tree"] == {
            "nodes": [list(x) for x in nodes],
            "edges": [[list(u), list(v)] for u, v in edges],
        }, name
        block_path = all(deg <= 2 for _, deg in tree.degree)
        assert classify(d.graph, d).is_block_path == block_path, name
        assert payload["class"]["is_block_path"] == block_path, name


def test_split_components_match_networkx(walk_cases):
    for name, d in walk_cases:
        nxg, _ = networkx_block_cut_tree(d)
        for v in networkx.articulation_points(nxg):
            rest = nxg.copy()
            rest.remove_node(v)
            expected = [
                frozenset(i for i, b in enumerate(d.blocks) if b.vertices & comp)
                for comp in networkx.connected_components(rest)
            ]
            assert oracles.split_components_at(d, v) == tuple(sorted(expected, key=min)), (name, v)


def test_is_connected_blockset_matches_networkx(walk_cases):
    for name, d in walk_cases:
        assert is_connected_blockset(d, ())
        n = len(d.blocks)
        for k in range(1, n + 1):
            for a in itertools.combinations(range(n), k):
                union = networkx.Graph([e for i in a for e in d.blocks[i].edges])
                assert is_connected_blockset(d, a) == networkx.is_connected(union), (name, a)


@settings(max_examples=40, deadline=None)
@given(g=connected_graphs(max_n=6))
def test_closure_is_idempotent_and_minimal(g):
    d = block_decomposition(g)

    for k in range(len(d.blocks) + 1):
        for a in itertools.combinations(range(len(d.blocks)), k):
            c = blockset_closure(d, a)
            assert set(a) <= c
            assert blockset_closure(d, c) == c
