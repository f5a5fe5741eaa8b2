"""Inequality enumeration and construction against the brute hull oracle."""

import itertools
import random
from fractions import Fraction

import pytest

import oracles
import cbp.facets as facets
import cbp.verify as verify
from cbp.corpus import corpus, flower, path_graph, random_block_tree, star_graph
from cbp.errors import AssertionFailure, CountOverflow, RowInvalid
from cbp.facets import (
    construct_ibis,
    enumerate_ibis,
    facet_certificates,
    h_representation,
    ibi_violations,
    is_independent,
)
from cbp.graphs import Graph, _walk, block_decomposition
from cbp.hull import RationalPolyhedron, _primitive, brute_force_facets
from cbp.verify import GraphContext, check_facets
from cbp.vertices import _bits, _columns, _row_masks, enumerate_vertices, to_incidence


def certificates(d, rows, verts):
    """facet_certificates with the tight-row table and the block columns of
    the rows and vertices given here."""
    cols = _columns(d, verts)
    return facet_certificates(rows, verts, _row_masks(rows, cols, len(verts)), cols)


def tripod_d():
    """Triangle with a pendant edge at each corner; blocks: triangle first."""
    g = Graph(6, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)))
    return block_decomposition(g)


def test_both_generators_share_the_block_cap():
    d = block_decomposition(path_graph(15))
    for generate in (enumerate_ibis, construct_ibis):
        with pytest.raises(CountOverflow, match="^15 blocks exceed the enumeration cap 14$"):
            generate(d)


def test_is_independent(path3_d):
    assert is_independent(path3_d, (0, 2))
    assert not is_independent(path3_d, (0, 1))
    assert is_independent(path3_d, (1,))


def test_path3_ibis(path3_d):
    got = enumerate_ibis(path3_d)
    assert got == ((0, 0, 1), (0, 1, 0), (1, -1, 1), (1, 0, 0))
    assert construct_ibis(path3_d) == got


def test_star3_ibis_are_box_only(star3_d):
    # all blocks share the hub, so only singleton independent sets exist
    got = enumerate_ibis(star3_d)
    assert got == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert construct_ibis(star3_d) == got


def test_tripod_ibi_reaches_minus_two():
    d = tripod_d()
    target = (-2, 1, 1, 1)
    assert not ibi_violations(d, target)
    assert target in enumerate_ibis(d)
    assert target in construct_ibis(d)


def test_subset_condition_rejects_skewed_alpha():
    d = block_decomposition(path_graph(5))
    assert ibi_violations(d, (1, -2, 1, 0, 1)) == ("subset (2, 4) has interior alpha sum 0 > -1",)
    assert not ibi_violations(d, (1, -1, 1, -1, 1))


def test_ibi_violations_clauses(path3_d):
    # one case per clause; the independent set is read off alpha as the
    # blocks with alpha_b = 1
    cases = [
        ((1, 0), ("alpha has length 2, expected 3",)),
        ((1, Fraction(-1, 2), 1), ("alpha entries must be integers",)),
        ((0, 0, 0), ("no entry of alpha equals 1",)),
        ((0, -1, 0), ("no entry of alpha equals 1",)),
        ((1, 1, 0), ("blocks are not pairwise vertex-disjoint", "closure-interior alpha sum 0 != -1")),
        ((1, 2, 1), ("alpha[1] = 2 must be nonpositive on the closure interior", "closure-interior alpha sum 2 != -1")),
        ((1, -1, 0), ("alpha[1] = -1 outside the closure",)),
        ((1, 0, 1), ("closure-interior alpha sum 0 != -1",)),
        ((1, -2, 1), ("closure-interior alpha sum -2 != -1",)),
    ]
    for alpha, problems in cases:
        assert ibi_violations(path3_d, alpha) == problems, alpha


def test_path3_h_representation(path3_d):
    h = h_representation(path3_d, enumerate_ibis(path3_d))
    assert h.dim == 3
    assert h.rows == (
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -1), 0),
        ((0, 0, 1), 1),
        ((0, 1, 0), 1),
        ((1, -1, 1), 1),
        ((1, 0, 0), 1),
    )


def test_single_block_h_representation(triangle_d):
    assert h_representation(triangle_d, enumerate_ibis(triangle_d)).rows == (((-1,), 0), ((1,), 1))


def test_h_representation_matches_brute_hull():
    for d in (
        block_decomposition(path_graph(3)),
        block_decomposition(star_graph(3)),
        tripod_d(),
    ):
        expected = oracles.connected_blocksets(d.graph, d.blocks)
        points = [to_incidence(d, a) for a in expected]
        brute = brute_force_facets(points)
        assert set(h_representation(d, enumerate_ibis(d)).rows) == set(brute.rows)


def test_construction_matches_enumeration(oracle_graphs):
    # path-11 adds a block path of 1,024 rows, past the oracle graphs'
    # 8 blocks
    for name, d in [*oracle_graphs, ("path-11", block_decomposition(path_graph(11)))]:
        assert construct_ibis(d) == enumerate_ibis(d), name


def test_construction_refuses_bad_components(path3_d, monkeypatch):
    # from state (1, 0, 0) block 2 attaches at vertex 1, where no part
    # weighs 1 once every part's sum reads 0
    real = facets._part_sums
    monkeypatch.setattr(facets, "_part_sums", lambda *args: dict.fromkeys(real(*args), 0))
    message = "component weights at the attachment vertex are not one 1 and rest 0"
    with pytest.raises(AssertionFailure, match=f"^{message}$") as err:
        construct_ibis(path3_d)
    assert err.value.payload == {
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        "state": [1, 0, 0],
        "vertex": 1,
    }


def test_part_sums_match_the_components_oracle(oracle_graphs):
    # every row, and every +-1 perturbation of it that keeps the sum at 1,
    # weighs each part of the graph minus a cut vertex as the breadth-first
    # oracle's parts do, keyed by the part's block at the vertex; the walk
    # is the one the construction makes, from the row's first block
    graphs = list(oracle_graphs) + [(e.name, block_decomposition(e.graph)) for e in corpus(8, 7, 8)]
    for name, d in graphs:
        n = len(d.blocks)
        walks = [_walk(d, root) for root in range(n)]
        # per cut vertex, the key of the part holding each block: the
        # part's block at the vertex
        key_of = {}
        for v in d.cut_vertices:
            for part in oracles.split_components_at(d, v):
                (key,) = [b for b in part if v in d.blocks[b].vertices]
                key_of[v] = {**key_of.get(v, {}), **dict.fromkeys(part, key)}
        for row in construct_ibis(d):
            walk = order, _, parent = walks[row.index(1)]
            base = {v: dict.fromkeys(d.blocks_at_vertex[v], 0) for v in key_of}
            for v, key in key_of.items():
                for b, x in enumerate(row):
                    base[v][key[b]] += x
            for i, j in [(0, 0), *itertools.permutations(range(n), 2)]:
                alpha = list(row)
                alpha[i] += 1
                alpha[j] -= 1
                sub = list(alpha)
                for b in reversed(order[1:]):
                    sub[parent[b]] += sub[b]
                for v, key in key_of.items():
                    expected = dict(base[v])
                    expected[key[i]] += 1
                    expected[key[j]] -= 1
                    assert facets._part_sums(d, walk, sub, v) == expected, (name, row, i, j, v)


def test_every_row_is_reflexively_shifted(small_corpus):
    # each normalized row (a, b) of the description satisfies 2b - sum(a) = 1
    for name, g in small_corpus:
        d = block_decomposition(g)
        h = h_representation(d, enumerate_ibis(d))
        assert all(2 * b - sum(a) == 1 for a, b in h.rows), name


def test_ibi_alpha_invariants(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        for alpha in enumerate_ibis(d):
            assert sum(alpha) == 1, name
            assert all(x >= -(alpha.count(1) - 1) for x in alpha), name
            for v in sorted(d.cut_vertices):
                sums = [
                    sum(alpha[b] for b in part)
                    for part in oracles.split_components_at(d, v)
                ]
                assert sorted(sums)[-1] in (0, 1), (name, v)
                assert all(s in (0, 1) for s in sums), (name, v)
                assert sums.count(1) <= 1, (name, v)


def test_facet_certificate(path3_d):
    verts = enumerate_vertices(path3_d)
    (cert,) = certificates(path3_d, [((1, -1, 1), 1)], verts)
    # x0 - x1 + x2 hits 1 exactly at (0,), (2,), and (0, 1, 2), which span
    # a plane; the empty set is slack
    assert cert == (1 << 1 | 1 << 3 | 1 << 6, 2)
    assert certificates(path3_d, [((2, -2, 2), 2)], verts) == (cert,)


def test_facet_certificate_rejects_violated_row(path3_d):
    with pytest.raises(RowInvalid, match=r"^vertex \(0, 1\) violates the row: 2 > 1$"):
        certificates(path3_d, [((1, 1, 1), 1)], enumerate_vertices(path3_d))
    with pytest.raises(RowInvalid, match=r"^vertex \(0, 1\) violates the row: 4 > 2$"):
        certificates(path3_d, [((2, 2, 2), 2)], enumerate_vertices(path3_d))


def test_facet_certificate_on_valid_nonfacet(path3_d):
    (cert,) = certificates(path3_d, [((1, 0, 1), 2)], enumerate_vertices(path3_d))
    # x0 + x2 hits 2 only at (0, 1, 2)
    assert cert == (1 << 6, 0)


def test_facet_certificates_match_one_row_at_a_time(small_corpus, path3_d):
    for name, g in small_corpus:
        d = block_decomposition(g)
        rows = h_representation(d, enumerate_ibis(d)).rows
        verts = enumerate_vertices(d)
        expected = tuple(cert for row in rows for cert in certificates(d, [row], verts))
        assert certificates(d, rows, verts) == expected, name
    # the first violated row is the one reported
    rows = [((1, -1, 1), 1), ((2, 2, 2), 2), ((1, 1, 1), 1)]
    with pytest.raises(RowInvalid, match=r"^vertex \(0, 1\) violates the row: 4 > 2$"):
        certificates(path3_d, rows, enumerate_vertices(path3_d))


def test_all_rows_certified(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        h = h_representation(d, enumerate_ibis(d))
        verts = enumerate_vertices(d)
        full = (1 << len(verts)) - 1
        for row, (tight, rank) in zip(h.rows, certificates(d, h.rows, verts)):
            assert rank == h.dim - 1 and tight != full, (name, row)


def test_certificate_ranks_match_the_row_reference():
    # the moment rank of every row's tight vertices against the rank of
    # their incidence rows, one row per tight vertex, over the facet gate's
    # corpus and four graphs past it
    graphs = list(corpus(7, 7, 8)) + [
        ("star-10", star_graph(10)),
        ("flower-9", flower(9)),
        ("path-9", path_graph(9)),
        ("random-10", random_block_tree(random.Random(7), 10)),
    ]
    rows = 0
    for name, g in graphs:
        ctx = GraphContext(g)
        certs = facet_certificates(ctx.hrep.rows, ctx.vertices, ctx.tight_rows, ctx.columns)
        for row, (tight, rank) in zip(ctx.hrep.rows, certs):
            assert rank == oracles.affine_rank([ctx.incidence[k] for k in _bits(tight)]), (name, row)
            rows += 1
    assert rows == 1973 + 20 + 18 + 265 + 266


def test_facets_check_refuses_a_redundant_row(monkeypatch):
    # path-2's polytope is the unit square; x1 + x2 <= 2 holds on it but is
    # tight at (1, 1) alone.  The hull oracle is given the same rows, so the
    # certificate is what refuses the row
    ctx = GraphContext(path_graph(2))
    ctx.hrep = RationalPolyhedron(2, ctx.hrep.rows + (((1, 1), 2),))
    monkeypatch.setattr(verify, "brute_force_facets", lambda points: ctx.hrep)
    certs = facet_certificates(ctx.hrep.rows, ctx.vertices, ctx.tight_rows, ctx.columns)
    assert certs[-1] == (1 << 3, 0)
    assert check_facets(ctx) == {"reason": "row is not facet-defining", "row": ((1, 1), 2)}


def test_repeated_facet_clause_matches_the_fraction_oracle(monkeypatch):
    # over the sweep corpus, with twice and minus the first row added: the
    # primitive vectors check_facets keys the rows by meet exactly on the
    # pairs of positive multiples of oracles.same_hyperplane, and
    # check_facets reports the first row and its double
    pairs = same = 0
    for name, g in corpus(5, 7, 26):
        ctx = GraphContext(g)
        rows = ctx.hrep.rows
        a, b = rows[0]
        twice, minus = (tuple(2 * x for x in a), 2 * b), (tuple(-x for x in a), -b)
        extended = rows + (twice, minus)
        keys = [_primitive([*row[0], row[1]]) for row in extended]
        for i in range(len(extended)):
            for j in range(i + 1, len(extended)):
                agree = keys[i] == keys[j]
                assert agree == oracles.same_hyperplane(extended[i], extended[j]), (name, i, j)
                pairs += 1
                same += agree
        ctx.hrep = RationalPolyhedron(ctx.hrep.dim, rows + (twice,))
        monkeypatch.setattr(verify, "brute_force_facets", lambda points: ctx.hrep)
        assert check_facets(ctx) == {"reason": "two rows define one facet", "rows": [rows[0], twice]}, name
    assert (pairs, same) == (9273, 102)
