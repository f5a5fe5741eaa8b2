"""Connected-blockset enumeration against the exhaustive filter oracle."""

import random
import time
from fractions import Fraction

import pytest

import oracles
from cbp import vertices
from cbp.corpus import corpus, path_graph, random_block_tree, star_graph
from cbp.errors import CountOverflow
from cbp.facets import enumerate_ibis, h_representation
from cbp.graphs import block_decomposition, blockset_closure
from cbp.hull import _bareiss
from cbp.vertices import (
    _moments,
    _row_masks,
    count_connected_blocksets,
    enumerate_vertices,
    is_connected_blockset,
    to_incidence,
)


def test_path3_vertices(path3_d):
    assert enumerate_vertices(path3_d) == (
        (),
        (0,),
        (1,),
        (2,),
        (0, 1),
        (1, 2),
        (0, 1, 2),
    )


def test_star3_vertices(star3_d):
    # every subset is connected through the hub
    assert len(enumerate_vertices(star3_d)) == 8


def test_block_path_vertex_count_is_intervals():
    # nonempty connected subsets of a block path are exactly the intervals
    for k in range(1, 7):
        d = block_decomposition(path_graph(k))
        assert len(enumerate_vertices(d)) == k * (k + 1) // 2 + 1


def test_count_matches_enumeration(oracle_graphs):
    graphs = [(name, block_decomposition(g)) for name, g in corpus(5, 7, 26)] + list(oracle_graphs)
    for name, d in graphs:
        assert count_connected_blocksets(d) == len(enumerate_vertices(d)), name


def test_count_closed_forms():
    for k in range(1, 25):
        assert count_connected_blocksets(block_decomposition(star_graph(k))) == 2**k
        assert count_connected_blocksets(block_decomposition(path_graph(k))) == 1 + k * (k + 1) // 2


def test_triangle_vertices(triangle_d):
    assert enumerate_vertices(triangle_d) == ((), (0,))


def test_order_is_cardinality_then_lex(bowtie_d):
    verts = enumerate_vertices(bowtie_d)
    assert verts == ((), (0,), (1,), (0, 1))
    assert verts == tuple(sorted(verts, key=lambda a: (len(a), a)))


def test_matches_filter_oracle(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        got = enumerate_vertices(d)
        expected = oracles.connected_blocksets(g, d.blocks)
        assert len(got) == len(set(got)), name
        assert set(got) == expected, name


def test_is_connected_blockset_matches_closure(small_corpus):
    import itertools

    for name, g in small_corpus:
        d = block_decomposition(g)
        n = len(d.blocks)
        for k in range(n + 1):
            for a in itertools.combinations(range(n), k):
                connected = is_connected_blockset(d, a)
                assert connected == (blockset_closure(d, a) == set(a)), (name, a)


def test_is_connected_blockset_matches_closure_on_large_trees():
    # closures of random sets are connected, and a closure with one block
    # taken out or a random set mostly is not: 200 subsets of 128 blocks
    rng = random.Random(128)
    trees = [block_decomposition(random_block_tree(rng, 128)) for _ in range(4)]
    kinds = {True: 0, False: 0}
    for i in range(200):
        d = trees[i % len(trees)]
        picked = frozenset(rng.sample(range(128), rng.randint(1, 6)))
        closure = blockset_closure(d, picked)
        a = rng.choice([picked, closure, closure - {rng.choice(sorted(closure))}])
        connected = is_connected_blockset(d, a)
        assert connected == (blockset_closure(d, a) == a), (i, sorted(a))
        kinds[connected] += 1
    assert min(kinds.values()) >= 50, kinds


def test_is_connected_blockset_index_error(path3_d):
    with pytest.raises(IndexError):
        is_connected_blockset(path3_d, (5,))
    with pytest.raises(IndexError):
        is_connected_blockset(path3_d, (0, 5))
    # the same index check as blockset_closure: no float passes
    with pytest.raises(IndexError):
        is_connected_blockset(path3_d, (0.5,))
    with pytest.raises(IndexError):
        is_connected_blockset(path3_d, (0, 1.0))


def test_to_incidence(path3_d):
    assert to_incidence(path3_d, (0, 2)) == (Fraction(1), Fraction(0), Fraction(1))
    assert to_incidence(path3_d, ()) == (0, 0, 0)


def test_to_incidence_refuses_an_index_that_names_no_block(path3_d):
    # past the end, negative, and bools, which would name block 0 or 1
    for a in ([5], [-1], [True], [0, -3], [True, 2]):
        with pytest.raises(IndexError):
            to_incidence(path3_d, a)


def test_count_overflow(path3_d, monkeypatch):
    monkeypatch.setattr(vertices, "DEFAULT_VERTEX_CAP", 7)
    assert len(enumerate_vertices(path3_d)) == 7
    monkeypatch.setattr(vertices, "DEFAULT_VERTEX_CAP", 6)
    with pytest.raises(CountOverflow, match="^more than 6 connected blocksets$"):
        enumerate_vertices(path3_d)


def test_count_overflow_fires_before_enumerating():
    # star-25 has 2**25 connected blocksets, twice the default cap
    d = block_decomposition(star_graph(25))
    start = time.perf_counter()
    with pytest.raises(CountOverflow, match="more than 16777216 connected blocksets"):
        enumerate_vertices(d)
    assert time.perf_counter() - start < 1


def test_dimension_equals_block_count(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        points = [to_incidence(d, a) for a in enumerate_vertices(d)]
        assert oracles.affine_rank(points) == len(d.blocks), name


def test_row_masks_match_dot_products(oracle_graphs):
    # the seed-7 12-block random tree has a -2 coefficient in its facet rows
    random12 = block_decomposition(random_block_tree(random.Random(7), 12))
    rng = random.Random(5)
    for name, d in oracle_graphs + [("random-12", random12)]:
        verts = enumerate_vertices(d)
        points = [to_incidence(d, a) for a in verts]
        n = len(d.blocks)
        facet_rows = h_representation(d, enumerate_ibis(d)).rows
        # synthetic rows for the counter's carry and complement paths:
        # coefficients up to 3 in size, all-negative rows that every vertex
        # violates, and rows that no vertex makes tight (even values against
        # an odd right-hand side, a right-hand side past every count)
        synthetic = [
            (tuple(rng.choice((-3, -2, 2, 3, 0, 1, -1)) for _ in range(n)), rng.randint(-2 * n, 2 * n))
            for _ in range(6)
        ]
        synthetic += [
            ((-2,) * n, -2 * n - 1),
            (tuple(-1 - i % 3 for i in range(n)), -3 * n - 1),
            ((2,) * n, 1),
            ((1,) * n, n + 5),
            (((3, -3) * n)[:n], 0),
        ]
        rows, expected = [], []
        for a, b in facet_rows + tuple(synthetic):
            values = [sum(c * x for c, x in zip(a, p)) for p in points]
            # lowering the right-hand side by one makes the row violated
            for rhs in (b, b - 1):
                rows.append((a, rhs))
                tight = sum(1 << k for k, v in enumerate(values) if v == rhs)
                expected.append((tight, next((k for k, v in enumerate(values) if v > rhs), None)))
        assert _row_masks(rows, vertices._columns(d, verts), len(verts)) == expected, name
    assert min(c for a, _ in facet_rows for c in a) == -2


def test_row_masks_report_violations(path3_d):
    verts = enumerate_vertices(path3_d)
    # values 0, 1, 1, 1, 2, 2, 3 and 0, 1, -2, 1, -1, -1, 0 over the vertices
    cols = vertices._columns(path3_d, verts)
    assert _row_masks([((1, 1, 1), 1), ((1, -2, 1), 0)], cols, len(verts)) == [
        (0b0001110, 4),
        (0b1000001, 1),
    ]


def test_moments_count_and_sum_the_masked_blocksets(path3_d):
    verts = enumerate_vertices(path3_d)
    cols = vertices._columns(path3_d, verts)
    # (0,), (2,) and (0, 1, 2): three blocksets, block sums 2, 1, 2
    m = _moments(cols, 1 << 1 | 1 << 3 | 1 << 6)
    assert m == [[3, 2, 1, 2], [2, 2, 1, 1], [1, 1, 1, 1], [2, 1, 1, 2]]
    assert _bareiss(m)[0] - 1 == 2
    assert _moments(cols, 0) == [[0] * 4] * 4
    assert _bareiss(_moments(cols, 0))[0] - 1 == -1


def test_moment_rank_matches_the_row_reference_on_random_point_sets():
    # 2,000 seeded sets of 0/1 points, the points the block columns hold,
    # each masked by a random nonempty subset; a third of them get a
    # coordinate that copies, complements or fixes another, so many are
    # rank-deficient.  Then 2,000 sets of integer points in -3..3 with
    # their moment matrix summed directly: the rank identity itself
    rng = random.Random(2028)
    deficient = 0
    for _ in range(2000):
        dim = rng.randint(1, 8)
        points = [[rng.randint(0, 1) for _ in range(dim)] for _ in range(rng.randint(1, 12))]
        if dim > 1 and rng.random() < 1 / 3:
            i, j = rng.sample(range(dim), 2)
            plant = rng.choice((lambda x: x, lambda x: 1 - x, lambda x: 1))
            for p in points:
                p[j] = plant(p[i])
        cols = [sum(p[b] << k for k, p in enumerate(points)) for b in range(dim)]
        mask = rng.randrange(1, 1 << len(points))
        subset = [tuple(p) for k, p in enumerate(points) if mask >> k & 1]
        expected = oracles.affine_rank(subset)
        assert _bareiss(_moments(cols, mask))[0] - 1 == expected, (points, mask)
        deficient += expected < min(dim, len(subset) - 1)
    assert deficient > 300
    deficient = 0
    for _ in range(2000):
        dim = rng.randint(1, 6)
        points = [(1, *(rng.randint(-3, 3) for _ in range(dim))) for _ in range(rng.randint(1, 9))]
        if dim > 1 and rng.random() < 1 / 3:
            k = rng.randint(-2, 2)
            points = [p[:-1] + (k * p[-2] + p[1],) for p in points]
        m = [[sum(p[i] * p[j] for p in points) for j in range(dim + 1)] for i in range(dim + 1)]
        expected = oracles.affine_rank([p[1:] for p in points])
        assert _bareiss(m)[0] - 1 == expected, points
        deficient += expected < min(dim, len(points) - 1)
    assert deficient > 300
