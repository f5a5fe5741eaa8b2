"""Deterministic test-graph corpus."""

import time

import pytest

import oracles
from cbp.corpus import (
    _entry_count,
    _leg_partitions,
    corpus,
    flower,
    flower_pendant,
    path_graph,
    showcase_graph,
    spider,
    star_graph,
    triangle_chain,
)
from cbp.errors import BudgetExceeded
from cbp.graphs import block_decomposition


def test_same_seed_same_corpus():
    a = corpus(max_blocks=5, seed=7)
    b = corpus(max_blocks=5, seed=7)
    assert a == b


def test_different_seed_changes_random_entries():
    a = dict(corpus(max_blocks=3, seed=7))
    b = dict(corpus(max_blocks=3, seed=8))
    assert a.keys() == b.keys()
    assert any(a[n] != b[n] for n in a if n.startswith("random-"))
    assert all(a[n] == b[n] for n in a if not n.startswith("random-"))


@pytest.mark.parametrize(
    "max_blocks,expected",
    [(3, 18), (4, 32), (6, 67), (8, 120)],
)
def test_corpus_sizes(max_blocks, expected):
    assert len(corpus(max_blocks=max_blocks, seed=7)) == expected


def test_small_corpus_names():
    names = [name for name, _ in corpus(max_blocks=3, seed=7)]
    assert len(set(names)) == len(names)
    assert "path-3" in names
    assert "star-3" in names
    assert "flower-pendant-3" in names
    assert sum(1 for n in names if n.startswith("random-")) == 8


def test_showcase_needs_eight_blocks():
    names6 = [name for name, _ in corpus(max_blocks=6, seed=7)]
    names8 = [name for name, _ in corpus(max_blocks=8, seed=7)]
    assert "showcase" not in names6
    assert "showcase" in names8


def test_entries_connected_with_intended_block_counts():
    for name, g in corpus(max_blocks=6, seed=7):
        assert oracles.subgraph_connected(range(g.vertex_count), g.edges), name
        blocks = len(block_decomposition(g).blocks)
        assert blocks <= 6, name
        if name == "showcase":
            continue
        stem, digits = name.rsplit("-", 1) if name[-1].isdigit() else (name, "")
        if stem in ("path", "star", "flower", "flower-pendant", "triangle-chain"):
            assert blocks == int(digits), name
        elif name.startswith("spider-"):
            assert blocks == sum(int(p) for p in name.split("-")[1:]), name
        elif name.startswith("random-"):
            assert blocks == int(name.split("-")[1]), name
        else:
            pytest.fail(f"unrecognized corpus name {name}")


def test_random_sizes_cover_range():
    names = [name for name, _ in corpus(max_blocks=5, seed=7)]
    for size in (3, 4, 5):
        count = sum(1 for n in names if n.startswith(f"random-{size}-"))
        assert count == 8
    assert not any(n.startswith("random-2-") for n in names)


def test_generator_shapes():
    assert path_graph(1).edges == frozenset({(0, 1)})
    assert star_graph(3).edges == frozenset({(0, 1), (0, 2), (0, 3)})
    g = flower(2)
    assert g.vertex_count == 5
    assert len(g.edges) == 6
    # k blocks total: k - 1 triangles around the hub plus one pendant edge
    fp = flower_pendant(3)
    assert fp.vertex_count == 6
    assert len(block_decomposition(fp).blocks) == 3
    assert triangle_chain(2).vertex_count == 5
    legs = spider((2, 1, 1))
    assert legs.vertex_count == 5
    assert len(block_decomposition(legs).blocks) == 4


def test_generator_argument_checks():
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        triangle_chain(0)
    with pytest.raises(ValueError):
        spider(())
    with pytest.raises(ValueError):
        spider((2, 0))


def test_showcase_graph_shape():
    g = showcase_graph()
    assert g.vertex_count == 13
    assert len(g.edges) == 15
    d = block_decomposition(g)
    assert len(d.blocks) == 8
    assert tuple(oracles.brute_blocks(g)) == tuple(
        (b.vertices, b.edges) for b in d.blocks
    )


def test_entry_count_predicts_the_corpus_size():
    # the spiders' count, the partition DP, against the listed leg
    # partitions, which grow from 0 at 3 blocks to 1,481 at 18
    for max_blocks in range(1, 19):
        for per_size in (0, 1, 8, 26):
            size = len(corpus(max_blocks, 7, per_size))
            assert _entry_count(max_blocks, per_size) == size, (max_blocks, per_size)
    assert len(_leg_partitions(18)) == 1481


def test_corpus_refuses_past_its_entry_cap():
    # 9,396 entries at 25 blocks, 11,830 at 26; a huge input is refused as
    # fast, since the count stops once it passes the cap
    assert len(corpus(25, 7)) == 9396
    for args in ((26, 7), (100, 7), (10**9, 7), (5, 7, 10**4)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="^more than 10000 corpus entries$"):
            corpus(*args)
        assert time.perf_counter() - start < 0.5, args
