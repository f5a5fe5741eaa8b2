import random

import pytest

from cbp.corpus import corpus, flower, path_graph, random_block_tree, star_graph, triangle_chain
from cbp.graphs import Graph, block_decomposition


@pytest.fixture
def path2_d():
    return block_decomposition(path_graph(2))


@pytest.fixture
def path3_d():
    return block_decomposition(path_graph(3))


@pytest.fixture
def star3_d():
    return block_decomposition(star_graph(3))


@pytest.fixture
def bowtie_d():
    return block_decomposition(flower(2))


@pytest.fixture
def triangle_d():
    return block_decomposition(Graph(3, ((0, 1), (1, 2), (0, 2))))


@pytest.fixture(scope="session")
def small_corpus():
    return corpus(max_blocks=4, seed=7)


@pytest.fixture(scope="session")
def oracle_graphs(small_corpus):
    """Decompositions the mask kernels are checked on against their oracles:
    the small corpus, flower-5, triangle-chain-6 and 20 seeded random trees
    of at most 8 blocks."""
    rng = random.Random(3)
    graphs = list(small_corpus) + [("flower-5", flower(5)), ("triangle-chain-6", triangle_chain(6))]
    graphs += [(f"random-{i}", random_block_tree(rng, rng.randint(3, 8))) for i in range(20)]
    return [(name, block_decomposition(g)) for name, g in graphs]
