"""Tree DP for max-weight connected blocksets against exhaustive search."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbp import optimize
from cbp.corpus import corpus, flower, path_graph, random_block_tree, spider, star_graph, triangle_chain
from cbp.errors import BudgetExceeded, CountOverflow, NotEulerianCactus, NotTree
from cbp.graphs import Graph, block_decomposition
from cbp.optimize import (
    Solution,
    brute_force_optimum,
    eulerian_adapter,
    max_weight_connected_blockset,
    tree_adapter,
)
from cbp.vertices import enumerate_vertices, to_incidence


def test_path3_examples(path3_d):
    assert max_weight_connected_blockset(path3_d, (1, -2, 1)) == Solution((0,), 1)
    assert max_weight_connected_blockset(path3_d, (2, -1, 3)) == Solution((0, 1, 2), 4)
    assert max_weight_connected_blockset(path3_d, (-1, -2, -3)) == Solution((), 0)


def test_tie_breaks_prefer_smallest_tuple(path3_d):
    # both endpoints alone reach 1; block order prefers the left one
    assert max_weight_connected_blockset(path3_d, (1, -1, 1)) == Solution((0,), 1)
    # (2,), (1, 2) and (0, 1, 2) all reach 1; the full interval sorts first
    assert max_weight_connected_blockset(path3_d, (0, 0, 1)) == Solution((0, 1, 2), 1)


def test_brute_force_examples(path3_d, star3_d, triangle_d):
    assert brute_force_optimum(path3_d, (1, -2, 1)) == Solution((0,), 1)
    assert brute_force_optimum(triangle_d, (-5,)) == Solution((), 0)
    assert brute_force_optimum(star3_d, (1, 1, 1)) == Solution((0, 1, 2), 3)


def test_brute_force_cap(path3_d, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_BRUTE_FORCE_BLOCKS", 3)
    assert brute_force_optimum(path3_d, (1, 1, 1)) == Solution((0, 1, 2), 3)
    monkeypatch.setattr(optimize, "MAX_BRUTE_FORCE_BLOCKS", 2)
    with pytest.raises(CountOverflow, match="^3 blocks exceed the brute-force cap 2$"):
        brute_force_optimum(path3_d, (1, 1, 1))
    # it is checked before the weights are read
    with pytest.raises(CountOverflow):
        brute_force_optimum(path3_d, (1, 1))


def test_optimizer_cap(path3_d, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_OPTIMIZE_BLOCKS", 3)
    assert max_weight_connected_blockset(path3_d, (1, 1, 1)) == Solution((0, 1, 2), 3)

    def no_query(*args):
        raise AssertionError("value query before the block cap was checked")

    monkeypatch.setattr(optimize, "MAX_OPTIMIZE_BLOCKS", 2)
    monkeypatch.setattr(optimize, "_best_containing", no_query)
    with pytest.raises(BudgetExceeded, match="^3 blocks exceed the optimizer cap 2$"):
        max_weight_connected_blockset(path3_d, (1, 1, 1))
    with pytest.raises(BudgetExceeded):
        tree_adapter(path_graph(3), (1, 1, 1))
    with pytest.raises(BudgetExceeded):
        eulerian_adapter(triangle_chain(3), [1] * 9)
    # the adapters read the edge weights before the solver checks the cap
    with pytest.raises(ValueError):
        tree_adapter(path_graph(3), (1, 1))
    with pytest.raises(ValueError):
        eulerian_adapter(triangle_chain(3), [1] * 8)


def test_best_containing_matches_fraction_oracle(oracle_graphs):
    # seeded (forced, banned) queries, in any order of the forced blocks,
    # against the oracle's own closure search and branch walks
    rng = random.Random(20261021)
    trees = [block_decomposition(random_block_tree(rng, rng.randint(10, 40))) for _ in range(10)]
    cases = list(oracle_graphs) + [(f"random-{len(d.blocks)}", d) for d in trees]
    seen = set()
    for name, d in cases:
        n = len(d.blocks)
        for _ in range(30):
            w = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
            ints, scale = optimize._scaled_weights(d, w)
            forced = tuple(rng.sample(range(n), rng.randint(1, min(3, n))))
            pool = range(n) if rng.random() < 0.3 else [b for b in range(n) if b not in forced]
            banned = frozenset(rng.sample(pool, rng.randint(0, len(pool) // 2)))
            got = optimize._best_containing(d, ints, forced, banned)
            expected = oracles._fraction_best_containing(d, tuple(w), forced, banned)
            assert (None if got is None else Fraction(got, scale)) == expected, (name, forced, banned, w)
            seen.add("value" if got is not None else "banned" if banned & set(forced) else "cut off")
    assert seen == {"value", "banned", "cut off"}


def test_best_containing_matches_fraction_oracle_at_scale():
    # seeded trees of 32-128 blocks, signed integer weights; every third
    # query bans a block strictly inside the closure of forced[0] and one
    # other forced block, which cuts that block off and must give None
    rng = random.Random(20261020)
    seen = set()
    for _ in range(8):
        d = block_decomposition(random_block_tree(rng, rng.randint(32, 128)))
        n = len(d.blocks)
        tree = oracles._block_cut_adjacency(d)
        for q in range(24):
            w = [rng.randint(-9, 9) for _ in range(n)]
            forced = tuple(rng.sample(range(n), rng.randint(1, 4)))
            pool = [b for b in range(n) if b not in forced]
            banned = set(rng.sample(pool, rng.randint(0, n // 8)))
            if q % 3 == 0 and len(forced) > 1:
                inner = sorted(oracles._tree_closure(tree, forced[:2]) - set(forced))
                if inner:
                    banned.add(rng.choice(inner))
            banned = frozenset(banned)
            got = optimize._best_containing(d, w, forced, banned)
            expected = oracles._fraction_best_containing(d, tuple(map(Fraction, w)), forced, banned)
            assert got == expected, (n, forced, sorted(banned), w)
            seen.add("value" if got is not None else "cut off")
    assert seen == {"value", "cut off"}


def test_rerooted_values_match_best_containing(oracle_graphs):
    # the rerooting pass against one forced-block query per block
    rng = random.Random(20261022)
    trees = [block_decomposition(random_block_tree(rng, rng.randint(10, 200))) for _ in range(12)]
    cases = [(name, block_decomposition(g)) for name, g in corpus(7, 7, 8)]
    cases += list(oracle_graphs) + [(f"random-{len(d.blocks)}", d) for d in trees]
    for name, d in cases:
        n = len(d.blocks)
        for w in (
            [rng.randint(-1, 1) for _ in range(n)],
            [rng.randint(-2, 2) for _ in range(n)],
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)],
        ):
            ints, _ = optimize._scaled_weights(d, w)
            expected = [optimize._best_containing(d, ints, (b,), frozenset()) for b in range(n)]
            assert optimize._rerooted_values(d, ints) == expected, (name, w)


def test_tie_breaks_match_brute_force_and_oracle(path3_d):
    # blocks {0,3}, {1,2}, {1,3}: the walk from block 0 enters block 2
    # first, so block 1 hangs below block 2
    hook = block_decomposition(Graph(4, ((0, 3), (1, 2), (1, 3))))
    spider_d = block_decomposition(spider((2, 1, 1)))  # blocks 0-1, 0-3 and 0-4 at vertex 0
    # blocks {0,4,5}, {1,3}, {1,5}, {2,4}: the tree path 1 - 2 - 0 - 3
    kite = block_decomposition(Graph(6, ((0, 4), (4, 5), (0, 5), (1, 3), (1, 5), (2, 4))))
    pinned = [
        (path3_d, (-1, 0, -2), ()),  # all nonpositive: the empty set
        (path3_d, (0, 0, 0), ()),
        (path3_d, (-1, 2, 0), (1,)),  # smallest optimal block 1, a zero branch at it
        (path3_d, (-3, 2, -1), (1,)),
        (hook, (-5, 1, 1), (1, 2)),  # block 1 needs its parent, block 2
        (hook, (-5, 1, 0), (1,)),
        (hook, (-5, 0, 1), (1, 2)),  # the zero block 1 sorts first
        (spider_d, (-4, 1, 1, 0), (1, 2)),  # siblings at vertex 0 join block 1
        (spider_d, (-4, 0, 1, 0), (1, 2)),
        (kite, (1, 2, -3, 1), (0, 3)),  # ties (1,), which neither meets nor touches it
    ]
    for d, w, blockset in pinned:
        sol = max_weight_connected_blockset(d, w)
        assert sol == Solution(blockset, sum(w[b] for b in blockset)), (w, sol)
        assert sol == brute_force_optimum(d, w), w
        assert sol == oracles.fraction_max_weight_connected_blockset(d, w), w
    # forcing blocks 0 and 1, both of optimal rerooted value, takes the
    # path through block 2: the tie-break query must not report the optimum
    assert optimize._rerooted_values(kite, [1, 2, -3, 1]) == [2, 2, 1, 2]
    assert optimize._best_containing(kite, [1, 2, -3, 1], (0, 1), frozenset()) == 1

    rng = random.Random(20261023)
    seen = set()
    for _ in range(60):
        d = block_decomposition(random_block_tree(rng, rng.randint(3, 20)))
        n = len(d.blocks)
        for weights in ([rng.randint(-1, 1) for _ in range(n)], [rng.randint(-2, 2) for _ in range(n)]):
            sol = max_weight_connected_blockset(d, weights)
            assert sol == brute_force_optimum(d, weights), weights
            assert sol == oracles.fraction_max_weight_connected_blockset(d, weights), weights
            seen.add("empty" if not sol.blockset else "m > 0" if sol.blockset[0] else "m = 0")
    assert seen == {"empty", "m > 0", "m = 0"}


def tie_heavy_weights(rng, n):
    """Weights in -1..1, all zero, or over mixed denominators: many optima tie."""
    kind = rng.randrange(3)
    if kind == 0:
        return [rng.randint(-1, 1) for _ in range(n)]
    if kind == 1:
        return [0] * n
    return [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4, 6))) for _ in range(n)]


def test_brute_force_matches_oracle_on_ties(oracle_graphs):
    # enumerate_vertices lists (cardinality, lex) order, not lex order, so a
    # scan that kept its first optimum would miss the smallest tuple
    rng = random.Random(20261018)
    for name, d in oracle_graphs:
        for _ in range(8):
            w = tie_heavy_weights(rng, len(d.blocks))
            expected = Solution(*oracles.best_blockset(d.graph, d.blocks, w))
            assert brute_force_optimum(d, w) == expected, (name, w)
            assert max_weight_connected_blockset(d, w) == expected, (name, w)


def test_brute_force_core_matches_oracle_on_zero_and_tie_heavy_weights(oracle_graphs):
    # the integer core on the scaled weights, over the vertices in their
    # order, reversed and without the empty set: the Fraction scan's
    # smallest optimal tuple, the empty set at value 0
    rng = random.Random(20261026)
    for name, d in oracle_graphs:
        n = len(d.blocks)
        verts = enumerate_vertices(d)
        orders = (verts, verts[::-1], [a for a in verts if a])
        for w in [[0] * n] + [tie_heavy_weights(rng, n) for _ in range(8)]:
            ints, scale = optimize._scaled_weights(d, w)
            blockset, value = oracles.best_blockset(d.graph, d.blocks, w)
            for order in orders:
                assert optimize._brute_force(ints, order) == (blockset, value * scale), (name, w)


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def scaling_weight_vectors(rng, n):
    """Weights in -1..1, all zero, over prime denominators up to 97 (a large
    lcm) and with numerators near +-10**40."""
    return [
        [rng.randint(-1, 1) for _ in range(n)],
        [0] * n,
        [Fraction(rng.randint(-60, 60), rng.choice(PRIMES)) for _ in range(n)],
        [Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 6)) for _ in range(n)],
    ]


def test_integer_dp_matches_fraction_solver(oracle_graphs):
    # the 128-block trees also take tie-heavy vectors, from their own stream
    rng, ties = random.Random(20261019), random.Random(20261025)
    trees = [block_decomposition(random_block_tree(rng, rng.randint(20, 40))) for _ in range(20)]
    trees += [block_decomposition(random_block_tree(rng, 128)) for _ in range(3)]
    cases = list(oracle_graphs) + [(f"random-{len(d.blocks)}", d) for d in trees]
    for name, d in cases:
        n = len(d.blocks)
        tie_heavy = [tie_heavy_weights(ties, n) for _ in range(3)] if n == 128 else []
        for w in scaling_weight_vectors(rng, n) + tie_heavy:
            sol = max_weight_connected_blockset(d, w)
            assert sol == oracles.fraction_max_weight_connected_blockset(d, w), (name, w)
            assert type(sol.value) is Fraction, name


def test_tie_break_queries_only_optimal_blocks_once(monkeypatch):
    # a query with block e forced is at most e's rerooted value, so the
    # reconstruction asks only about blocks whose value is the optimum,
    # and about each block at most once per solve
    real = optimize._best_containing
    queried = []

    def recording(d, w, forced, banned):
        value = real(d, w, forced, banned)
        queried.append((forced[-1], value))
        return value

    monkeypatch.setattr(optimize, "_best_containing", recording)
    # the path 0-2-4-3-1 has blocks 0-2, 1-3, 2-4 and 3-4: block 1 is
    # optimal alone, but block 3 cuts it off from block 0
    path = block_decomposition(Graph(5, ((0, 2), (2, 4), (4, 3), (3, 1))))
    assert max_weight_connected_blockset(path, (0, 1, 1, -5)) == Solution((0, 2), 1)
    assert queried == [(1, -3), (2, 1)]

    rng = random.Random(20261026)
    for _ in range(40):
        d = block_decomposition(random_block_tree(rng, rng.randint(10, 128)))
        n = len(d.blocks)
        signed = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(n)]
        for w in (signed, tie_heavy_weights(rng, n)):
            queried.clear()
            max_weight_connected_blockset(d, w)
            full = optimize._rerooted_values(d, optimize._scaled_weights(d, w)[0])
            blocks = [b for b, _ in queried]
            assert len(set(blocks)) == len(blocks), (w, blocks)
            assert all(full[b] == max(full) for b in blocks), (w, blocks)


def test_scaled_weights_match_the_fraction_conversion():
    # int and Fraction entries are read as they are, others go through
    # Fraction; the result is the all-Fraction conversion's, in plain ints
    def all_fractions(weights):
        w = [Fraction(x) for x in weights]
        scale = lcm(*(x.denominator for x in w))
        return [x.numerator * (scale // x.denominator) for x in w], scale

    d = block_decomposition(path_graph(6))
    for weights in (
        [3, -2, 0, 7, 1, 10**40],
        [Fraction(1, 2), Fraction(-2, 3), Fraction(6, 4), Fraction(0), Fraction(5), Fraction(-7, 12)],
        ["1/2", "-3", "0.25", " 5/6 ", "1e2", "-7/14"],
        [0.5, -1.25, 3.0, 0.1, -0.0, 1e-3],
        [True, False, True, True, False, False],
        [1, Fraction(1, 3), "2/5", 0.75, True, -4],
    ):
        ints, scale = optimize._scaled_weights(d, weights)
        assert (ints, scale) == all_fractions(weights), weights
        assert all(type(x) is int for x in ints + [scale]), weights


def test_weight_length_checked(path3_d):
    with pytest.raises(ValueError):
        max_weight_connected_blockset(path3_d, (1, 2))
    with pytest.raises(ValueError):
        brute_force_optimum(path3_d, (1, 2, 3, 4))


def test_dp_matches_brute_force_and_oracle(small_corpus):
    rng = random.Random(20240817)
    for name, g in small_corpus:
        d = block_decomposition(g)
        for _ in range(20):
            w = [
                Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                for _ in d.blocks
            ]
            dp = max_weight_connected_blockset(d, w)
            bf = brute_force_optimum(d, w)
            assert dp == bf, (name, w)
            blockset, value = oracles.best_blockset(g, d.blocks, w)
            assert (dp.blockset, dp.value) == (blockset, value), (name, w)


def test_value_is_max_over_vertices(path3_d):
    w = (Fraction(3, 2), Fraction(-1, 3), Fraction(2))
    sol = max_weight_connected_blockset(path3_d, w)
    best = max(
        sum(c * x for c, x in zip(w, to_incidence(path3_d, a)))
        for a in enumerate_vertices(path3_d)
    )
    assert sol.value == best


@settings(max_examples=80, deadline=None)
@given(
    w=st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=5),
        min_size=4,
        max_size=4,
    )
)
def test_dp_matches_brute_force_on_spider(w):
    d = block_decomposition(spider((2, 1, 1)))
    assert max_weight_connected_blockset(d, w) == brute_force_optimum(d, w)


@settings(max_examples=40, deadline=None)
@given(
    w=st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=5),
        min_size=3,
        max_size=3,
    ),
    scale=st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4),
)
def test_positive_scaling_keeps_argmax(w, scale):
    assert scale > 0
    d = block_decomposition(path_graph(3))
    a = max_weight_connected_blockset(d, w)
    b = max_weight_connected_blockset(d, [scale * x for x in w])
    assert a.blockset == b.blockset
    assert b.value == scale * a.value


def test_eulerian_adapter_bowtie():
    g = flower(2)
    sol = eulerian_adapter(g, (1, 1, 1, 1, 1, 1))
    assert sol.value == 6
    assert sol.blockset == (0, 1)
    assert sol.edges == g.sorted_edges()

    # sorted edges: (0,1) (0,2) (0,3) (0,4) (1,2) (3,4); triangle A owns
    # (0,1), (0,2), (1,2)
    sol = eulerian_adapter(g, (1, 1, -1, -1, 1, -1))
    assert sol.value == 3
    assert sol.blockset == (0,)
    assert sol.edges == ((0, 1), (0, 2), (1, 2))


def test_eulerian_adapter_triangle_chain():
    g = triangle_chain(3)
    # per-triangle edge sums: +1, -5, +1; a lone outer triangle wins and
    # the disconnected outer pair is not an Eulerian option
    weights = (1, 0, 0, -5, 0, 0, 1, 0, 0)
    sol = eulerian_adapter(g, weights)
    assert sol.value == 1
    assert sol.blockset == (0,)
    assert sol.edges == ((0, 1), (0, 2), (1, 2))


def test_eulerian_output_is_eulerian():
    rng = random.Random(7)
    for g in (flower(2), flower(3), triangle_chain(2), triangle_chain(4)):
        for _ in range(10):
            w = [Fraction(rng.randint(-6, 6)) for _ in g.edges]
            sol = eulerian_adapter(g, w)
            degrees = {}
            for u, v in sol.edges:
                degrees[u] = degrees.get(u, 0) + 1
                degrees[v] = degrees.get(v, 0) + 1
            assert all(deg % 2 == 0 for deg in degrees.values())
            assert oracles.subgraph_connected(degrees.keys(), sol.edges)


def test_eulerian_adapter_rejects_non_cactus():
    with pytest.raises(NotEulerianCactus):
        eulerian_adapter(path_graph(2), (1, 1))
    with pytest.raises(NotEulerianCactus):
        eulerian_adapter(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))), (1,) * 5)
    with pytest.raises(ValueError):
        eulerian_adapter(flower(2), (1, 1))


def test_tree_adapter_path():
    sol = tree_adapter(path_graph(3), (1, -2, 1))
    assert sol.value == 1
    assert sol.edges == ((0, 1),)
    assert sol.blockset == (0,)


def test_tree_adapter_star():
    sol = tree_adapter(star_graph(3), (2, 3, 4))
    assert sol.value == 9
    assert sol.edges == ((0, 1), (0, 2), (0, 3))


def test_tree_adapter_all_negative():
    sol = tree_adapter(star_graph(3), (-1, -2, -3))
    assert sol.value == 0
    assert sol.edges == ()
    assert sol.blockset == ()


def test_adapter_edges_are_the_graphs_own():
    # a result holds no copies of edges: each is the graph's own tuple
    rng = random.Random(20261024)
    for g, adapter in (
        (path_graph(6), tree_adapter),
        (star_graph(5), tree_adapter),
        (flower(3), eulerian_adapter),
        (triangle_chain(4), eulerian_adapter),
    ):
        own = {e: e for e in g.edges}
        for _ in range(5):
            sol = adapter(g, [rng.randint(-1, 3) for _ in g.edges])
            assert sol.edges, sol
            assert all(own[e] is e for e in sol.edges), sol


def test_tree_adapter_rejects_non_tree():
    with pytest.raises(NotTree):
        tree_adapter(flower(2), (1,) * 6)
    with pytest.raises(ValueError):
        tree_adapter(path_graph(3), (1, 2))
