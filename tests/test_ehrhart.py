"""Lattice counting and h* against box-scan, prefix-recursion and
interpolation oracles."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbp import ehrhart
from cbp.corpus import corpus, path_graph, random_block_tree, spider, star_graph, triangle_chain
from cbp.errors import AssertionFailure, BudgetExceeded
from cbp.ehrhart import (
    HStarProfile,
    count_lattice_points,
    ehrhart_coefficients,
    ehrhart_value,
    hstar_checks,
    hstar_profile,
    hstar_vector,
    narayana_vector,
)
from cbp.graphs import Graph, block_decomposition, tree_order
from cbp.hull import RationalPolyhedron, brute_force_facets
from cbp.verify import GraphContext


def oracle_hstar(counts, dim):
    """Forward solve of the binomial-basis system, written independently."""
    n = sympy.symbols("n")
    poly = sympy.interpolate(list(enumerate(counts[: dim + 1])), n)
    out = []
    for k in range(dim + 1):
        value = sympy.Rational(poly.subs(n, k))
        acc = sum(
            out[i] * sympy.binomial(k + dim - i, dim) for i in range(len(out))
        )
        out.append(int(value - acc))
    return tuple(out)


def test_counts_match_box_scan(path3_d, star3_d, path2_d):
    for d in (path3_d, star3_d, path2_d):
        h = GraphContext(d.graph).hrep
        for n in range(5):
            expected = oracles.count_dilation_points(h.rows, h.dim, n)
            assert count_lattice_points(h, n) == expected


def test_path3_counts_frozen(path3_d):
    h = GraphContext(path3_d.graph).hrep
    assert [count_lattice_points(h, n) for n in range(6)] == [1, 7, 23, 54, 105, 181]


def test_cube_counts_are_powers(star3_d):
    h = GraphContext(star3_d.graph).hrep
    assert [count_lattice_points(h, n) for n in range(5)] == [
        (n + 1) ** 3 for n in range(5)
    ]


def test_path3_ehrhart_polynomial(path3_d):
    h = GraphContext(path3_d.graph).hrep
    counts = [count_lattice_points(h, k) for k in range(4)]
    hs = hstar_vector(counts)
    coeffs = ehrhart_coefficients(hs)
    assert coeffs == (1, Fraction(8, 3), Fraction(5, 2), Fraction(5, 6))
    assert ehrhart_value(hs, 4) == 105
    assert ehrhart_value(hs, 5) == 181
    # independent interpolation through the same counts
    n = sympy.symbols("n")
    poly = sympy.interpolate(list(enumerate(counts)), n)
    expected = [Fraction(*sympy.Rational(c).as_numer_denom()) for c in
                reversed(sympy.Poly(poly, n).all_coeffs())]
    assert list(coeffs) == expected


def test_hstar_vectors_frozen():
    cases = {
        2: (1, 1, 0),
        3: (1, 3, 1, 0),
        4: (1, 6, 6, 1, 0),
    }
    for k, expected in cases.items():
        h = GraphContext(path_graph(k)).hrep
        counts = [count_lattice_points(h, n) for n in range(k + 1)]
        assert hstar_vector(counts) == expected
        assert oracle_hstar(counts, k) == expected
        assert sum(expected) == sympy.catalan(k)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_integer_hstar_matches_interpolation(counts):
    # any count vector, so the integer route is checked beyond polytopes
    d = len(counts) - 1
    hs = hstar_vector(counts)
    assert hs == oracle_hstar(counts, d)
    assert [ehrhart_value(hs, k) for k in range(d + 1)] == counts
    n = sympy.symbols("n")
    ours = sum(sympy.Rational(c.numerator, c.denominator) * n**j for j, c in enumerate(ehrhart_coefficients(hs)))
    assert sympy.expand(ours - sympy.interpolate(list(enumerate(counts)), n)) == 0


def test_hstar_depends_only_on_block_structure():
    for k in (2, 3):
        a = GraphContext(path_graph(k)).hstar
        b = GraphContext(triangle_chain(k)).hstar
        assert a.hstar == b.hstar
        assert a.evaluations == b.evaluations


def test_star_hstar_is_eulerian():
    # the unit d-cube's h* entries are the Eulerian numbers
    assert GraphContext(star_graph(3)).hstar.hstar == (1, 4, 1, 0)
    assert GraphContext(star_graph(4)).hstar.hstar == (1, 11, 11, 1, 0)
    # every block of star-k holds the center, so every blockset is
    # connected and the polytope is the unit k-cube: 2**k vertices and
    # h* = A(k, 0) .. A(k, k - 1) by the Eulerian recurrence
    for k in range(2, 13):
        ctx = GraphContext(star_graph(k))
        assert len(ctx.vertices) == 2**k
        assert ctx.hstar.hstar == tuple(oracles.eulerian_numbers(k)) + (0,), k


def test_narayana_vector():
    assert narayana_vector(3) == (1, 3, 1)
    assert narayana_vector(4) == (1, 6, 6, 1)
    assert sum(narayana_vector(5)) == 42


def test_profile_flags_cube(star3_d):
    h = GraphContext(star3_d.graph).hrep
    profile = hstar_profile(star3_d, h)
    report = hstar_checks(profile, star3_d, h)
    assert report.clauses["top_zero"]
    assert report.clauses["symmetric"]
    assert report.clauses["unimodal"]
    assert report.clauses["h1_formula"]
    assert report.gamma1 == 2
    assert profile.evaluations[3] == 64


def test_checks_pass_and_record_narayana(path3_d):
    h = GraphContext(path3_d.graph).hrep
    profile = hstar_profile(path3_d, h)
    report = hstar_checks(profile, path3_d, h)
    assert all(report.clauses.values())
    assert "narayana" in report.clauses
    assert report.narayana_index == 3


def test_checks_skip_narayana_off_block_paths(star3_d):
    h = GraphContext(star3_d.graph).hrep
    profile = hstar_profile(star3_d, h)
    report = hstar_checks(profile, star3_d, h)
    assert all(report.clauses.values())
    assert "narayana" not in report.clauses
    assert report.narayana_index is None


def test_checks_raise_on_tampered_profile(path3_d):
    h = GraphContext(path3_d.graph).hrep
    profile = hstar_profile(path3_d, h)
    bad = type(profile)(
        ehrhart_coeffs=profile.ehrhart_coeffs,
        evaluations=profile.evaluations,
        hstar=(1, 3, 2, 0),
    )
    with pytest.raises(AssertionFailure):
        hstar_checks(bad, path3_d, h)


def test_checks_read_h1_from_the_checked_vector(star3_d):
    # (0, 6, 0, 0) keeps every clause but the vertex count and the volume:
    # the cube has 8 vertices, so hstar_1 must be 8 - 4 = 4, and it predicts
    # 6 * C(6, 3) = 120 points in 4 times the cube, which has 5^3
    h = GraphContext(star3_d.graph).hrep
    profile = hstar_profile(star3_d, h)
    bad = type(profile)(
        ehrhart_coeffs=profile.ehrhart_coeffs,
        evaluations=profile.evaluations,
        hstar=(0, 6, 0, 0),
    )
    with pytest.raises(AssertionFailure) as exc:
        hstar_checks(bad, star3_d, h)
    assert exc.value.payload["failed"] == ["h1_formula", "volume"]


def test_volume_clause_counts_one_dilation_past_the_profile(star3_d):
    # (2, 4, 2, 0) keeps every other clause on the cube, and a profile whose
    # Ehrhart coefficients are expanded from it agrees with it on sum(h*) =
    # c_d d!; the count of 4 times the cube, 125, against the 170 it
    # predicts, is what rejects it
    h = GraphContext(star3_d.graph).hrep
    bad_hstar = (2, 4, 2, 0)
    bad = HStarProfile(
        ehrhart_coeffs=ehrhart_coefficients(bad_hstar),
        evaluations=hstar_profile(star3_d, h).evaluations,
        hstar=bad_hstar,
    )
    assert ehrhart_value(bad_hstar, 4) == 170
    with pytest.raises(AssertionFailure) as exc:
        hstar_checks(bad, star3_d, h)
    assert exc.value.payload["failed"] == ["volume"]


def test_count_budget(path3_d, monkeypatch):
    h = GraphContext(path3_d.graph).hrep
    monkeypatch.setattr(ehrhart, "DEFAULT_COUNT_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="^more than 3 prefixes explored$"):
        count_lattice_points(h, 2)


def test_shared_plan_counts_match_fresh_copies(oracle_graphs, monkeypatch):
    # one H-description counts every dilation through the plan its first
    # count built; a fresh copy of it per dilation builds its own
    for name, d in oracle_graphs:
        h = GraphContext(d.graph).hrep
        shared = [count_lattice_points(h, n) for n in range(h.dim + 3)]
        plan = h.lattice_plan
        fresh = [count_lattice_points(RationalPolyhedron(h.dim, h.rows), n) for n in range(h.dim + 3)]
        assert shared == fresh, name
        assert h.lattice_plan is plan, name
    # the budget still binds each count made through a plan already built
    monkeypatch.setattr(ehrhart, "DEFAULT_COUNT_BUDGET", 3)
    with pytest.raises(BudgetExceeded, match="^more than 3 prefixes explored$"):
        count_lattice_points(h, 2)
    monkeypatch.undo()
    assert count_lattice_points(h, 2) == shared[2]


def test_checks_over_corpus(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        h = GraphContext(d.graph).hrep
        profile = hstar_profile(d, h)
        report = hstar_checks(profile, d, h)
        assert all(report.clauses.values()), name


@pytest.fixture(scope="module")
def corpus_counts():
    """(name, H-description, counts at dilations 0..d+1 by the prefix
    recursion) per graph of the 102-graph sweep corpus."""
    out = []
    for e in corpus(5, 7, 26):
        h = GraphContext(e.graph).hrep
        counts = [oracles.count_lattice_prefixes(h.rows, h.dim, n) for n in range(h.dim + 2)]
        out.append((e.name, h, counts))
    return out


def test_counts_match_prefix_recursion(corpus_counts):
    for name, h, counts in corpus_counts:
        assert [count_lattice_points(h, n) for n in range(h.dim + 2)] == counts, name


def test_counts_under_coordinate_permutations(corpus_counts):
    # a counter that skips the lower bound of the negative coefficients
    # still matches in the identity order, and fails in others
    rng = random.Random(11)
    for name, h, counts in corpus_counts:
        for _ in range(2):
            perm = list(range(h.dim))
            rng.shuffle(perm)
            rows = tuple((tuple(a[p] for p in perm), b) for a, b in h.rows)
            permuted = RationalPolyhedron(h.dim, rows)
            assert [count_lattice_points(permuted, n) for n in range(h.dim + 2)] == counts, (name, perm)


def test_tree_order_counts_match_identity_order():
    # the H-description counts in block-cut tree order; the same rows in
    # the identity order count the same points, through wider keys
    cases = [(e.name, e.graph, None) for e in corpus(7, 7, 8) if len(block_decomposition(e.graph).blocks) >= 6]
    cases += [("spider-3-3-3", spider((3, 3, 3)), None), ("random-12", random_block_tree(random.Random(12), 12), 4)]
    reordered = 0
    widest = {"tree": 0, "identity": 0}  # summed over the cases, the widest key of each plan
    for name, g, top in cases:
        h = GraphContext(g).hrep
        identity = RationalPolyhedron(h.dim, h.rows)
        assert identity == h and hash(identity) == hash(h) and identity.order is None, name
        reordered += h.order != tuple(range(h.dim))
        top = h.dim + 1 if top is None else top
        assert [count_lattice_points(h, n) for n in range(top + 1)] == [
            count_lattice_points(identity, n) for n in range(top + 1)
        ], name
        widest["tree"] += max(len(slots) for _, _, slots in h.lattice_plan)
        widest["identity"] += max(len(slots) for _, _, slots in identity.lattice_plan)
    assert reordered > len(cases) // 2
    assert widest["tree"] < widest["identity"], widest


def test_tree_order_is_a_connected_permutation():
    # every prefix of the order is a blockset whose union is connected, by
    # a flood fill over the blocks' own vertices and edges
    cases = [(e.name, e.graph) for e in corpus(8, 7, 8)]
    cases += [("random-12", random_block_tree(random.Random(12), 12))]
    for name, g in cases:
        d = block_decomposition(g)
        order = tree_order(d)
        assert sorted(order) == list(range(len(d.blocks))), name
        assert GraphContext(g).hrep.order == order, name
        for k in range(1, len(order) + 1):
            prefix = [d.blocks[b] for b in order[:k]]
            vertices = set().union(*(b.vertices for b in prefix))
            edges = set().union(*(b.edges for b in prefix))
            assert oracles.subgraph_connected(vertices, edges), (name, order[:k])
    for k in range(1, 13):
        assert tree_order(block_decomposition(path_graph(k))) == tuple(range(k)), k
    # the path 0-1-2-3 with the pendant edge 1-4 has the blocks 01, 12, 14
    # and 23; 01 and 14 both end a longest block path and 01 has the
    # smaller index, and below it the pendant 14 comes before 12-23
    assert tree_order(block_decomposition(Graph(5, ((0, 1), (1, 2), (2, 3), (1, 4))))) == (0, 2, 1, 3)
    # the double description oracle's polyhedra keep the identity order
    assert brute_force_facets([(0, 0), (1, 0), (0, 1), (1, 1)]).order is None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.tuples(
            st.just(dim),
            st.lists(
                st.tuples(st.tuples(*[st.integers(-2, 2)] * dim), st.integers(-2, 3)),
                min_size=1,
                max_size=5,
            ),
            st.integers(0, 4),
            st.sampled_from([1, 70]),
        )
    )
)
def test_counts_match_box_scan_on_random_rows(case):
    # scaling every row by 70 keeps the polyhedron and pushes the slack
    # offsets past a byte, onto tuple keys
    dim, rows, n, scale = case
    h = RationalPolyhedron(dim, tuple((tuple(c * scale for c in a), b * scale) for a, b in rows))
    assert count_lattice_points(h, n) == oracles.count_dilation_points(rows, dim, n)


def test_tuple_keys_at_large_dilations(monkeypatch):
    # an offset of path-3 at dilation n reaches 2n, past a byte at n = 130
    packers = []
    real = ehrhart._key_packer
    monkeypatch.setattr(ehrhart, "_key_packer", lambda widest: packers.append(real(widest)) or packers[-1])
    for g, hs, dilations in (
        (path_graph(3), (1, 3, 1, 0), (60, 130)),
        (triangle_chain(4), (1, 6, 6, 1, 0), (60,)),
    ):
        h = GraphContext(g).hrep
        for n in dilations:
            assert count_lattice_points(h, n) == ehrhart_value(hs, n)
    assert tuple in packers and bytes in packers
    h = GraphContext(path_graph(3)).hrep
    assert count_lattice_points(h, 60) == oracles.count_lattice_prefixes(h.rows, 3, 60)


def test_empty_polyhedron_counts_zero():
    # x0 + x1 <= 1 and x0 + x1 >= 3 meet nowhere, x0 <= -1 misses the box,
    # and the zero row 0 <= -1 holds nowhere
    for rows in (
        (((1, 1), 1), ((-1, -1), -3)),
        (((1, 0), -1),),
        (((0, 0), -1), ((1, 1), 2)),
    ):
        h = RationalPolyhedron(2, rows)
        for n in range(1, 5):
            assert count_lattice_points(h, n) == 0
            assert oracles.count_dilation_points(rows, 2, n) == 0


def _counts_through(h, plan, top):
    """Counts at dilations 0..top of a fresh copy of h that counts through
    the given plan."""
    q = RationalPolyhedron(h.dim, h.rows)
    q.__dict__["lattice_plan"] = plan  # what the cached property would build
    return [count_lattice_points(q, n) for n in range(top + 1)]


def test_merged_plan_counts_match_unmerged_plan():
    # slots merged by width and members count what one slot per tail of
    # coefficients counts, on the corpus up to 6 blocks and at scale
    cases = [(e.name, e.graph, None) for e in corpus(6, 7, 8)]
    cases += [
        ("path-10", path_graph(10), 12),
        ("path-11", path_graph(11), 12),
        ("star-8", star_graph(8), 8),
        ("triangle-chain-8", triangle_chain(8), 8),
    ]
    shrunk = False
    for name, g, top in cases:
        h = GraphContext(g).hrep
        top = h.dim + 1 if top is None else top
        merged, unmerged = h.lattice_plan, oracles.unmerged_lattice_plan(h)
        assert _counts_through(h, merged, top) == _counts_through(h, unmerged, top), name
        if merged is not None:
            widths = [(len(m[2]), len(u[2])) for m, u in zip(merged, unmerged)]
            assert all(a <= b for a, b in widths), name
            shrunk |= any(a < b for a, b in widths)
    assert shrunk


@pytest.mark.parametrize("k", [10, 11])
def test_path_hstar_is_narayana_at_scale(k):
    # h* of the k-block path is N(k, 1..k) and a zero, the Narayana numbers
    # by their closed form C(k, i) C(k, i - 1) / k
    d = block_decomposition(path_graph(k))
    h = GraphContext(d.graph).hrep
    expected = tuple(sympy.binomial(k, i) * sympy.binomial(k, i - 1) // k for i in range(1, k + 1)) + (0,)
    assert hstar_profile(d, h).hstar == expected
