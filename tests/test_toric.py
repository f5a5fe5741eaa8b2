"""Toric basis, Buchberger verification, and the initial triangulation.

The cross-check oracle builds the toric ideal by elimination in sympy
(kernel of the homogenized monomial map) and compares its reduced
degrevlex basis with the candidate binomials.
"""

import collections
import itertools
import random

import pytest
import sympy

import oracles
from cbp import toric, verify
from cbp.corpus import corpus, path_graph, spider, star_graph, triangle_chain
from cbp.errors import (
    AssertionFailure,
    BudgetExceeded,
    LeadingTermMismatch,
    NonUnimodalSimplex,
    ReductionDiverges,
)
from cbp.graphs import block_decomposition
from cbp.verify import GraphContext
from cbp.vertices import _columns, enumerate_vertices
from cbp.toric import (
    SimplicialComplex,
    TermOrder,
    _NormalForms,
    _term_key,
    buchberger_verify,
    fiber_reduction_test,
    groebner_candidates,
    make_term_order,
    triangulation,
    triangulation_checks,
)


def initial_complex(d):
    """The triangulation of d from the basis and order of its context."""
    ctx = GraphContext(d.graph)
    return triangulation(ctx.decomposition, ctx.basis, ctx.order)


def test_term_order_variables(path3_d):
    order = make_term_order(enumerate_vertices(path3_d))
    assert order.variables == (
        (0, 1, 2),
        (0, 1),
        (1, 2),
        (0,),
        (1,),
        (2,),
        (),
    )
    assert order.rank[(0, 1, 2)] == 0
    assert order.rank[()] == 6


def test_mono_primitives():
    # degree dominates
    assert oracles.mono_cmp({0: 1}, {1: 1, 2: 1}) == -1
    # on ties the larger exponent at the lowest rank loses
    assert oracles.mono_cmp({0: 1}, {1: 1}) == -1
    assert oracles.mono_cmp({1: 1}, {0: 1}) == 1
    assert oracles.mono_cmp({0: 2, 1: 1}, {0: 2, 1: 1}) == 0
    assert oracles.mono_mul({0: 1}, {0: 2, 1: 1}) == {0: 3, 1: 1}
    assert oracles.mono_divides({0: 1}, {0: 2, 1: 1})
    assert not oracles.mono_divides({2: 1}, {0: 2})
    assert oracles.mono_div({0: 2, 1: 1}, {0: 2}) == {1: 1}
    assert oracles.mono_lcm({0: 2}, {0: 1, 1: 1}) == {0: 2, 1: 1}
    with pytest.raises(ValueError):
        oracles.mono_div({0: 1}, {0: 2})


def test_term_key_is_the_term_order():
    # every pair of monomials of degree 0..3 in 4 variables, as rank tuples
    terms = [t for k in range(4) for t in itertools.combinations_with_replacement(range(4), k)]
    for t1, t2 in itertools.product(terms, repeat=2):
        expected = oracles.mono_cmp(collections.Counter(t1), collections.Counter(t2))
        k1, k2 = _term_key(t1), _term_key(t2)
        assert (k1 > k2) - (k1 < k2) == expected, (t1, t2)


def test_path3_candidates(path3_d):
    ctx = GraphContext(path3_d.graph)
    basis, order = ctx.basis, ctx.order
    expected = {
        oracles.binomial(order, {(0,): 1, (1,): 1}, {(): 1, (0, 1): 1}),
        oracles.binomial(order, {(1,): 1, (2,): 1}, {(): 1, (1, 2): 1}),
        oracles.binomial(order, {(0,): 1, (1, 2): 1}, {(): 1, (0, 1, 2): 1}),
        oracles.binomial(order, {(2,): 1, (0, 1): 1}, {(): 1, (0, 1, 2): 1}),
        oracles.binomial(order, {(0, 1): 1, (1, 2): 1}, {(1,): 1, (0, 1, 2): 1}),
    }
    assert set(basis) == expected
    assert len(basis) == 5
    assert list(basis) == sorted(basis, key=lambda f: _term_key(f[0]))


def test_star3_candidates(star3_d):
    ctx = GraphContext(star3_d.graph)
    basis, order = ctx.basis, ctx.order
    assert len(basis) == 9
    assert oracles.binomial(order, {(1,): 1, (2,): 1}, {(): 1, (1, 2): 1}) in basis
    assert oracles.binomial(order, {(0, 1): 1, (0, 2): 1}, {(0,): 1, (0, 1, 2): 1}) in basis


def test_single_block_has_no_candidates(triangle_d):
    ctx = GraphContext(triangle_d.graph)
    assert ctx.basis == ()
    assert buchberger_verify((), ctx.order)


def test_candidates_are_homogeneous(small_corpus):
    for name, g in small_corpus:
        ctx = GraphContext(g)
        if len(ctx.decomposition.blocks) > 4:
            continue
        for f in ctx.basis:
            assert oracles.binomial_is_homogeneous(ctx.decomposition, ctx.order, f), name
    path2 = GraphContext(path_graph(2))
    assert not oracles.binomial_is_homogeneous(
        path2.decomposition,
        path2.order,
        oracles.binomial(path2.order, {(0,): 1}, {(1,): 1}),
    )


def test_buchberger_and_fiber_pass(small_corpus):
    for name, g in small_corpus:
        ctx = GraphContext(g)
        if len(ctx.decomposition.blocks) > 4:
            continue
        assert buchberger_verify(ctx.basis, ctx.order), name
        assert fiber_reduction_test(ctx.decomposition, ctx.basis, ctx.order), name


def test_dropping_a_binomial_breaks_both_checks(path3_d):
    ctx = GraphContext(path3_d.graph)
    basis, order = ctx.basis, ctx.order
    drop = oracles.binomial(order, {(0, 1): 1, (1, 2): 1}, {(1,): 1, (0, 1, 2): 1})
    rest = tuple(f for f in basis if f != drop)
    assert len(rest) == len(basis) - 1
    assert not buchberger_verify(rest, order)
    # the fixed degree 3 checks the degree-2 classes first, and one of
    # those already breaks
    assert toric.FIBER_MAX_DEGREE == 3
    assert not fiber_reduction_test(path3_d, rest, order)
    assert not oracles.pairwise_fiber_test(len(path3_d.blocks), rest, order, maxdeg=2)


def test_budget_guards(path3_d, monkeypatch):
    ctx = GraphContext(path3_d.graph)
    basis, order = ctx.basis, ctx.order
    monkeypatch.setattr(toric, "DEFAULT_FIBER_CAP", 5)
    with pytest.raises(BudgetExceeded, match="^more than 5 fiber monomials$"):
        fiber_reduction_test(path3_d, basis, order)
    # the variable cap of buchberger_verify and triangulation is the basis's
    monkeypatch.setattr(toric, "MAX_GROEBNER_VARIABLES", 7)
    assert GraphContext(path3_d.graph).basis == basis
    monkeypatch.setattr(toric, "MAX_GROEBNER_VARIABLES", 6)
    with pytest.raises(BudgetExceeded, match="^7 variables exceed the cap 6$"):
        GraphContext(path3_d.graph).basis


def test_variable_cap_fires_before_enumerating(monkeypatch):
    # star-6 has 2**6 connected blocksets, predicted without listing them
    monkeypatch.setattr(verify, "enumerate_vertices", None)
    with pytest.raises(BudgetExceeded, match="^64 variables exceed the cap 60$"):
        GraphContext(star_graph(6)).basis


def dropped_bases(basis):
    """The basis with one binomial left out, at the first, middle and last position."""
    k = len(basis)
    return [basis[:p] + basis[p + 1 :] for p in sorted({0, k // 2, k - 1})]


# The pairwise oracles reduce every S-pair, coprime ones included, and every
# pair of each image class: 38-48 s per graph on star-5, flower-5 and
# flower-pendant-5 (285 binomials).  They run on the battery graphs of the
# 5-block Groebner gate with at most 64 binomials.
ORACLE_MAX_BINOMIALS = 64


@pytest.fixture(scope="module")
def groebner_battery():
    """Contexts of the acceptance battery graphs within the 5-block Groebner gate."""
    contexts = [(name, GraphContext(g)) for name, g in corpus(max_blocks=6, seed=7)]
    return [(name, ctx) for name, ctx in contexts if len(ctx.decomposition.blocks) <= 5]


def test_checks_match_pairwise_oracles(groebner_battery):
    compared = 0
    for name, ctx in groebner_battery:
        d, basis, order = ctx.decomposition, ctx.basis, ctx.order
        if len(basis) > ORACLE_MAX_BINOMIALS:
            continue
        compared += 1
        for g in [basis] + dropped_bases(basis):
            assert buchberger_verify(g, order) == oracles.pairwise_buchberger(g), name
            expected = oracles.pairwise_fiber_test(len(d.blocks), g, order, maxdeg=3)
            assert fiber_reduction_test(d, g, order) == expected, name
    assert compared >= 39


def test_dropped_binomial_fails_both_checks(groebner_battery):
    # on these graphs, leaving out one of two or more binomials also breaks
    # the Groebner property of the rest; a single binomial leaves the empty
    # basis, which is trivially one
    graphs = [(name, ctx) for name, ctx in groebner_battery if len(ctx.basis) >= 2]
    graphs += [
        ("path-6", GraphContext(path_graph(6))),
        ("triangle-chain-6", GraphContext(triangle_chain(6))),
        ("spider-3-2-1", GraphContext(spider((3, 2, 1)))),
    ]
    for name, ctx in graphs:
        assert buchberger_verify(ctx.basis, ctx.order), name
        for g in dropped_bases(ctx.basis):
            assert not buchberger_verify(g, ctx.order), name
            assert not fiber_reduction_test(ctx.decomposition, g, ctx.order), name


def test_fiber_budget_fires_before_enumerating(path3_d, monkeypatch):
    ctx = GraphContext(path3_d.graph)
    star = GraphContext(star_graph(7))
    # 7 variables: C(8, 2) + C(9, 3) = 28 + 84 monomials of degree 2 and 3
    with monkeypatch.context() as m:
        m.setattr(toric, "DEFAULT_FIBER_CAP", 112)
        assert fiber_reduction_test(path3_d, ctx.basis, ctx.order)

    def refuse(*args):
        raise AssertionError("fiber monomials enumerated past the budget")

    # the walk of the standard monomials starts from the compatibility
    # masks and steps through their bits; under a cap that admits the
    # graph the patches fire, so the refusals below come before the walk
    monkeypatch.setattr(toric, "_compatibility_masks", refuse)
    monkeypatch.setattr(toric, "_bits", refuse)
    with monkeypatch.context() as m:
        m.setattr(toric, "DEFAULT_FIBER_CAP", 112)
        with pytest.raises(AssertionError, match="past the budget$"):
            fiber_reduction_test(path3_d, ctx.basis, ctx.order)
    with pytest.raises(BudgetExceeded, match="^more than 200000 fiber monomials$"):
        fiber_reduction_test(star.decomposition, (), star.order)
    monkeypatch.setattr(toric, "DEFAULT_FIBER_CAP", 111)
    with pytest.raises(BudgetExceeded, match="^more than 111 fiber monomials$"):
        fiber_reduction_test(path3_d, ctx.basis, ctx.order)


def test_fiber_test_matches_normal_form_route(groebner_battery):
    # the standard-monomial walk against the normal forms it replaced, on
    # every basis of the Groebner gate and five larger graphs, each basis
    # also with one binomial dropped: at every position up to
    # ORACLE_MAX_BINOMIALS binomials, at three positions past it
    graphs = groebner_battery + [
        ("path-6", GraphContext(path_graph(6))),
        ("triangle-chain-6", GraphContext(triangle_chain(6))),
        ("spider-3-2-1", GraphContext(spider((3, 2, 1)))),
        ("path-10", GraphContext(path_graph(10))),
        ("star-5", GraphContext(star_graph(5))),
    ]
    verdicts = collections.Counter()
    for name, ctx in graphs:
        basis, order = ctx.basis, ctx.order
        if len(basis) <= ORACLE_MAX_BINOMIALS:
            dropped = [basis[:p] + basis[p + 1 :] for p in range(len(basis))]
        else:
            dropped = dropped_bases(basis)
        for g in [basis] + dropped:
            verdict = fiber_reduction_test(ctx.decomposition, g, order)
            assert verdict == oracles.normal_form_fiber_test(g, order), (name, len(g))
            verdicts[verdict] += 1
    assert verdicts[True] >= len(graphs) and verdicts[False] >= 800, verdicts


def equal_image_classes(order, deg):
    """The monomials of degree deg grouped by image, classes of two or more."""
    classes = collections.defaultdict(list)
    for m in itertools.combinations_with_replacement(range(order.variable_count()), deg):
        classes[tuple(sorted(b for r in m for b in order.variables[r]))].append(m)
    return [members for members in classes.values() if len(members) >= 2]


def random_binomial(rng, classes):
    """Two monomials of one random class, the larger one leading."""
    smaller, larger = sorted(rng.sample(rng.choice(classes), 2), key=_term_key)
    return larger, smaller


def test_fiber_test_matches_normal_form_route_on_random_bases():
    # bases over the term order of path-4: part of its Groebner basis plus
    # random pairs of equal-image degree-2 monomials, so that every
    # binomial lies in the toric ideal and leads with its larger term
    rng = random.Random(3)
    ctx = GraphContext(path_graph(4))
    d, order = ctx.decomposition, ctx.order
    classes = equal_image_classes(order, 2)
    verdicts = collections.Counter()
    for _ in range(600):
        g = [f for f in ctx.basis if rng.random() < 0.9]
        g += [random_binomial(rng, classes) for _ in range(rng.randint(0, 6))]
        g = tuple(g)
        verdict = fiber_reduction_test(d, g, order)
        assert verdict == oracles.normal_form_fiber_test(g, order), g
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_fiber_test_matches_normal_form_route_with_repeated_blocksets(path2_d):
    # two variables per blockset, so that a variable, a square or a cube
    # can lead a binomial of equal images: the walk drops the variable,
    # the square's diagonal bit or the cubic triple; the test reads no ranks
    variables = ((0,), (0,), (), ())
    order = TermOrder(variables=variables, rank={})
    classes = {k: equal_image_classes(order, k) for k in (1, 2, 3)}
    rng = random.Random(5)
    verdicts = collections.Counter()
    for _ in range(300):
        g = tuple(random_binomial(rng, classes[rng.choice((1, 2, 3))]) for _ in range(rng.randint(1, 8)))
        verdict = fiber_reduction_test(path2_d, g, order)
        assert verdict == oracles.normal_form_fiber_test(g, order), g
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 60, verdicts


def test_fiber_test_reads_a_cubic_leading_term(path2_d):
    # the edges of a hexagon, whose toric ideal is generated by the one
    # cubic x01 x23 x45 - x12 x34 x05: its two sides are the only
    # monomials of degree 2 or 3 that share an image
    variables = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))
    order = TermOrder(variables=variables, rank={})
    cubic = ((1, 3, 5), (0, 2, 4))
    assert equal_image_classes(order, 2) == []
    assert equal_image_classes(order, 3) == [[cubic[1], cubic[0]]]
    for g in [(), (cubic,)]:
        assert fiber_reduction_test(path2_d, g, order) == bool(g)
        assert oracles.normal_form_fiber_test(g, order) == bool(g)


def test_fiber_test_refuses_a_tail_outside_the_ideal(path3_d):
    # the last binomial takes the first one's tail, so its two sides
    # differ in image
    ctx = GraphContext(path3_d.graph)
    basis, order = ctx.basis, ctx.order
    bad = basis[:-1] + ((basis[-1][0], basis[0][1]),)
    assert not oracles.binomial_is_homogeneous(path3_d, order, bad[-1])
    assert not fiber_reduction_test(path3_d, bad, order)
    # a tail of another degree is refused as well
    assert not fiber_reduction_test(path3_d, basis[:-1] + ((basis[-1][0], (6,)),), order)


def test_fiber_test_refuses_a_tail_that_leads(path3_d, monkeypatch):
    ctx = GraphContext(path3_d.graph)
    basis, order = ctx.basis, ctx.order
    (lt, tail), rest = basis[0], basis[1:]
    assert not fiber_reduction_test(path3_d, ((tail, lt),) + rest, order)
    assert not fiber_reduction_test(path3_d, ((lt, lt),) + rest, order)
    # with both orientations of one binomial, or the two-binomial cycle of
    # test_reduction_divergence_guard, the normal forms never settle
    monkeypatch.setattr(toric, "MAX_REDUCTION_STEPS", 10)
    for cycle in [basis + ((tail, lt),), (((0,), (1,)), ((1,), (0,)))]:
        assert not fiber_reduction_test(path3_d, cycle, order)
        with pytest.raises(ReductionDiverges, match="^no termination after 10 reduction steps$"):
            oracles.normal_form_fiber_test(cycle, order)


def test_checks_match_memoized_route(groebner_battery):
    # the memoized dict-monomial route that the leading-term index replaced,
    # on every basis of the Groebner gate and on three 6-block graphs, each
    # also with one binomial dropped at three positions
    graphs = groebner_battery + [
        ("path-6", GraphContext(path_graph(6))),
        ("triangle-chain-6", GraphContext(triangle_chain(6))),
        ("spider-3-2-1", GraphContext(spider((3, 2, 1)))),
    ]
    for name, ctx in graphs:
        d, order = ctx.decomposition, ctx.order
        for g in [ctx.basis] + dropped_bases(ctx.basis):
            assert buchberger_verify(g, order) == oracles.memo_buchberger(g), name
            expected = oracles.memo_fiber_test(len(d.blocks), g, order, maxdeg=3)
            assert fiber_reduction_test(d, g, order) == expected, name


def test_buchberger_matches_memoized_route_on_random_bases():
    # squarefree leading terms of degree 2 and 3 over five variables, so
    # that two leading terms can share two variables; each tail is a
    # smaller term of the same degree, so every reduction terminates
    rng = random.Random(1)
    variables = tuple((i,) for i in range(5))
    order = TermOrder(variables=variables, rank={a: i for i, a in enumerate(variables)})
    verdicts = collections.Counter()
    for _ in range(1500):
        g = []
        for _ in range(rng.randint(2, 4)):
            k = rng.choice((2, 3))
            lt = tuple(sorted(rng.sample(range(5), k)))
            tails = [t for t in itertools.combinations_with_replacement(range(5), k) if t < lt]
            if tails:
                g.append((lt, rng.choice(tails)))
        g = tuple(g)
        verdict = buchberger_verify(g, order)
        assert verdict == oracles.memo_buchberger(g), g
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100, verdicts
    # a leading term that is not squarefree fails the check at once
    square = (((1, 1), (0, 0)),)
    assert not buchberger_verify(square, order)
    assert not oracles.memo_buchberger(square)


def test_reduction_divergence_guard(monkeypatch):
    basis = [((0,), (1,)), ((1,), (0,))]
    monkeypatch.setattr(toric, "MAX_REDUCTION_STEPS", 10)
    with pytest.raises(ReductionDiverges, match="^no termination after 10 reduction steps$"):
        _NormalForms(basis)[(0,)]


def sympy_toric_gb(d, order):
    """Reduced degrevlex basis of the toric ideal via sympy elimination."""
    nb = len(d.blocks)
    z = sympy.Symbol("z")
    ts = sympy.symbols(f"t0:{nb}")
    ys = {
        a: sympy.Symbol("y" + ("e" if not a else "_".join(map(str, a))))
        for a in order.variables
    }
    gens = [ys[a] - z * sympy.Mul(*[ts[b] for b in a]) for a in order.variables]
    elim_vars = [z, *ts, *(ys[a] for a in order.variables)]
    lex_gb = sympy.groebner(gens, *elim_vars, order="lex")
    banned = {z, *ts}
    toric_gens = [g for g in lex_gb.exprs if not (g.free_symbols & banned)]
    # rank 0 is the smallest variable, so sympy gets ranks in descending order
    desc = [ys[a] for a in reversed(order.variables)]
    reduced = sympy.groebner(toric_gens, *desc, order="grevlex")
    return {sympy.Poly(g, *desc) for g in reduced.exprs}, ys, desc


@pytest.mark.parametrize("graph", [path_graph(3), star_graph(3)])
def test_candidates_equal_sympy_reduced_basis(graph):
    ctx = GraphContext(graph)
    expected, ys, desc = sympy_toric_gb(ctx.decomposition, ctx.order)
    got = set()
    for lt, tail in ctx.basis:
        plus = sympy.Mul(*[ys[ctx.order.variables[r]] for r in lt])
        minus = sympy.Mul(*[ys[ctx.order.variables[r]] for r in tail])
        got.add(sympy.Poly(plus - minus, *desc))
    assert got == expected


def test_triangulation_path2(path2_d):
    c = initial_complex(path2_d)
    assert c.ground == ((0, 1), (0,), (1,), ())
    assert c.minimal_nonfaces == ((1, 2),)
    assert len(c.maximal_faces) == 2
    report = triangulation_checks(path2_d, c, (1, 1, 0))
    assert report.f_vector == (1, 4, 5, 2)
    assert report.h_vector == (1, 1, 0, 0)


def test_triangulation_path3(path3_d):
    c = initial_complex(path3_d)
    assert len(c.maximal_faces) == 5
    assert all(len(f) == 4 for f in c.maximal_faces)
    hstar = GraphContext(path3_d.graph).hstar.hstar
    report = triangulation_checks(path3_d, c, hstar)
    assert report.f_vector == (1, 7, 16, 15, 5)
    assert report.h_vector == (1, 3, 1, 0, 0)
    assert len(c.maximal_faces) == sum(hstar)


def test_triangulation_cube(star3_d):
    c = initial_complex(star3_d)
    assert len(c.minimal_nonfaces) == 9
    assert len(c.maximal_faces) == 6
    report = triangulation_checks(star3_d, c, (1, 4, 1, 0))
    assert report.h_vector == (1, 4, 1, 0, 0)


def test_triangulation_single_block(triangle_d):
    c = initial_complex(triangle_d)
    assert c.minimal_nonfaces == ()
    assert c.maximal_faces == ((0, 1),)
    report = triangulation_checks(triangle_d, c, (1, 0))
    assert report.f_vector == (1, 2, 1)


def test_triangulation_rejects_non_quadratic_basis(path2_d):
    order = GraphContext(path2_d.graph).order
    bad = (oracles.binomial(order, {(0,): 1}, {(): 1}),)
    with pytest.raises(AssertionFailure, match="not a squarefree quadratic") as info:
        triangulation(path2_d, bad, order)
    assert info.value.payload["binomial"] == [[1], [3]]


def test_triangulation_rejects_a_missing_leading_pair(path3_d):
    ctx = GraphContext(path3_d.graph)
    drop = oracles.binomial(ctx.order, {(0, 1): 1, (1, 2): 1}, {(1,): 1, (0, 1, 2): 1})
    rest = tuple(f for f in ctx.basis if f != drop)
    assert len(rest) == len(ctx.basis) - 1
    with pytest.raises(AssertionFailure, match="disagree with the compatibility relation") as info:
        triangulation(ctx.decomposition, rest, ctx.order)
    assert info.value.payload["pair"] == [[0, 1], [1, 2]]


def test_candidates_refuse_an_order_that_ranks_the_product_below(path2_d):
    # the empty set and the full set ranked above both singletons, so the
    # trailing term x_() * x_(0,1) is larger than x_(0,) * x_(1,)
    variables = ((0,), (1,), (), (0, 1))
    order = TermOrder(variables=variables, rank={a: i for i, a in enumerate(variables)})
    with pytest.raises(LeadingTermMismatch, match=r"^pair \(0,\), \(1,\) does not lead with the product$"):
        verts = enumerate_vertices(path2_d)
        groebner_candidates(path2_d, order, verts, _columns(path2_d, verts))


def test_triangulation_rejects_a_non_unimodular_simplex(path2_d, monkeypatch):
    ctx = GraphContext(path2_d.graph)
    bareiss = toric._bareiss

    def doubled(rows):
        rank, pivot = bareiss(rows)
        return rank, 2 * pivot

    monkeypatch.setattr(toric, "_bareiss", doubled)
    with pytest.raises(NonUnimodalSimplex, match="has determinant -2$"):
        triangulation(path2_d, ctx.basis, ctx.order)


def test_triangulation_rejects_an_oversized_maximal_face(path2_d, monkeypatch):
    # no leading pair and no binomial: the whole ground is one clique
    order = GraphContext(path2_d.graph).order
    monkeypatch.setattr(toric, "_leading_masks", lambda d, verts, cols: [0] * len(verts))
    with pytest.raises(AssertionFailure, match="^maximal face has 4 vertices, expected 3$"):
        triangulation(path2_d, (), order)


def test_triangulation_checks_reject_wrong_hstar(path2_d):
    c = initial_complex(path2_d)
    with pytest.raises(AssertionFailure):
        triangulation_checks(path2_d, c, (1, 2, 0))


def test_triangulation_over_corpus(small_corpus):
    for name, g in small_corpus:
        ctx = GraphContext(g)
        d = ctx.decomposition
        if len(d.blocks) > 4:
            continue
        c = triangulation(d, ctx.basis, ctx.order)
        hstar = ctx.hstar.hstar
        triangulation_checks(d, c, hstar)
        assert len(c.maximal_faces) == sum(hstar), name


def test_leading_pairs_match_the_blockset_relation(oracle_graphs):
    # the mask rule against the per-pair definition: a pair leads a binomial
    # exactly when it is incomparable and its union is a connected blockset
    graphs = [(e.name, block_decomposition(e.graph)) for e in corpus(5, 7, 26)] + oracle_graphs
    for name, d in graphs:
        verts = enumerate_vertices(d)
        order = make_term_order(verts)
        leading = {
            frozenset(order.variables[r] for r in lt)
            for lt, _ in groebner_candidates(d, order, verts, _columns(d, verts))
        }
        connected = oracles.blockset_connectivity(d)
        for a1, a2 in itertools.combinations(verts, 2):
            expected = oracles.leading_pair(d, a1, a2, connected)
            assert (frozenset((a1, a2)) in leading) == expected, (name, a1, a2)
