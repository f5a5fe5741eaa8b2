"""Corpus sweep wiring: gating, report shape, failure plumbing."""

import dataclasses
import functools
import json
import math
import random
import sys
import types
from fractions import Fraction

import pytest

import cbp.errors as errors
import cbp.facets as facets
import cbp.graphs as graphs
import cbp.optimize as optimize
import cbp.skeleton as skeleton
import cbp.toric as toric
import cbp.verify as verify
import cbp.vertices as vertices
from cbp.corpus import CorpusEntry, corpus, path_graph, star_graph
from cbp.errors import AssertionFailure
from cbp.verify import (
    GraphContext,
    VerifyOptions,
    default_workers,
    run_verification,
    verify_graph,
)


def test_option_defaults():
    opts = VerifyOptions()
    assert opts.max_blocks == 5
    assert opts.seed == 7
    assert opts.random_per_size == 8
    assert opts.workers is None
    assert [f.name for f in dataclasses.fields(VerifyOptions)] == [
        "max_blocks",
        "seed",
        "random_per_size",
        "workers",
    ]
    assert verify.FACET_MAX_BLOCKS == 7
    assert verify.ADJACENCY_MAX_BLOCKS == 5
    assert verify.HSTAR_MAX_BLOCKS == 8
    assert verify.GROEBNER_MAX_BLOCKS == 4
    assert verify.OPTIMIZER_TRIALS == 50


def test_sweep_past_the_ibi_cap_is_refused_before_the_corpus(monkeypatch):
    # every graph over 14 blocks fails the ungated IBI check on its cap
    monkeypatch.setattr(verify, "corpus", lambda *args: pytest.fail("the corpus was built"))
    with pytest.raises(errors.CountOverflow, match="^15 blocks exceed the enumeration cap 14$"):
        run_verification(VerifyOptions(max_blocks=15, workers=1))


def test_checks_pass_on_path3():
    ctx = GraphContext(path_graph(3))
    assert verify.check_blocks(ctx) is None
    assert verify.check_dimension(ctx) is None
    assert verify.check_facets(ctx) is None
    assert verify.check_ibis(ctx) is None
    assert verify.check_adjacency(ctx) is None
    assert verify.check_hstar(ctx) is None


def test_check_blocks_catches_two_blocks_sharing_two_vertices():
    # block 1 of path-3 corrupted to hold vertex 0 as well, so that blocks
    # 0 and 1 share vertices 0 and 1
    ctx = GraphContext(path_graph(3))
    d = ctx.decomposition
    blocks = list(d.blocks)
    blocks[1] = dataclasses.replace(blocks[1], vertices=blocks[1].vertices | {0})
    ctx.decomposition = dataclasses.replace(d, blocks=tuple(blocks))
    assert verify.check_blocks(ctx) == {"reason": "two blocks share more than one vertex", "pair": [0, 1]}


def test_adjacency_reports_the_first_differing_pair():
    ctx = GraphContext(path_graph(3))
    nb = list(ctx.skeleton.neighbors)
    for i, j in ((2, 6), (1, 5), (1, 3)):  # toggle three edges, both ends
        nb[i] ^= 1 << j
        nb[j] ^= 1 << i
    ctx.skeleton = skeleton.PolytopeGraph(ctx.vertices, tuple(nb))
    detail = verify.check_adjacency(ctx)
    verts = ctx.vertices
    assert detail["pair"] == [list(verts[1]), list(verts[3])]
    geometric = bool(GraphContext(path_graph(3)).skeleton.neighbors[1] >> 3 & 1)
    assert (detail["combinatorial"], detail["geometric"]) == (not geometric, geometric)


def test_bfs_diameter():
    # the path 0 - 1 - 2, then the two components 0 - 1 and 2 - 3
    assert verify._bfs_diameter((0b010, 0b101, 0b010)) == 2
    assert verify._bfs_diameter((0b0010, 0b0001, 0b1000, 0b0100)) is None


def test_block_count_gates_skip_expensive_checks():
    report = verify_graph(CorpusEntry("path-6", path_graph(6)), VerifyOptions())
    status = {c.name: c.status for c in report.checks}
    assert status["facets"] == "pass"  # 6 blocks is under the facet gate
    assert status["adjacency"] == "skip"
    assert status["hstar"] == "pass"  # and under the h* gate
    assert status["groebner"] == "skip"
    assert status["triangulation"] == "skip"
    assert status["optimizer"] == "pass"
    assert report.passed()
    report = verify_graph(CorpusEntry("path-9", path_graph(9)), VerifyOptions())
    status = {c.name: c.status for c in report.checks}
    assert status["hstar"] == "skip"
    assert report.passed()


def test_gates_are_read_at_call_time(monkeypatch):
    entry = CorpusEntry("path-4", path_graph(4))

    def statuses():
        report = verify_graph(entry, VerifyOptions())
        assert report.passed()
        status = {c.name: c.status for c in report.checks}
        return status["hstar"], status["groebner"], status["triangulation"]

    assert statuses() == ("pass", "pass", "pass")
    with monkeypatch.context() as m:
        m.setattr(verify, "GROEBNER_MAX_BLOCKS", 3)
        assert statuses() == ("pass", "skip", "skip")
    with monkeypatch.context() as m:
        m.setattr(verify, "HSTAR_MAX_BLOCKS", 3)

        def no_profile(*args):
            raise AssertionError("h* profile computed behind a closed h* gate")

        # the triangulation check, the other reader of the profile, skips too
        m.setattr(verify, "hstar_profile", no_profile)
        assert statuses() == ("skip", "pass", "skip")


def test_verify_graph_enumerates_the_vertices_once(monkeypatch):
    calls = []
    real = verify.enumerate_vertices
    monkeypatch.setattr(verify, "enumerate_vertices", lambda d: calls.append(d) or real(d))
    # the skeleton, the facet certificates and the Groebner basis take the
    # vertices from the context; none of their modules can enumerate them
    for module in (skeleton, facets, toric):
        assert not hasattr(module, "enumerate_vertices"), module.__name__
    report = verify_graph(CorpusEntry("path-4", path_graph(4)), VerifyOptions())
    assert {c.name: c.status for c in report.checks}["adjacency"] == "pass"
    assert report.passed()
    assert len(calls) == 1


def test_verify_graph_enumerates_the_ibis_once(monkeypatch):
    calls = []
    real = verify.enumerate_ibis
    monkeypatch.setattr(verify, "enumerate_ibis", lambda d: calls.append(d) or real(d))
    report = verify_graph(CorpusEntry("path-4", path_graph(4)), VerifyOptions())
    checks = {c.name: c.status for c in report.checks}
    assert checks["facets"] == checks["ibis"] == "pass"
    assert len(calls) == 1


def _spy_everywhere(monkeypatch, module, name, record):
    """Route every binding of module.name in the cbp modules through record,
    which is called with the arguments before the real function runs."""
    real = getattr(module, name)

    def spy(*args):
        record(*args)
        return real(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cbp") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)


def test_verify_graph_builds_the_tight_rows_and_the_root_walk_once(monkeypatch):
    # the facet certificates, the geometric skeleton and the simplicity
    # check read one tight-row table; the vertex count, the rerooting pass
    # and the queries and closures rooted at block 0 read one walk
    tables, root_walks = [], []
    _spy_everywhere(monkeypatch, vertices, "_row_masks", lambda rows, cols, count: tables.append(cols))

    def walk(d, root, banned=frozenset()):
        if root == 0 and not banned:
            root_walks.append(d)

    _spy_everywhere(monkeypatch, graphs, "_walk", walk)
    report = verify_graph(CorpusEntry("path-5", path_graph(5)), VerifyOptions())
    checks = {c.name: c.status for c in report.checks}
    assert checks["facets"] == checks["adjacency"] == checks["simplicity"] == checks["optimizer"] == "pass"
    assert report.passed()
    assert len(tables) == 1
    assert len(root_walks) == len({id(d) for d in root_walks}) == 1


@pytest.mark.parametrize(
    "graph, orders",
    [(path_graph(5), ("vertex",)), (star_graph(4), ("vertex", "term"))],
    ids=["path-5", "star-4"],
)
def test_verify_graph_builds_one_column_table_and_one_near_table(monkeypatch, graph, orders):
    # the tight-row table (and through it the geometric skeleton), the
    # combinatorial skeleton, the basis and the moments read the context's
    # block columns, and every kernel reads the near-block table cached on
    # the decomposition; only the triangulation, on the 4-block star under
    # the Groebner gate, transposes its ground set again in term order, as
    # its second route to the leading pairs
    verts = vertices.enumerate_vertices(graphs.block_decomposition(graph))
    by_order = {"vertex": verts, "term": toric.make_term_order(verts).variables}
    columns, nears = [], []
    _spy_everywhere(monkeypatch, vertices, "_columns", lambda d, verts: columns.append(verts))
    real = graphs.BlockDecomposition.near.func

    def near(d):
        nears.append(d)
        return real(d)

    spy = functools.cached_property(near)
    spy.__set_name__(graphs.BlockDecomposition, "near")
    monkeypatch.setattr(graphs.BlockDecomposition, "near", spy)
    report = verify_graph(CorpusEntry("graph", graph), VerifyOptions())
    assert report.passed()
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["triangulation"] == ("pass" if "term" in orders else "skip")
    assert [tuple(v) for v in columns] == [by_order[o] for o in orders]
    assert len(nears) == 1


def test_sweep_passes_and_reports_deterministically():
    opts = VerifyOptions(max_blocks=3, workers=1)
    report = run_verification(opts)
    assert report.passed()
    payload = report.to_json()
    assert payload["seed"] == 7
    assert payload["max_blocks"] == 3
    assert payload["graph_count"] == 18
    assert payload["all_passed"] is True
    assert [g["id"] for g in payload["graphs"]][:2] == ["path-1", "path-2"]
    json.dumps(payload, sort_keys=True)

    again = run_verification(opts).to_json()
    strip = lambda p: json.dumps(p, sort_keys=True, default=str)
    without_times = [
        {**g, "checks": [{**c, "seconds": 0} for c in g["checks"]]}
        for g in payload["graphs"]
    ]
    again_without = [
        {**g, "checks": [{**c, "seconds": 0} for c in g["checks"]]}
        for g in again["graphs"]
    ]
    assert strip(without_times) == strip(again_without)


def test_default_workers_env_cap(monkeypatch):
    monkeypatch.setenv("CBP_THREADS", "1")
    assert default_workers() == 1
    monkeypatch.setenv("CBP_THREADS", "notanumber")
    assert default_workers() >= 1
    monkeypatch.delenv("CBP_THREADS")
    assert 1 <= default_workers() <= 8


def test_failure_is_reported_with_context(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionFailure("forced failure", {"clause": "unit-test"})

    monkeypatch.setattr(verify, "hstar_checks", boom)
    report = verify_graph(CorpusEntry("path-2", path_graph(2)), VerifyOptions())
    status = {c.name: c for c in report.checks}
    assert status["hstar"].status == "fail"
    assert not report.passed()
    detail = status["hstar"].detail
    assert detail["error"] == "AssertionFailure"
    assert detail["clause"] == "unit-test"
    assert "graph" in detail
    assert detail["seed"] == 7


def test_a_crashing_check_fails_and_the_rest_still_run(monkeypatch):
    # a check that raises outside the package's errors has failed; the
    # battery goes on, and the entry keeps the graph and seed
    def crash(ctx):
        return {}[0]

    monkeypatch.setattr(verify, "check_ibis", crash)
    report = verify_graph(CorpusEntry("path-2", path_graph(2)), VerifyOptions())
    status = {c.name: c for c in report.checks}
    assert [name for name, c in status.items() if c.status == "fail"] == ["ibis"]
    detail = status["ibis"].detail
    assert (detail["error"], detail["message"], detail["seed"]) == ("KeyError", "0", 7)
    assert detail["where"].startswith("test_verify.py:") and detail["where"].endswith(" in crash")
    assert detail["graph"] == {"n": 3, "edges": [[0, 1], [1, 2]]}


def optimizer_draws(ctx, seed_tag):
    """The optimizer check's draws: per trial, the block weights and the
    positive scale of the scaling trial.  The weights are one number below
    150 ** blocks whose base-150 digits, lowest first, each pick a
    numerator in -12..12 and a denominator in 1..6; the scale a/b is one
    number below 81 that picks a and b in 1..9."""
    rng = random.Random(seed_tag)
    n = len(ctx.decomposition.blocks)
    draws = []
    for _ in range(verify.OPTIMIZER_TRIALS):
        x = rng.randrange(150**n)
        weights = [Fraction(k // 6 - 12, k % 6 + 1) for k in (x // 150**i % 150 for i in range(n))]
        k = rng.randrange(81)
        draws.append((weights, Fraction(k // 9 + 1, k % 9 + 1)))
    return draws


def adapter_draws(ctx, seed_tag):
    """The adapter trials' edge weights, drawn after the main trials' two
    draws each: Eulerian-cactus trials, then tree trials, 20 for each
    class the graph is in.  The weights are one number below 52 ** edges
    whose base-52 digits, lowest first, each pick a numerator in -6..6 and
    a denominator in 1..4."""
    rng = random.Random(seed_tag)
    for _ in range(verify.OPTIMIZER_TRIALS):
        rng.randrange(150 ** len(ctx.decomposition.blocks))
        rng.randrange(81)
    cls = graphs.classify(ctx.graph, ctx.decomposition)
    m = len(ctx.graph.sorted_edges())
    draws = []
    for _ in range(20 * (cls.is_eulerian_cactus + cls.is_tree)):
        x = rng.randrange(52**m)
        draws.append([Fraction(k // 4 - 6, k % 4 + 1) for k in (x // 52**i % 52 for i in range(m))])
    return draws


@pytest.mark.parametrize(
    "table, numerators, denominators, size",
    [
        (verify.BLOCK_WEIGHTS, range(-12, 13), range(1, 7), 150),
        (verify.EDGE_WEIGHTS, range(-6, 7), range(1, 5), 52),
    ],
)
def test_weight_tables_hold_every_pair_reduced(table, numerators, denominators, size):
    # one entry per (numerator, denominator), numerator major, in lowest terms
    assert len(table) == size
    assert [Fraction(p, q) for p, q in table] == [Fraction(p, q) for p in numerators for q in denominators]
    assert all(q > 0 and math.gcd(p, q) == 1 for p, q in table)


def test_scale_table_holds_every_pair():
    # a and b in 1..9, one entry each, a major: optimizer_draws reads k as
    # a = k // 9 + 1 and b = k % 9 + 1
    assert verify.SCALES == tuple((a, b) for a in range(1, 10) for b in range(1, 10))


def test_draw_reads_one_number_as_digits():
    # every number below 3 ** 2 gives a different pair of entries, so the
    # draw is exactly uniform over the pairs; the digits are read lowest first
    class Fixed:
        def __init__(self, x):
            self.x, self.bounds = x, []

        def randrange(self, bound):
            self.bounds.append(bound)
            return self.x

    table = ("a", "b", "c")
    seen = set()
    for x in range(9):
        rng = Fixed(x)
        entries = verify._draw(rng, table, 2)
        assert rng.bounds == [9]
        assert entries == [table[x % 3], table[x // 3]]
        seen.add(tuple(entries))
    assert len(seen) == 9
    rng = Fixed(1 + 2 * 150 + 3 * 150**2)
    assert verify._draw(rng, verify.BLOCK_WEIGHTS, 3) == [verify.BLOCK_WEIGHTS[k] for k in (1, 2, 3)]
    assert rng.bounds == [150**3]


def test_optimizer_trials_share_one_scaling(monkeypatch):
    # per main trial, the brute-force core runs on the very integer vector
    # the DP core just ran on: _scaled_weights of that trial's weights.
    # Per adapter trial, it runs on the blocks' edge sums over the edge
    # weights' lcm, and the only DP run is the lift's own
    calls = []
    real_optimum, real_brute = optimize._optimum, optimize._brute_force

    def record_optimum(d, w):
        calls.append(("dp", w))
        return real_optimum(d, w)

    def record_brute(w, vertices):
        calls.append(("brute", w))
        return real_brute(w, vertices)

    monkeypatch.setattr(optimize, "_optimum", record_optimum)
    monkeypatch.setattr(optimize, "_brute_force", record_brute)
    for name, g in corpus(5, 7, 26):
        ctx = GraphContext(g)
        calls.clear()
        assert verify.check_optimizer(ctx, f"77:{name}") is None
        brute = [i for i, (core, _) in enumerate(calls) if core == "brute"]
        main, adapter = brute[: verify.OPTIMIZER_TRIALS], brute[verify.OPTIMIZER_TRIALS :]
        assert all(calls[i - 1][0] == "dp" and calls[i - 1][1] is calls[i][1] for i in main), name
        expected = [optimize._scaled_weights(ctx.decomposition, w)[0] for w, _ in optimizer_draws(ctx, f"77:{name}")]
        assert [calls[i][1] for i in main] == expected, name
        edges = ctx.graph.sorted_edges()
        sums = []
        for w in adapter_draws(ctx, f"77:{name}"):
            den = math.lcm(*[x.denominator for x in w])
            sums.append([sum(w[edges.index(e)] * den for e in blk.edges) for blk in ctx.decomposition.blocks])
        assert [calls[i][1] for i in adapter] == sums, name
        assert [core for core, _ in calls[main[-1] + 2 :]] == ["brute", "dp"] * len(adapter), name


@pytest.mark.parametrize(
    "cap, error",
    [("MAX_BRUTE_FORCE_BLOCKS", "CountOverflow"), ("MAX_OPTIMIZE_BLOCKS", "BudgetExceeded")],
)
def test_optimizer_checks_both_caps_before_any_draw(monkeypatch, cap, error):
    def no_draws(seed_tag):
        raise AssertionError("a trial was drawn before the caps were checked")

    entry = CorpusEntry("path-4", path_graph(4))
    monkeypatch.setattr(optimize, cap, 3)
    monkeypatch.setattr(verify, "random", types.SimpleNamespace(Random=no_draws))
    ctx = GraphContext(entry.graph)
    with pytest.raises(getattr(errors, error)):
        verify.check_optimizer(ctx, PATH4_TAG)
    assert "vertices" not in ctx.__dict__  # nor were the blocksets enumerated
    detail = {c.name: c.detail for c in verify_graph(entry, VerifyOptions()).checks}["optimizer"]
    assert detail["error"] == error


PATH4_TAG = "7:path-4"


def wrong_on(monkeypatch, target):
    """Make the DP core return the full blockset of path-4, at the right
    value, when it runs on the integer vector target."""
    real = optimize._optimum

    def wrong(d, w):
        blockset, value = real(d, w)
        return ((0, 1, 2, 3), value) if w == target else (blockset, value)

    monkeypatch.setattr(optimize, "_optimum", wrong)


def test_optimizer_reports_a_wrong_blockset(monkeypatch):
    # trial 5 on path-4, the first whose optimum has three blocks: 7/3 at
    # (1, 2, 3); the DP core claims the full set at the same value
    ctx = GraphContext(path_graph(4))
    draws = optimizer_draws(ctx, PATH4_TAG)
    sizes = [len(optimize.brute_force_optimum(ctx.decomposition, w).blockset) for w, _ in draws]
    assert sizes.index(3) == 5
    weights, _ = draws[5]
    right = optimize.brute_force_optimum(ctx.decomposition, weights)
    assert right == optimize.Solution((1, 2, 3), Fraction(7, 3))
    wrong_on(monkeypatch, optimize._scaled_weights(ctx.decomposition, weights)[0])
    payload = verify.check_optimizer(ctx, PATH4_TAG)
    assert payload == {
        "trial": 5,
        "weights": weights,
        "dp": {"blockset": (0, 1, 2, 3), "value": Fraction(7, 3)},
        "brute": {"blockset": (1, 2, 3), "value": Fraction(7, 3)},
    }
    assert all(type(x) is Fraction for x in payload["weights"])
    assert type(payload["dp"]["value"]) is type(payload["brute"]["value"]) is Fraction


def test_optimizer_reports_broken_scaling(monkeypatch):
    # at trial 1 on path-4 (scale 7/2), the first whose scaled vector is no
    # trial's unscaled one, the DP core moves the argmax on the scaled
    # weights only
    ctx = GraphContext(path_graph(4))
    draws = optimizer_draws(ctx, PATH4_TAG)
    unscaled = [optimize._scaled_weights(ctx.decomposition, w)[0] for w, _ in draws]
    scaled = [optimize._scaled_weights(ctx.decomposition, [x * s for x in w])[0] for w, s in draws]
    assert [v not in unscaled for v in scaled].index(True) == 1
    weights, scale = draws[1]
    assert scale == Fraction(7, 2)
    target = scaled[1]
    assert optimize.max_weight_connected_blockset(ctx.decomposition, weights).blockset != (0, 1, 2, 3)
    wrong_on(monkeypatch, target)
    assert verify.check_optimizer(ctx, PATH4_TAG) == {"trial": 1, "reason": "positive scaling moved the argmax"}
