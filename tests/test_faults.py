"""Planted faults: every sweep check must catch at least one of them.

Each fault is monkeypatched on its own over a small fixed corpus.  A
fault counts as caught when some check fails on some graph; every check
of the battery must be the one that fails under at least one fault, so
no check passes whatever the program computes.  Each caught failure is
then replayed from its report entry alone: the graph from `graph`, the
name from `id` (the optimizer's draws depend on it) and the seed from
the payload's `seed`.
"""

import dataclasses
from fractions import Fraction

import pytest

import cbp.ehrhart as ehrhart
import cbp.facets as facets
import cbp.graphs as graphs
import cbp.optimize as optimize
import cbp.skeleton as skeleton
import cbp.toric as toric
import cbp.verify as verify
from cbp.corpus import CorpusEntry, corpus, flower, path_graph, star_graph
from cbp.graphs import graph_from_json
from cbp.hull import RationalPolyhedron
from cbp.verify import VerificationReport, VerifyOptions, run_verification, verify_graph

OPTIONS = VerifyOptions(max_blocks=4, seed=7, random_per_size=8, workers=1)

CHECKS = (
    "blocks",
    "dimension",
    "facets",
    "ibis",
    "adjacency",
    "diameter",
    "simplicity",
    "hstar",
    "groebner",
    "triangulation",
    "optimizer",
)


def wrapped(module, name, after):
    """A patch replacing module.name by the real function whose result r,
    for arguments args, is replaced by after(r, *args)."""
    real = getattr(module, name)

    def patch(m):
        m.setattr(module, name, lambda *args, **kwargs: after(real(*args, **kwargs), *args))

    return patch


def dp_wrong_argmax(result, d, w):
    # the optimal blockset loses its last block; the value stays
    blockset, value = result
    return blockset[:-1], value


def rerooted_keep_first_maximum(full, d, w):
    # every block but the first of largest rerooted value loses 1, so the
    # optimum and its first block stay
    first = full.index(max(full))
    return [v if b == first else v - 1 for b, v in enumerate(full)]


def integers_drop_denominators(m):
    m.setattr(optimize, "_integers", lambda values: ([Fraction(x).numerator for x in values], 1))


def lift_first_edge(m):
    # each block weighs its first edge only, which is right on trees
    def lift(g, d, edge_weights, eulerian=False):
        wmap, scale = optimize._edge_weight_map(g, edge_weights)
        sol = optimize.max_weight_connected_blockset(d, [wmap[min(blk.edges)] for blk in d.blocks])
        edges = tuple(sorted(e for b in sol.blockset for e in d.blocks[b].edges))
        return optimize.EdgeSolution(edges=edges, value=sol.value / scale, blockset=sol.blockset)

    m.setattr(verify, "_lift", lift)


def best_values_overwrite_the_weights(m):
    # the constrained query's up pass sums into the caller's weight list
    # instead of a copy, so every later query, the prefix weight and the
    # brute force read the sums of earlier passes
    def best_containing(d, w, forced, banned):
        root = forced[0]
        if root in banned:
            return None
        order, _, parent = d.root_walk if root == 0 and not banned else graphs._walk(d, root, banned)
        if any(f != root and parent[f] is None for f in forced):
            return None
        needed, best = [b in forced for b in range(len(w))], w
        for b in reversed(order[1:]):
            if needed[b]:
                needed[parent[b]] = True
            if needed[b] or best[b] > 0:
                best[parent[b]] += best[b]
        return best[root]

    m.setattr(optimize, "_best_containing", best_containing)


def rank_n_minus_2(certs, rows, *args):
    # the last row's tight vertices claim affine rank n - 2
    return certs[:-1] + ((certs[-1][0], len(rows[0][0]) - 2),)


def every_vertex_tight(certs, rows, verts, tight_rows, cols):
    # the last row claims every vertex tight and keeps its rank
    return certs[:-1] + (((1 << len(verts)) - 1, certs[-1][1]),)


def columns_swap_the_first_two(cols, d, verts):
    # the first two blocks trade columns: a coordinate swap keeps the rank,
    # so the dimension check passes, but the tight-row table, the
    # combinatorial skeleton and the basis read the wrong blocks from it
    return [cols[1], cols[0], *cols[2:]] if len(cols) >= 2 else cols


def moments_drop_the_constant(m, cols, mask):
    # the moments of x x^T alone: a row through the origin, such as
    # -x_B <= 0 whose tight vertices hold the empty blockset, loses one rank
    return [row[1:] for row in m[1:]]


def gain_a_bad_row(ibis, d):
    # (2, -1, 0, ..., 0) sums to 1 but weighs 2 on the side of block 0 at
    # the cut vertices between blocks 0 and 1
    n = len(d.blocks)
    return ibis + ((2, -1) + (0,) * (n - 2),) if n >= 2 else ibis


def block_loses_an_edge(d, *args):
    # the last block of a decomposition with two or more edges in it drops one
    last = d.blocks[-1]
    if len(last.edges) < 2:
        return d
    lost = dataclasses.replace(last, edges=last.edges - {min(last.edges)})
    return dataclasses.replace(d, blocks=d.blocks[:-1] + (lost,))


def skeleton_drops_an_edge(nb, *args):
    # the empty vertex and the first singleton are always adjacent
    nb = list(nb)
    nb[0] &= ~2
    nb[1] &= ~1
    return nb


diameter_minus_one = wrapped(skeleton, "diameter", lambda diam, pg: diam - 1)


def fiber_basis_outside_ideal(m):
    # the fiber test sees the last binomial with the first one's tail, a
    # binomial outside the toric ideal; Buchberger sees the true basis
    real = verify.fiber_reduction_test

    def fiber(d, g, order):
        return real(d, g[:-1] + ((g[-1][0], g[0][1]),) if g else g, order)

    m.setattr(verify, "fiber_reduction_test", fiber)


def ibis_drop_last(m):
    wrapped(verify, "enumerate_ibis", lambda ibis, d: ibis[:-1])(m)
    wrapped(verify, "construct_ibis", lambda ibis, d: ibis[:-1])(m)


def ibis_gain_a_bad_row(m):
    wrapped(verify, "enumerate_ibis", gain_a_bad_row)(m)
    wrapped(verify, "construct_ibis", gain_a_bad_row)(m)


def block_cuts_lose_a_cut_vertex(m):
    # the first block holding two cut vertices loses the first of them
    # from the cut-vertex table, so walks from its side of that vertex stop
    # short of the blocks behind it
    real = graphs.BlockDecomposition.block_cuts.func

    def lose(d):
        held = real(d)
        b = next((b for b, cuts in enumerate(held) if len(cuts) >= 2), None)
        return held if b is None else held[:b] + (held[b][1:],) + held[b + 1 :]

    m.setattr(graphs.BlockDecomposition, "block_cuts", property(lose))


def part_sums_owner_side_plus_one(sums, d, walk, sub, v):
    # the part of the graph minus v on the side of the block v was reached
    # from weighs one more than its blocks' alpha sum
    entry = walk[1]
    return {b: s + (entry[b] != v) for b, s in sums.items()}


def lift_drops_an_edge(sol, g, d, edge_weights):
    # a tree's lifted edge set loses its last edge; blockset and value stay
    if all(len(blk.edges) == 1 for blk in d.blocks):
        return dataclasses.replace(sol, edges=sol.edges[:-1])
    return sol


# name, patch, the checks that must fail
FAULTS = [
    ("dp-wrong-argmax", wrapped(optimize, "_optimum", dp_wrong_argmax), {"optimizer"}),
    ("integers-drop-denominators", integers_drop_denominators, {"optimizer"}),
    ("lift-first-edge", lift_first_edge, {"optimizer"}),
    ("certificate-rank-n-2", wrapped(verify, "facet_certificates", rank_n_minus_2), {"facets"}),
    (
        "dd-oracle-drops-a-row",
        wrapped(verify, "brute_force_facets", lambda h, *a: RationalPolyhedron(h.dim, h.rows[:-1])),
        {"facets"},
    ),
    ("construction-drops-its-last-row", wrapped(verify, "construct_ibis", lambda ibis, d: ibis[:-1]), {"ibis"}),
    ("both-ibi-generators-drop-their-last-row", ibis_drop_last, {"facets"}),
    ("block-loses-an-edge", wrapped(verify, "block_decomposition", block_loses_an_edge), {"blocks"}),
    (
        "incidence-loses-the-last-block",
        wrapped(verify, "_columns", lambda cols, d, verts: cols[:-1] + [0]),
        {"dimension"},
    ),
    (
        "skeleton-drops-an-edge",
        wrapped(skeleton, "_combinatorial_neighbors", skeleton_drops_an_edge),
        {"adjacency", "simplicity"},
    ),
    ("lattice-count-off-by-one", wrapped(ehrhart, "count_lattice_points", lambda c, *a: c + 1), {"hstar"}),
    ("vertex-count-off-by-one", wrapped(ehrhart, "count_connected_blocksets", lambda c, d: c + 1), {"hstar"}),
    (
        "last-binomial-dropped",
        wrapped(verify, "groebner_candidates", lambda basis, *a: basis[:-1]),
        {"groebner", "triangulation"},
    ),
    ("diameter-minus-one", diameter_minus_one, {"diameter"}),
    ("diameter-is-zero", wrapped(skeleton, "diameter", lambda diam, pg: 0), {"diameter"}),
    (
        "rerooted-values-keep-only-the-first-maximum",
        wrapped(optimize, "_rerooted_values", rerooted_keep_first_maximum),
        {"optimizer"},
    ),
    ("certificate-every-vertex-tight", wrapped(verify, "facet_certificates", every_vertex_tight), {"facets"}),
    (
        "hrep-repeats-a-row",
        wrapped(verify, "h_representation", lambda h, *a: RationalPolyhedron(h.dim, h.rows + h.rows[-1:])),
        {"facets"},
    ),
    ("both-ibi-generators-gain-a-bad-row", ibis_gain_a_bad_row, {"ibis"}),
    ("moments-drop-the-constant", wrapped(facets, "_moments", moments_drop_the_constant), {"facets"}),
    (
        "columns-swap-the-first-two-blocks",
        wrapped(verify, "_columns", columns_swap_the_first_two),
        {"facets", "adjacency", "groebner", "triangulation"},
    ),
    ("fiber-basis-outside-ideal", fiber_basis_outside_ideal, {"groebner"}),
    ("block-cuts-lose-a-cut-vertex", block_cuts_lose_a_cut_vertex, {"blocks", "ibis", "hstar", "optimizer"}),
    (
        "laminar-determinant-reports-2",
        wrapped(toric, "_certify_face", lambda certificate, members: (2, certificate[1])),
        {"triangulation"},
    ),
    # the lattice counter's coordinate order repeats the first block and
    # drops the last
    (
        "count-order-repeats-a-block",
        wrapped(facets, "tree_order", lambda order, d: order[:-1] + order[:1]),
        {"hstar"},
    ),
    # the face without descents counts as one with a descent
    (
        "descent-count-0-reported-as-1",
        wrapped(toric, "_certify_face", lambda certificate, members: (certificate[0], certificate[1] or 1)),
        {"triangulation"},
    ),
    # the constrained query's up pass writes into the caller's weights
    ("best-values-overwrite-the-weights", best_values_overwrite_the_weights, {"optimizer"}),
    # the construction reads two parts of weight 1 at an attachment vertex
    ("part-sums-owner-side-plus-one", wrapped(facets, "_part_sums", part_sums_owner_side_plus_one), {"ibis"}),
    # the adapters' lift drops a tree edge; only the edge comparison sees it
    ("lift-drops-an-edge", wrapped(verify, "_lift", lift_drops_an_edge), {"optimizer"}),
    # the construction, which screens none of its states, returns an
    # invalid row; only the comparison with the enumeration sees it
    ("construction-gains-a-bad-row", wrapped(verify, "construct_ibis", gain_a_bad_row), {"ibis"}),
]

# Known misses past the gates: a fault of FAULTS, a graph above the gate of
# the check that catches it elsewhere, and that check.  The graph passes
# every check under the fault.  Each miss names the ROADMAP items that
# turn it into a catch; the one that lands deletes its entry here.
MISSES = [
    # items 3 and 5: a row count from the block-cut tree as a clause of the
    # IBI check, and a facet completeness certificate past the double
    # description oracle's dimension cap
    ("both-ibi-generators-drop-their-last-row", ibis_drop_last, "path-8", path_graph(8), "facets"),
]

# name of a fault, a check it fails, the reason every failure of that
# check gives under the fault: the detail's `reason`, or the message of
# the AssertionFailure the check raised
REASONS = [
    ("certificate-rank-n-2", "facets", "row is not facet-defining"),
    ("certificate-every-vertex-tight", "facets", "row is not facet-defining"),
    ("hrep-repeats-a-row", "facets", "two rows define one facet"),
    ("both-ibi-generators-gain-a-bad-row", "ibis", "component weights are not one 1 and rest 0"),
    ("moments-drop-the-constant", "facets", "row is not facet-defining"),
    ("fiber-basis-outside-ideal", "groebner", "a fiber difference does not reduce to zero"),
    ("block-cuts-lose-a-cut-vertex", "blocks", "cut-vertex table disagrees with the block"),
    ("descent-count-0-reported-as-1", "triangulation", "triangulation h-vector does not match hstar"),
    (
        "part-sums-owner-side-plus-one",
        "ibis",
        "component weights at the attachment vertex are not one 1 and rest 0",
    ),
]


def failing_checks(payload):
    return {c["name"] for g in payload["graphs"] for c in g["checks"] if c["status"] == "fail"}


def strip_seconds(entry):
    return {**entry, "checks": [{**c, "seconds": 0} for c in entry["checks"]]}


@pytest.fixture(scope="module")
def caught():
    """The report JSON of the sweep under each fault."""
    clean = run_verification(OPTIONS)
    assert clean.passed()
    assert all(tuple(c.name for c in r.checks) == CHECKS for r in clean.reports)
    out = {}
    with pytest.MonkeyPatch.context() as m:
        for name, patch, _ in FAULTS:
            with m.context() as inner:
                patch(inner)
                out[name] = run_verification(OPTIONS).to_json()
    return out


@pytest.mark.parametrize("name, expected", [(name, expected) for name, _, expected in FAULTS])
def test_fault_is_caught(caught, name, expected):
    failed = failing_checks(caught[name])
    assert expected <= failed, (name, failed)


def test_every_check_catches_some_fault(caught):
    assert {check for _, _, expected in FAULTS for check in expected} == set(CHECKS)
    assert set().union(*map(failing_checks, caught.values())) == set(CHECKS)


@pytest.mark.parametrize("name, check, reason", REASONS, ids=[name for name, _, _ in REASONS])
def test_fault_fails_for_its_reason(caught, name, check, reason):
    reasons = [
        c["detail"].get("reason", c["detail"].get("message"))
        for g in caught[name]["graphs"]
        for c in g["checks"]
        if c["name"] == check and c["status"] == "fail"
    ]
    assert reasons and set(reasons) == {reason}, (name, reasons)


@pytest.mark.parametrize("name, patch", [(name, patch) for name, patch, _ in FAULTS])
def test_failure_replays_from_its_payload(caught, monkeypatch, name, patch):
    payload = caught[name]
    entry = next(g for g in payload["graphs"] if not g["passed"])
    seeds = {c["detail"]["seed"] for c in entry["checks"] if c["status"] == "fail"}
    assert seeds == {payload["seed"]}
    patch(monkeypatch)
    options = dataclasses.replace(OPTIONS, seed=seeds.pop())
    report = verify_graph(CorpusEntry(entry["id"], graph_from_json(entry["graph"])), options)
    replayed = VerificationReport(options, (report,)).to_json()["graphs"][0]
    assert strip_seconds(replayed) == strip_seconds(entry)


@pytest.mark.parametrize("name, patch, graph_id, graph, gate", MISSES, ids=[m[0] for m in MISSES])
def test_known_miss_past_the_gates(monkeypatch, name, patch, graph_id, graph, gate):
    patch(monkeypatch)
    report = verify_graph(CorpusEntry(graph_id, graph), OPTIONS)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses[gate] == "skip", statuses
    assert report.passed(), statuses


@pytest.mark.parametrize(
    "graph_id, graph, n", [("star-6", star_graph(6), 6), ("flower-7", flower(7), 7)], ids=["star-6", "flower-7"]
)
def test_cube_diameter_catches_a_miss_past_the_adjacency_gate(monkeypatch, graph_id, graph, n):
    # one cut vertex: the polytope is the cube, so the diameter is the block
    # count; the breadth-first search that would catch the fault is gated
    diameter_minus_one(monkeypatch)
    report = verify_graph(CorpusEntry(graph_id, graph), OPTIONS)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["adjacency"] == "skip", statuses
    assert {name for name, status in statuses.items() if status == "fail"} == {"diameter"}, statuses
    (detail,) = [c.detail for c in report.checks if c.name == "diameter"]
    assert detail["reason"] == "cube diameter is not the dimension"
    assert (detail["diameter"], detail["expected"]) == (n - 1, n)


def test_block_path_diameter_catches_a_miss_past_the_adjacency_gate(monkeypatch):
    # a block path of k blocks has diameter min(k, 2); path-6 is past the
    # adjacency gate and has two or more cut vertices, so neither the
    # breadth-first search nor the cube clause sees the fault
    diameter_minus_one(monkeypatch)
    report = verify_graph(CorpusEntry("path-6", path_graph(6)), OPTIONS)
    statuses = {c.name: c.status for c in report.checks}
    assert statuses["adjacency"] == "skip", statuses
    assert {name for name, status in statuses.items() if status == "fail"} == {"diameter"}, statuses
    (detail,) = [c.detail for c in report.checks if c.name == "diameter"]
    assert detail["reason"] == "block path diameter is not min(n, 2)"
    assert (detail["diameter"], detail["expected"]) == (1, 2)


def test_walks_end_under_a_lost_cut_vertex(monkeypatch):
    # with a cut vertex lost from the table every walk still expands each
    # cut vertex once, so it ends within the tree's incidences; a block it
    # did not reach has parent None, so the closure's and the
    # construction's chases up the parents raise instead of running on.
    # The construction reads its closure off its own walk, so its
    # TypeError is raised in construct_ibis itself
    block_cuts_lose_a_cut_vertex(monkeypatch)
    short = 0
    for entry in corpus(5, 7, 26):
        d = graphs.block_decomposition(entry.graph)
        n = len(d.blocks)
        bound = 1 + sum(len(d.blocks_at_vertex[v]) for v in d.cut_vertices)
        walks = [graphs._walk(d, root) for root in range(n)]
        for root, (order, entry_at, parent) in enumerate(walks):
            assert len(order) <= bound and len(set(order)) == len(order), (entry.name, root)
            unreached = set(range(n)) - set(order)
            assert all(entry_at[b] is parent[b] is None for b in unreached), (entry.name, root)
            if unreached and max(unreached) > root:
                with pytest.raises(TypeError):
                    graphs.blockset_closure(d, (root, max(unreached)))
        if any(len(order) < n for order, _, _ in walks):
            short += 1
            with pytest.raises(TypeError) as excinfo:
                facets.construct_ibis(d)
            assert excinfo.traceback[-1].name == "construct_ibis", entry.name
    assert short > 0
