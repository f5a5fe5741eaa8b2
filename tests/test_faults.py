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
import cbp.optimize as optimize
import cbp.skeleton as skeleton
import cbp.verify as verify
from cbp.corpus import CorpusEntry, flower, path_graph, star_graph
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
    # item 16: the closed-form diameter of block paths, min(k, 2)
    ("diameter-minus-one", diameter_minus_one, "path-6", path_graph(6), "adjacency"),
]

# name of a fault, a check it fails, the reason every failure of that
# check gives under the fault
REASONS = [
    ("certificate-rank-n-2", "facets", "row is not facet-defining"),
    ("certificate-every-vertex-tight", "facets", "row is not facet-defining"),
    ("hrep-repeats-a-row", "facets", "two rows define one facet"),
    ("both-ibi-generators-gain-a-bad-row", "ibis", "component weights are not one 1 and rest 0"),
    ("moments-drop-the-constant", "facets", "row is not facet-defining"),
    ("fiber-basis-outside-ideal", "groebner", "a fiber difference does not reduce to zero"),
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
        c["detail"].get("reason")
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
