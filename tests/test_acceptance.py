"""Acceptance battery for the toolkit's headline guarantees.

Each test covers one numbered criterion over the seeded 67-graph corpus,
prints a single PASS/FAIL summary line (visible under pytest -s), and
enforces the criterion's wall-clock budget.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from cbp.corpus import corpus, path_graph
from cbp.errors import AssertionFailure
from cbp.facets import construct_ibis, enumerate_ibis
from cbp.graphs import classify
from cbp.hull import RationalPolyhedron, brute_force_facets
from cbp.optimize import (
    brute_force_optimum,
    eulerian_adapter,
    max_weight_connected_blockset,
)
from cbp.skeleton import (
    _bits,
    hirsch_check,
    simplicity_report,
)
from cbp.toric import buchberger_verify, fiber_reduction_test
from cbp.verify import GraphContext
from cbp.vertices import to_incidence


# Block-count gate of the Groebner criteria 8 and 9; at 6 blocks star-6 has
# 64 variables, over the 60-variable cap.
GROEBNER_MAX_BLOCKS = 5


@pytest.fixture(scope="session")
def battery() -> list[tuple[str, GraphContext]]:
    """(name, context) per corpus graph; criteria that read the same artifact
    share the one the context built first."""
    return [(name, GraphContext(g)) for name, g in corpus(max_blocks=6, seed=7)]


def dim(ctx: GraphContext) -> int:
    return len(ctx.decomposition.blocks)


def conclude(num: int, budget: float, start: float, detail: str, failures: list):
    elapsed = time.perf_counter() - start
    status = "PASS" if not failures and elapsed <= budget else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed <= budget, f"over budget: {elapsed:.1f}s > {budget:.0f}s"


def rows_match(a: RationalPolyhedron, b: RationalPolyhedron) -> bool:
    if len(a.rows) != len(b.rows):
        return False
    return all(oracles.same_hyperplane(r, s) for r, s in zip(sorted(a.rows), sorted(b.rows)))


def test_criterion_01_facet_completeness(battery):
    start = time.perf_counter()
    failures = []
    assert len(battery) >= 50
    for name, ctx in battery:
        brute = brute_force_facets(ctx.incidence)
        if not rows_match(ctx.hrep, brute):
            failures.append(name)
    conclude(1, 300, start, f"facet rows match the hull oracle on {len(battery)} graphs", failures)


def test_criterion_02_construction_completeness(battery):
    start = time.perf_counter()
    failures = [
        name
        for name, ctx in battery
        if construct_ibis(ctx.decomposition) != enumerate_ibis(ctx.decomposition)
    ]
    conclude(2, 120, start, "constructed and enumerated inequality sets agree", failures)


def test_criterion_03_edge_characterization(battery):
    start = time.perf_counter()
    failures = []
    pairs = 0
    for name, ctx in battery:
        if dim(ctx) > 5:
            continue
        pg = ctx.geometric_skeleton
        verts = ctx.vertices
        if pg.vertices != verts:
            failures.append((name, "vertex order"))
            continue
        neighbors = [frozenset(_bits(m)) for m in pg.neighbors]
        for i, j in combinations(range(len(verts)), 2):
            pairs += 1
            comb = oracles.adjacent_combinatorial(ctx.decomposition, verts[i], verts[j])
            if comb != (j in neighbors[i]):
                failures.append((name, verts[i], verts[j]))
    conclude(3, 120, start, f"combinatorial and geometric adjacency agree on {pairs} pairs", failures)


def test_criterion_04_diameter_and_hirsch(battery):
    start = time.perf_counter()
    failures = []
    for name, ctx in battery:
        report = hirsch_check(ctx.decomposition, ctx.skeleton, ctx.hrep)
        if not (report.diameter_le_dim and report.hirsch_ok):
            failures.append((name, report))
    conclude(4, 60, start, "diameter is at most dim and at most facets minus dim", failures)


def test_criterion_05_dimension_and_simplicity(battery):
    start = time.perf_counter()
    failures = []
    for name, ctx in battery:
        if oracles.affine_rank(ctx.incidence) != dim(ctx):
            failures.append((name, "affine rank"))
        report = simplicity_report(ctx.decomposition, ctx.skeleton, ctx.tight_rows)
        cut_count = len(ctx.decomposition.cut_vertices)
        if report.is_simple != (cut_count <= 1):
            failures.append((name, "simple"))
        if report.is_simplicial != (dim(ctx) <= 2):
            failures.append((name, "simplicial"))
    conclude(5, 60, start, "full dimension, simplicity and simpliciality as predicted", failures)


def unimodal(seq) -> bool:
    fell = False
    for prev, cur in zip(seq, seq[1:]):
        if cur > prev and fell:
            return False
        if cur < prev:
            fell = True
    return True


def test_criterion_06_hstar_suite(battery):
    start = time.perf_counter()
    failures = []
    checked = 0
    for name, ctx in battery:
        if dim(ctx) > 6:
            continue
        checked += 1
        d = dim(ctx)
        hs = ctx.hstar.hstar
        if hs[d] != 0:
            failures.append((name, "top entry"))
        if any(hs[i] != hs[d - 1 - i] for i in range(d)):
            failures.append((name, "palindrome"))
        if not unimodal(hs):
            failures.append((name, "unimodal"))
        h1 = hs[1] if d >= 1 else 0
        expected_h1 = len(ctx.vertices) - (d + 1)
        if h1 != expected_h1:
            failures.append((name, "h1 formula"))
        if h1 < d - 1 or (h1 == d - 1) != (d <= 2):
            failures.append((name, "h1 bound"))
        if any(2 * b - sum(a) != 1 for a, b in ctx.hrep.rows):
            failures.append((name, "reflexivity"))
    conclude(6, 600, start, f"all lattice-count clauses hold on {checked} graphs", failures)


def test_criterion_07_block_path_hstar():
    start = time.perf_counter()
    expected = {
        2: (1, 1, 0),
        3: (1, 3, 1, 0),
        4: (1, 6, 6, 1, 0),
    }
    catalan = {2: 2, 3: 5, 4: 14}
    failures = []
    for k, hs in expected.items():
        profile = GraphContext(path_graph(k)).hstar
        if profile.hstar != hs:
            failures.append((k, profile.hstar))
        if sum(profile.hstar) != catalan[k]:
            failures.append((k, "sum"))
    conclude(7, 60, start, "block path h* values and Catalan sums", failures)


def test_criterion_08_groebner_basis(battery):
    start = time.perf_counter()
    failures = []
    checked = 0
    for name, ctx in battery:
        if dim(ctx) > GROEBNER_MAX_BLOCKS:
            continue
        checked += 1
        if not all(len(set(lt)) == len(lt) for lt, _ in ctx.basis):
            failures.append((name, "squarefree"))
        if not buchberger_verify(ctx.basis, ctx.order):
            failures.append((name, "buchberger"))
        if not fiber_reduction_test(ctx.decomposition, ctx.basis, ctx.order):
            failures.append((name, "fiber"))
    conclude(8, 600, start, f"verified bases with squarefree leading terms on {checked} graphs", failures)


def test_criterion_09_triangulation(battery):
    start = time.perf_counter()
    failures = []
    checked = 0
    for name, ctx in battery:
        if dim(ctx) > GROEBNER_MAX_BLOCKS:
            continue
        checked += 1
        try:
            complex_ = ctx.triangulation
        except AssertionFailure as exc:
            failures.append((name, str(exc)))
            continue
        for face in complex_.maximal_faces:
            rows = [
                (1,) + tuple(to_incidence(ctx.decomposition, complex_.ground[i]))
                for i in face
            ]
            if abs(oracles.determinant(rows)) != 1:
                failures.append((name, "unimodular", face))
    conclude(9, 300, start, f"unimodular triangulations matching h* on {checked} graphs", failures)


def test_criterion_10_optimizer(battery):
    start = time.perf_counter()
    failures = []
    trials = 0
    for name, ctx in battery:
        rng = random.Random(f"10:{name}")
        for _ in range(500):
            trials += 1
            w = [
                Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                for _ in ctx.decomposition.blocks
            ]
            if max_weight_connected_blockset(ctx.decomposition, w) != brute_force_optimum(ctx.decomposition, w):
                failures.append((name, w))
                break
        if classify(ctx.graph, ctx.decomposition).is_eulerian_cactus:
            for _ in range(10):
                w = [Fraction(rng.randint(-6, 6)) for _ in ctx.graph.edges]
                sol = eulerian_adapter(ctx.graph, w)
                degrees = {}
                for u, v in sol.edges:
                    degrees[u] = degrees.get(u, 0) + 1
                    degrees[v] = degrees.get(v, 0) + 1
                if any(deg % 2 for deg in degrees.values()) or not oracles.subgraph_connected(
                    degrees.keys(), sol.edges
                ):
                    failures.append((name, "eulerian validity", w))
    conclude(10, 120, start, f"dynamic program matches brute force on {trials} weight vectors", failures)
