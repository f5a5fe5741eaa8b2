"""Corpus-wide verification sweep: every structural theorem, every graph.

Each check is a function of a per-graph context that returns None on
success or a failure payload.  The sweep runs the battery over a seeded
corpus, optionally in parallel worker processes, and produces a report
whose failure entries carry the graph serialization and the seed needed
to reproduce them.  No check compares a computation with a rerun of the
same code on the same input.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd

from .corpus import CorpusEntry, corpus
from .ehrhart import hstar_checks, hstar_profile
from .errors import AssertionFailure, CBPError
from .facets import _check_ibi_cap, _part_sums, construct_ibis, enumerate_ibis, facet_certificates, h_representation
from .graphs import Graph, block_decomposition, classify, graph_to_json
from .hull import RationalPolyhedron, _bareiss, _primitive, brute_force_facets
from . import optimize
from .optimize import _lift, max_weight_connected_blockset
from .serialize import jsonable
from .skeleton import (
    PolytopeGraph,
    _check_geometric_cap,
    _check_vertex_cap,
    build_polytope_graph,
    hirsch_check,
    simplicity_report,
)
from .toric import (
    SimplicialComplex,
    TermOrder,
    _check_variable_cap,
    buchberger_verify,
    fiber_reduction_test,
    groebner_candidates,
    make_term_order,
    triangulation,
    triangulation_checks,
)
from .vertices import (
    _bits,
    _columns,
    _moments,
    _row_masks,
    count_connected_blocksets,
    enumerate_vertices,
    to_incidence,
)


# Block-count gates of the sweep, read at call time: a graph with more
# blocks skips the check, and the triangulation check needs both the
# Groebner and the h* gate.  Last, the optimizer's trials per graph.
FACET_MAX_BLOCKS = 7
ADJACENCY_MAX_BLOCKS = 5
HSTAR_MAX_BLOCKS = 8
GROEBNER_MAX_BLOCKS = 4
OPTIMIZER_TRIALS = 50


@dataclass(frozen=True)
class VerifyOptions:
    """The swept corpus (blocks up to max_blocks, seed, random graphs per
    size) and the worker count; the check gates are module constants."""

    max_blocks: int = 5
    seed: int = 7
    random_per_size: int = 8
    workers: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    seconds: float
    detail: dict | None


@dataclass(eq=False)
class GraphReport:
    graph_id: str
    graph: Graph
    block_count: int
    checks: tuple[CheckResult, ...]

    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


@dataclass(eq=False)
class VerificationReport:
    options: VerifyOptions
    reports: tuple[GraphReport, ...]

    def passed(self) -> bool:
        return all(r.passed() for r in self.reports)

    def to_json(self) -> dict:
        return {
            "seed": self.options.seed,
            "max_blocks": self.options.max_blocks,
            "graph_count": len(self.reports),
            "all_passed": self.passed(),
            "graphs": [
                {
                    "id": r.graph_id,
                    "graph": graph_to_json(r.graph),
                    "blocks": r.block_count,
                    "passed": r.passed(),
                    "checks": [
                        {
                            "name": c.name,
                            "status": c.status,
                            "seconds": round(c.seconds, 4),
                            "detail": jsonable(c.detail) if c.detail else None,
                        }
                        for c in r.checks
                    ],
                }
                for r in self.reports
            ],
        }


class GraphContext:
    """The per-graph artifact cache: each artifact is built once, on first use,
    from the ones it depends on.

    The decomposition feeds the vertices and the independent-blocks
    inequalities, which feed the H-description; the vertices feed their
    incidence vectors, the term order and their block columns, the one
    transpose of the vertex list (`vertices._columns`: bit k of column b
    marks that the k-th vertex holds block b).  The columns feed the
    combinatorial skeleton, the basis (with the order) and, with the
    H-description, the tight-row table: per row, the mask of the vertices
    tight at it and the first vertex violating it (`vertices._row_masks`).
    The facet certificates, the geometric skeleton and the simplicity
    report all read that one table.  Every affine rank the facets and
    dimension checks need is read off popcount moments of the columns
    (`vertices._moments`); the incidence vectors feed only the double
    description oracle.  The basis and order feed the triangulation,
    certified once against h* when it is built: a failed certificate
    raises, so a context never holds an uncertified complex.  The library
    functions take these artifacts as arguments and build none of them,
    save the triangulation's term-order columns, its second route to the
    leading pairs; the sweep's checks, the graph commands of the CLI and
    the tests read them from here.  Each artifact lives as long as the
    context, so nothing carries over from one graph to the next.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    @cached_property
    def decomposition(self):
        return block_decomposition(self.graph)

    @cached_property
    def vertices(self):
        return enumerate_vertices(self.decomposition)

    @cached_property
    def incidence(self):
        return [to_incidence(self.decomposition, a) for a in self.vertices]

    @cached_property
    def columns(self) -> list[int]:
        return _columns(self.decomposition, self.vertices)

    @cached_property
    def ibis(self):
        return enumerate_ibis(self.decomposition)

    @cached_property
    def hrep(self) -> RationalPolyhedron:
        return h_representation(self.decomposition, self.ibis)

    @cached_property
    def tight_rows(self) -> list[tuple[int, int | None]]:
        return _row_masks(self.hrep.rows, self.columns, len(self.vertices))

    @cached_property
    def hstar(self):
        return hstar_profile(self.decomposition, self.hrep)

    @cached_property
    def skeleton(self) -> PolytopeGraph:
        # the vertex cap, checked against the predicted count before the
        # vertices are enumerated
        _check_vertex_cap(count_connected_blocksets(self.decomposition))
        return build_polytope_graph(self.decomposition, self.columns, "combinatorial", vertices=self.vertices)

    @cached_property
    def geometric_skeleton(self) -> PolytopeGraph:
        # the face test's cap, checked before the H-description is built
        _check_geometric_cap(count_connected_blocksets(self.decomposition))
        return build_polytope_graph(self.decomposition, self.tight_rows, "geometric", vertices=self.vertices)

    @cached_property
    def order(self) -> TermOrder:
        return make_term_order(self.vertices)

    @cached_property
    def basis(self):
        # the variable cap of buchberger_verify and triangulation, checked
        # against the predicted count before the vertices are enumerated
        _check_variable_cap(count_connected_blocksets(self.decomposition))
        return groebner_candidates(self.decomposition, self.order, self.vertices, self.columns)

    @cached_property
    def triangulation(self) -> SimplicialComplex:
        complex_ = triangulation(self.decomposition, self.basis, self.order)
        triangulation_checks(self.decomposition, complex_, self.hstar.hstar)
        return complex_


def check_blocks(ctx: GraphContext) -> dict | None:
    """Blocks partition the edges; pairwise meets are single cut vertices;
    each block's entry of the cut-vertex table holds its cut vertices."""
    d = ctx.decomposition
    block_edges = [e for blk in d.blocks for e in blk.edges]
    if sorted(block_edges) != sorted(d.graph.sorted_edges()):
        return {"reason": "blocks do not partition the edge set"}
    for i in range(len(d.blocks)):
        for j in range(i + 1, len(d.blocks)):
            shared = set(d.blocks[i].vertices) & set(d.blocks[j].vertices)
            if len(shared) > 1:
                return {"reason": "two blocks share more than one vertex", "pair": [i, j]}
            if shared and next(iter(shared)) not in d.cut_vertices:
                return {"reason": "shared vertex not reported as cut vertex", "pair": [i, j]}
    for v in range(d.graph.vertex_count):
        touching = sum(1 for blk in d.blocks if v in blk.vertices)
        if (v in d.cut_vertices) != (touching >= 2):
            return {"reason": "cut vertex flag disagrees with block incidence", "vertex": v}
    for b, blk in enumerate(d.blocks):
        if sorted(d.block_cuts[b]) != sorted(blk.vertices & d.cut_vertices):
            return {"reason": "cut-vertex table disagrees with the block", "block": b}
    return None


def check_dimension(ctx: GraphContext) -> dict | None:
    """The polytope is full-dimensional: affine rank equals the block count.

    The rank is read off the moment matrix of all the vertices.
    """
    rank = _bareiss(_moments(ctx.columns, (1 << len(ctx.vertices)) - 1))[0] - 1
    if rank != len(ctx.decomposition.blocks):
        return {"rank": rank, "expected": len(ctx.decomposition.blocks)}
    return None


def check_facets(ctx: GraphContext) -> dict | None:
    """H-description equals the hull oracle; every row is a needed facet.

    A row is facet-defining when its tight vertices, read off the tight
    mask of facet_certificates, have affine rank n - 1 and leave some
    vertex slack.  It is then needed unless another row is a positive
    multiple of it, as their primitive integer vectors show.  Proof: let
    the other rows imply a facet-defining row a . x <= b.  Their
    polyhedron Q contains conv(V), so it is full-dimensional, and lies in
    {a . x <= b}; so the hyperplane a . x = b, which holds n affinely
    independent vertices, cuts out a facet of Q.  A system describing a
    full-dimensional polyhedron has a row defining each of its facets,
    unique up to a positive factor (Schrijver 1986, section 8.4), so one
    of the other rows is a positive multiple of a . x <= b.
    """
    n = len(ctx.decomposition.blocks)
    theirs = set(brute_force_facets(ctx.incidence).rows)
    rows = ctx.hrep.rows
    ours = set(rows)
    if ours != theirs:
        return {
            "missing_rows": sorted(theirs - ours),
            "extra_rows": sorted(ours - theirs),
        }
    certs = facet_certificates(rows, ctx.vertices, ctx.tight_rows, ctx.columns)
    full = (1 << len(ctx.vertices)) - 1
    for row, (tight, rank) in zip(rows, certs):
        if rank != n - 1 or tight == full:
            return {"reason": "row is not facet-defining", "row": row}
    seen = {}
    for row in rows:
        key = _primitive([*row[0], row[1]])
        if key in seen:
            return {"reason": "two rows define one facet", "rows": [seen[key], row]}
        seen[key] = row
    return None


def check_ibis(ctx: GraphContext) -> dict | None:
    """Inductive construction reaches exactly the enumerated inequalities,
    and each of them passes the component clause: alpha sums to 1, and at
    every cut vertex v one part of the graph minus v weighs 1 and the rest
    0.  The parts' weights are read off the alpha sums of the subtrees of
    the decomposition's root walk (`facets._part_sums`).  The construction
    screens none of its states, so an invalid constructed row shows here,
    in `constructed_only`."""
    d = ctx.decomposition
    enumerated = set(ctx.ibis)
    constructed = set(construct_ibis(d))
    if enumerated != constructed:
        return {
            "enumerated_only": sorted(enumerated - constructed),
            "constructed_only": sorted(constructed - enumerated),
        }
    walk = order, _, parent = d.root_walk
    cuts = sorted(d.cut_vertices)
    for alpha in enumerated:
        if sum(alpha) != 1:
            return {"reason": "alpha sum is not 1", "alpha": list(alpha)}
        sub = list(alpha)
        for b in reversed(order[1:]):
            sub[parent[b]] += sub[b]
        for v in cuts:
            sums = sorted(_part_sums(d, walk, sub, v).values())
            if sums != [0] * (len(sums) - 1) + [1]:
                return {
                    "reason": "component weights are not one 1 and rest 0",
                    "alpha": list(alpha),
                    "vertex": v,
                }
    return None


def check_adjacency(ctx: GraphContext) -> dict | None:
    """Combinatorial and geometric adjacency agree on every vertex pair."""
    comb, geo = ctx.skeleton, ctx.geometric_skeleton
    verts = comb.vertices
    for i, (comb_nb, geo_nb) in enumerate(zip(comb.neighbors, geo.neighbors)):
        # a difference below i showed up at the smaller vertex already
        differ = (comb_nb ^ geo_nb) >> (i + 1)
        if differ:
            j = i + (differ & -differ).bit_length()
            return {
                "pair": [list(verts[i]), list(verts[j])],
                "combinatorial": bool(comb_nb >> j & 1),
                "geometric": bool(geo_nb >> j & 1),
            }
    return None


def _bfs_diameter(neighbors) -> int | None:
    """Largest eccentricity of the graph given by neighbor masks, by one
    breadth-first search per source, level by level; None when the graph
    is disconnected."""
    full = (1 << len(neighbors)) - 1
    best = 0
    for source in range(len(neighbors)):
        seen = frontier = 1 << source
        depth = -1
        while frontier:
            depth += 1
            reached = 0
            for u in _bits(frontier):
                reached |= neighbors[u]
            frontier = reached & ~seen
            seen |= frontier
        if seen != full:
            return None
        best = max(best, depth)
    return best


def check_diameter(ctx: GraphContext) -> dict | None:
    """Diameter bounded by the dimension n and by the Hirsch bound, equal
    to n when the graph has at most one cut vertex, and to min(n, 2) on a
    block path; under the adjacency gate it also equals the largest
    eccentricity found by a per-source breadth-first search of the
    skeleton.

    With at most one cut vertex, every block of the connected graph holds
    it, so every blockset, the empty one too, is connected: P is the cube
    [0,1]^n, whose graph has diameter n.

    On a block path the vertices are the empty set and the intervals of
    the path, and an interval is adjacent to each of its prefixes and
    suffixes.  For S = [a..b] and T = [c..d] with a <= c, either c > b + 1
    and S and T are adjacent, or [a..d] is a common neighbour; the empty
    set reaches any T through {c}.  So the diameter is at most 2, and for
    n >= 2 it is 2: the empty set and the whole path are not adjacent,
    since their midpoint is also the midpoint of {0} and [1..n-1].
    """
    d = ctx.decomposition
    n = len(d.blocks)
    report = hirsch_check(d, ctx.skeleton, ctx.hrep)
    if n <= ADJACENCY_MAX_BLOCKS:
        bfs = _bfs_diameter(ctx.skeleton.neighbors)
        if bfs != report.diameter:
            return {"diameter": report.diameter, "bfs_diameter": bfs}
    if len(d.cut_vertices) <= 1 and report.diameter != n:
        return {"reason": "cube diameter is not the dimension", "diameter": report.diameter, "expected": n}
    if classify(ctx.graph, d).is_block_path and report.diameter != min(n, 2):
        return {"reason": "block path diameter is not min(n, 2)", "diameter": report.diameter, "expected": min(n, 2)}
    return None


def check_simplicity(ctx: GraphContext) -> dict | None:
    """Measured simplicity flags match the cut-vertex and dimension predictions."""
    rep = simplicity_report(ctx.decomposition, ctx.skeleton, ctx.tight_rows)
    if rep.is_simple != rep.predicted_simple or rep.is_simplicial != rep.predicted_simplicial:
        return {
            "is_simple": rep.is_simple,
            "predicted_simple": rep.predicted_simple,
            "is_simplicial": rep.is_simplicial,
            "predicted_simplicial": rep.predicted_simplicial,
        }
    return None


def check_hstar(ctx: GraphContext) -> dict | None:
    """All h* clauses pass (raises AssertionFailure with details otherwise)."""
    hstar_checks(ctx.hstar, ctx.decomposition, ctx.hrep)
    return None


def check_groebner(ctx: GraphContext) -> dict | None:
    """The claimed basis passes Buchberger and the degree-3 fiber test."""
    if not buchberger_verify(ctx.basis, ctx.order):
        return {"reason": "an S-pair does not reduce to zero"}
    if not fiber_reduction_test(ctx.decomposition, ctx.basis, ctx.order):
        return {"reason": "a fiber difference does not reduce to zero"}
    return None


def check_triangulation(ctx: GraphContext) -> dict | None:
    """The initial complex triangulates the polytope with h-vector h*:
    building `ctx.triangulation` raises otherwise."""
    ctx.triangulation
    return None


def _reduced_pairs(numerators: range, denominators: range) -> tuple[tuple[int, int], ...]:
    """One (p, q) per numerator and denominator of the ranges, numerator
    major, each reduced to lowest terms."""
    return tuple((p // g, q // g) for p in numerators for q in denominators for g in (gcd(p, q),))


# The optimizer trials' draw tables, one entry per pair of the ranges: the
# block weights p/q (p in -12..12, q in 1..6) and the adapter trials' edge
# weights (p in -6..6, q in 1..4) in lowest terms, and the scaling trial's
# positive rational a/b (a and b in 1..9).
BLOCK_WEIGHTS = _reduced_pairs(range(-12, 13), range(1, 7))
EDGE_WEIGHTS = _reduced_pairs(range(-6, 7), range(1, 5))
SCALES = tuple((a, b) for a in range(1, 10) for b in range(1, 10))


def _draw(rng: random.Random, table: tuple, n: int) -> list:
    """n independent uniform entries of table from one draw: a number below
    len(table) ** n, read as n base-len(table) digits, lowest first."""
    base = len(table)
    x = rng.randrange(base**n)
    out = []
    for _ in range(n):
        x, k = divmod(x, base)
        out.append(table[k])
    return out


def check_optimizer(ctx: GraphContext, seed_tag: str) -> dict | None:
    """DP equals brute force, with tie-break, on random rational weights.

    Both caps are checked once, before the first draw.  Each trial draws
    its weight vector with one integer draw (`_draw`): a number below
    150 ** blocks whose base-150 digits index BLOCK_WEIGHTS, the 150
    (numerator, denominator) pairs of the ranges in lowest terms.  The DP
    core and the brute-force core run on one integer vector, the pairs
    over their least common denominator.  The scaling trial draws its
    positive rational a/b with one more draw, passes the scaled weights
    through max_weight_connected_blockset and compares its value with the
    DP's by cross-multiplication.  On a tree or an Eulerian cactus (no
    graph is both), the adapter trials draw their edge weights from
    EDGE_WEIGHTS the same way, run the adapters' shared lift on
    ctx.decomposition for the graph's class and compare its blockset,
    value and edges with the brute-force core on the blocks' edge sums
    (the edges of its blockset, sorted).  Every draw is exactly uniform over its
    ranges and float-free; Fractions are built only for the public
    solver, the lift's input and failure payloads.
    """
    d = ctx.decomposition
    optimize._check_optimize_cap(d)
    optimize._check_brute_force_cap(d)
    n = len(d.blocks)
    rng = random.Random(seed_tag)
    for t in range(OPTIMIZER_TRIALS):
        pairs = _draw(rng, BLOCK_WEIGHTS, n)
        w, den = optimize._over_lcm(pairs)
        dp, bf = optimize._optimum(d, w), optimize._brute_force(w, ctx.vertices)
        if dp != bf:
            return {
                "trial": t,
                "weights": [Fraction(p, q) for p, q in pairs],
                "dp": {"blockset": dp[0], "value": Fraction(dp[1], den)},
                "brute": {"blockset": bf[0], "value": Fraction(bf[1], den)},
            }
        a, b = SCALES[rng.randrange(len(SCALES))]
        scaled = max_weight_connected_blockset(d, [Fraction(p * a, q * b) for p, q in pairs])
        # the scaled value against dp[1] / den * a / b, cross-multiplied
        num, dnm = scaled.value.as_integer_ratio()
        if scaled.blockset != dp[0] or num * den * b != dp[1] * a * dnm:
            return {"trial": t, "reason": "positive scaling moved the argmax"}
    cls = classify(ctx.graph, d)
    if not (cls.is_tree or cls.is_eulerian_cactus):
        return None
    name = "tree" if cls.is_tree else "Eulerian"
    edges = ctx.graph.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    block_edges = [[index[e] for e in blk.edges] for blk in d.blocks]
    for t in range(min(OPTIMIZER_TRIALS, 20)):
        pairs = _draw(rng, EDGE_WEIGHTS, len(edges))
        ew, den = optimize._over_lcm(pairs)
        blockset, value = optimize._brute_force([sum(map(ew.__getitem__, ix)) for ix in block_edges], ctx.vertices)
        sol = _lift(ctx.graph, d, [Fraction(p, q) for p, q in pairs], eulerian=cls.is_eulerian_cactus)
        num, dnm = sol.value.as_integer_ratio()
        if sol.blockset != blockset or num * den != value * dnm or sol.edges != optimize._blockset_edges(d, blockset):
            return {"trial": t, "reason": f"{name} adapter disagrees with the brute force"}
    return None


def verify_graph(entry: CorpusEntry, options: VerifyOptions) -> GraphReport:
    """Run the gated check battery on one graph: each row names a check,
    whether the graph passes its gate, and the check."""
    ctx = GraphContext(entry.graph)
    n = len(ctx.decomposition.blocks)
    battery = [
        ("blocks", True, lambda: check_blocks(ctx)),
        ("dimension", True, lambda: check_dimension(ctx)),
        ("facets", n <= FACET_MAX_BLOCKS, lambda: check_facets(ctx)),
        ("ibis", True, lambda: check_ibis(ctx)),
        ("adjacency", n <= ADJACENCY_MAX_BLOCKS, lambda: check_adjacency(ctx)),
        ("diameter", True, lambda: check_diameter(ctx)),
        ("simplicity", True, lambda: check_simplicity(ctx)),
        ("hstar", n <= HSTAR_MAX_BLOCKS, lambda: check_hstar(ctx)),
        ("groebner", n <= GROEBNER_MAX_BLOCKS, lambda: check_groebner(ctx)),
        ("triangulation", n <= min(GROEBNER_MAX_BLOCKS, HSTAR_MAX_BLOCKS), lambda: check_triangulation(ctx)),
        ("optimizer", True, lambda: check_optimizer(ctx, f"{options.seed}:{entry.name}")),
    ]
    results = []
    for name, gated_in, fn in battery:
        if not gated_in:
            results.append(CheckResult(name, "skip", 0.0, None))
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            status = "pass" if detail is None else "fail"
        except Exception as exc:
            # a raised check fails its check, not the sweep: the entry keeps
            # the graph and seed that replay it, an AssertionFailure's
            # payload, and the frame that raised anything not a CBPError
            detail = {"error": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, AssertionFailure):
                detail.update(exc.payload)
            elif not isinstance(exc, CBPError):
                tb = exc.__traceback__
                while tb.tb_next:
                    tb = tb.tb_next
                code = tb.tb_frame.f_code
                detail["where"] = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
            status = "fail"
        elapsed = time.perf_counter() - start
        if detail is not None:
            detail.setdefault("graph", graph_to_json(entry.graph))
            detail.setdefault("seed", options.seed)
        results.append(CheckResult(name, status, elapsed, detail))
    return GraphReport(
        graph_id=entry.name,
        graph=entry.graph,
        block_count=n,
        checks=tuple(results),
    )


def default_workers() -> int:
    """CPU count capped at 8 and by the CBP_THREADS environment variable."""
    workers = min(os.cpu_count() or 1, 8)
    env = os.environ.get("CBP_THREADS")
    if env:
        try:
            workers = min(workers, max(1, int(env)))
        except ValueError:
            pass
    return max(1, workers)


def run_verification(options: VerifyOptions) -> VerificationReport:
    """Sweep the seeded corpus, in parallel when more than one worker.

    A corpus past the inequality enumeration's block cap could only fail,
    since the ungated IBI check refuses every graph over it, so such a
    sweep is refused with that cap's CountOverflow before the corpus is
    built.
    """
    _check_ibi_cap(options.max_blocks)
    entries = corpus(options.max_blocks, options.seed, options.random_per_size)
    workers = options.workers if options.workers is not None else default_workers()
    if workers <= 1 or len(entries) <= 1:
        reports = [verify_graph(e, options) for e in entries]
    else:
        # imported here: the pool's modules weigh on every process that
        # imports this one, and only a parallel sweep starts a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(verify_graph, entries, repeat(options)))
    return VerificationReport(options=options, reports=tuple(reports))
