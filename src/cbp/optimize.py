"""Max-weight connected blockset via dynamic programming on the block-cut tree.

The empty blockset (value 0) is always admissible.  Ties are broken by
the lexicographically smallest blockset under sorted-tuple comparison,
where a prefix precedes its extensions; the solver realizes this with a
constrained value query (best value containing a forced set, avoiding a
banned set) and a greedy left-to-right reconstruction.

Two adapters specialize the solver: trees (blocks are edges, so the
optimum is a max-weight subtree) and Eulerian cacti (blocks are cycles,
so the lifted edge set is a max-weight Eulerian subgraph).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import AssertionFailure, CountOverflow, NotEulerianCactus, NotTree
from .graphs import (
    BlockDecomposition,
    Edge,
    Graph,
    block_decomposition,
    classify,
    graph_to_json,
    steiner_nodes,
)
from .vertices import BlockSubset, enumerate_vertices, is_connected_blockset

MAX_BRUTE_FORCE_BLOCKS = 20


@dataclass(frozen=True)
class Solution:
    """A connected blockset and its weight sum; () with value 0 for the empty set."""

    blockset: BlockSubset
    value: Fraction


@dataclass(frozen=True)
class EdgeSolution:
    """Adapter result: the lifted edge set, its value, and the chosen blocks."""

    edges: tuple[Edge, ...]
    value: Fraction
    blockset: BlockSubset


def _scaled_weights(d: BlockDecomposition, weights: Sequence) -> tuple[list[int], int]:
    """The block weights as integers over one common denominator, and that
    denominator: the lcm of the weights' denominators."""
    w = [Fraction(x) for x in weights]
    if len(w) != len(d.blocks):
        raise ValueError(f"expected {len(d.blocks)} weights, got {len(w)}")
    scale = lcm(*(x.denominator for x in w))
    return [x.numerator * (scale // x.denominator) for x in w], scale


def _branch_best(
    d: BlockDecomposition,
    w: Sequence[int],
    banned: frozenset[int],
    root_block: int,
    entry_vertex: int,
) -> int:
    """Best value of a connected blockset containing root_block inside the
    branch of the block-cut tree entered from entry_vertex.

    Iterative post-order; banned blocks prune their whole subtrees.
    """
    order: list[tuple[int, int]] = []
    children: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stack = [(root_block, entry_vertex)]
    while stack:
        key = stack.pop()
        b, entry = key
        order.append(key)
        kids = []
        for _, v in d.tree_adjacency[("B", b)]:
            if v == entry:
                continue
            for _, b2 in d.tree_adjacency[("C", v)]:
                if b2 != b and b2 not in banned:
                    kids.append((b2, v))
        children[key] = kids
        stack.extend(kids)
    best: dict[tuple[int, int], int] = {}
    for key in reversed(order):
        total = w[key[0]]
        for kid in children[key]:
            if best[kid] > 0:
                total += best[kid]
        best[key] = total
    return best[(root_block, entry_vertex)]


def _best_containing(
    d: BlockDecomposition,
    w: Sequence[int],
    forced: tuple[int, ...],
    banned: frozenset[int],
) -> int | None:
    """Best value over connected blocksets containing forced and avoiding
    banned, or None when no such blockset exists.

    Any connected superset of forced contains its closure; everything else
    is an optional branch hanging off a cut vertex of the closure region.
    """
    nodes = steiner_nodes(d, forced)
    closure = {i for kind, i in nodes if kind == "B"}
    if closure & banned:
        return None
    total = sum(w[b] for b in closure)
    cuts = set()
    for b in closure:
        for _, v in d.tree_adjacency[("B", b)]:
            cuts.add(v)
    for v in sorted(cuts):
        for _, b2 in d.tree_adjacency[("C", v)]:
            if b2 in closure or b2 in banned:
                continue
            cand = _branch_best(d, w, banned, b2, v)
            if cand > 0:
                total += cand
    return total


def max_weight_connected_blockset(d: BlockDecomposition, weights: Sequence) -> Solution:
    """Exact optimum over all connected blocksets, the empty set included.

    The argmax is the lexicographically smallest optimal blockset: the
    reconstruction walks block indices left to right, stopping as soon
    as the accumulated prefix is itself a connected optimal set, and
    otherwise commits the smallest next index that keeps the constrained
    optimum at the global value.  Every sum and comparison is on the
    weights scaled to integers; only the returned value is a Fraction.
    """
    w, scale = _scaled_weights(d, weights)
    n = len(d.blocks)
    best = 0
    for b in range(n):
        cand = _best_containing(d, w, (b,), frozenset())
        if cand is not None and cand > best:
            best = cand
    if best <= 0:
        return Solution(blockset=(), value=Fraction(0))

    prefix: list[int] = []
    banned: set[int] = set()
    while True:
        if (
            prefix
            and sum(w[b] for b in prefix) == best
            and is_connected_blockset(d, prefix)
        ):
            return Solution(blockset=tuple(prefix), value=Fraction(best, scale))
        start = prefix[-1] + 1 if prefix else 0
        chosen = None
        for e in range(start, n):
            trial_banned = frozenset(banned) | frozenset(range(start, e))
            cand = _best_containing(d, w, tuple(prefix) + (e,), trial_banned)
            if cand is not None and cand == best:
                chosen = e
                break
        if chosen is None:
            raise AssertionFailure(
                "optimal prefix admits no extension",
                payload={"graph": graph_to_json(d.graph), "prefix": prefix},
            )
        banned.update(range(start, chosen))
        prefix.append(chosen)


def brute_force_optimum(
    d: BlockDecomposition,
    weights: Sequence,
    vertices: Sequence[BlockSubset] | None = None,
) -> Solution:
    """Scan every connected blockset; same value and tie-break as the DP.

    vertices, when given, are the connected blocksets of d (as listed by
    enumerate_vertices), so a caller holding them saves the enumeration.
    The scan sums the same scaled integer weights as the DP.
    """
    w, scale = _scaled_weights(d, weights)
    if len(d.blocks) > MAX_BRUTE_FORCE_BLOCKS:
        raise CountOverflow(
            f"{len(d.blocks)} blocks exceed the brute-force cap {MAX_BRUTE_FORCE_BLOCKS}"
        )
    best_value, best_set = 0, ()
    for a in enumerate_vertices(d) if vertices is None else vertices:
        val = sum(map(w.__getitem__, a))
        if val > best_value or (val == best_value and a < best_set):
            best_value, best_set = val, a
    return Solution(blockset=best_set, value=Fraction(best_value, scale))


def _edge_weight_map(g: Graph, edge_weights: Sequence) -> dict[Edge, Fraction]:
    edges = g.sorted_edges()
    w = tuple(Fraction(x) for x in edge_weights)
    if len(w) != len(edges):
        raise ValueError(f"expected {len(edges)} edge weights, got {len(w)}")
    return dict(zip(edges, w))


def _check_eulerian_edges(g: Graph, edges: tuple[Edge, ...]) -> None:
    """The lifted subgraph must have even degrees and one nontrivial component."""
    if not edges:
        return
    degree: dict[int, int] = {}
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    odd = [v for v, deg in degree.items() if deg % 2]
    start = next(iter(adj))
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if odd or len(seen) != len(adj):
        raise AssertionFailure(
            "lifted edge set is not Eulerian",
            payload={"graph": graph_to_json(g), "edges": [list(e) for e in edges]},
        )


def eulerian_adapter(g: Graph, edge_weights: Sequence) -> EdgeSolution:
    """Max-weight Eulerian subgraph of an Eulerian cactus.

    Every block is a cycle, so cycle weights are edge sums and a chosen
    connected blockset lifts to an even-degree connected edge set.
    """
    d = block_decomposition(g)
    if not classify(g, d).is_eulerian_cactus:
        raise NotEulerianCactus("graph is not a cactus with all blocks cycles")
    wmap = _edge_weight_map(g, edge_weights)
    block_weights = [
        sum((wmap[e] for e in blk.edges), Fraction(0)) for blk in d.blocks
    ]
    sol = max_weight_connected_blockset(d, block_weights)
    edges = tuple(sorted(e for b in sol.blockset for e in d.blocks[b].edges))
    _check_eulerian_edges(g, edges)
    return EdgeSolution(edges=edges, value=sol.value, blockset=sol.blockset)


def tree_adapter(t: Graph, edge_weights: Sequence) -> EdgeSolution:
    """Max-weight subtree of a tree; every block is a single edge."""
    d = block_decomposition(t)
    if not classify(t, d).is_tree:
        raise NotTree("graph is not a tree")
    wmap = _edge_weight_map(t, edge_weights)
    block_edge = [next(iter(blk.edges)) for blk in d.blocks]
    sol = max_weight_connected_blockset(d, [wmap[e] for e in block_edge])
    edges = tuple(sorted(block_edge[b] for b in sol.blockset))
    return EdgeSolution(edges=edges, value=sol.value, blockset=sol.blockset)
