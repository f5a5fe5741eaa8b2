"""Max-weight connected blockset via dynamic programming on the block-cut tree.

The empty blockset (value 0) is always admissible.  The optimum comes
from one rerooting pass: the walk of the block-cut tree from block 0,
made once per decomposition (`BlockDecomposition.root_walk`), an up pass
for the best value inside each block's subtree and a down pass for the
best value over blocksets containing each block.  Ties are broken by the
lexicographically smallest blockset under sorted-tuple comparison, where
a prefix precedes its extensions; only this greedy left-to-right
reconstruction uses constrained value queries (best value containing a
forced set, avoiding a banned set), each one walk of the tree from a
forced block and one pass back up it over two lists indexed by block:
the best values and the marks of the blocks whose subtree holds a forced
block.  Every pass reads a walk as `graphs._walk` returns it: the blocks
in walk order and, indexed by block, the cut vertex each was entered
through and its parent block, None at the root and at every block the
walk did not reach.  A query with block e forced is at most e's rerooted value, so
only blocks whose rerooted value is the optimum are queried, each at
most once per solve.  Decompositions
of more than MAX_OPTIMIZE_BLOCKS blocks are refused before any work.

Each public solver is a front over a private core on integer weights: the
front checks its cap, then scales the weights once to integers over their
least common denominator.  Checks that compare the DP with the brute
force call the two cores, _optimum and _brute_force, on one integer
vector, after checking both caps once.

Two adapters specialize the solver: trees (blocks are edges, so the
optimum is a max-weight subtree) and Eulerian cacti (blocks are cycles,
so the lifted edge set is a max-weight Eulerian subgraph).  No tree is an
Eulerian cactus, so a graph's class names its adapter.  Each checks the
class; then one lift, shared by both, scales the edge weights once to
integers, checks the cap, runs the DP core on each block's edge sum and
lifts the DP's answer to its edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import AbstractSet, Iterable, Sequence

from .errors import AssertionFailure, BudgetExceeded, CountOverflow, NotEulerianCactus, NotTree
from .graphs import (
    BlockDecomposition,
    Edge,
    Graph,
    _walk,
    block_decomposition,
    classify,
    graph_to_json,
)
from .vertices import BlockSubset, enumerate_vertices, is_connected_blockset

MAX_BRUTE_FORCE_BLOCKS = 20
MAX_OPTIMIZE_BLOCKS = 1024


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


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """The rationals p/q of the (p, q) pairs, q > 0, as integers over the
    lcm of the q, and that lcm."""
    scale = lcm(*[q for _, q in pairs])
    return [p * (scale // q) for p, q in pairs], scale


def _integers(values: Sequence) -> tuple[list[int], int]:
    """Rational values as integers over one common denominator, and that
    denominator: the lcm of the values' denominators.  int and Fraction
    entries are read as they are; any other entry goes through Fraction."""
    return _over_lcm(
        [(x if type(x) is int or type(x) is Fraction else Fraction(x)).as_integer_ratio() for x in values]
    )


def _scaled_weights(d: BlockDecomposition, weights: Sequence) -> tuple[list[int], int]:
    """The block weights as integers over one common denominator, and that
    denominator."""
    w, scale = _integers(weights)
    if len(w) != len(d.blocks):
        raise ValueError(f"expected {len(d.blocks)} weights, got {len(w)}")
    return w, scale


def _check_optimize_cap(d: BlockDecomposition) -> None:
    if len(d.blocks) > MAX_OPTIMIZE_BLOCKS:
        raise BudgetExceeded(
            f"{len(d.blocks)} blocks exceed the optimizer cap {MAX_OPTIMIZE_BLOCKS}"
        )


def _best_containing(
    d: BlockDecomposition,
    w: Sequence[int],
    forced: tuple[int, ...],
    banned: AbstractSet[int],
) -> int | None:
    """Best value over connected blocksets containing forced and avoiding
    banned, or None when no such blockset exists.

    One walk of the block-cut tree from forced[0] around the banned blocks
    (the cached root walk when that is block 0 and nothing is banned); a
    forced block other than forced[0] whose parent in the walk is None was
    not entered, so it is cut off and the answer is None.  Then one pass
    back up the walk's parent list over two lists indexed by block, the
    best values (a copy of w) and the needed marks: a block takes a
    child's best value whenever the child is needed (its subtree holds a
    forced block, so the path to it is), marking itself needed too, and
    otherwise only when that value is positive.  Blocks the walk did not
    reach keep their weight and are never read.

    Passing the needed mark up keeps each forced block's path.  Without it
    the answer would be the best value over connected blocksets avoiding
    banned that hold forced[0] and every forced block whose parent they
    hold: at least the true answer, at most the optimum.  _optimum forces
    only blocks of optimal rerooted value and asks only whether the answer
    is the optimum, so that fault changes one of its decisions only on a
    tie of two optimal blocksets, one holding forced[0] but not some forced
    block, the other holding that block; and it does bite there.  Example:
    the triangle 0 4 5 with pendant edges 2-4, 5-1 and 1-3.  Its blocks are
    {0, 4, 5}, {1, 3}, {1, 5} and {2, 4}, on the tree path 1-2-0-3.  Under
    weights (1, 2, -3, 1) both (0, 3) and (1,) weigh 2, and every block
    but 2 has rerooted value 2.  The query forcing (0, 1) would
    return 2 instead of its true 1, so block 1 would be committed and the
    prefix (0, 1) would have no extension.
    """
    root = forced[0]
    if root in banned:
        return None
    order, _, parent = d.root_walk if root == 0 and not banned else _walk(d, root, banned)
    needed = [False] * len(w)
    for f in forced:
        if f != root and parent[f] is None:
            return None
        needed[f] = True
    best = list(w)
    for b in reversed(order[1:]):
        if needed[b]:
            needed[parent[b]] = True
            best[parent[b]] += best[b]
        elif best[b] > 0:
            best[parent[b]] += best[b]
    return best[root]


def _rerooted_values(d: BlockDecomposition, w: Sequence[int]) -> list[int]:
    """For every block b, the best value over connected blocksets containing b.

    The decomposition's walk from block 0, then two passes over its order,
    reading each block's entry cut vertex and parent from the walk's lists
    indexed by block (None at block 0, which neither pass reads).  Up:
    down[b] is w[b] plus the positive down values of b's children, and
    downc[v], kept for every cut vertex v, sums the positive down values
    of the blocks entered through v.  Down: a block b entered through v
    adds to down[b] its positive siblings at v and, when positive, the
    best value at its parent without the blocks below v.
    """
    order, entry, parent = d.root_walk
    down = list(w)
    downc = dict.fromkeys(d.cut_vertices, 0)
    for b in reversed(order[1:]):
        if down[b] > 0:
            downc[entry[b]] += down[b]
            down[parent[b]] += down[b]
    full = down[:]
    for b in order[1:]:
        v = entry[b]
        above = full[parent[b]] - downc[v]
        full[b] += downc[v] - (down[b] if down[b] > 0 else 0) + (above if above > 0 else 0)
    return full


def _optimum(d: BlockDecomposition, w: list[int]) -> tuple[BlockSubset, int]:
    """The DP on integer block weights w: the lexicographically smallest
    optimal blockset and its value."""
    n = len(d.blocks)
    full = _rerooted_values(d, w)
    best = max(full)
    if best <= 0:
        return (), 0

    first = full.index(best)
    prefix, weight = [first], w[first]
    banned = set(range(first))
    while not (weight == best and is_connected_blockset(d, prefix)):
        for e in range(prefix[-1] + 1, n):
            if full[e] == best and _best_containing(d, w, (*prefix, e), banned) == best:
                break
            banned.add(e)
        else:
            raise AssertionFailure(
                "optimal prefix admits no extension",
                payload={"graph": graph_to_json(d.graph), "prefix": prefix},
            )
        prefix.append(e)
        weight += w[e]
    return tuple(prefix), best


def max_weight_connected_blockset(d: BlockDecomposition, weights: Sequence) -> Solution:
    """Exact optimum over all connected blocksets, the empty set included.

    The value is the largest rerooted value.  The argmax is the
    lexicographically smallest optimal blockset: every block of an optimal
    set has the optimal rerooted value, so the reconstruction starts at
    the first such block m with the blocks before m banned.  It then walks
    block indices left to right, stopping as soon as the accumulated prefix
    is itself a connected optimal set, and otherwise commits the smallest
    next index that keeps the constrained optimum at the global value.
    Only blocks of optimal rerooted value are tried, and a block passed
    over is banned from then on, so each block is queried at most once.
    Every sum and comparison is on the weights scaled to integers; only
    the returned value is a Fraction.  Raises BudgetExceeded above
    MAX_OPTIMIZE_BLOCKS blocks, before any other work.
    """
    _check_optimize_cap(d)
    w, scale = _scaled_weights(d, weights)
    blockset, best = _optimum(d, w)
    return Solution(blockset=blockset, value=Fraction(best, scale))


def _brute_force(w: list[int], vertices: Iterable[BlockSubset]) -> tuple[BlockSubset, int]:
    """The lexicographically smallest blockset of largest integer weight
    among the given ones, the empty set included, and its weight.

    The smallest (negated weight, blockset) pair is the largest weight's
    smallest blockset; below weight 1 the empty set, which precedes every
    other blockset, wins."""
    neg, best = min([(-sum(map(w.__getitem__, a)), a) for a in vertices], default=(0, ()))
    return ((), 0) if neg >= 0 else (best, -neg)


def _check_brute_force_cap(d: BlockDecomposition) -> None:
    if len(d.blocks) > MAX_BRUTE_FORCE_BLOCKS:
        raise CountOverflow(
            f"{len(d.blocks)} blocks exceed the brute-force cap {MAX_BRUTE_FORCE_BLOCKS}"
        )


def brute_force_optimum(d: BlockDecomposition, weights: Sequence) -> Solution:
    """Scan every connected blockset; same value and tie-break as the DP.

    The scan sums the same scaled integer weights as the DP.  Raises
    CountOverflow above MAX_BRUTE_FORCE_BLOCKS blocks, before any other
    work.
    """
    _check_brute_force_cap(d)
    w, scale = _scaled_weights(d, weights)
    blockset, best = _brute_force(w, enumerate_vertices(d))
    return Solution(blockset=blockset, value=Fraction(best, scale))


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
    return _lift(g, d, edge_weights, eulerian=True)


def tree_adapter(t: Graph, edge_weights: Sequence) -> EdgeSolution:
    """Max-weight subtree of a tree; every block is a single edge."""
    d = block_decomposition(t)
    if not classify(t, d).is_tree:
        raise NotTree("graph is not a tree")
    return _lift(t, d, edge_weights)


def _blockset_edges(d: BlockDecomposition, blockset: BlockSubset) -> tuple[Edge, ...]:
    """The edges of the blockset's blocks, sorted."""
    return tuple(sorted(e for b in blockset for e in d.blocks[b].edges))


def _lift(
    g: Graph, d: BlockDecomposition, edge_weights: Sequence, eulerian: bool = False
) -> EdgeSolution:
    """The adapters' solve on the decomposition d of g: the edge weights,
    scaled once to integers over their lcm and read in sorted edge order,
    then the optimizer cap, then the DP core on the blocks' integer edge
    sums (a tree block has one edge); the blockset lifts to its edges.
    With eulerian, the lifted edge set is checked to be Eulerian."""
    edges = g.sorted_edges()
    ew, scale = _integers(edge_weights)
    if len(ew) != len(edges):
        raise ValueError(f"expected {len(edges)} edge weights, got {len(ew)}")
    _check_optimize_cap(d)
    weight = dict(zip(edges, ew))
    blockset, best = _optimum(d, [sum(weight[e] for e in blk.edges) for blk in d.blocks])
    lifted = _blockset_edges(d, blockset)
    if eulerian:
        _check_eulerian_edges(g, lifted)
    return EdgeSolution(edges=lifted, value=Fraction(best, scale), blockset=blockset)
