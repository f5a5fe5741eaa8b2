"""Reference implementations used to pin expected values.

Everything here recomputes results from first principles (exhaustive
enumeration, generic brute force) without touching the routines under
test, so a disagreement always points at the implementation.  The Groebner
oracles work on dict monomials with their own primitives, which
`test_toric.test_mono_primitives` pins on their own; the memoized route
over dict monomials is the tuple normal form's predecessor, and the fiber
test by tuple normal forms is the standard-monomial walk's.  The Fraction
optimizer is the integer DP's predecessor, kept to pin its arithmetic; it
rebuilds the block-cut tree from the blocks' vertex sets, finds closures
by its own search of that tree and tests connectivity by a flood fill, so
it reads neither the decomposition's stored tree nor its walk.  The
vertex-scanning walk is the block-cut tree walk's predecessor: it finds a
block's cut vertices among all of the block's vertices, so it does not
read the per-block cut-vertex table.  The components at a vertex are a
breadth-first search of the graph minus that vertex over the graph's
edges, so they read neither the block-cut tree nor its walk.  The
unmerged lattice plan is the merged plan's predecessor: it gives every
frontier row pattern a key position of its own, so it does not read
which slots hold the same offset.
The clique counter is the level-at-a-time f-vector's predecessor: it
visits every clique of the flag complex once.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Sequence

from cbp.errors import AssertionFailure, ReductionDiverges
from cbp.graphs import BlockDecomposition, graph_to_json
from cbp.hull import _bareiss, _integer_points
from cbp.optimize import Solution
from cbp.toric import _NormalForms


def subgraph_connected(vertices, edges) -> bool:
    """Flood fill over an explicit vertex set; empty counts as connected."""
    verts = set(vertices)
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def brute_cut_vertices(g) -> set[int]:
    """Vertices whose removal disconnects the remaining graph."""
    cuts = set()
    for v in range(g.vertex_count):
        rest = [w for w in range(g.vertex_count) if w != v]
        edges = [e for e in g.edges if v not in e]
        if rest and not subgraph_connected(rest, edges):
            cuts.add(v)
    return cuts


def brute_blocks(g) -> list[tuple[frozenset, frozenset]]:
    """(vertex set, edge set) per block, via maximal cut-free vertex subsets.

    A vertex set S of size >= 2 spans a block exactly when G[S] is
    connected, has no cut vertex of its own, and S is maximal with that
    property; the block's edges are all graph edges inside S.  Exponential,
    fine below a dozen vertices.
    """
    n = g.vertex_count

    def induced_edges(s):
        return [e for e in g.edges if e[0] in s and e[1] in s]

    def cut_free(s):
        edges = induced_edges(s)
        if not subgraph_connected(s, edges):
            return False
        return all(
            subgraph_connected(s - {v}, [e for e in edges if v not in e])
            for v in s
        )

    candidates = [
        frozenset(s)
        for k in range(2, n + 1)
        for s in itertools.combinations(range(n), k)
        if cut_free(frozenset(s))
    ]
    maximal = [
        s for s in candidates if not any(s < t for t in candidates)
    ]
    out = [(s, frozenset(induced_edges(s))) for s in maximal]
    out.sort(key=lambda blk: (min(blk[0]), tuple(sorted(blk[0]))))
    return out


def vertex_scan_walk(d: BlockDecomposition, root: int, banned=frozenset()):
    """`graphs._walk`'s predecessor: the same breadth-first walk of the
    block-cut tree, finding each block's tree edges by testing every vertex
    of the block against the cut vertices instead of reading
    `d.block_cuts`.  Returns (order, entry, parent) as `_walk` does, entry
    and parent indexed by block and None where a block is the root or
    unreached."""
    order = [root]
    entry = [None] * len(d.blocks)
    parent = [None] * len(d.blocks)
    owned = set()
    for b in order:
        for v in d.blocks[b].vertices:
            if v in d.cut_vertices and v not in owned:
                owned.add(v)
                for b2 in d.blocks_at_vertex[v]:
                    if b2 != b and b2 not in banned:
                        entry[b2] = v
                        parent[b2] = b
                        order.append(b2)
    return order, entry, parent


def split_components_at(d: BlockDecomposition, v: int) -> tuple[frozenset[int], ...]:
    """The block indices grouped by the component of the graph minus the
    vertex v that holds each block's other vertices, found by a
    breadth-first search of G - v over the graph's edges.  Parts are
    sorted by smallest block index; a vertex that is no cut vertex leaves
    one part."""
    adj = {u: [] for u in range(d.graph.vertex_count)}
    for a, b in d.graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    label = {v: None}
    for s in adj:
        if s in label:
            continue
        label[s] = s
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in label:
                    label[w] = s
                    queue.append(w)
    parts: dict[int, set[int]] = {}
    for i, blk in enumerate(d.blocks):
        (comp,) = {label[u] for u in blk.vertices if u != v}
        parts.setdefault(comp, set()).add(i)
    return tuple(sorted((frozenset(p) for p in parts.values()), key=min))


def unmerged_lattice_plan(h):
    """`ehrhart._lattice_plan`'s predecessor: the same plan with one slot
    per distinct tail of coefficients, so slots with the same width and the
    same members, and the members and finishing entries read through them,
    are all kept apart.  Counts through it equal counts through the merged
    plan."""
    d = h.dim
    starting = [[] for _ in range(d)]
    for a, b in h.rows:
        support = [j for j, c in enumerate(a) if c]
        if support:
            starting[support[0]].append((a, b))
        elif b < 0:
            return None
    levels = []
    slots = {}
    for i in range(d):
        groups = {}
        finishing = []
        for rest, k in slots.items():
            member = (k, min(0, rest[0]), rest[0])
            if any(rest[1:]):
                groups.setdefault(rest[1:], []).append(member)
            else:
                finishing.append(member)
        bounds = []
        for a, b in starting[i]:
            c, rest = a[i], a[i + 1 :]
            base = b - sum(x for x in rest if x < 0)
            if any(rest):
                groups.setdefault(rest, []).append((-1, base, c))
            else:
                bounds.append((base, c))
        levels.append((finishing, bounds, [(sum(map(abs, rest)), members) for rest, members in groups.items()]))
        slots = {rest: k for k, rest in enumerate(groups)}
    return levels


def connected_blocksets(g, blocks) -> set[tuple[int, ...]]:
    """All index subsets whose block union induces a connected subgraph."""
    out = {()}
    items = [(set(b.vertices), set(b.edges)) for b in blocks]
    for k in range(1, len(items) + 1):
        for combo in itertools.combinations(range(len(items)), k):
            verts = set().union(*(items[i][0] for i in combo))
            edges = set().union(*(items[i][1] for i in combo))
            if subgraph_connected(verts, edges):
                out.add(combo)
    return out


def count_dilation_points(rows, dim: int, n: int) -> int:
    """Scan the box {0..n}^dim and test every inequality directly."""
    if dim == 0:
        return 1
    count = 0
    for point in itertools.product(range(n + 1), repeat=dim):
        if all(
            sum(c * x for c, x in zip(a, point)) <= b * n for a, b in rows
        ):
            count += 1
    return count


def count_lattice_prefixes(rows, dim: int, n: int) -> int:
    """Integer points of the n-th dilation inside the box {0..n}^dim, by a
    recursion over coordinate prefixes that drops a prefix as soon as no
    completion can satisfy some row."""
    if dim == 0 or n == 0:
        return 1
    rows = [(a, b * n) for a, b in rows]
    # tail_min[i][r]: smallest possible contribution of coordinates i.. to row r
    tail_min = [[0] * len(rows) for _ in range(dim + 1)]
    for i in range(dim - 1, -1, -1):
        for r, (a, _) in enumerate(rows):
            tail_min[i][r] = tail_min[i + 1][r] + min(0, a[i] * n)
    state = [0] * len(rows)

    def rec(i: int) -> int:
        if i == dim:
            return 1
        base = state.copy()
        cnt = 0
        for val in range(n + 1):
            ok = True
            for r, (a, rhs) in enumerate(rows):
                s = base[r] + a[i] * val
                state[r] = s
                if s + tail_min[i + 1][r] > rhs:
                    ok = False
            if ok:
                cnt += rec(i + 1)
        state[:] = base
        return cnt

    return rec(0)


def determinant(rows) -> Fraction:
    """Exact determinant by fraction-free style Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                for j in range(c, n):
                    m[i][j] -= f * m[c][j]
    return det


def eulerian_numbers(d: int) -> list[int]:
    """A(d, 0) .. A(d, d - 1) by the recurrence A(n, k) = (k + 1) A(n - 1, k)
    + (n - k) A(n - 1, k - 1)."""
    row = [1]
    for n in range(2, d + 1):
        row = [(k + 1) * (row[k] if k < len(row) else 0) + (n - k) * (row[k - 1] if k else 0) for k in range(n)]
    return row


def clique_counts(m: int, nonfaces, dim: int) -> list[int]:
    """Cliques of each size 0 .. dim + 1 of the graph on m vertices whose
    non-edges are `nonfaces`, the empty clique included: the f-vector of
    the flag complex, counted one clique at a time."""
    full = (1 << m) - 1
    compat = [full ^ (1 << i) for i in range(m)]
    for i, j in nonfaces:
        compat[i] &= ~(1 << j)
        compat[j] &= ~(1 << i)
    counts = [0] * (dim + 2)
    counts[0] = 1

    def count(allowed: int, size: int):
        # allowed: the vertices past the last member compatible with every
        # member; each lowest one in turn is the next member
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            counts[size + 1] += 1
            if size + 1 <= dim:
                count(allowed & compat[low.bit_length() - 1], size + 1)

    count(full, 0)
    return counts


def search_face_order(face, compat) -> tuple[int, ...]:
    """The members of a maximal face in the order `toric.triangulation`'s
    clique search branches on them, from the compatibility masks (bit j of
    compat[i]: ground vertices i != j form no nonface).

    The candidates start as every ground vertex.  Each level takes the
    lowest candidate u, branches on the candidates incompatible with it
    (u included) in ascending order, and drops each branch vertex it has
    tried before the next.  So the face's member at that level is its
    lowest member v in the branch, and the level below keeps the
    candidates compatible with v, less the branch vertices below v.
    """
    members = sum(1 << v for v in face)
    cand = (1 << len(compat)) - 1
    order = []
    while cand:
        u = (cand & -cand).bit_length() - 1
        branch = cand & ~compat[u]
        hit = branch & members
        v = (hit & -hit).bit_length() - 1
        order.append(v)
        cand &= ~(branch & ((1 << v) - 1)) & compat[v]
    return tuple(order)


def best_blockset(g, blocks, weights) -> tuple[tuple[int, ...], Fraction]:
    """Exhaustive optimum over connected blocksets, smallest-tuple tie-break."""
    w = [Fraction(x) for x in weights]
    best = ((), Fraction(0))
    for a in sorted(connected_blocksets(g, blocks)):
        val = sum((w[i] for i in a), Fraction(0))
        if val > best[1]:
            best = (a, val)
    return best


def _fraction_weights(d: BlockDecomposition, weights: Sequence) -> tuple[Fraction, ...]:
    w = tuple(Fraction(x) for x in weights)
    if len(w) != len(d.blocks):
        raise ValueError(f"expected {len(d.blocks)} weights, got {len(w)}")
    return w


def _block_cut_adjacency(d: BlockDecomposition) -> dict[tuple[str, int], set[tuple[str, int]]]:
    """The block-cut tree rebuilt from the blocks' vertex sets alone: a
    vertex lying in two or more blocks is a cut node ("C", v), adjacent to
    the block node ("B", i) of each block i that holds it."""
    holders: dict[int, list[int]] = {}
    for i, blk in enumerate(d.blocks):
        for v in blk.vertices:
            holders.setdefault(v, []).append(i)
    tree: dict[tuple[str, int], set[tuple[str, int]]] = {("B", i): set() for i in range(len(d.blocks))}
    for v, ix in holders.items():
        if len(ix) > 1:
            tree[("C", v)] = {("B", i) for i in ix}
            for i in ix:
                tree[("B", i)].add(("C", v))
    return tree


def _tree_closure(tree, forced: Sequence[int]) -> set[int]:
    """Blocks of the smallest block-cut subtree holding the forced blocks:
    a breadth-first search of the tree from the first of them, then a
    parent chase from each of the others."""
    root = ("B", forced[0])
    parent = {root: root}
    queue = [root]
    for x in queue:
        for y in tree[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    marked = {root}
    for b in forced[1:]:
        x = ("B", b)
        while x not in marked:
            marked.add(x)
            x = parent[x]
    return {i for kind, i in marked if kind == "B"}


def _fraction_branch_best(
    tree,
    w: tuple[Fraction, ...],
    banned: frozenset[int],
    root_block: int,
    entry_vertex: int,
) -> Fraction:
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
        for _, v in tree[("B", b)]:
            if v == entry:
                continue
            for _, b2 in tree[("C", v)]:
                if b2 != b and b2 not in banned:
                    kids.append((b2, v))
        children[key] = kids
        stack.extend(kids)
    best: dict[tuple[int, int], Fraction] = {}
    for key in reversed(order):
        total = w[key[0]]
        for kid in children[key]:
            if best[kid] > 0:
                total += best[kid]
        best[key] = total
    return best[(root_block, entry_vertex)]


def _fraction_best_containing(
    d: BlockDecomposition,
    w: tuple[Fraction, ...],
    forced: tuple[int, ...],
    banned: frozenset[int],
) -> Fraction | None:
    """Best value over connected blocksets containing forced and avoiding
    banned, or None when no such blockset exists.

    Any connected superset of forced contains its closure; everything else
    is an optional branch hanging off a cut vertex of the closure region.
    """
    tree = _block_cut_adjacency(d)
    closure = _tree_closure(tree, forced)
    if closure & banned:
        return None
    total = sum((w[b] for b in closure), Fraction(0))
    cuts = set()
    for b in closure:
        for _, v in tree[("B", b)]:
            cuts.add(v)
    for v in sorted(cuts):
        for _, b2 in tree[("C", v)]:
            if b2 in closure or b2 in banned:
                continue
            cand = _fraction_branch_best(tree, w, banned, b2, v)
            if cand > 0:
                total += cand
    return total


def fraction_max_weight_connected_blockset(d: BlockDecomposition, weights: Sequence) -> Solution:
    """The block-cut DP of `cbp.optimize.max_weight_connected_blockset` in
    Fraction arithmetic: the same queries and reconstruction, summing and
    comparing the weights as given.  Exact optimum over all connected
    blocksets, the empty set included.

    The argmax is the lexicographically smallest optimal blockset: the
    reconstruction walks block indices left to right, stopping as soon
    as the accumulated prefix is itself a connected optimal set, and
    otherwise commits the smallest next index that keeps the constrained
    optimum at the global value.
    """
    w = _fraction_weights(d, weights)
    n = len(d.blocks)
    best = Fraction(0)
    for b in range(n):
        cand = _fraction_best_containing(d, w, (b,), frozenset())
        if cand is not None and cand > best:
            best = cand
    if best <= 0:
        return Solution(blockset=(), value=Fraction(0))

    prefix: list[int] = []
    banned: set[int] = set()
    while True:
        if (
            prefix
            and sum((w[b] for b in prefix), Fraction(0)) == best
            and subgraph_connected(
                {v for b in prefix for v in d.blocks[b].vertices},
                [e for b in prefix for e in d.blocks[b].edges],
            )
        ):
            return Solution(blockset=tuple(prefix), value=best)
        start = prefix[-1] + 1 if prefix else 0
        chosen = None
        for e in range(start, n):
            trial_banned = frozenset(banned) | frozenset(range(start, e))
            cand = _fraction_best_containing(d, w, tuple(prefix) + (e,), trial_banned)
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


def affine_rank(points) -> int:
    """Dimension of the affine hull of integer points (0 for a single
    point): the rank of the rows (1, p), less one, one row per point.

    The row-by-row reference for the moment ranks of `vertices._moments`,
    on the same elimination `hull._bareiss`; that elimination is pinned
    against sympy and Fraction determinants in test_hull.
    """
    pts, _ = _integer_points(points)
    rank, _ = _bareiss([[1, *p] for p in pts])
    return rank - 1


def face_adjacent(rows, points, i: int, j: int) -> bool:
    """Vertices i and j span an edge: the points tight on every row tight at
    both are exactly i and j.  Rows are (a, b) meaning a . x <= b."""
    pts = [tuple(Fraction(x) for x in p) for p in points]

    def tight(row, p):
        a, b = row
        return sum(c * v for c, v in zip(a, p)) == b

    common = [row for row in rows if tight(row, pts[i]) and tight(row, pts[j])]
    face = [k for k, p in enumerate(pts) if all(tight(row, p) for row in common)]
    return face == sorted((i, j))


def same_hyperplane(r1, r2) -> bool:
    """True when the rows (a, b) are positive multiples of each other."""
    v1 = [Fraction(x) for x in (*r1[0], r1[1])]
    v2 = [Fraction(x) for x in (*r2[0], r2[1])]
    if len(v1) != len(v2):
        return False
    k = next(k for k, x in enumerate(v1) if x)
    ratio = v2[k] / v1[k]
    return ratio > 0 and all(x * ratio == y for x, y in zip(v1, v2))


def _rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _inverse(rows) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _primitive_ray(vec) -> tuple[int, ...]:
    """The positive multiple of a nonzero rational vector with coprime integer entries."""
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def double_description_facets(points) -> list[tuple[tuple[int, ...], int]]:
    """Sorted facet rows (a, b), a . x <= b coprime integers, of the hull of a
    full-dimensional point set, by double description on the dual cone
    {y : y0 + y . v >= 0 for v in the points}.  Zero sets are frozensets
    recomputed from scratch for every ray at every step."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    dim = len(pts[0])
    cons = [(Fraction(1),) + p for p in pts]
    seed: list[int] = []
    for k, row in enumerate(cons):
        if _rank([cons[i] for i in seed] + [row]) == len(seed) + 1:
            seed.append(k)
        if len(seed) == dim + 1:
            break
    assert len(seed) == dim + 1, "points do not affinely span the space"
    inv = _inverse([cons[i] for i in seed])
    rays = [_primitive_ray([inv[i][j] for i in range(dim + 1)]) for j in range(dim + 1)]
    processed = list(seed)

    def value(k, ray):
        return sum(c * r for c, r in zip(cons[k], ray))

    for k in range(len(cons)):
        if k in seed:
            continue
        vals = [value(k, ray) for ray in rays]
        zsets = [frozenset(t for t in processed if value(t, ray) == 0) for ray in rays]
        processed.append(k)
        new_rays = [ray for ray, v in zip(rays, vals) if v >= 0]
        for i, vi in enumerate(vals):
            for j, vj in enumerate(vals):
                if vi <= 0 or vj >= 0:
                    continue
                common = zsets[i] & zsets[j]
                if any(t not in (i, j) and common <= zsets[t] for t in range(len(rays))):
                    continue
                new_rays.append(
                    _primitive_ray([vi * y - vj * x for x, y in zip(rays[i], rays[j])])
                )
        rays = sorted(set(new_rays))
    return sorted({(tuple(-c for c in ray[1:]), ray[0]) for ray in rays}, key=lambda r: (r[1], r[0]))


def _blockset_connected(d: BlockDecomposition, s) -> bool:
    return subgraph_connected(
        {v for b in s for v in d.blocks[b].vertices}, [e for b in s for e in d.blocks[b].edges]
    )


def blockset_connectivity(d: BlockDecomposition):
    """The flood-fill connectivity test of d's blocksets, memoized per set,
    so that the pairwise oracles below reach graphs with a thousand
    vertices."""
    memo: dict[frozenset, bool] = {}

    def connected(s: frozenset) -> bool:
        if s not in memo:
            memo[s] = _blockset_connected(d, s)
        return memo[s]

    return connected


def _distinct_connected(a1, a2, connected) -> tuple[frozenset, frozenset]:
    s1, s2 = frozenset(a1), frozenset(a2)
    if s1 == s2:
        raise ValueError("adjacency needs two distinct blocksets")
    for s in (s1, s2):
        if not connected(s):
            raise ValueError(f"blockset {tuple(sorted(s))} is not connected")
    return s1, s2


def adjacent_combinatorial(d: BlockDecomposition, a1, a2, connected=None) -> bool:
    """Edge test on two distinct connected blocksets, by the block criterion
    on frozensets, with connectivity by flood fill (or by `connected`, a
    memo from blockset_connectivity)."""
    connected = connected or blockset_connectivity(d)
    s1, s2 = _distinct_connected(a1, a2, connected)
    if not s1 or not s2:
        return len(s1 | s2) == 1
    if not connected(s1 | s2):
        return True
    if not (s1 < s2 or s2 < s1):
        return False
    small, big = (s1, s2) if s1 < s2 else (s2, s1)
    small_vertices = set()
    for i in small:
        small_vertices |= d.blocks[i].vertices
    touching = [b for b in big - small if d.blocks[b].vertices & small_vertices]
    return len(touching) == 1


def leading_pair(d: BlockDecomposition, a1, a2, connected=None) -> bool:
    """True when two distinct connected blocksets lead a binomial of the
    quadratic basis: incomparable, with a connected union by flood fill."""
    connected = connected or blockset_connectivity(d)
    s1, s2 = _distinct_connected(a1, a2, connected)
    return not (s1 <= s2 or s2 <= s1) and connected(s1 | s2)


def pairwise_neighbors(verts, adjacent) -> tuple[frozenset[int], ...]:
    """Neighbor sets of a vertex list from one edge test per vertex pair."""
    nb: list[set[int]] = [set() for _ in verts]
    for i, j in itertools.combinations(range(len(verts)), 2):
        if adjacent(verts[i], verts[j]):
            nb[i].add(j)
            nb[j].add(i)
    return tuple(frozenset(s) for s in nb)


def bfs_diameter(neighbors) -> int | None:
    """Largest breadth-first distance over all vertex pairs of an adjacency
    list, by a dict of distances per source; None when it is disconnected."""
    n = len(neighbors)
    best = 0
    for src in range(n):
        dist = {src: 0}
        frontier = [src]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for w in neighbors[v]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        if len(dist) != n:
            return None
        best = max(best, max(dist.values()))
    return best


Mono = dict[int, int]  # variable rank -> positive exponent


def mono_cmp(m1: Mono, m2: Mono) -> int:
    """-1, 0, or 1 as m1 is smaller, equal, or larger in the term order.

    Degree first; on ties scan ranks upward from the smallest variable,
    and the monomial with the larger exponent at the first difference is
    the smaller one (reverse lexicographic).
    """
    d1, d2 = sum(m1.values()), sum(m2.values())
    if d1 != d2:
        return -1 if d1 < d2 else 1
    for r in sorted(set(m1) | set(m2)):
        e1, e2 = m1.get(r, 0), m2.get(r, 0)
        if e1 != e2:
            return 1 if e1 < e2 else -1
    return 0


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    out = dict(m1)
    for r, e in m2.items():
        out[r] = out.get(r, 0) + e
    return out


def mono_divides(m1: Mono, m2: Mono) -> bool:
    return all(m2.get(r, 0) >= e for r, e in m1.items())


def mono_div(m1: Mono, m2: Mono) -> Mono:
    out = {}
    for r, e in m1.items():
        rest = e - m2.get(r, 0)
        if rest < 0:
            raise ValueError("not divisible")
        if rest:
            out[r] = rest
    return out


def mono_lcm(m1: Mono, m2: Mono) -> Mono:
    out = dict(m1)
    for r, e in m2.items():
        if out.get(r, 0) < e:
            out[r] = e
    return out


def mono_key(m: Mono) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(m.items()))


def binomial(order, plus: dict, minus: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (leading, trailing) rank terms of the binomial x^plus - x^minus,
    each side given as a blockset -> exponent map."""

    def term(side):
        return tuple(sorted(r for a, e in side.items() for r in [order.rank[a]] * e))

    return term(plus), term(minus)


def binomial_is_homogeneous(d: BlockDecomposition, order, f) -> bool:
    """Degrees match and the summed indicator vectors agree on both rank
    terms of the pair f."""
    n = len(d.blocks)

    def image(term):
        total = [0] * n
        for r in term:
            for b in order.variables[r]:
                total[b] += 1
        return len(term), tuple(total)

    lt, tail = f
    return image(lt) == image(tail)


def ranked_basis(g) -> list[tuple[Mono, Mono]]:
    """(leading, trailing) dict monomials of rank-term pairs, by leading term."""
    basis = [(dict(Counter(lt)), dict(Counter(tail))) for lt, tail in g]
    basis.sort(key=functools.cmp_to_key(lambda x, y: mono_cmp(x[0], y[0])))
    return basis


def reduce_difference(p_plus, p_minus, basis, max_steps: int = 10**6) -> bool:
    """True when the difference p_plus - p_minus reduces to zero, stepping
    whichever side is larger by the dividing element with the smallest
    leading term."""
    steps = 0
    while True:
        c = mono_cmp(p_plus, p_minus)
        if c == 0:
            return True
        lead = p_plus if c > 0 else p_minus
        divisor = None
        for lt, tail in basis:
            if mono_divides(lt, lead):
                divisor = (lt, tail)
                break
        if divisor is None:
            return False
        new_lead = mono_mul(mono_div(lead, divisor[0]), divisor[1])
        if c > 0:
            p_plus = new_lead
        else:
            p_minus = new_lead
        steps += 1
        if steps > max_steps:
            raise ReductionDiverges(f"no termination after {max_steps} reduction steps")


def pairwise_buchberger(g) -> bool:
    """Squarefree leading terms, and every S-pair (coprime ones included)
    reduced as a difference."""
    basis = ranked_basis(g)
    if any(e > 1 for lt, _ in basis for e in lt.values()):
        return False
    for (lt1, tail1), (lt2, tail2) in itertools.combinations(basis, 2):
        lcm = mono_lcm(lt1, lt2)
        s_plus = mono_mul(mono_div(lcm, lt2), tail2)
        s_minus = mono_mul(mono_div(lcm, lt1), tail1)
        if not reduce_difference(s_plus, s_minus, basis):
            return False
    return True


def pairwise_fiber_test(nblocks: int, g, order, maxdeg: int = 3) -> bool:
    """Every pair of equal-image monomials of degree 2..maxdeg reduced as a
    difference."""
    basis = ranked_basis(g)
    for deg in range(2, maxdeg + 1):
        groups: dict[tuple[int, ...], list[dict]] = {}
        for combo in itertools.combinations_with_replacement(range(len(order.variables)), deg):
            image = [0] * nblocks
            mono: dict[int, int] = {}
            for r in combo:
                mono[r] = mono.get(r, 0) + 1
                for b in order.variables[r]:
                    image[b] += 1
            groups.setdefault(tuple(image), []).append(mono)
        for members in groups.values():
            for m1, m2 in itertools.combinations(members, 2):
                if not reduce_difference(dict(m1), dict(m2), basis):
                    return False
    return True


def memo_normal_form(basis, max_steps: int = 10**6):
    """A memoized normal form of dict monomials modulo a ranked basis.

    Each step divides by the first leading term in basis order that
    divides the monomial, found through an index from each variable to the
    positions whose leading term contains it.  The returned function maps
    a monomial to the `mono_key` of its normal form.
    """
    index: dict[int, list[int]] = {}
    for pos, (lt, _) in enumerate(basis):
        for r in lt:
            index.setdefault(r, []).append(pos)
    memo: dict = {}

    def normal_form(m: Mono):
        key = mono_key(m)
        chain = []
        while key not in memo:
            best = None
            for r in m:
                for pos in index.get(r, ()):
                    if best is not None and pos >= best:
                        break
                    if mono_divides(basis[pos][0], m):
                        best = pos
                        break
            if best is None:
                memo[key] = key
                break
            if len(chain) == max_steps:
                raise ReductionDiverges(f"no termination after {max_steps} reduction steps")
            chain.append(key)
            lt, tail = basis[best]
            m = mono_mul(mono_div(m, lt), tail)
            key = mono_key(m)
        result = memo[key]
        for seen in chain:
            memo[seen] = result
        return result

    return normal_form


def memo_buchberger(g) -> bool:
    """Squarefree leading terms, and equal normal forms for the two sides of
    every S-pair over all C(B, 2) pairs, the coprime ones skipped."""
    basis = ranked_basis(g)
    if any(e > 1 for lt, _ in basis for e in lt.values()):
        return False
    normal_form = memo_normal_form(basis)
    for (lt1, tail1), (lt2, tail2) in itertools.combinations(basis, 2):
        if not set(lt1) & set(lt2):
            continue
        lcm = mono_lcm(lt1, lt2)
        s_plus = mono_mul(mono_div(lcm, lt2), tail2)
        s_minus = mono_mul(mono_div(lcm, lt1), tail1)
        if normal_form(s_plus) != normal_form(s_minus):
            return False
    return True


def memo_fiber_test(nblocks: int, g, order, maxdeg: int = 3) -> bool:
    """Equal normal forms within every image class of degree 2..maxdeg,
    images as tuples of per-block counts."""
    normal_form = memo_normal_form(ranked_basis(g))
    for deg in range(2, maxdeg + 1):
        groups: dict[tuple[int, ...], list[Mono]] = {}
        for combo in itertools.combinations_with_replacement(range(len(order.variables)), deg):
            image = [0] * nblocks
            mono: Mono = {}
            for r in combo:
                mono[r] = mono.get(r, 0) + 1
                for b in order.variables[r]:
                    image[b] += 1
            groups.setdefault(tuple(image), []).append(mono)
        for first, *rest in groups.values():
            if rest:
                target = normal_form(first)
                if any(normal_form(m) != target for m in rest):
                    return False
    return True


def normal_form_fiber_test(g, order, maxdeg: int = 3) -> bool:
    """Equal tuple normal forms within every image class of degree
    2..maxdeg, images keyed by packed per-block counts: one normal form per
    monomial, all C(n + k - 1, k) monomials of each degree k enumerated."""
    normal_form = _NormalForms(g)
    width = maxdeg.bit_length()
    packed = [sum(1 << (width * b) for b in a) for a in order.variables]
    for deg in range(2, maxdeg + 1):
        groups: dict[int, list[tuple[int, ...]]] = {}
        for m in itertools.combinations_with_replacement(range(len(order.variables)), deg):
            groups.setdefault(sum(map(packed.__getitem__, m)), []).append(m)
        for first, *rest in groups.values():
            if rest:
                target = normal_form[first]
                if any(normal_form[m] != target for m in rest):
                    return False
    return True
