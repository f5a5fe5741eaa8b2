"""Independent references the benchmark checks outputs against.

Nothing here imports cbp.  Blocks are found by an edge-stack depth-first
search, and the optimum value comes from a value-only dynamic program on
the block-cut tree, so a wrong decomposition or a wrong solver in the
package cannot agree with these by construction.
"""

from __future__ import annotations

from fractions import Fraction


def find_blocks(vertex_count: int, edges) -> list[tuple[frozenset, frozenset]]:
    """Blocks of a connected graph as (vertices, edges), in cbp's block order:
    sorted by smallest vertex, then by the sorted vertex tuple."""
    adj: dict[int, list[int]] = {v: [] for v in range(vertex_count)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    edge_stack: list[tuple[int, int]] = []
    blocks = []
    for root in range(vertex_count):
        if root in disc or not adj[root]:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            v = next(it, None)
            if v is None:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= disc[p]:
                        comp = []
                        while True:
                            e = edge_stack.pop()
                            comp.append(e)
                            if e == (p, u):
                                break
                        blocks.append(comp)
                continue
            if v == parent:
                continue
            if v not in disc:
                disc[v] = low[v] = len(disc)
                edge_stack.append((u, v))
                stack.append((v, u, iter(adj[v])))
            elif disc[v] < disc[u]:
                low[u] = min(low[u], disc[v])
                edge_stack.append((u, v))
    out = []
    for comp in blocks:
        es = frozenset((min(e), max(e)) for e in comp)
        out.append((frozenset(w for e in es for w in e), es))
    out.sort(key=lambda b: (min(b[0]), tuple(sorted(b[0]))))
    return out


def is_connected_blockset(blocks, chosen) -> bool:
    """True when the union of the chosen blocks is connected (empty counts)."""
    chosen = sorted(set(chosen))
    if len(chosen) <= 1:
        return True
    seen = {chosen[0]}
    todo = [chosen[0]]
    while todo:
        b = todo.pop()
        for c in chosen:
            if c not in seen and blocks[b][0] & blocks[c][0]:
                seen.add(c)
                todo.append(c)
    return len(seen) == len(chosen)


def _rooted_block_cut_tree(blocks):
    """Post-order of block nodes with, for each block, its child blocks
    grouped per child cut vertex; the tree is rooted at block 0."""
    at_vertex: dict[int, list[int]] = {}
    for i, (vs, _) in enumerate(blocks):
        for v in vs:
            at_vertex.setdefault(v, []).append(i)
    order, groups = [], {}
    stack = [(0, None)]
    while stack:
        b, entry = stack.pop()
        order.append(b)
        groups[b] = []
        for v in sorted(blocks[b][0]):
            if v == entry or len(at_vertex[v]) < 2:
                continue
            kids = [c for c in at_vertex[v] if c != b]
            groups[b].append(kids)
            stack.extend((c, v) for c in kids)
    return order[::-1], groups


def best_value(blocks, weights) -> Fraction:
    """Maximum weight of a connected blockset, the empty set (0) included."""
    order, groups = _rooted_block_cut_tree(blocks)
    down: dict[int, Fraction] = {}
    best = Fraction(0)
    for b in order:
        total = Fraction(weights[b])
        for kids in groups[b]:
            # a set whose top node is this cut vertex takes its positive branches
            branch = sum((max(down[c], 0) for c in kids), Fraction(0))
            best = max(best, branch)
            total += branch
        down[b] = total
        best = max(best, total)
    return best


def count_connected_blocksets(blocks) -> int:
    """Number of connected blocksets, the empty set included."""
    order, groups = _rooted_block_cut_tree(blocks)
    down: dict[int, int] = {}
    total = 1
    for b in order:
        here = 1
        for kids in groups[b]:
            # sets topped by this cut vertex: at least two child branches
            options = 1
            for c in kids:
                options *= down[c] + 1
            total += options - 1 - sum(down[c] for c in kids)
            here *= options
        down[b] = here
        total += here
    return total
