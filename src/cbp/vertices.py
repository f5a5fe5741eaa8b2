"""Enumeration of connected blocksets, the vertices of the polytope.

The polytope is the convex hull of the indicator vectors of all blocksets
whose union induces a connected subgraph, with the empty set counted as
connected.  Every such indicator vector is a vertex (they are 0/1 points),
and the enumeration below generates each connected blockset exactly once
by growing connected subsets of the block adjacency graph from their
smallest element, instead of filtering all 2^b subsets.
"""

from __future__ import annotations

from .errors import CountOverflow
from .graphs import BlockDecomposition, _check_block_indices, _walk

BlockSubset = tuple[int, ...]

DEFAULT_VERTEX_CAP = 2**24


def is_connected_blockset(d: BlockDecomposition, a) -> bool:
    """True when the union of the given blocks induces a connected subgraph.

    The empty blockset counts as connected.  The union is connected exactly
    when a walk of the block-cut tree from one chosen block, never entering
    a block outside the set, reaches them all, because two blocks meet only
    in single (cut) vertices.
    """
    s = _check_block_indices(d, a)
    if len(s) <= 1:
        return True
    outside = frozenset(range(len(d.blocks))) - s
    return len(_walk(d, min(s), outside)[0]) == len(s)


def enumerate_vertices(d: BlockDecomposition) -> tuple[BlockSubset, ...]:
    """All connected blocksets, one tuple each, in (cardinality, lex) order.

    Raises CountOverflow before enumerating when count_connected_blocksets
    predicts more than DEFAULT_VERTEX_CAP of them.
    """
    if count_connected_blocksets(d) > DEFAULT_VERTEX_CAP:
        raise CountOverflow(f"more than {DEFAULT_VERTEX_CAP} connected blocksets")
    nb: list[set[int]] = [set() for _ in d.blocks]
    for v in d.cut_vertices:
        ix = d.blocks_at_vertex[v]
        for i in ix:
            nb[i].update(j for j in ix if j != i)
    out: list[BlockSubset] = [()]
    for r in range(len(d.blocks)):
        base = frozenset([r])
        out.append((r,))
        # grow connected supersets whose minimum element is r; each branch
        # bans the candidates already tried so every subset appears once
        stack = [(base, frozenset(w for w in nb[r] if w > r), frozenset())]
        while stack:
            cur, frontier, banned = stack.pop()
            local_ban = set(banned)
            for v in sorted(frontier - banned):
                new = cur | {v}
                out.append(tuple(sorted(new)))
                new_frontier = (frontier | frozenset(w for w in nb[v] if w > r)) - new
                stack.append((new, new_frontier, frozenset(local_ban)))
                local_ban.add(v)
    out.sort(key=lambda t: (len(t), t))
    return tuple(out)


def count_connected_blocksets(d: BlockDecomposition) -> int:
    """Number of connected blocksets, the empty one included, in linear time.

    Root the block-cut tree at block 0.  g[b] counts the connected blocksets
    whose block nearest the root is b: every child block b' of every child
    cut vertex of b is either left out or joins with one of its g[b'] sets,
    so g[b] is the product of (1 + g[b']).  A nonempty set whose nearest
    node to the root is a cut vertex c instead holds two or more child
    blocks of c and not its parent block: P_c - 1 - sum(g[b']) sets, where
    P_c is the product of (1 + g[b']) over the child blocks of c.  Every
    block but the root is a child of exactly one cut vertex, so the total
    is 1 + g[root] + the sum over the cut vertices of (P_c - 1).
    """
    order, entry, owner = _walk(d, 0)
    g = [1] * len(d.blocks)
    at_cut = dict.fromkeys(owner, 1)
    for b in reversed(order[1:]):
        v = entry[b]
        at_cut[v] *= 1 + g[b]
        g[owner[v]] *= 1 + g[b]
    return 1 + g[0] + sum(at_cut.values()) - len(at_cut)


def to_incidence(d: BlockDecomposition, a) -> tuple[int, ...]:
    """Indicator vector of a blockset in block-index coordinates."""
    s = frozenset(a)
    return tuple(1 if i in s else 0 for i in range(len(d.blocks)))


def _bits(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _blockset_masks(d: BlockDecomposition, verts) -> tuple[list[int], list[int]]:
    """Block mask and graph-vertex mask of each blockset.

    Bit i of a block mask marks block i; the graph-vertex mask is the union
    of the vertex masks of its blocks.  Blocks meet only in cut vertices, so
    two nonempty connected blocksets have a connected union exactly when
    their graph-vertex masks meet.
    """
    block_span = [sum(1 << v for v in blk.vertices) for blk in d.blocks]
    sets, spans = [], []
    for a in verts:
        s = span = 0
        for i in a:
            s |= 1 << i
            span |= block_span[i]
        sets.append(s)
        spans.append(span)
    return sets, spans


def _row_masks(d: BlockDecomposition, rows, verts) -> list[tuple[int, int | None]]:
    """Tight-vertex mask and first violating vertex of each integer row.

    The value of a row (a, b) at a blockset S is the sum over the distinct
    coefficients c of c * popcount(S & M_c), where M_c is the mask of the
    coordinates whose coefficient is c.  Bit k of the tight mask marks
    value == b at the k-th blockset; the violating vertex is the least k
    with value > b, or None.
    """
    sets, _ = _blockset_masks(d, verts)
    out = []
    for a, b in rows:
        coeff_masks: dict[int, int] = {}
        for i, c in enumerate(a):
            if c:
                coeff_masks[c] = coeff_masks.get(c, 0) | 1 << i
        values = [0] * len(sets)
        for c, m in coeff_masks.items():
            values = [v + c * (s & m).bit_count() for v, s in zip(values, sets)]
        tight = 0
        for k, v in enumerate(values):
            if v == b:
                tight |= 1 << k
        violator = next((k for k, v in enumerate(values) if v > b), None)
        out.append((tight, violator))
    return out
