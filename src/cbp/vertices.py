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
from .graphs import BlockDecomposition, _check_block_indices

BlockSubset = tuple[int, ...]

DEFAULT_VERTEX_CAP = 2**24


def is_connected_blockset(d: BlockDecomposition, a) -> bool:
    """True when the union of the given blocks induces a connected subgraph.

    The empty blockset counts as connected.  Two blocks meet only in single
    cut vertices, so the union is connected exactly when the blocks of S
    and the cut vertices they hold span a subtree of the block-cut tree.
    That forest has one edge per (block of S, cut vertex in it) incidence,
    read off `d.block_cuts`, and one node per block of S and per cut
    vertex touched, so it is one tree exactly when the incidences
    outnumber the touched cut vertices by |S| - 1.  No walk is needed.
    """
    s = _check_block_indices(d, a)
    if len(s) <= 1:
        return True
    block_cuts = d.block_cuts
    incidences = 0
    touched: set[int] = set()
    for b in s:
        held = block_cuts[b]
        incidences += len(held)
        touched.update(held)
    return incidences - len(touched) == len(s) - 1


def enumerate_vertices(d: BlockDecomposition) -> tuple[BlockSubset, ...]:
    """All connected blocksets, one tuple each, in (cardinality, lex) order.

    The sets are grown as block masks over the near-block table `d.near`:
    a set whose least block is r gains one block of its frontier at a
    time, the blocks above r outside it that share a graph vertex with it,
    minus the blocks its earlier siblings gained.  Raises CountOverflow
    before enumerating when count_connected_blocksets predicts more than
    DEFAULT_VERTEX_CAP of them.
    """
    if count_connected_blocksets(d) > DEFAULT_VERTEX_CAP:
        raise CountOverflow(f"more than {DEFAULT_VERTEX_CAP} connected blocksets")
    near = d.near
    out: list[BlockSubset] = [()]
    for r in range(len(d.blocks)):
        above = -2 << r
        # grow connected supersets whose minimum element is r, as (set,
        # frontier, banned) masks; each branch bans the candidates already
        # tried so every subset appears once
        stack = [(1 << r, near[r] & above, 0)]
        while stack:
            cur, frontier, banned = stack.pop()
            out.append(tuple(_bits(cur)))
            for v in _bits(frontier & ~banned):
                new = cur | 1 << v
                stack.append((new, (frontier | near[v]) & above & ~new, banned))
                banned |= 1 << v
    out.sort(key=lambda t: (len(t), t))
    return tuple(out)


def count_connected_blocksets(d: BlockDecomposition) -> int:
    """Number of connected blocksets, the empty one included, in linear time.

    Root the block-cut tree at block 0 (the decomposition's root_walk,
    whose entry and parent lists give each block but the root its cut
    vertex and block above it).
    g[b] counts the connected blocksets whose block nearest the root is b:
    every child block b' of every child cut vertex of b is either left out
    or joins with one of its g[b'] sets, so g[b] is the product of
    (1 + g[b']).  A nonempty set whose nearest node to the root is a cut
    vertex c instead holds two or more child blocks of c and not its parent
    block: P_c - 1 - sum(g[b']) sets, where P_c is the product of
    (1 + g[b']) over the child blocks of c.  Every block but the root is a
    child of exactly one cut vertex, so the total is 1 + g[root] + the sum
    over the cut vertices of (P_c - 1); a cut vertex that no block was
    entered through keeps P_c = 1 and adds 0.
    """
    order, entry, parent = d.root_walk
    g = [1] * len(d.blocks)
    at_cut = dict.fromkeys(d.cut_vertices, 1)
    for b in reversed(order[1:]):
        at_cut[entry[b]] *= 1 + g[b]
        g[parent[b]] *= 1 + g[b]
    return 1 + g[0] + sum(at_cut.values()) - len(at_cut)


def to_incidence(d: BlockDecomposition, a) -> tuple[int, ...]:
    """Indicator vector of a blockset in block-index coordinates."""
    s = _check_block_indices(d, a)
    return tuple(1 if i in s else 0 for i in range(len(d.blocks)))


def _bits(mask: int):
    """Indices of the set bits of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _columns(d: BlockDecomposition, verts) -> list[int]:
    """The vertex list transposed into block columns: bit k of the b-th
    column marks that the k-th blockset contains block b.

    Each column is written as a string of binary digits, which int()
    reads in linear time, so the transpose costs one step per (blockset,
    block) incidence rather than one big-int OR.
    """
    last = len(verts)
    digits = [bytearray(b"0" * (last + 1)) for _ in d.blocks]
    for k, a in enumerate(verts):
        for b in a:
            digits[b][last - k] = 49  # ord("1")
    return [int(col, 2) for col in digits]


def _moments(cols: list[int], mask: int) -> list[list[int]]:
    """The moment matrix of the blocksets in a vertex mask, over the block
    columns `cols = _columns(d, verts)`: the sum over those blocksets x of
    (1, x)(1, x)^T.

    With the mask itself standing for the constant column, entry (i, j) is
    the popcount of mask & col_i & col_j, so the matrix costs (n + 1)^2
    big-int ANDs whatever the number of blocksets in the mask.  Its
    first row is their count and their sum.  Over the rationals X^T X has
    the kernel of X, so its rank is the rank of the rows (1, x): the
    affine rank of the blocksets plus one, and 0 for an empty mask.
    """
    t = [mask, *(mask & col for col in cols)]
    return [[(x & y).bit_count() for y in t] for x in t]


def _pair_masks(d: BlockDecomposition, verts, cols: list[int]):
    """For each blockset S of the list, in order, yield the block mask of
    S, the mask near(S) of the blocks sharing a graph vertex with S (from
    `d.near`), and three vertex masks over the columns
    `cols = _columns(d, verts)`:

    - meet: the blocksets T whose union meets the union of S, the OR of the
      columns of near(S).  Two nonempty connected blocksets have a
      connected union exactly when their unions meet, because blocks meet
      only in cut vertices;
    - sup: the blocksets that contain S, the AND of the columns of S;
    - sub: the blocksets contained in S, the complement of the OR of the
      columns of the blocks outside S.

    Each costs O(blocks) big-int operations per blockset, not a pass over
    the other blocksets.
    """
    full = (1 << len(verts)) - 1
    near = d.near
    for a in verts:
        s = reach = 0
        sup = full
        for b in a:
            s |= 1 << b
            reach |= near[b]
            sup &= cols[b]
        meet = outside = 0
        for b, col in enumerate(cols):
            if reach >> b & 1:
                meet |= col
            if not s >> b & 1:
                outside |= col
        yield s, reach, meet, sup, full & ~outside


def _add_shifted(planes: list[int], x: int, j: int) -> None:
    """Add x * 2**j to a bit-sliced counter: planes[i] holds bit i of every
    count, one count per bit position of x."""
    planes.extend([0] * (j - len(planes)))
    while x:
        if j == len(planes):
            planes.append(x)
            return
        planes[j], x = planes[j] ^ x, planes[j] & x
        j += 1


def _row_masks(rows, cols: list[int], count: int) -> list[tuple[int, int | None]]:
    """Tight-vertex mask and first violating vertex of each integer row, over
    the block columns `cols = _columns(d, verts)` of count blocksets.

    The values of a row (a, b) at all blocksets at once are a bit-sliced
    counter over the columns: a coefficient c > 0 adds c times the column
    of its block, and c < 0 adds |c| times the complement column and |c|
    to the right-hand side, since c * x = |c| * (1 - x) - |c|.  The
    counts are then compared with the shifted right-hand side plane by
    plane from the top.  Bit k of the tight mask marks value == b at the
    k-th blockset; the violating vertex is the least k with value > b, or
    None.  A row costs O(nonzeros * counter width) big-int operations
    instead of one step per vertex.
    """
    full = (1 << count) - 1
    out = []
    for a, b in rows:
        planes: list[int] = []
        for c, col in zip(a, cols):
            if c < 0:
                c, col, b = -c, full ^ col, b - c
            if c == 1:
                _add_shifted(planes, col, 0)
            elif c:
                for j in _bits(c):
                    _add_shifted(planes, col, j)
        if b < 0:
            tight, above = 0, full
        else:
            tight, above = full, 0
            for i in range(max(len(planes), b.bit_length()) - 1, -1, -1):
                p = planes[i] if i < len(planes) else 0
                if b >> i & 1:
                    tight &= p
                else:
                    above |= tight & p
                    tight &= ~p
        out.append((tight, (above & -above).bit_length() - 1 if above else None))
    return out
