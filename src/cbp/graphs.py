"""Graphs, block decompositions, and the block-cut tree.

A block of a connected graph is a maximal subgraph without a cut vertex:
either a maximal 2-connected subgraph or a bridge together with its two
endpoints.  Two distinct blocks share at most one vertex, and every shared
vertex is a cut vertex of the graph.  The block-cut tree has one node per
block and one node per cut vertex, with a block node adjacent to a cut
node exactly when the cut vertex lies in the block.  The decomposition
stores that tree once, from both sides and read-only: the blocks at each
vertex, and the cut vertices of each block.  `_walk` is its one traversal,
and it steps along the tree's own edges only: closures, the components at
a cut vertex (as alpha sums over a walk's subtrees) and the optimizer's
passes all read the tree through it, and
the walk from block 0 is made once and kept on the decomposition.  A walk
is one representation for every reader: the reached blocks in walk order
and two lists indexed by block, the cut vertex each block was entered
through and the block it was entered from (its parent), both None at the
root and at every block the walk did not reach.  Everything downstream
(vertex enumeration, facets, the optimizer) works on this decomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet

from .errors import EmptyGraph, InvalidGraph, NotConnected, ParseError

Edge = tuple[int, int]


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..vertex_count-1.

    InvalidGraph unless every edge is a pair (a tuple or list of two) and
    the vertex count and every endpoint is an int (a bool is not), checked
    before any of them is compared: a float or a bool would compare as some
    int and name another graph.
    """

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for e in self.edges:
            if type(e) not in (tuple, list) or len(e) != 2:
                raise InvalidGraph(f"edge {e!r} is not a pair of endpoints")
        for x in (self.vertex_count, *(w for e in self.edges for w in e)):
            if type(x) is not int:
                raise InvalidGraph(f"vertex count or endpoint {x!r} is not an int")
        if self.vertex_count < 0:
            raise InvalidGraph("vertex_count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InvalidGraph(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InvalidGraph(f"edge {e} has an endpoint outside 0..{self.vertex_count - 1}")
            norm.add(_norm_edge(u, v))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def graph_to_json(g: Graph) -> dict:
    return {"n": g.vertex_count, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(data: dict) -> Graph:
    """The graph of `graph_to_json`'s form; InvalidGraph on a malformed
    form, a duplicate edge, or whatever `Graph` rejects."""
    try:
        n = data["n"]
        edges = [(u, v) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidGraph(f"bad graph JSON: {exc}") from exc
    g = Graph(n, frozenset(edges))
    if len(edges) != len(g.edges):
        raise InvalidGraph("duplicate edge in graph JSON")
    return g


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated edge list, one "u v" pair per line.

    An optional first line "n <vertex_count>" fixes the vertex count;
    otherwise it defaults to one plus the largest vertex id.  Vertices that
    end up isolated are compacted away with a warning, since every operation
    here requires a connected graph.
    """
    edges: list[Edge] = []
    seen: set[Edge] = set()
    declared_n: int | None = None
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if not saw_content and len(tokens) == 2 and tokens[0] == "n":
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad vertex count {tokens[1]!r}", lineno)
            if declared_n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            saw_content = True
            continue
        saw_content = True
        if len(tokens) != 2:
            raise ParseError(f"expected two endpoints, got {len(tokens)} tokens", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw.strip()!r}", lineno)
        if u < 0 or v < 0:
            raise ParseError("vertex ids must be nonnegative", lineno)
        if u == v:
            raise InvalidGraph(f"self-loop at vertex {u} (line {lineno})")
        e = _norm_edge(u, v)
        if e in seen:
            raise InvalidGraph(f"duplicate edge {e} (line {lineno})")
        seen.add(e)
        edges.append(e)

    used = sorted({w for e in edges for w in e})
    n = declared_n if declared_n is not None else (used[-1] + 1 if used else 0)
    if used and used[-1] >= n:
        raise InvalidGraph(f"edge endpoint {used[-1]} exceeds declared vertex count {n}")
    if len(used) < n:
        isolated = n - len(used)
        warnings.warn(f"dropping {isolated} isolated vertex id(s) and compacting", stacklevel=2)
        relabel = {old: new for new, old in enumerate(used)}
        edges = [_norm_edge(relabel[u], relabel[v]) for u, v in edges]
        n = len(used)
    return Graph(n, frozenset(edges))


@dataclass(frozen=True)
class Block:
    """One block: its vertex set and its edge set."""

    vertices: frozenset[int]
    edges: frozenset[Edge]


@dataclass(eq=False)
class BlockDecomposition:
    """A connected graph together with its canonically ordered blocks.

    Blocks are sorted by (smallest vertex id, then the sorted vertex id
    sequence), so block indices are reproducible across runs.  The
    block-cut tree is stored once, as its edges seen from both ends.
    blocks_at_vertex holds the sorted indices of the blocks holding each
    vertex, so a cut vertex v is adjacent in the tree to exactly the blocks
    blocks_at_vertex[v].  block_cuts[b] holds the cut vertices of block b,
    in the order its vertex set iterates, so block b is adjacent to
    exactly those; the table has one entry per tree edge, built on first
    use.

    root_walk is the `_walk` from block 0 with nothing banned, built on
    first use and kept for the decomposition's lifetime: the blocks in
    walk order, and the entry cut vertex and the parent of each block in
    two lists indexed by block, None at block 0.  The vertex count, the
    optimizer's rerooting pass and its queries and closures rooted at
    block 0 all read it.  near is kept the same way: bit c of its b-th
    mask marks that blocks b and c share a graph vertex, b itself
    included; the vertex enumeration and the block-column kernels read
    it.  All of them are shared, so no caller may change them.
    """

    graph: Graph
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    blocks_at_vertex: dict[int, tuple[int, ...]]

    @cached_property
    def root_walk(self) -> tuple[list[int], list[int | None], list[int | None]]:
        return _walk(self, 0)

    @cached_property
    def block_cuts(self) -> tuple[tuple[int, ...], ...]:
        cuts = self.cut_vertices
        return tuple(tuple(v for v in blk.vertices if v in cuts) for blk in self.blocks)

    @cached_property
    def near(self) -> list[int]:
        near = [1 << b for b in range(len(self.blocks))]
        for v in self.cut_vertices:
            at = sum(1 << b for b in self.blocks_at_vertex[v])
            for b in self.blocks_at_vertex[v]:
                near[b] |= at
        return near


def _biconnected_components(
    n: int, adj: dict[int, tuple[int, ...]]
) -> tuple[list[list[Edge]], set[int], int]:
    """Iterative lowpoint DFS returning block edge lists, cut vertices and
    the number of DFS roots, which is the number of connected components."""
    disc = [0] * n  # 0 means unvisited, otherwise discovery time
    low = [0] * n
    parent = [-1] * n
    comps: list[list[Edge]] = []
    cuts: set[int] = set()
    estack: list[Edge] = []
    timer = 1
    roots = 0
    for root in range(n):
        if disc[root]:
            continue
        roots += 1
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int]] = [(root, 0)]
        root_children = 0
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if not disc[w]:
                    parent[w] = v
                    estack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                    if v == root:
                        root_children += 1
                elif w != parent[v] and disc[w] < disc[v]:
                    estack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    comp = []
                    while True:
                        e = estack.pop()
                        comp.append(e)
                        if e == (u, v):
                            break
                    comps.append(comp)
                    if u != root or root_children > 1:
                        cuts.add(u)
    return comps, cuts, roots


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Decompose a connected graph with at least one edge into blocks."""
    if g.vertex_count == 0 or not g.edges:
        raise EmptyGraph("graph must have at least one edge")
    comps, cuts, roots = _biconnected_components(g.vertex_count, g.adjacency())
    if roots != 1:
        raise NotConnected("graph must be connected")
    own = {e: e for e in g.edges}  # blocks hold the graph's own edge tuples
    raw = []
    for comp in comps:
        edges = frozenset(own[_norm_edge(u, v)] for u, v in comp)
        vertices = frozenset(w for e in edges for w in e)
        raw.append(Block(vertices, edges))
    raw.sort(key=lambda b: (min(b.vertices), tuple(sorted(b.vertices))))
    blocks = tuple(raw)
    if sum(len(b.edges) for b in blocks) != len(g.edges):
        raise AssertionError("blocks do not partition the edge set")

    at_vertex: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for i, b in enumerate(blocks):
        for v in b.vertices:
            at_vertex[v].append(i)
    blocks_at_vertex = {v: tuple(sorted(ix)) for v, ix in at_vertex.items()}

    # the tree has one edge per (cut vertex, block holding it) incidence
    if sum(len(blocks_at_vertex[v]) for v in cuts) != len(blocks) + len(cuts) - 1:
        raise AssertionError("block-cut incidences do not form a tree")

    return BlockDecomposition(
        graph=g,
        blocks=blocks,
        cut_vertices=frozenset(cuts),
        blocks_at_vertex=blocks_at_vertex,
    )


def _check_block_indices(d: BlockDecomposition, a) -> frozenset[int]:
    s = frozenset(a)
    for i in s:
        if not isinstance(i, int) or not (0 <= i < len(d.blocks)):
            raise IndexError(f"block index {i!r} out of range")
    return s


def _walk(
    d: BlockDecomposition, root: int, banned: AbstractSet[int] = frozenset()
) -> tuple[list[int], list[int | None], list[int | None]]:
    """Breadth-first walk of the block-cut tree from block root, never
    entering a banned block (root itself is not checked).  It steps from a
    block to its cut vertices (block_cuts) and from a cut vertex to its
    blocks (blocks_at_vertex), so each step is a tree edge, and it expands
    each cut vertex once, from the block it first reaches that vertex in.

    Returns the reached blocks in walk order, then two lists indexed by
    block: entry[b], the cut vertex through which block b was entered, and
    parent[b], the block it was entered from.  Both hold None at the root
    and at every block the walk did not reach, so a chase up the parents
    that leaves the reached blocks fails at once, where an int sentinel
    such as -1 would index from the end.  Every block comes after its
    parent.
    """
    order = [root]
    entry: list[int | None] = [None] * len(d.blocks)
    parent: list[int | None] = [None] * len(d.blocks)
    owned: set[int] = set()
    block_cuts, at_vertex = d.block_cuts, d.blocks_at_vertex
    for b in order:
        for v in block_cuts[b]:
            if v not in owned:
                owned.add(v)
                for b2 in at_vertex[v]:
                    if b2 != b and b2 not in banned:
                        entry[b2] = v
                        parent[b2] = b
                        order.append(b2)
    return order, entry, parent


def tree_order(d: BlockDecomposition) -> tuple[int, ...]:
    """The blocks in a depth-first preorder of the block-cut tree, the
    coordinate order of the lattice counter `cbp.ehrhart.count_lattice_points`.

    The walk starts at an end of a longest block path, found by two
    sweeps: the block farthest from block 0, then the block farthest from
    that one, the smaller index among equally far blocks.  Below a block,
    its child subtrees (the blocks entered through its cut vertices) come
    smallest first, ties by block index, so the largest branch is left for
    last.  Every prefix of the order is a connected blockset, and a block
    path keeps its own order 0..k-1.
    """

    def walk(root: int):
        return d.root_walk if root == 0 else _walk(d, root)

    def farthest(root: int) -> int:
        order, _, parent = walk(root)
        depth = [0] * len(d.blocks)
        for b in order[1:]:
            depth[b] = depth[parent[b]] + 1
        return min(order, key=lambda b: (-depth[b], b))

    root = farthest(farthest(0))
    order, _, parent = walk(root)
    size = [1] * len(d.blocks)
    children: list[list[int]] = [[] for _ in d.blocks]
    for b in reversed(order[1:]):
        size[parent[b]] += size[b]
        children[parent[b]].append(b)
    out, stack = [], [root]
    while stack:
        b = stack.pop()
        out.append(b)
        stack.extend(sorted(children[b], key=lambda c: (size[c], c), reverse=True))
    return tuple(out)


def blockset_closure(d: BlockDecomposition, a) -> frozenset[int]:
    """Block nodes of the smallest block-cut subtree containing the given blocks.

    The closure of a blockset is the unique smallest connected blockset
    containing it; a blockset induces a connected subgraph exactly when it
    equals its own closure.  It is found by a walk from the smallest given
    block and a chase up the walk's parent list from each of the others.
    A block the walk did not reach has parent None, which ends the chase
    in a TypeError rather than a wrong closure.
    """
    s = _check_block_indices(d, a)
    if len(s) <= 1:
        return s
    root = min(s)
    _, _, parent = d.root_walk if root == 0 else _walk(d, root)
    marked = {root}
    for b in s:
        while b not in marked:
            marked.add(b)
            b = parent[b]
    return frozenset(marked)


@dataclass(frozen=True)
class GraphClass:
    """Structural flags of a connected graph used across the package."""

    is_tree: bool
    is_cactus: bool
    is_eulerian_cactus: bool
    is_block_path: bool
    cut_vertex_count: int


def classify(g: Graph, d: BlockDecomposition) -> GraphClass:
    """Classify a connected graph with at least one edge, given its decomposition."""
    is_tree = len(g.edges) == g.vertex_count - 1
    cactus = all(len(b.edges) == 1 or len(b.edges) == len(b.vertices) for b in d.blocks)
    eulerian = cactus and all(len(b.edges) >= 3 for b in d.blocks)
    cuts = d.cut_vertices
    block_path = all(len(d.blocks_at_vertex[v]) <= 2 for v in cuts) and all(
        len(held) <= 2 for held in d.block_cuts
    )
    return GraphClass(
        is_tree=is_tree,
        is_cactus=cactus,
        is_eulerian_cactus=eulerian,
        is_block_path=block_path,
        cut_vertex_count=len(cuts),
    )
