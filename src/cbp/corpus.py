"""Deterministic test corpus: named block-structured graphs at desk scale.

Named families (block paths, triangle chains, stars, spiders, flowers)
cover the extremes of the block-cut tree shape; a seeded generator fills
in random block trees whose blocks are drawn from edge, triangle, and
four-cycle.  The same (max_blocks, seed) pair always reproduces the same
corpus, and every entry is connected by construction.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import BudgetExceeded
from .graphs import Edge, Graph

MAX_CORPUS_ENTRIES = 10_000


class CorpusEntry(NamedTuple):
    name: str
    graph: Graph


def path_graph(k: int) -> Graph:
    """Path with k edges; every block is a bridge."""
    if k < 1:
        raise ValueError("need at least one edge")
    return Graph(k + 1, tuple((i, i + 1) for i in range(k)))


def triangle_chain(k: int) -> Graph:
    """k triangles glued in a chain at single vertices; an Eulerian cactus."""
    if k < 1:
        raise ValueError("need at least one triangle")
    edges: list[Edge] = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (a, c)]
    return Graph(2 * k + 1, tuple(sorted(edges)))


def star_graph(k: int) -> Graph:
    """Star with k edges at a single center."""
    if k < 1:
        raise ValueError("need at least one edge")
    return Graph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def spider(legs: tuple[int, ...]) -> Graph:
    """Paths of the given lengths glued at a common center vertex."""
    if not legs or any(l < 1 for l in legs):
        raise ValueError("legs must be positive lengths")
    edges: list[Edge] = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((min(prev, nxt), max(prev, nxt)))
            prev = nxt
            nxt += 1
    return Graph(nxt, tuple(sorted(edges)))


def flower(k: int) -> Graph:
    """k triangles glued at a single center vertex; an Eulerian cactus."""
    if k < 1:
        raise ValueError("need at least one triangle")
    edges: list[Edge] = []
    for i in range(k):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (a, b), (0, b)]
    return Graph(2 * k + 1, tuple(sorted(edges)))


def flower_pendant(k: int) -> Graph:
    """k blocks: k-1 triangles plus one pendant edge, all at one center."""
    if k < 2:
        raise ValueError("need at least one triangle and the pendant edge")
    base = flower(k - 1)
    tip = base.vertex_count
    return Graph(tip + 1, base.sorted_edges() + ((0, tip),))


def showcase_graph() -> Graph:
    """Thirteen vertices, eight blocks: two triangles, a four-cycle, five bridges."""
    edges = [
        (0, 1), (1, 2), (0, 2),
        (0, 3),
        (0, 4),
        (4, 5),
        (4, 6),
        (6, 7), (7, 8), (6, 8),
        (7, 9),
        (8, 10), (10, 11), (11, 12), (8, 12),
    ]
    return Graph(13, tuple(sorted(edges)))


def random_block_tree(rng: random.Random, block_count: int) -> Graph:
    """Attach block_count random blocks (edge, triangle, or four-cycle),
    each at a uniformly chosen existing vertex."""
    if block_count < 1:
        raise ValueError("need at least one block")
    edges: list[Edge] = []
    vertex_count = 1
    for _ in range(block_count):
        shape = rng.choice(("edge", "triangle", "square"))
        v = rng.randrange(vertex_count)
        fresh = {"edge": 1, "triangle": 2, "square": 3}[shape]
        new = list(range(vertex_count, vertex_count + fresh))
        vertex_count += fresh
        if shape == "edge":
            edges.append((v, new[0]))
        elif shape == "triangle":
            edges += [(v, new[0]), (new[0], new[1]), (v, new[1])]
        else:
            edges += [(v, new[0]), (new[0], new[1]), (new[1], new[2]), (v, new[2])]
    return Graph(vertex_count, tuple(sorted(edges)))


def _leg_partitions(max_total: int) -> list[tuple[int, ...]]:
    """Descending leg-length tuples: at least three legs, one of length >= 2."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, acc: list[int]):
        if len(acc) >= 3 and acc[0] >= 2:
            out.append(tuple(acc))
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(max_total, max_total, [])
    return sorted(out, key=lambda t: (sum(t), t))


def _entry_count(max_blocks: int, random_per_size: int) -> int:
    """The number of entries of corpus(max_blocks, seed, random_per_size),
    counted without building any; once the count passes MAX_CORPUS_ENTRIES
    it stops, at some number past the cap.

    Every family but the spiders grows linearly.  The spider legs of total
    t are the partitions of t with three or more parts and a part of 2 or
    more: all p(t) partitions but the t // 2 + 1 with at most two parts and
    the all-ones one.  p(t) comes from a DP over the largest part: row t
    holds the partitions of t with every part at most m, for m = 0..t.
    """
    n = max_blocks
    # paths and triangle chains from 1 block, flowers from 2, stars,
    # flower-pendants and random trees from 3, the showcase from 8
    count = 2 * n + max(n - 1, 0) + (2 + random_per_size) * max(n - 2, 0) + (n >= 8)
    rows = [[1]]
    for t in range(1, n + 1):
        if count > MAX_CORPUS_ENTRIES:
            break
        row = [0]
        for m in range(1, t + 1):
            row.append(row[m - 1] + rows[t - m][min(m, t - m)])
        rows.append(row)
        if t >= 3:
            count += row[t] - (t // 2 + 1) - 1
    return count


def corpus(max_blocks: int, seed: int, random_per_size: int = 8) -> tuple[CorpusEntry, ...]:
    """Deterministic corpus of connected graphs with at most max_blocks blocks.

    Raises BudgetExceeded before building anything when the predicted
    entry count passes MAX_CORPUS_ENTRIES.
    """
    if max_blocks < 1:
        raise ValueError("max_blocks must be positive")
    if _entry_count(max_blocks, random_per_size) > MAX_CORPUS_ENTRIES:
        raise BudgetExceeded(f"more than {MAX_CORPUS_ENTRIES} corpus entries")
    entries: list[CorpusEntry] = []
    for k in range(1, max_blocks + 1):
        entries.append(CorpusEntry(f"path-{k}", path_graph(k)))
    for k in range(1, max_blocks + 1):
        entries.append(CorpusEntry(f"triangle-chain-{k}", triangle_chain(k)))
    for k in range(3, max_blocks + 1):
        entries.append(CorpusEntry(f"star-{k}", star_graph(k)))
    for legs in _leg_partitions(max_blocks):
        name = "spider-" + "-".join(str(l) for l in legs)
        entries.append(CorpusEntry(name, spider(legs)))
    for k in range(2, max_blocks + 1):
        entries.append(CorpusEntry(f"flower-{k}", flower(k)))
    for k in range(3, max_blocks + 1):
        entries.append(CorpusEntry(f"flower-pendant-{k}", flower_pendant(k)))
    if max_blocks >= 8:
        entries.append(CorpusEntry("showcase", showcase_graph()))
    rng = random.Random(seed)
    for size in range(3, max_blocks + 1):
        for i in range(random_per_size):
            entries.append(
                CorpusEntry(f"random-{size}-{i}", random_block_tree(rng, size))
            )
    return tuple(entries)
