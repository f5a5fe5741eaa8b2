"""Facet machinery: independent-blocks inequalities and the H-description.

An independent-blocks inequality is built from a set I of pairwise
vertex-disjoint blocks.  Its coefficient vector alpha has alpha_B = 1 on I,
alpha_B = 0 outside the closure of I, and nonpositive integers on the
closure minus I summing to -(|I| - 1), subject to one condition per subset
J of I: the alpha-sum over closure(J) minus I is at most -(|J| - 1).  The
right-hand side is always 1.  Singletons give the box rows x_B <= 1.

Together with the nonnegativity rows -x_B <= 0 these inequalities are the
complete and irredundant facet description of the polytope.  Two
independent generators are provided: exhaustive enumeration over
independent sets and coefficient distributions, and an inductive
construction that grows inequalities one independent block at a time.
Their agreement, and agreement with the brute-force hull, are the main
verification targets of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AssertionFailure, CountOverflow, RowInvalid
from .graphs import BlockDecomposition, blockset_closure, graph_to_json, split_components_at
from .hull import Certificate, RationalPolyhedron, _clear_denominators, affine_rank
from .vertices import _bits, _row_masks, to_incidence

MAX_IBI_BLOCKS = 14


@dataclass(frozen=True)
class IndependentBlocksInequality:
    """One inequality alpha . x <= 1 with its independent block set."""

    independent_set: tuple[int, ...]
    alpha: tuple[int, ...]


def is_independent(d: BlockDecomposition, blocks) -> bool:
    """True when the given blocks are pairwise vertex-disjoint."""
    ix = sorted(frozenset(blocks))
    for i, j in itertools.combinations(ix, 2):
        if d.blocks[i].vertices & d.blocks[j].vertices:
            return False
    return True


def ibi_violations(d: BlockDecomposition, cand: IndependentBlocksInequality) -> tuple[str, ...]:
    """All violated clauses of the candidate, empty when it is valid."""
    n = len(d.blocks)
    problems: list[str] = []
    iset = cand.independent_set
    alpha = cand.alpha
    if len(alpha) != n:
        return (f"alpha has length {len(alpha)}, expected {n}",)
    if any(int(x) != x for x in alpha):
        return ("alpha entries must be integers",)
    if not iset:
        problems.append("independent set is empty")
        return tuple(problems)
    if list(iset) != sorted(set(iset)):
        problems.append("independent set must be a sorted tuple of distinct indices")
        return tuple(problems)
    if iset[0] < 0 or iset[-1] >= n:
        problems.append("independent set has out-of-range block index")
        return tuple(problems)
    if not is_independent(d, iset):
        problems.append("blocks are not pairwise vertex-disjoint")
    closure = blockset_closure(d, iset)
    inner = closure - set(iset)
    for b in iset:
        if alpha[b] != 1:
            problems.append(f"alpha[{b}] = {alpha[b]} but block {b} is in the independent set")
    for b in range(n):
        if b not in closure and alpha[b] != 0:
            problems.append(f"alpha[{b}] = {alpha[b]} outside the closure")
    for b in inner:
        if alpha[b] > 0:
            problems.append(f"alpha[{b}] = {alpha[b]} must be nonpositive on the closure interior")
    if sum(alpha[b] for b in inner) != -(len(iset) - 1):
        problems.append(
            f"closure-interior alpha sum {sum(alpha[b] for b in inner)} != {-(len(iset) - 1)}"
        )
    for k in range(2, len(iset)):
        for sub in itertools.combinations(iset, k):
            sub_closure = blockset_closure(d, sub)
            s = sum(alpha[b] for b in sub_closure - set(iset))
            if s > -(k - 1):
                problems.append(
                    f"subset {sub} has interior alpha sum {s} > {-(k - 1)}"
                )
    return tuple(problems)


def _independent_sets(d: BlockDecomposition):
    """All nonempty pairwise vertex-disjoint block sets, ascending indices."""
    n = len(d.blocks)

    def grow(prefix: tuple[int, ...], start: int):
        for b in range(start, n):
            if all(not (d.blocks[b].vertices & d.blocks[i].vertices) for i in prefix):
                cur = prefix + (b,)
                yield cur
                yield from grow(cur, b + 1)

    yield from grow((), 0)


def _distributions(slots: int, total: int, bound: int):
    """Integer vectors of the given length, entries in [-bound, 0], summing to -total."""

    def rec(i: int, remaining: int):
        if i == slots - 1:
            if 0 <= remaining <= bound:
                yield (-remaining,)
            return
        lo = max(0, remaining - bound * (slots - 1 - i))
        for take in range(lo, min(bound, remaining) + 1):
            for rest in rec(i + 1, remaining - take):
                yield (-take,) + rest

    if slots == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def _sorted_ibis(ibis) -> tuple[IndependentBlocksInequality, ...]:
    return tuple(sorted(ibis, key=lambda q: (len(q.independent_set), q.independent_set, q.alpha)))


def enumerate_ibis(d: BlockDecomposition, max_blocks: int = MAX_IBI_BLOCKS) -> tuple[IndependentBlocksInequality, ...]:
    """Every valid inequality, by exhausting coefficient distributions.

    For each independent set I the nonpositive coefficients live on the
    closure interior, are bounded below by -(|I| - 1), and sum to
    -(|I| - 1); every distribution is screened through ibi_violations.
    """
    n = len(d.blocks)
    if n > max_blocks:
        raise CountOverflow(f"{n} blocks exceed the enumeration cap {max_blocks}")
    by_alpha: dict[tuple[int, ...], IndependentBlocksInequality] = {}
    for iset in _independent_sets(d):
        k = len(iset)
        if k == 1:
            alpha = tuple(1 if b == iset[0] else 0 for b in range(n))
            by_alpha.setdefault(alpha, IndependentBlocksInequality(iset, alpha))
            continue
        closure = blockset_closure(d, iset)
        inner = sorted(closure - set(iset))
        for dist in _distributions(len(inner), k - 1, k - 1):
            alpha = [0] * n
            for b in iset:
                alpha[b] = 1
            for b, val in zip(inner, dist):
                alpha[b] = val
            cand = IndependentBlocksInequality(iset, tuple(alpha))
            if not ibi_violations(d, cand):
                by_alpha.setdefault(cand.alpha, cand)
    return _sorted_ibis(by_alpha.values())


def construct_ibis(d: BlockDecomposition) -> tuple[IndependentBlocksInequality, ...]:
    """Every valid inequality, by closing the inductive construction.

    States are (independent set, alpha) pairs.  Starting from the
    singletons, a step picks a block that is disjoint from the current
    independent set and outside its closure, finds the attachment cut
    vertex v of the new branch, the unique alpha-weight-1 component H of
    the graph minus v, and the block of H at v; it then decrements one
    branch choice among the connecting-path blocks and that block.  All
    orderings are explored via memoized breadth-first closure.  A state
    failing validation raises AssertionFailure, because the construction
    is supposed to preserve validity.
    """
    n = len(d.blocks)
    if n > MAX_IBI_BLOCKS:
        raise CountOverflow(f"{n} blocks exceed the construction cap {MAX_IBI_BLOCKS}")

    def block_vertices(ix) -> frozenset[int]:
        out: set[int] = set()
        for i in ix:
            out |= d.blocks[i].vertices
        return frozenset(out)

    def check(state: IndependentBlocksInequality, context: str):
        problems = ibi_violations(d, state)
        if problems:
            raise AssertionFailure(
                f"construction produced an invalid inequality ({context})",
                payload={
                    "graph": graph_to_json(d.graph),
                    "independent_set": list(state.independent_set),
                    "alpha": list(state.alpha),
                    "violations": list(problems),
                },
            )

    seeds = []
    for b in range(n):
        alpha = tuple(1 if i == b else 0 for i in range(n))
        seeds.append(IndependentBlocksInequality((b,), alpha))
    for s in seeds:
        check(s, "seed")

    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    queue: list[IndependentBlocksInequality] = []
    by_alpha: dict[tuple[int, ...], IndependentBlocksInequality] = {}
    for s in seeds:
        seen.add((s.independent_set, s.alpha))
        queue.append(s)
        by_alpha.setdefault(s.alpha, s)

    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        iset = set(state.independent_set)
        alpha = state.alpha
        closure = blockset_closure(d, iset)
        for bn in range(n):
            if bn in closure:
                continue
            if any(d.blocks[bn].vertices & d.blocks[i].vertices for i in iset):
                continue
            new_closure = blockset_closure(d, iset | {bn})
            path_blocks = sorted(new_closure - closure - {bn})
            meet = block_vertices(closure) & block_vertices(new_closure - closure)
            if len(meet) != 1:
                raise AssertionFailure(
                    "branch attachment is not a single vertex",
                    payload={"graph": graph_to_json(d.graph), "state": list(alpha), "new_block": bn},
                )
            v = next(iter(meet))
            parts = split_components_at(d, v)
            sums = [sum(alpha[b] for b in part) for part in parts]
            ones = [i for i, s in enumerate(sums) if s == 1]
            if len(ones) != 1 or any(s != 0 for i, s in enumerate(sums) if i != ones[0]):
                raise AssertionFailure(
                    "component weights at the attachment vertex are not one 1 and rest 0",
                    payload={"graph": graph_to_json(d.graph), "state": list(alpha), "vertex": v},
                )
            hpart = parts[ones[0]]
            at_v = [b for b in hpart if v in d.blocks[b].vertices]
            if len(at_v) != 1:
                raise AssertionFailure(
                    "weight-1 component has no unique block at the attachment vertex",
                    payload={"graph": graph_to_json(d.graph), "state": list(alpha), "vertex": v},
                )
            bprime = at_v[0]
            for a in sorted(set(path_blocks) | {bprime}):
                new_alpha = list(alpha)
                new_alpha[bn] += 1
                new_alpha[a] -= 1
                new_iset = set(iset) | {bn}
                if a == bprime and bprime in iset:
                    new_iset.discard(bprime)
                cand = IndependentBlocksInequality(tuple(sorted(new_iset)), tuple(new_alpha))
                key = (cand.independent_set, cand.alpha)
                if key in seen:
                    continue
                check(cand, f"expansion by block {bn} branch {a}")
                seen.add(key)
                queue.append(cand)
                by_alpha.setdefault(cand.alpha, cand)
    return _sorted_ibis(by_alpha.values())


def h_representation(
    d: BlockDecomposition, ibis: tuple[IndependentBlocksInequality, ...]
) -> RationalPolyhedron:
    """Nonnegativity rows plus one row per inequality, sorted.

    Every row is primitive as built: a unit row has one entry -1, and an
    inequality row has rhs 1.
    """
    n = len(d.blocks)
    rows = {(tuple(-1 if i == b else 0 for i in range(n)), 0) for b in range(n)}
    rows.update((q.alpha, 1) for q in ibis)
    return RationalPolyhedron(dim=n, rows=tuple(sorted(rows, key=lambda r: (r[1], r[0]))))


def facet_certificates(d: BlockDecomposition, rows, verts) -> tuple[Certificate, ...]:
    """Tightness certificates of the rows against the vertex list
    `enumerate_vertices(d)`, from one pass over the vertices' block masks.

    Raises RowInvalid at the first row that some vertex violates.
    """
    scaled = []
    for a, b in rows:
        ib, *ia = _clear_denominators([b, *a])
        scaled.append((ia, ib))
    out = []
    for (a, b), (tight, violator) in zip(rows, _row_masks(d, scaled, verts)):
        if violator is not None:
            subset = verts[violator]
            val = sum(c * v for c, v in zip(a, to_incidence(d, subset)))
            raise RowInvalid(f"vertex {subset} violates the row: {val} > {b}")
        indices = tuple(_bits(tight))
        # the lowest clear bit of the tight mask, if it is a vertex
        slack = ((tight + 1) & ~tight).bit_length() - 1
        slack = slack if slack < len(verts) else None
        rank = affine_rank([to_incidence(d, verts[k]) for k in indices]) if indices else -1
        out.append(Certificate(tight_vertex_indices=indices, affine_rank=rank, slack_witness=slack))
    return tuple(out)

