"""Facet machinery: independent-blocks inequalities and the H-description.

An independent-blocks inequality alpha . x <= 1 is fixed by its integer
coefficient vector alpha alone.  Its independent set I, the blocks with
alpha_B = 1, is a set of pairwise vertex-disjoint blocks; alpha_B = 0
outside the closure of I, and alpha is nonpositive on the closure minus I
with sum -(|I| - 1), subject to one condition per subset J of I: the
alpha-sum over closure(J) minus I is at most -(|J| - 1).  The right-hand
side is always 1.  Singletons give the box rows x_B <= 1.  Inequalities
are passed around as their alpha tuples.

Together with the nonnegativity rows -x_B <= 0 these inequalities are the
complete and irredundant facet description of the polytope.  Two
independent generators are provided: exhaustive enumeration over
independent sets and coefficient distributions, each screened, and an
inductive construction that grows them one independent block at a time,
unscreened.  Their agreement, and agreement with the brute-force hull,
are the main verification targets of the package.
"""

from __future__ import annotations

import itertools

from .errors import AssertionFailure, CountOverflow, RowInvalid
from .graphs import BlockDecomposition, _check_block_indices, _walk, blockset_closure, graph_to_json, tree_order
from .hull import RationalPolyhedron, _bareiss
from .vertices import _moments

MAX_IBI_BLOCKS = 14


def is_independent(d: BlockDecomposition, blocks) -> bool:
    """True when the given blocks are pairwise vertex-disjoint, read off
    the near-block masks `d.near`.  An index that is not a block's raises
    IndexError."""
    seen = 0
    for b in _check_block_indices(d, blocks):
        if d.near[b] & seen:
            return False
        seen |= 1 << b
    return True


def ibi_violations(d: BlockDecomposition, alpha) -> tuple[str, ...]:
    """All violated clauses of the coefficient vector, empty when it is valid.

    The independent set is read off alpha: the blocks with alpha_b = 1.
    """
    n = len(d.blocks)
    if len(alpha) != n:
        return (f"alpha has length {len(alpha)}, expected {n}",)
    if any(int(x) != x for x in alpha):
        return ("alpha entries must be integers",)
    iset = tuple(b for b, x in enumerate(alpha) if x == 1)
    if not iset:
        return ("no entry of alpha equals 1",)
    problems: list[str] = []
    if not is_independent(d, iset):
        problems.append("blocks are not pairwise vertex-disjoint")
    closure = blockset_closure(d, iset)
    inner = closure - set(iset)
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
    """All nonempty pairwise vertex-disjoint block sets, ascending indices;
    `blocked` marks the blocks sharing a vertex with the prefix."""
    near = d.near

    def grow(prefix: tuple[int, ...], start: int, blocked: int):
        for b in range(start, len(near)):
            if not blocked >> b & 1:
                cur = prefix + (b,)
                yield cur
                yield from grow(cur, b + 1, blocked | near[b])

    yield from grow((), 0, 0)


def _check_ibi_cap(n: int) -> None:
    if n > MAX_IBI_BLOCKS:
        raise CountOverflow(f"{n} blocks exceed the enumeration cap {MAX_IBI_BLOCKS}")


def enumerate_ibis(d: BlockDecomposition) -> tuple[tuple[int, ...], ...]:
    """Every valid inequality's alpha, by exhausting coefficient distributions.

    For each independent set I the nonpositive coefficients live on the
    closure interior and sum to -(|I| - 1), so each distribution is a
    multiset of |I| - 1 interior blocks, an entry minus its block's
    multiplicity; every distribution is screened through ibi_violations.
    """
    n = len(d.blocks)
    _check_ibi_cap(n)
    found = []
    for iset in _independent_sets(d):
        inner = sorted(blockset_closure(d, iset) - set(iset))
        for dist in itertools.combinations_with_replacement(inner, len(iset) - 1):
            alpha = [0] * n
            for b in iset:
                alpha[b] = 1
            for b in dist:
                alpha[b] -= 1
            if not ibi_violations(d, alpha):
                found.append(tuple(alpha))
    return tuple(sorted(found))


def _part_sums(d: BlockDecomposition, walk, sub, v: int) -> dict[int, int]:
    """The alpha sum of each part of the graph minus the cut vertex v,
    keyed by the part's block at v, read off a walk of the block-cut tree
    and sub, the alpha sum of each reached block's subtree over it.

    A block entered through v holds its subtree; the block v was reached
    from holds the rest, the root's subtree less those.
    """
    order, entry, _ = walk
    sums, rest = {}, sub[order[0]]
    for b in d.blocks_at_vertex[v]:
        if entry[b] == v:
            sums[b] = sub[b]
            rest -= sub[b]
        else:
            owner = b
    sums[owner] = rest
    return sums


def construct_ibis(d: BlockDecomposition) -> tuple[tuple[int, ...], ...]:
    """Every valid inequality's alpha, by closing the inductive construction.

    Starting from the singletons, a step picks a block that is disjoint
    from the current independent set and outside its closure, finds the
    attachment cut vertex v of the new branch, the unique alpha-weight-1
    component H of the graph minus v, and the block of H at v; it then
    decrements one branch choice among the connecting-path blocks and that
    block.  All orderings are explored via memoized breadth-first closure.
    No state is screened: every vector enumerate_ibis's screen accepts is
    one of its candidates (1 on an independent set I, nonpositive integers
    summing to -(|I| - 1) on its closure interior, 0 elsewhere), so a state
    that screen would reject is missing from enumerate_ibis and lands in
    `verify.check_ibis`'s `constructed_only`.  The guards are the block cap
    and the assertion that one part at the attachment vertex weighs 1 and
    the rest 0, which checks the step's own choice of the weight-1 part.

    Each state walks the block-cut tree once, from a block of its
    independent set I, and passes back up the walk once: the closure of I
    is the blocks whose subtree holds a block of I, and the subtree alpha
    sums give the components' weights (`_part_sums`).  A new block's path
    to the closure is its chase up the walk's parent list, and v is the
    entry vertex of the last block chased.  A block the walk did not
    reach has parent None, where the chase raises TypeError.
    `verify.check_ibis` also checks the component clause on each row,
    through the same `_part_sums` over the root walk.
    """
    n = len(d.blocks)
    _check_ibi_cap(n)
    near = d.near
    queue = [tuple(1 if i == b else 0 for i in range(n)) for b in range(n)]
    seen = set(queue)

    # the loop also visits the states appended to the queue as it runs
    for alpha in queue:
        iset = [b for b, x in enumerate(alpha) if x == 1]
        walk = order, entry, parent = d.root_walk if iset[0] == 0 else _walk(d, iset[0])
        sub, closure = list(alpha), [x == 1 for x in alpha]
        for b in reversed(order[1:]):
            sub[parent[b]] += sub[b]
            closure[parent[b]] |= closure[b]
        blocked = 0
        for b in iset:
            blocked |= near[b]
        for bn in range(n):
            if closure[bn] or blocked >> bn & 1:
                continue
            path_blocks, x = [], bn
            while not closure[parent[x]]:
                x = parent[x]
                path_blocks.append(x)
            v = entry[x]
            sums = _part_sums(d, walk, sub, v)
            if sorted(sums.values()) != [0] * (len(sums) - 1) + [1]:
                raise AssertionFailure(
                    "component weights at the attachment vertex are not one 1 and rest 0",
                    payload={"graph": graph_to_json(d.graph), "state": list(alpha), "vertex": v},
                )
            for a in sorted({*path_blocks, max(sums, key=sums.get)}):
                new_alpha = list(alpha)
                new_alpha[bn] += 1
                new_alpha[a] -= 1
                cand = tuple(new_alpha)
                if cand not in seen:
                    seen.add(cand)
                    queue.append(cand)
    return tuple(sorted(seen))


def h_representation(d: BlockDecomposition, ibis: tuple[tuple[int, ...], ...]) -> RationalPolyhedron:
    """Nonnegativity rows plus one row alpha . x <= 1 per inequality, sorted.

    Every row is primitive as built: a unit row has one entry -1, and an
    inequality row has rhs 1.  The rows stay in block order; the lattice
    counter takes the blocks in the block-cut tree order `tree_order`.
    """
    n = len(d.blocks)
    rows = {(tuple(-1 if i == b else 0 for i in range(n)), 0) for b in range(n)}
    rows.update((alpha, 1) for alpha in ibis)
    return RationalPolyhedron(
        dim=n, rows=tuple(sorted(rows, key=lambda r: (r[1], r[0]))), order=tree_order(d)
    )


def facet_certificates(rows, verts, tight_rows, cols) -> tuple[tuple[int, int], ...]:
    """One (tight mask, affine rank) pair per integer row, against the
    vertex list `enumerate_vertices(d)`, read off the vertices' block
    columns `cols` and the rows' tight-row table
    `tight_rows = vertices._row_masks(rows, cols, len(verts))` (for the
    graph's own rows and vertices, GraphContext.columns and
    GraphContext.tight_rows).

    Bit k of the tight mask marks that the row holds with equality at the
    k-th vertex.  The affine rank of a row's tight vertices is the rank of
    their moment matrix `vertices._moments(cols, tight)` less one, by one
    (n + 1) x (n + 1) elimination whatever the number of tight vertices,
    and -1 when no vertex is tight.  The row is facet-defining exactly
    when the rank is dim - 1 and some vertex is not tight.  Raises
    RowInvalid at the first row that some vertex violates.
    """
    out = []
    for (a, b), (tight, violator) in zip(rows, tight_rows):
        if violator is not None:
            subset = verts[violator]
            raise RowInvalid(f"vertex {subset} violates the row: {sum(a[k] for k in subset)} > {b}")
        out.append((tight, _bareiss(_moments(cols, tight))[0] - 1))
    return tuple(out)
