"""Exact rational polyhedra and a brute-force facet oracle.

Everything here runs on int; no floats or fractions ever enter the
geometry.  Points are tuples of int coordinates, such as the 0/1 vertices
of the polytope; a rational point set is scaled by a common denominator
first.  Inequality rows are stored as (a, b) meaning a . x <= b, with
coprime integer entries, so two rows describe the same halfspace exactly
when they are equal.  The rows are built that way: the independent-blocks
rows have rhs 1 and the unit rows -x_B <= 0 one entry -1, and every row of
the facet oracle is read off a primitive ray.

The facet oracle converts a full-dimensional point set V into its
irredundant facet list by the double description method on the dual cone
{y in R^(d+1) : y0 + y . v >= 0 for all v in V}: extreme rays of that cone
correspond one-to-one to facets of conv(V).  The constraint rows are the
integer rows (1, v), rays are primitive integer vectors, and each ray
carries its zero set as a bitmask over the rows processed so far, so the
combinatorial adjacency test of two rays is a handful of integer ANDs.

All exact linear algebra of the package runs through one fraction-free
elimination (Bareiss) on integer rows, whose divisions are exact, in two
modes.  Forward elimination gives ranks: the affine ranks of vertex
sets, each the rank of an (n + 1) x (n + 1) moment matrix
`cbp.vertices._moments` less one (the facet certificates of cbp.facets
and the dimension check of cbp.verify).  Gauss-Jordan elimination, which
also clears above each pivot, gives the seed and the seed rays of the
facet oracle, read off the inverse block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from operator import mul

from .errors import AssertionFailure, DimensionCap, DimensionMismatch, NotFullDimensional

Row = tuple[tuple[int, ...], int]

MAX_BRUTE_FORCE_DIM = 10


@dataclass(frozen=True)
class RationalPolyhedron:
    """An intersection of halfspaces a . x <= b with coprime integer rows.

    order, when set, is the order in which the lattice counter
    `cbp.ehrhart.count_lattice_points` fixes the coordinates, a
    permutation of 0..dim-1; None is the identity.  Any permutation gives
    the same counts, so equality and hashing ignore it.  The
    H-description of a graph carries the block-cut tree order
    `cbp.graphs.tree_order`.

    lattice_plan is the dilation-independent plan of the lattice counter,
    built on the first count and kept with this object, so every dilation
    of the same H-description reuses it and it goes when the object does.
    """

    dim: int
    rows: tuple[Row, ...]
    order: tuple[int, ...] | None = field(default=None, compare=False)

    @cached_property
    def lattice_plan(self):
        from .ehrhart import _lattice_plan  # cbp.ehrhart imports this module

        return _lattice_plan(self)


def _bareiss(rows: list[list[int]], width: int | None = None) -> tuple[int, int]:
    """Fraction-free elimination (Bareiss) of integer rows, in place.

    Pivots are taken column by column.  Without a width the elimination
    runs forward only, over every column: each pivot clears its column in
    the rows below it, which is all a rank or a determinant needs.  With a
    width it is Gauss-Jordan on the first `width` columns: each pivot
    clears its column in every other row, so every pivot column ends
    holding the last pivot p on its own row and zero elsewhere.  After k
    pivots every entry is a k x k minor of the input, so each division by
    the previous pivot is exact, and each pivot row is zero left of its
    pivot.  A row swap negates the row moved down, which keeps the sign of
    every minor: for a square matrix of full rank p is its determinant,
    and Gauss-Jordan on [M | I] with width the columns of M leaves
    p * M^-1 in the right block.  Returns the rank and p (1 when the rank
    is 0).
    """
    jordan = width is not None
    if not jordan:
        width = len(rows[0]) if rows else 0
    prev = 1
    rank = 0
    for c in range(width):
        if rank == len(rows):
            break
        for pivot in range(rank, len(rows)):
            if rows[pivot][c]:
                break
        else:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], [-x for x in rows[rank]]
        top = rows[rank]
        p = top[c]
        for i in range(0 if jordan else rank + 1, len(rows)):
            if i != rank:
                row = rows[i]
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, prev


def _integer_points(points) -> tuple[list[tuple[int, ...]], int]:
    """The points as tuples, and their common dimension; TypeError on a
    coordinate that is not an int (a bool included)."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch("points of different dimensions")
        for x in p:
            if type(x) is not int:
                raise TypeError(f"point coordinate {x!r} is not an int")
    return pts, dim


def _primitive(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in vec)


def _adjacent_rays(common: int, zero_sets: list[int]) -> bool:
    """Combinatorial adjacency test of double description: no ray other than
    the pair itself is zero on every row where both rays of the pair are."""
    hits = 0
    for z in zero_sets:
        if common & z == common:
            hits += 1
            if hits > 2:
                return False
    return True


def brute_force_facets(points) -> RationalPolyhedron:
    """Irredundant facet description of the convex hull of the points.

    The points must affinely span the ambient space.  Intended as the
    trusted oracle for small dimensions; the cap keeps runtimes sane.
    The coordinates must be ints.
    """
    pts, dim = _integer_points(points)
    if dim < 1:
        raise NotFullDimensional("ambient dimension must be at least 1")
    if dim > MAX_BRUTE_FORCE_DIM:
        raise DimensionCap(f"ambient dimension {dim} exceeds cap {MAX_BRUTE_FORCE_DIM}")
    pts = sorted(set(pts))

    # dual-cone constraint rows (1, v); every valid inequality a.x <= b
    # maps to the cone point y = (b, -a).
    cons = [[1, *p] for p in pts]
    n = len(cons)

    # the seed is the first dim + 1 independent rows: the pivot columns of
    # [C^T | I].  With M the seed rows, the identity block ends as
    # p * (M^T)^-1, whose t-th row is, up to the sign of p, the extreme ray of
    # the seed cone vanishing on every seed row but the t-th.
    aug = [[row[i] for row in cons] + [int(i == j) for j in range(dim + 1)] for i in range(dim + 1)]
    rank, p = _bareiss(aug, n)
    if rank != dim + 1:
        raise NotFullDimensional("points do not affinely span the ambient space")
    seed_idx = [next(c for c, x in enumerate(row) if x) for row in aug]
    sign = 1 if p > 0 else -1

    # each ray maps to its zero set: bit k marks a processed row k on which
    # it vanishes
    seed_mask = sum(1 << k for k in seed_idx)
    rays: dict[tuple[int, ...], int] = {}
    for k, row in zip(seed_idx, aug):
        rays[_primitive([sign * x for x in row[n:]])] = seed_mask & ~(1 << k)

    seeds = set(seed_idx)
    for k, row in enumerate(cons):
        if k in seeds:
            continue
        bit = 1 << k
        plus, zero, minus = [], [], []
        for ray, z in rays.items():
            v = sum(map(mul, row, ray))
            (plus if v > 0 else minus if v < 0 else zero).append((ray, z, v))
        zero_sets = list(rays.values())
        new_rays = {ray: z for ray, z, _ in plus}
        new_rays.update((ray, z | bit) for ray, z, _ in zero)
        for ray_i, z_i, v_i in plus:
            for ray_j, z_j, v_j in minus:
                common = z_i & z_j
                # adjacent rays share dim - 1 independent zero rows
                if common.bit_count() < dim - 1 or not _adjacent_rays(common, zero_sets):
                    continue
                # the positive combination that vanishes on row k; combinations
                # from different pairs can coincide
                combo = [v_i * y - v_j * x for x, y in zip(ray_i, ray_j)]
                new_rays[_primitive(combo)] = common | bit
        rays = new_rays

    rows = [(tuple(-c for c in ray[1:]), ray[0]) for ray in rays]
    rows.sort(key=lambda r: (r[1], r[0]))

    # sanity: every input point satisfies every output row
    for a, b in rows:
        for q in pts:
            if sum(map(mul, a, q)) > b:
                raise AssertionFailure(
                    "facet computation produced a violated row",
                    payload={"row": {"coeffs": list(a), "rhs": b}, "point": list(q)},
                )
    return RationalPolyhedron(dim=dim, rows=tuple(rows))
