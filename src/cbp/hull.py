"""Exact rational polyhedra and a brute-force facet oracle.

Everything here runs on fractions.Fraction or int; no floats ever enter
the geometry.  Inequality rows are stored as (a, b) meaning a . x <= b,
scaled by the unique positive rational that makes the entries coprime
integers, so two rows describe the same halfspace exactly when their
normalized forms are equal.

The facet oracle converts a full-dimensional point set V into its
irredundant facet list by the double description method on the dual cone
{y in R^(d+1) : y0 + y . v >= 0 for all v in V}: extreme rays of that cone
correspond one-to-one to facets of conv(V).  The constraint rows are scaled
to integers once, rays are primitive integer vectors, and each ray carries
its zero set as a bitmask over the rows processed so far, so the
combinatorial adjacency test of two rays is a handful of integer ANDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionCap, DimensionMismatch, NotFullDimensional

Row = tuple[tuple[int, ...], int]

MAX_BRUTE_FORCE_DIM = 10


@dataclass(frozen=True)
class RationalPolyhedron:
    """An intersection of halfspaces a . x <= b with normalized integer rows."""

    dim: int
    rows: tuple[Row, ...]


@dataclass(frozen=True)
class Certificate:
    """Tightness data of one inequality against a vertex list.

    The inequality is facet-defining exactly when the tight vertices have
    affine rank dim-1 and at least one vertex is strictly slack.
    """

    tight_vertex_indices: tuple[int, ...]
    affine_rank: int
    slack_witness: int | None

    def confirms_facet(self, ambient_dim: int) -> bool:
        return self.affine_rank == ambient_dim - 1 and self.slack_witness is not None


def normalize_row(a, b) -> Row:
    """Scale (a, b) by a positive rational to coprime integers."""
    fa = [Fraction(x) for x in a]
    fb = Fraction(b)
    denom = fb.denominator
    for x in fa:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ia = [int(x * denom) for x in fa]
    ib = int(fb * denom)
    g = abs(ib)
    for x in ia:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero row cannot be normalized")
    return tuple(x // g for x in ia), ib // g


def same_hyperplane(r1: Row, r2: Row) -> bool:
    """True when the rows are positive multiples of each other."""
    return normalize_row(*r1) == normalize_row(*r2)


def _echelon_rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals; consumes its input."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                for j in range(c, cols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def affine_rank(points) -> int:
    """Dimension of the affine hull of the points (0 for a single point)."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("affine_rank requires at least one point")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch("points of different dimensions")
    base = pts[0]
    diffs = [[p[j] - base[j] for j in range(dim)] for p in pts[1:]]
    if not diffs:
        return 0
    return _echelon_rank(diffs)


def contains_point(h: RationalPolyhedron, x) -> bool:
    """Exact membership test of a rational point."""
    p = tuple(Fraction(v) for v in x)
    if len(p) != h.dim:
        raise DimensionMismatch(f"point has dimension {len(p)}, polyhedron {h.dim}")
    for a, b in h.rows:
        if sum(c * v for c, v in zip(a, p)) > b:
            return False
    return True


def _primitive(vec: list[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero ray")
    return tuple(x // g for x in vec)


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Matrix inverse by Gauss-Jordan elimination; raises on singularity."""
    n = len(matrix)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if aug[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            raise ValueError("singular matrix")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _clear_denominators(vec) -> list[int]:
    """The rational vector scaled by the least common multiple of its denominators."""
    denom = lcm(*(x.denominator for x in vec))
    return [x.numerator * (denom // x.denominator) for x in vec]


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


def brute_force_facets(points, max_dim: int = MAX_BRUTE_FORCE_DIM) -> RationalPolyhedron:
    """Irredundant facet description of the convex hull of the points.

    The points must affinely span the ambient space.  Intended as the
    trusted oracle for small dimensions; the cap keeps runtimes sane.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    dim = len(pts[0])
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch("points of different dimensions")
    if dim < 1:
        raise NotFullDimensional("ambient dimension must be at least 1")
    if dim > max_dim:
        raise DimensionCap(f"ambient dimension {dim} exceeds cap {max_dim}")
    pts = sorted(set(pts))

    # pick an affinely independent seed whose dual constraint matrix, rows
    # (1, v), is invertible
    seed_idx: list[int] = []
    seed_rows: list[list[Fraction]] = []
    for i, p in enumerate(pts):
        trial = seed_rows + [[Fraction(1), *p]]
        if _echelon_rank([r[:] for r in trial]) == len(trial):
            seed_idx.append(i)
            seed_rows.append(trial[-1])
        if len(seed_idx) == dim + 1:
            break
    if len(seed_idx) != dim + 1:
        raise NotFullDimensional("points do not affinely span the ambient space")

    # dual-cone constraint rows (1, v) scaled to integers; every valid
    # inequality a.x <= b maps to the cone point y = (b, -a).  Each ray maps
    # to its zero set: bit k marks a processed row k on which it vanishes.
    cons = [_clear_denominators((1,) + p) for p in pts]
    inv = _invert(seed_rows)
    seed_mask = sum(1 << k for k in seed_idx)
    rays: dict[tuple[int, ...], int] = {}
    for j, k in enumerate(seed_idx):
        col = [inv[i][j] for i in range(dim + 1)]
        rays[_primitive(_clear_denominators(col))] = seed_mask & ~(1 << k)

    seeds = set(seed_idx)
    for k, row in enumerate(cons):
        if k in seeds:
            continue
        bit = 1 << k
        plus, zero, minus = [], [], []
        for ray, z in rays.items():
            v = sum(c * r for c, r in zip(row, ray))
            (plus if v > 0 else minus if v < 0 else zero).append((ray, z, v))
        if not minus:
            for ray, z, _ in zero:
                rays[ray] = z | bit
            continue
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

    rows = sorted(
        {normalize_row(tuple(-c for c in ray[1:]), ray[0]) for ray in rays},
        key=lambda r: (r[1], r[0]),
    )

    # sanity: every input point satisfies every output row
    for a, b in rows:
        for denom, *q in cons:
            if sum(c * v for c, v in zip(a, q)) > b * denom:
                raise AssertionError("facet computation produced a violated row")
    return RationalPolyhedron(dim=dim, rows=tuple(rows))
