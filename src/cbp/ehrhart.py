"""Lattice point counting, the Ehrhart polynomial, and the h* vector.

For a lattice d-polytope the dilation counts E(n) agree with a degree-d
polynomial, and rewriting E in the binomial basis

    E(n) = sum_i hstar_i * C(n + d - i, d)

yields the h* vector.  For this polytope family h* is nonnegative, ends
in a zero, and the truncation is palindromic: the doubled polytope minus
the all-ones point is reflexive, which forces hstar_i = hstar_{d-1-i}.
The first entry past the leading 1 counts vertices: hstar_1 =
#vertices - (d + 1), at least d - 1 with equality exactly for at most two
blocks.  Block paths realize Narayana numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import AssertionFailure, BudgetExceeded, NonIntegerHStar
from .graphs import BlockDecomposition, classify, graph_to_json
from .hull import RationalPolyhedron
from .vertices import enumerate_vertices

DEFAULT_COUNT_BUDGET = 10**9


def count_lattice_points(h: RationalPolyhedron, n: int, budget: int = DEFAULT_COUNT_BUDGET) -> int:
    """Number of integer points in the n-th dilation of the polyhedron.

    The polyhedron is assumed to lie in the unit box, so candidates range
    over {0..n}^d; coordinates are fixed one at a time and a prefix is
    discarded as soon as no completion can satisfy some row.  The budget
    caps the number of explored prefixes.
    """
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    d = h.dim
    if d == 0 or n == 0:
        return 1
    rows = [(a, b * n) for a, b in h.rows]
    # tail_min[i][r]: smallest possible contribution of coordinates i.. to row r
    tail_min = [[0] * len(rows) for _ in range(d + 1)]
    for i in range(d - 1, -1, -1):
        for r, (a, _) in enumerate(rows):
            tail_min[i][r] = tail_min[i + 1][r] + min(0, a[i] * n)

    explored = 0
    state = [0] * len(rows)

    def rec(i: int) -> int:
        nonlocal explored
        if i == d:
            return 1
        base = state.copy()
        cnt = 0
        for val in range(n + 1):
            explored += 1
            if explored > budget:
                raise BudgetExceeded(f"more than {budget} prefixes explored")
            ok = True
            for r, (a, rhs) in enumerate(rows):
                s = base[r] + a[i] * val
                state[r] = s
                if s + tail_min[i + 1][r] > rhs:
                    ok = False
            if ok:
                cnt += rec(i + 1)
        for r in range(len(rows)):
            state[r] = base[r]
        return cnt

    return rec(0)


def ehrhart_polynomial(
    h: RationalPolyhedron,
    d: int,
    counts: dict[int, int] | None = None,
    budget: int = DEFAULT_COUNT_BUDGET,
) -> tuple[Fraction, ...]:
    """Coefficients (c_0 .. c_d) of the Ehrhart polynomial, ascending degree.

    Interpolates exactly through the counts at n = 0..d, computing any
    missing count directly.
    """
    counts = dict(counts or {})
    for n in range(d + 1):
        if n not in counts:
            counts[n] = count_lattice_points(h, n, budget=budget)
    xs = list(range(d + 1))
    ys = [Fraction(counts[n]) for n in xs]
    # Newton divided differences, then expansion into monomial coefficients
    table = ys[:]
    for level in range(1, d + 1):
        for i in range(d, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / Fraction(xs[i] - xs[i - level])
    coeffs = [Fraction(0)] * (d + 1)
    basis = [Fraction(1)] + [Fraction(0)] * d  # product (x - x_0)...(x - x_{k-1})
    for k in range(d + 1):
        for j in range(d + 1):
            coeffs[j] += table[k] * basis[j]
        if k < d:
            new_basis = [Fraction(0)] * (d + 1)
            for j in range(d + 1):
                if basis[j] == 0:
                    continue
                new_basis[j] -= basis[j] * xs[k]
                if j + 1 <= d:
                    new_basis[j + 1] += basis[j]
            basis = new_basis
    return tuple(coeffs)


def evaluate_polynomial(coeffs, n: int) -> Fraction:
    acc = Fraction(0)
    power = Fraction(1)
    for c in coeffs:
        acc += Fraction(c) * power
        power *= n
    return acc


def hstar_vector(ehrhart_coeffs, d: int) -> tuple[int, ...]:
    """The h* vector (length d + 1) from the Ehrhart coefficients.

    Solves E(n) = sum_i hstar_i C(n + d - i, d) by forward substitution
    at n = 0..d; raises NonIntegerHStar when an entry is not an integer.
    """
    hstar: list[int] = []
    for n in range(d + 1):
        value = evaluate_polynomial(ehrhart_coeffs, n)
        acc = Fraction(0)
        for i, hi in enumerate(hstar):
            acc += hi * comb(n + d - i, d)
        rest = value - acc
        if rest.denominator != 1:
            raise NonIntegerHStar(f"hstar_{n} = {rest} is not an integer")
        hstar.append(int(rest))
    return tuple(hstar)


def narayana_vector(n: int) -> tuple[int, ...]:
    """Narayana numbers N(n, 1) .. N(n, n)."""
    return tuple(comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1))


def _is_unimodal(seq) -> bool:
    rising = True
    for prev, cur in zip(seq, seq[1:]):
        if rising and cur < prev:
            rising = False
        elif not rising and cur > prev:
            return False
    return True


@dataclass(frozen=True)
class HStarProfile:
    ehrhart_coeffs: tuple[Fraction, ...]
    evaluations: dict[int, int]
    hstar: tuple[int, ...]


def hstar_profile(
    d: BlockDecomposition,
    h: RationalPolyhedron | None = None,
    budget: int = DEFAULT_COUNT_BUDGET,
) -> HStarProfile:
    """Counts at dilations 0..dim, Ehrhart coefficients and h*."""
    from .facets import h_representation

    if h is None:
        h = h_representation(d)
    dim = len(d.blocks)
    counts = {n: count_lattice_points(h, n, budget=budget) for n in range(dim + 1)}
    coeffs = ehrhart_polynomial(h, dim, counts=counts)
    return HStarProfile(ehrhart_coeffs=coeffs, evaluations=counts, hstar=hstar_vector(coeffs, dim))


@dataclass(frozen=True)
class HStarReport:
    clauses: dict[str, bool]
    narayana_index: int | None
    gamma1: int


def hstar_checks(
    profile: HStarProfile, d: BlockDecomposition, h: RationalPolyhedron
) -> HStarReport:
    """Assert every structural h* property; raises AssertionFailure on any failure.

    Clauses: top zero plus palindromic truncation; unimodality; row-wise
    reflexivity of the doubled polytope shifted by the all-ones point
    (each normalized row (a, b) must satisfy 2b - sum(a) = 1); the
    hstar_1 vertex-count formula with its lower bound and equality
    characterization; gamma_1 >= 0; volume consistency; and for block
    paths the Narayana match, recording which index fits.  Every clause is
    read from profile.hstar.  The vertex count comes from an enumeration of
    its own: hstar_1 = E(1) - (d + 1) holds for every lattice polytope, so a
    comparison with the profile's E(1) would check nothing.
    """
    dim = len(d.blocks)
    hs = profile.hstar
    h1 = hs[1] if dim >= 1 else 0
    gamma1 = h1 - (dim - 1)
    clauses: dict[str, bool] = {}
    clauses["top_zero"] = hs[dim] == 0
    clauses["symmetric"] = all(hs[i] == hs[dim - 1 - i] for i in range(dim))
    clauses["unimodal"] = _is_unimodal(hs)
    clauses["nonnegative"] = all(x >= 0 for x in hs)
    clauses["reflexive_rows"] = all(2 * b - sum(a) == 1 for a, b in h.rows)
    clauses["h1_formula"] = (
        h1 == len(enumerate_vertices(d)) - (dim + 1)
        and h1 >= dim - 1
        and ((h1 == dim - 1) == (dim <= 2))
    )
    clauses["gamma1_nonneg"] = gamma1 >= 0
    lead = profile.ehrhart_coeffs[dim]
    clauses["volume"] = sum(hs) == lead * factorial(dim)
    narayana_index: int | None = None
    if classify(d.graph, d).is_block_path:
        expected = {
            dim: narayana_vector(dim) + (0,),
            dim + 1: narayana_vector(dim + 1)[:dim] + (0,),
        }
        for idx in (dim, dim + 1):
            if hs == expected[idx]:
                narayana_index = idx
                break
        clauses["narayana"] = narayana_index is not None
    failed = [name for name, ok in clauses.items() if not ok]
    if failed:
        raise AssertionFailure(
            f"hstar clauses failed: {', '.join(failed)}",
            payload={
                "graph": graph_to_json(d.graph),
                "hstar": list(hs),
                "failed": failed,
            },
        )
    return HStarReport(clauses=clauses, narayana_index=narayana_index, gamma1=gamma1)
