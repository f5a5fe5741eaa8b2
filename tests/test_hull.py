"""Exact hull primitives on hand-checkable polytopes."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

import oracles
from cbp import hull
from cbp.corpus import corpus, triangle_chain
from cbp.errors import DimensionCap, DimensionMismatch, NotFullDimensional
from cbp.graphs import block_decomposition
from cbp.hull import (
    _bareiss,
    affine_rank,
    brute_force_facets,
)
from cbp.vertices import enumerate_vertices, to_incidence


def test_same_hyperplane():
    assert oracles.same_hyperplane(((1, 1), 2), ((2, 2), 4))
    assert oracles.same_hyperplane(((Fraction(1, 2), 0), 1), ((1, 0), 2))
    assert not oracles.same_hyperplane(((1, 1), 2), ((-1, -1), -2))
    assert not oracles.same_hyperplane(((1, 1), 2), ((1, 1), 3))
    assert not oracles.same_hyperplane(((1, 0), 0), ((1, 0, 0), 0))


def test_affine_rank():
    assert affine_rank([(0, 0)]) == 0
    assert affine_rank([(0, 0), (2, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_rank([(Fraction(1, 3),), (Fraction(2, 3),)]) == 1
    with pytest.raises(ValueError):
        affine_rank([])
    with pytest.raises(DimensionMismatch):
        affine_rank([(0, 0), (1,)])


def _sympy_affine_rank(points) -> int:
    base = points[0]
    diffs = [[sympy.Rational(x - y) for x, y in zip(p, base)] for p in points[1:]]
    return sympy.Matrix(diffs).rank() if diffs else 0


def test_bareiss_matches_oracles():
    rng = random.Random(20231)
    entries = (0, 0, 0, 1, -1, 2, -2, 3)

    # determinants of square integer matrices, some made singular by a row
    # that is a multiple of another; zero entries force row swaps.  Both
    # modes give the rank and the determinant: forward elimination (no
    # width) and Gauss-Jordan (a width), which on [M | I] also leaves
    # det(M) * M^-1 in the right block
    dets = []
    for _ in range(1500):
        n = rng.randint(1, 6)
        m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            m[i] = [k * x for x in m[j]]
        expected = oracles.determinant(m)
        forward = _bareiss([row[:] for row in m])
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
        jordan = _bareiss(aug, n)
        for rank, pivot in (forward, jordan):
            assert (pivot if rank == n else 0) == expected, m
        assert forward[0] == jordan[0] == _sympy_affine_rank([(0,) * n] + [tuple(row) for row in m]), m
        if expected:
            inverse = [row[n:] for row in aug]
            product = [[sum(m[i][k] * inverse[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert product == [[expected * (i == j) for j in range(n)] for i in range(n)], m
        dets.append(expected)
    assert 0 in dets and max(abs(x) for x in dets) > 1

    # affine ranks of rational point sets drawn from affine subspaces of
    # every dimension, so most sets are affinely dependent
    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for _ in range(300):
        dim = rng.randint(1, 5)
        span = rng.randint(0, dim)
        base = [rational() for _ in range(dim)]
        dirs = [[rational() for _ in range(dim)] for _ in range(span)]
        points = []
        for _ in range(rng.randint(1, 7)):
            lam = [rational() for _ in dirs]
            points.append(tuple(b + sum(l * v[c] for l, v in zip(lam, dirs)) for c, b in enumerate(base)))
        assert affine_rank(points) == _sympy_affine_rank(points), points

    # facet descriptions of rational point sets in 1-4 dimensions; a set
    # pushed into a hyperplane must be refused
    flat = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        points = [tuple(rational() for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 6))]
        if rng.random() < 0.25:
            points = [p[:-1] + (sum(p[:-1]) / 2,) for p in points]
        if _sympy_affine_rank(points) < dim:
            flat += 1
            with pytest.raises(NotFullDimensional):
                brute_force_facets(points)
        else:
            assert list(brute_force_facets(points).rows) == oracles.double_description_facets(points), points
    assert 0 < flat < 150


def test_brute_force_facets_square():
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    h = brute_force_facets(points)
    assert h.dim == 2
    assert set(h.rows) == {
        ((-1, 0), 0),
        ((0, -1), 0),
        ((1, 0), 1),
        ((0, 1), 1),
    }


def test_brute_force_facets_ignores_interior_points():
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    assert set(brute_force_facets(points).rows) == set(
        brute_force_facets(points[:4]).rows
    )


def test_brute_force_facets_simplex():
    h = brute_force_facets([(0, 0), (1, 0), (0, 1)])
    assert set(h.rows) == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}


def test_brute_force_facets_cube():
    points = list(itertools.product((0, 1), repeat=3))
    h = brute_force_facets(points)
    assert len(h.rows) == 6
    for a, b in h.rows:
        assert sum(1 for c in a if c) == 1
        assert b in (0, 1)


def test_brute_force_facets_matches_frozenset_oracle():
    graphs = [e.graph for e in corpus(5, 7, 26)] + [triangle_chain(7)]
    for g in graphs:
        d = block_decomposition(g)
        points = [to_incidence(d, a) for a in enumerate_vertices(d)]
        assert list(brute_force_facets(points).rows) == oracles.double_description_facets(points), g


@pytest.mark.parametrize("scale", [Fraction(1, 3), Fraction(5, 2)])
def test_brute_force_facets_rational_simplex(scale):
    points = [tuple(scale * x for x in p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    h = brute_force_facets(points)
    top = {Fraction(1, 3): ((3, 3, 3), 1), Fraction(5, 2): ((2, 2, 2), 5)}[scale]
    assert set(h.rows) == {((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), top}
    assert list(h.rows) == oracles.double_description_facets(points)


def test_brute_force_facets_duplicate_points():
    points = list(itertools.product((0, 1), repeat=3))
    doubled = points + points[::2] + [(Fraction(1), Fraction(0), Fraction(1))]
    h = brute_force_facets(doubled)
    assert h == brute_force_facets(points)
    assert list(h.rows) == oracles.double_description_facets(doubled)


def test_brute_force_facets_rejects_flat_input():
    with pytest.raises(NotFullDimensional):
        brute_force_facets([(0, 0), (1, 1)])


def test_brute_force_facets_dimension_cap(monkeypatch):
    points = list(itertools.product((0, 1), repeat=3))
    monkeypatch.setattr(hull, "MAX_BRUTE_FORCE_DIM", 3)
    assert len(brute_force_facets(points).rows) == 6
    monkeypatch.setattr(hull, "MAX_BRUTE_FORCE_DIM", 2)
    with pytest.raises(DimensionCap, match="^ambient dimension 3 exceeds cap 2$"):
        brute_force_facets(points)
