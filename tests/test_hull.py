"""Exact hull primitives on hand-checkable polytopes."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import oracles
from cbp import hull
from cbp.corpus import corpus, triangle_chain
from cbp.errors import DimensionCap, DimensionMismatch, NotFullDimensional
from cbp.graphs import block_decomposition
from cbp.hull import _bareiss, brute_force_facets
from cbp.vertices import enumerate_vertices, to_incidence


def test_geometry_modules_load_no_fractions():
    # the geometry layers run on ints only: a fresh interpreter importing
    # all of them has no fractions module loaded
    modules = ("graphs", "vertices", "hull", "facets", "skeleton", "toric")
    code = "import sys; " + "; ".join(f"import cbp.{m}" for m in modules) + "; print('fractions' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hull.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")


def test_same_hyperplane():
    assert oracles.same_hyperplane(((1, 1), 2), ((2, 2), 4))
    assert oracles.same_hyperplane(((Fraction(1, 2), 0), 1), ((1, 0), 2))
    assert not oracles.same_hyperplane(((1, 1), 2), ((-1, -1), -2))
    assert not oracles.same_hyperplane(((1, 1), 2), ((1, 1), 3))
    assert not oracles.same_hyperplane(((1, 0), 0), ((1, 0, 0), 0))


def test_affine_rank():
    assert oracles.affine_rank([(0, 0)]) == 0
    assert oracles.affine_rank([(0, 0), (2, 0)]) == 1
    assert oracles.affine_rank([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    # the points 1/3 and 2/3, scaled by their denominator
    assert oracles.affine_rank([(1,), (2,)]) == 1
    with pytest.raises(ValueError):
        oracles.affine_rank([])
    with pytest.raises(DimensionMismatch):
        oracles.affine_rank([(0, 0), (1,)])


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

    # affine ranks of integer point sets drawn from affine subspaces of
    # every dimension, so most sets are affinely dependent
    def integer():
        return rng.randint(-12, 12)

    for _ in range(300):
        dim = rng.randint(1, 5)
        span = rng.randint(0, dim)
        base = [integer() for _ in range(dim)]
        dirs = [[integer() for _ in range(dim)] for _ in range(span)]
        points = []
        for _ in range(rng.randint(1, 7)):
            lam = [integer() for _ in dirs]
            points.append(tuple(b + sum(l * v[c] for l, v in zip(lam, dirs)) for c, b in enumerate(base)))
        assert oracles.affine_rank(points) == _sympy_affine_rank(points), points

    # facet descriptions of integer point sets in 1-4 dimensions; a set
    # pushed into a hyperplane must be refused
    flat = 0
    for _ in range(150):
        dim = rng.randint(1, 4)
        points = [tuple(integer() for _ in range(dim)) for _ in range(rng.randint(dim + 1, dim + 6))]
        if rng.random() < 0.25:
            points = [p[:-1] + (sum(p[:-1]),) for p in points]
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
    # the unit square and its center, scaled by 2
    points = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
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
    # the unit simplex scaled by a rational, then by that rational's
    # denominator: the unit simplex scaled by its numerator
    den = scale.denominator
    points = [tuple(int(scale * den * x) for x in p) for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    h = brute_force_facets(points)
    assert set(h.rows) == {((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), scale.numerator)}
    assert list(h.rows) == oracles.double_description_facets(points)
    # a . x <= b on the scaled points is (den * a) . x <= b on the rational
    # simplex, whose top row is then read off in lowest terms
    (a, b), = (row for row in h.rows if row[1])
    g = math.gcd(den, b)
    top = {Fraction(1, 3): ((3, 3, 3), 1), Fraction(5, 2): ((2, 2, 2), 5)}[scale]
    assert (tuple(den * x // g for x in a), b // g) == top


def test_brute_force_facets_duplicate_points():
    points = list(itertools.product((0, 1), repeat=3))
    doubled = points + points[::2] + [tuple([1, 0, 1])]
    h = brute_force_facets(doubled)
    assert h == brute_force_facets(points)
    assert list(h.rows) == oracles.double_description_facets(doubled)


def test_points_must_have_int_coordinates():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for bad in (Fraction(1), True):
        points = square + [(bad, 0)]
        with pytest.raises(TypeError, match="is not an int"):
            oracles.affine_rank(points)
        with pytest.raises(TypeError, match="is not an int"):
            brute_force_facets(points)


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
