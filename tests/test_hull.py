"""Exact hull primitives on hand-checkable polytopes."""

import itertools
from fractions import Fraction

import pytest

import oracles
from cbp.corpus import corpus, triangle_chain
from cbp.errors import DimensionCap, DimensionMismatch, NotFullDimensional
from cbp.graphs import block_decomposition
from cbp.hull import (
    Certificate,
    RationalPolyhedron,
    affine_rank,
    brute_force_facets,
    contains_point,
    normalize_row,
    same_hyperplane,
)
from cbp.vertices import enumerate_vertices, to_incidence


def test_normalize_row():
    assert normalize_row((2, -4), 6) == ((1, -2), 3)
    assert normalize_row((Fraction(1, 2), 0), Fraction(3, 4)) == ((2, 0), 3)
    # scaling is positive only: the orientation of the halfspace survives
    assert normalize_row((-2, 0), -4) == ((-1, 0), -2)
    with pytest.raises(ValueError):
        normalize_row((0, 0), 0)


def test_same_hyperplane():
    assert same_hyperplane(((1, 1), 2), ((2, 2), 4))
    assert not same_hyperplane(((1, 1), 2), ((-1, -1), -2))
    assert not same_hyperplane(((1, 1), 2), ((1, 1), 3))


def test_affine_rank():
    assert affine_rank([(0, 0)]) == 0
    assert affine_rank([(0, 0), (2, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_rank([(Fraction(1, 3),), (Fraction(2, 3),)]) == 1
    with pytest.raises(ValueError):
        affine_rank([])
    with pytest.raises(DimensionMismatch):
        affine_rank([(0, 0), (1,)])


def test_contains_point():
    square = RationalPolyhedron(
        dim=2,
        rows=(((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)),
    )
    assert contains_point(square, (Fraction(1, 2), 1))
    assert not contains_point(square, (Fraction(3, 2), 0))
    with pytest.raises(DimensionMismatch):
        contains_point(square, (0,))


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
    top = normalize_row((1, 1, 1), scale)
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


def test_brute_force_facets_dimension_cap():
    points = list(itertools.product((0, 1), repeat=3))
    with pytest.raises(DimensionCap):
        brute_force_facets(points, max_dim=2)


def test_certificate_confirms_facet():
    good = Certificate(tight_vertex_indices=(0, 1), affine_rank=1, slack_witness=3)
    assert good.confirms_facet(2)
    assert not good.confirms_facet(3)
    no_slack = Certificate(tight_vertex_indices=(0, 1), affine_rank=1, slack_witness=None)
    assert not no_slack.confirms_facet(2)
