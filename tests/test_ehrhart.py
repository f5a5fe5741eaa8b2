"""Lattice counting and h* against box-scan and interpolation oracles."""

from fractions import Fraction

import pytest
import sympy

import oracles
from cbp.corpus import path_graph, star_graph, triangle_chain
from cbp.errors import AssertionFailure, BudgetExceeded, NonIntegerHStar
from cbp.ehrhart import (
    count_lattice_points,
    ehrhart_polynomial,
    evaluate_polynomial,
    hstar_checks,
    hstar_profile,
    hstar_vector,
    narayana_vector,
)
from cbp.facets import h_representation
from cbp.graphs import block_decomposition


def oracle_hstar(counts, dim):
    """Forward solve of the binomial-basis system, written independently."""
    n = sympy.symbols("n")
    poly = sympy.interpolate(list(enumerate(counts[: dim + 1])), n)
    out = []
    for k in range(dim + 1):
        value = sympy.Rational(poly.subs(n, k))
        acc = sum(
            out[i] * sympy.binomial(k + dim - i, dim) for i in range(len(out))
        )
        out.append(int(value - acc))
    return tuple(out)


def test_counts_match_box_scan(path3_d, star3_d, path2_d):
    for d in (path3_d, star3_d, path2_d):
        h = h_representation(d)
        for n in range(5):
            expected = oracles.count_dilation_points(h.rows, h.dim, n)
            assert count_lattice_points(h, n) == expected


def test_path3_counts_frozen(path3_d):
    h = h_representation(path3_d)
    assert [count_lattice_points(h, n) for n in range(6)] == [1, 7, 23, 54, 105, 181]


def test_cube_counts_are_powers(star3_d):
    h = h_representation(star3_d)
    assert [count_lattice_points(h, n) for n in range(5)] == [
        (n + 1) ** 3 for n in range(5)
    ]


def test_path3_ehrhart_polynomial(path3_d):
    h = h_representation(path3_d)
    coeffs = ehrhart_polynomial(h, 3)
    assert coeffs == (1, Fraction(8, 3), Fraction(5, 2), Fraction(5, 6))
    assert evaluate_polynomial(coeffs, 4) == 105
    assert evaluate_polynomial(coeffs, 5) == 181
    # independent interpolation through the same counts
    n = sympy.symbols("n")
    poly = sympy.interpolate([(k, count_lattice_points(h, k)) for k in range(4)], n)
    expected = [Fraction(*sympy.Rational(c).as_numer_denom()) for c in
                reversed(sympy.Poly(poly, n).all_coeffs())]
    assert list(coeffs) == expected


def test_hstar_vectors_frozen():
    cases = {
        2: (1, 1, 0),
        3: (1, 3, 1, 0),
        4: (1, 6, 6, 1, 0),
    }
    for k, expected in cases.items():
        d = block_decomposition(path_graph(k))
        h = h_representation(d)
        coeffs = ehrhart_polynomial(h, k)
        assert hstar_vector(coeffs, k) == expected
        counts = [count_lattice_points(h, n) for n in range(k + 1)]
        assert oracle_hstar(counts, k) == expected
        assert sum(expected) == sympy.catalan(k)


def test_hstar_depends_only_on_block_structure():
    for k in (2, 3):
        a = hstar_profile(block_decomposition(path_graph(k)))
        b = hstar_profile(block_decomposition(triangle_chain(k)))
        assert a.hstar == b.hstar
        assert a.evaluations == b.evaluations


def test_star_hstar_is_eulerian():
    # the unit d-cube's h* entries are the Eulerian numbers
    assert hstar_profile(block_decomposition(star_graph(3))).hstar == (1, 4, 1, 0)
    assert hstar_profile(block_decomposition(star_graph(4))).hstar == (1, 11, 11, 1, 0)


def test_hstar_vector_rejects_non_integer():
    with pytest.raises(NonIntegerHStar):
        hstar_vector((Fraction(1, 2),), 0)


def test_narayana_vector():
    assert narayana_vector(3) == (1, 3, 1)
    assert narayana_vector(4) == (1, 6, 6, 1)
    assert sum(narayana_vector(5)) == 42


def test_profile_flags_cube(star3_d):
    h = h_representation(star3_d)
    profile = hstar_profile(star3_d, h)
    report = hstar_checks(profile, star3_d, h)
    assert report.clauses["top_zero"]
    assert report.clauses["symmetric"]
    assert report.clauses["unimodal"]
    assert report.clauses["h1_formula"]
    assert report.gamma1 == 2
    assert profile.evaluations[3] == 64


def test_checks_pass_and_record_narayana(path3_d):
    h = h_representation(path3_d)
    profile = hstar_profile(path3_d, h)
    report = hstar_checks(profile, path3_d, h)
    assert all(report.clauses.values())
    assert "narayana" in report.clauses
    assert report.narayana_index == 3


def test_checks_skip_narayana_off_block_paths(star3_d):
    h = h_representation(star3_d)
    profile = hstar_profile(star3_d, h)
    report = hstar_checks(profile, star3_d, h)
    assert all(report.clauses.values())
    assert "narayana" not in report.clauses
    assert report.narayana_index is None


def test_checks_raise_on_tampered_profile(path3_d):
    h = h_representation(path3_d)
    profile = hstar_profile(path3_d, h)
    bad = type(profile)(
        ehrhart_coeffs=profile.ehrhart_coeffs,
        evaluations=profile.evaluations,
        hstar=(1, 3, 2, 0),
    )
    with pytest.raises(AssertionFailure):
        hstar_checks(bad, path3_d, h)


def test_checks_read_h1_from_the_checked_vector(star3_d):
    # (0, 6, 0, 0) keeps every clause but the vertex count: the cube has
    # 8 vertices, so hstar_1 must be 8 - 4 = 4
    h = h_representation(star3_d)
    profile = hstar_profile(star3_d, h)
    bad = type(profile)(
        ehrhart_coeffs=profile.ehrhart_coeffs,
        evaluations=profile.evaluations,
        hstar=(0, 6, 0, 0),
    )
    with pytest.raises(AssertionFailure) as exc:
        hstar_checks(bad, star3_d, h)
    assert exc.value.payload["failed"] == ["h1_formula"]


def test_count_budget(path3_d):
    h = h_representation(path3_d)
    with pytest.raises(BudgetExceeded):
        count_lattice_points(h, 2, budget=3)


def test_checks_over_corpus(small_corpus):
    for name, g in small_corpus:
        d = block_decomposition(g)
        h = h_representation(d)
        profile = hstar_profile(d, h)
        report = hstar_checks(profile, d, h)
        assert all(report.clauses.values()), name
