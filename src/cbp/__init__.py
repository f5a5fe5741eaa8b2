"""Exact-arithmetic toolkit for the connected blocks polytope of a graph.

The polytope is the convex hull, in block space, of the indicator
vectors of all blocksets that induce connected subgraphs, the empty set
included.  The package enumerates its vertices and facets exactly,
analyses the polytope graph, computes Ehrhart data, verifies the toric
Groebner basis and the induced unimodular triangulation, and optimizes
linear functionals by dynamic programming on the block-cut tree.
"""

__version__ = "0.1.0"
