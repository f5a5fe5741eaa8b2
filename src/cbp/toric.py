"""Toric ideal of the polytope: Groebner basis and unimodular triangulation.

One polynomial variable per connected blockset (the empty set included).
The term order is degree reverse lexicographic over the linear extension
of reverse inclusion that sorts blocksets by cardinality descending and
then lexicographically; larger sets get smaller variables.  The claimed
Groebner basis has one binomial per unordered incomparable pair with
connected union:

    x_A1 * x_A2  -  x_(A1 intersect A2) * x_(A1 union A2)

whose leading term is the incomparable product; every function here
carries a binomial as its (leading, trailing) pair of rank terms.  All
leading terms being squarefree quadratics, the initial complex is the
flag complex of the compatibility relation (comparable, or union
disconnected), and it is a regular unimodular triangulation of the
polytope whose h-polynomial must reproduce the h* vector.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import (
    AssertionFailure,
    BudgetExceeded,
    LeadingTermMismatch,
    NonUnimodalSimplex,
    ReductionDiverges,
)
from .graphs import BlockDecomposition, graph_to_json
from .hull import _bareiss
from .vertices import BlockSubset, _bits, _columns, _pair_masks, to_incidence

MAX_GROEBNER_VARIABLES = 60
MAX_REDUCTION_STEPS = 10**6
DEFAULT_FIBER_CAP = 200000
FIBER_MAX_DEGREE = 3

# A monomial as the ascending tuple of its variable ranks, each repeated by
# its exponent: x_0^2 * x_3 is (0, 0, 3).
Term = tuple[int, ...]


@dataclass(eq=False)
class TermOrder:
    """Variables by rank; rank 0 is the smallest variable (largest blockset)."""

    variables: tuple[BlockSubset, ...]
    rank: dict[BlockSubset, int]

    def variable_count(self) -> int:
        return len(self.variables)


def _check_variable_cap(n: int) -> None:
    if n > MAX_GROEBNER_VARIABLES:
        raise BudgetExceeded(f"{n} variables exceed the cap {MAX_GROEBNER_VARIABLES}")


def make_term_order(verts: tuple[BlockSubset, ...]) -> TermOrder:
    """Cardinality-descending, then lexicographic, over the connected blocksets."""
    ordered = sorted(verts, key=lambda a: (-len(a), a))
    return TermOrder(variables=tuple(ordered), rank={a: i for i, a in enumerate(ordered)})


def _term_key(t: Term) -> tuple[int, Term]:
    """Sort key of the term order: degree, then the rank tuple itself.

    Degree reverse lexicographic scans ranks upward from the smallest
    variable, and the monomial with the larger exponent at the first
    difference is the smaller one.  Two rank tuples of one degree first
    differ where one of them holds more copies of the smaller rank, so the
    lexicographically smaller tuple is the smaller monomial.
    """
    return len(t), t


def _leading_masks(d: BlockDecomposition, verts, cols: list[int]) -> list[int]:
    """Bit j of the i-th mask marks the blocksets i and j of the list as the
    leading term of a binomial: incomparable, with a connected union, read
    off the list's block columns `cols`.

    Incomparable sets are nonempty, so their union is connected exactly
    when their unions meet: the mask is meet & ~(sup | sub) of
    `vertices._pair_masks`, O(blocks) big-int operations per blockset.
    The empty set is comparable to every set, and its meet is empty.
    """
    return [meet & ~(sup | sub) for _, _, meet, sup, sub in _pair_masks(d, verts, cols)]


def groebner_candidates(
    d: BlockDecomposition, order: TermOrder, verts: tuple[BlockSubset, ...], cols: list[int]
) -> tuple[tuple[Term, Term], ...]:
    """One (leading, trailing) pair of rank terms per unordered incomparable
    pair with connected union, sorted by leading term, from the block
    columns `cols` of verts (GraphContext.columns).

    The leading term is the pair's product, the trailing term the product
    of its meet and join, looked up by their block masks.  Raises
    LeadingTermMismatch if some trailing term is not smaller than its
    leading term, which would contradict the order analysis.
    """
    masks = [sum(1 << b for b in a) for a in verts]
    rank = {m: order.rank[a] for m, a in zip(masks, verts)}
    out = []
    for i, lead in enumerate(_leading_masks(d, verts, cols)):
        m1 = masks[i]
        for j in _bits(lead >> (i + 1) << (i + 1)):
            m2 = masks[j]
            lt = tuple(sorted((rank[m1], rank[m2])))
            tail = tuple(sorted((rank[m1 & m2], rank[m1 | m2])))
            if _term_key(lt) <= _term_key(tail):
                raise LeadingTermMismatch(f"pair {verts[i]}, {verts[j]} does not lead with the product")
            out.append((lt, tail))
    out.sort()
    return tuple(out)


class _NormalForms(dict):
    """Normal forms of terms modulo (leading, trailing) pairs, memoized: the
    normal form of a term m is `self[m]`, computed on its first lookup.

    The basis is sorted by leading term first, so that a dropped or
    hand-built basis reduces like the one `groebner_candidates` returns.
    Each step replaces the term m by q * trailing, where leading * q = m
    and the leading term is the smallest one dividing m: the first in that
    order.  The divisor depends on m alone, so every term has one reduction
    chain, and a difference of two terms reduces to zero under this
    strategy exactly when their normal forms agree.  A leading term divides
    m exactly when it is one of the sub-tuples of m of its own degree, so
    the divisor is found by looking up those sub-tuples in an index from
    each leading term to its first position: at most 7 lookups for a term
    of degree 3.  A constant leading term, which no term order gives to a
    nonzero binomial, is never used.  A lookup raises ReductionDiverges
    when one chain takes more than MAX_REDUCTION_STEPS steps.
    """

    def __init__(self, basis):
        super().__init__()
        self.basis = sorted(basis, key=lambda p: _term_key(p[0]))
        self.first: dict[Term, int] = {}
        for pos, (lt, _) in enumerate(self.basis):
            if lt:
                self.first.setdefault(lt, pos)
        self.degrees = sorted({len(lt) for lt in self.first})

    def __missing__(self, m: Term) -> Term:
        first = self.first
        chain = []
        while m not in self:
            best = None
            for k in self.degrees:
                for sub in itertools.combinations(m, k):
                    pos = first.get(sub)
                    if pos is not None and (best is None or pos < best):
                        best = pos
            if best is None:
                self[m] = m
                break
            if len(chain) == MAX_REDUCTION_STEPS:
                raise ReductionDiverges(f"no termination after {MAX_REDUCTION_STEPS} reduction steps")
            chain.append(m)
            lt, tail = self.basis[best]
            rest = list(m)
            for r in lt:
                rest.remove(r)
            rest.extend(tail)
            rest.sort()
            m = tuple(rest)
        result = self[m]
        for seen in chain:
            self[seen] = result
        return result


def buchberger_verify(g: tuple[tuple[Term, Term], ...], order: TermOrder) -> bool:
    """True when every leading term is squarefree and every S-pair reduces to zero.

    An S-pair whose leading terms are coprime reduces to zero by
    Buchberger's product criterion, so only pairs whose leading terms share
    a variable are formed: per variable r, the pairs of basis elements whose
    leading term holds r, each pair at its smallest shared variable.  The
    two sides of every such S-pair must have the same normal form.
    """
    if any(len(set(lt)) < len(lt) for lt, _ in g):
        return False
    normal_form = _NormalForms(g)
    # per variable r: (support mask, leading term without r, tail) of each holder
    holders: list[list[tuple[int, Term, Term]]] = [[] for _ in range(order.variable_count())]
    for lt, tail in normal_form.basis:
        support = sum(1 << r for r in lt)
        for r in lt:
            holders[r].append((support, tuple(v for v in lt if v != r), tail))
    for r, members in enumerate(holders):
        bit = 1 << r
        for at, (sup1, rest1, tail1) in enumerate(members):
            for sup2, rest2, tail2 in members[at + 1 :]:
                shared = sup1 & sup2
                if shared & (bit - 1):
                    continue  # formed at a smaller shared variable
                # lcm / lt2 is the part of lt1 outside lt2, and vice versa
                out1, out2 = rest1, rest2
                if shared != bit:
                    out1 = tuple(v for v in rest1 if not shared >> v & 1)
                    out2 = tuple(v for v in rest2 if not shared >> v & 1)
                s_plus = tuple(sorted(out1 + tail2))
                s_minus = tuple(sorted(out2 + tail1))
                if normal_form[s_plus] != normal_form[s_minus]:
                    return False
    return True


def fiber_reduction_test(
    d: BlockDecomposition, g: tuple[tuple[Term, Term], ...], order: TermOrder
) -> bool:
    """Differences of equal-image monomials of degree 2 and 3
    (FIBER_MAX_DEGREE) all reduce to zero, decided from the standard
    monomials without computing a normal form.

    Two monomials have equal image when their degrees and summed indicator
    vectors agree; every such difference lies in the toric ideal, so a
    correct basis must reduce it away.  The test first refuses a malformed
    basis: a binomial whose sides differ in degree or in per-block counts,
    or whose leading term is not larger than its tail.  It then walks the
    standard monomials, those no leading term divides, and fails at the
    first image that two of them share.

    This is the normal-form comparison.  Under the two clauses every
    reduction step replaces a monomial by a strictly smaller one of the
    same image, so every monomial m has a normal form NF(m), which is
    standard and lies in the image class C of m.  If C holds at most one
    standard monomial, every NF(m) with m in C is that monomial.  Two
    distinct standard monomials s and s' of C are their own normal forms,
    so they disagree.  A basis that fails a clause is refused outright, so
    the test is never looser than the comparison of normal forms; the
    work is one step per standard monomial, as many as the image classes
    of a correct basis.

    The standard monomials of degree 2 are the pairs marked by
    `_compatibility_masks` over the quadratic leading terms, with the
    diagonal bit of each variable whose square leads no binomial, and
    without the variables that lead a binomial.  Those of degree 3 are the
    triples whose three sub-pairs are standard, less the cubic leading
    terms.  An image is keyed by a packed int, one field per block, wide
    enough to hold a count up to FIBER_MAX_DEGREE and up to the degree of
    every term of the basis, so the key of a monomial is the sum of its
    variables' packed indicator vectors and the keys are exact.  The
    count of all monomials is predicted and checked against
    DEFAULT_FIBER_CAP before any is enumerated.  The name and arguments
    stay those of the normal-form test: `perfbench/tracing.py` wraps the
    function by name and reads `order` at args[2].
    """
    nvars, maxdeg = order.variable_count(), FIBER_MAX_DEGREE
    if sum(comb(nvars + k - 1, k) for k in range(2, maxdeg + 1)) > DEFAULT_FIBER_CAP:
        raise BudgetExceeded(f"more than {DEFAULT_FIBER_CAP} fiber monomials")
    width = max([maxdeg, *(len(t) for f in g for t in f)]).bit_length()
    packed = [sum(1 << (width * b) for b in a) for a in order.variables]

    def image(t: Term) -> int:
        return sum(map(packed.__getitem__, t))

    for lt, tail in g:
        if len(lt) != len(tail) or image(lt) != image(tail) or _term_key(lt) <= _term_key(tail):
            return False
    leading = {lt for lt, _ in g}
    compat = _compatibility_masks(nvars, [lt for lt in leading if len(lt) == 2])
    dropped = sum(1 << lt[0] for lt in leading if len(lt) == 1)
    for i in range(nvars):
        if (i, i) not in leading:
            compat[i] |= 1 << i
        compat[i] = 0 if dropped >> i & 1 else compat[i] & ~dropped
    cubic = {lt for lt in leading if len(lt) == 3}

    pairs: set[int] = set()
    triples: set[int] = set()
    for i, ci in enumerate(compat):
        pi = packed[i]
        for j in _bits(ci >> i << i):
            pij = pi + packed[j]
            if pij in pairs:
                return False
            pairs.add(pij)
            for k in _bits(ci & compat[j] >> j << j):
                if cubic and (i, j, k) in cubic:
                    continue
                key = pij + packed[k]
                if key in triples:
                    return False
                triples.add(key)
    return True


@dataclass(eq=False)
class SimplicialComplex:
    """Flag complex on the connected blocksets, as non-faces plus facets."""

    ground: tuple[BlockSubset, ...]
    minimal_nonfaces: tuple[tuple[int, int], ...]
    maximal_faces: tuple[tuple[int, ...], ...]


def _compatibility_masks(m: int, nonfaces) -> list[int]:
    """Bit j of the i-th mask marks ground vertices i != j that form no nonface."""
    full = (1 << m) - 1
    compat = [full ^ (1 << i) for i in range(m)]
    for i, j in nonfaces:
        compat[i] &= ~(1 << j)
        compat[j] &= ~(1 << i)
    return compat


def triangulation(
    d: BlockDecomposition, g: tuple[tuple[Term, Term], ...], order: TermOrder
) -> SimplicialComplex:
    """The initial complex of the basis: cliques of the compatibility relation.

    Verifies flagness (every leading term is a squarefree quadratic), that
    the leading terms are exactly the incomparable pairs with connected
    union, that every maximal face has exactly dim+1 vertices, and that
    each maximal simplex is unimodular; a bad determinant raises
    NonUnimodalSimplex.  The second check is a route of its own: it reads
    the leading pairs off block columns of the ground set in term order,
    built here, not off the table the basis was built from.
    """
    ground = order.variables
    dim = len(d.blocks)

    nonfaces: set[tuple[int, int]] = set()
    for lt, tail in g:
        if len(lt) != 2 or lt[0] == lt[1]:
            raise AssertionFailure(
                "leading term is not a squarefree quadratic",
                payload={"graph": graph_to_json(d.graph), "binomial": [list(lt), list(tail)]},
            )
        nonfaces.add(lt)

    m = len(ground)
    compat = _compatibility_masks(m, nonfaces)
    # consistency: the nonface pairs must be the pairs that lead a binomial;
    # full ^ compat[i] is the nonface mask of i plus bit i, which the shift
    # drops along with the pairs below i, found at the smaller vertex already
    full = (1 << m) - 1
    for i, lead in enumerate(_leading_masks(d, ground, _columns(d, ground))):
        differ = (full ^ compat[i] ^ lead) >> (i + 1)
        if differ:
            j = i + (differ & -differ).bit_length()
            raise AssertionFailure(
                "leading terms disagree with the compatibility relation",
                payload={"graph": graph_to_json(d.graph), "pair": [list(ground[i]), list(ground[j])]},
            )

    maximal: list[tuple[int, ...]] = []

    def extend(clique: list[int], candidates: int, banned: int):
        if not candidates:
            if not banned:
                maximal.append(tuple(clique))
            return
        # branch on the pivot, the lowest candidate, and its non-neighbors
        pivot = (candidates & -candidates).bit_length() - 1
        for v in _bits(candidates & ~compat[pivot]):
            extend(clique + [v], candidates & compat[v], banned & compat[v])
            candidates ^= 1 << v
            banned |= 1 << v

    extend([], full, 0)
    maximal.sort()

    points = [to_incidence(d, a) for a in ground]
    for face in maximal:
        if len(face) != dim + 1:
            raise AssertionFailure(
                f"maximal face has {len(face)} vertices, expected {dim + 1}",
                payload={"graph": graph_to_json(d.graph), "face": [list(ground[i]) for i in face]},
            )
        base = points[face[0]]
        rows = [[x - y for x, y in zip(points[i], base)] for i in face[1:]]
        rank, pivot = _bareiss(rows)
        det = pivot if rank == dim else 0
        if det not in (1, -1):
            raise NonUnimodalSimplex(
                f"simplex {[list(ground[i]) for i in face]} has determinant {det}"
            )

    return SimplicialComplex(
        ground=ground,
        minimal_nonfaces=tuple(sorted(nonfaces)),
        maximal_faces=tuple(maximal),
    )


@dataclass(frozen=True)
class TriangulationReport:
    f_vector: tuple[int, ...]
    h_vector: tuple[int, ...]


def triangulation_checks(
    d: BlockDecomposition, c: SimplicialComplex, hstar: tuple[int, ...]
) -> TriangulationReport:
    """Assert h(triangulation) = h* and #maximal faces = sum(h*).

    The f-vector counts cliques of every size (the empty face included);
    the h-vector solves f(t) = sum_i h_i t^i (t+1)^(dim+1-i).
    """
    dim = len(d.blocks)
    compat = _compatibility_masks(len(c.ground), c.minimal_nonfaces)
    counts = [0] * (dim + 2)
    counts[0] = 1

    def count_cliques(allowed: int, size: int):
        # allowed: the vertices past the last member compatible with every member
        for v in _bits(allowed):
            counts[size + 1] += 1
            if size + 1 <= dim:
                count_cliques(allowed & (compat[v] >> (v + 1) << (v + 1)), size + 1)

    count_cliques((1 << len(c.ground)) - 1, 0)

    h: list[int] = []
    for k in range(dim + 2):
        acc = counts[k]
        for i, hi in enumerate(h):
            acc -= hi * comb(dim + 1 - i, k - i)
        h.append(acc)
    padded_hstar = tuple(hstar) + (0,) * (dim + 2 - len(hstar))
    report = TriangulationReport(f_vector=tuple(counts), h_vector=tuple(h))
    if tuple(h) != padded_hstar:
        raise AssertionFailure(
            "triangulation h-vector does not match hstar",
            payload={"graph": graph_to_json(d.graph), "h": h, "hstar": list(hstar)},
        )
    if len(c.maximal_faces) != sum(hstar):
        raise AssertionFailure(
            "maximal face count does not match the hstar sum",
            payload={
                "graph": graph_to_json(d.graph),
                "count": len(c.maximal_faces),
                "hstar_sum": sum(hstar),
            },
        )
    return report
