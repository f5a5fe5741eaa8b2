"""Lattice point counting, the Ehrhart polynomial, and the h* vector.

For a lattice d-polytope the dilation counts E(n) agree with a degree-d
polynomial, and rewriting E in the binomial basis

    E(n) = sum_i hstar_i * C(n + d - i, d)

yields the h* vector.  Here h* is read off the counts E(0) .. E(d) with
integers only, and the Ehrhart coefficients are expanded from h*.  For
this polytope family h* is nonnegative, ends in a zero, and the
truncation is palindromic: the doubled polytope minus the all-ones point
is reflexive, which forces hstar_i = hstar_{d-1-i}.  The first entry past
the leading 1 counts vertices: hstar_1 = #vertices - (d + 1), at least
d - 1 with equality exactly for at most two blocks.  Block paths realize
Narayana numbers.

The counts fix one coordinate at a time, in the order the H-description
carries: for a graph's own H-description a depth-first preorder of the
block-cut tree (`cbp.graphs.tree_order`), else the identity.  Renaming
the coordinates maps the integer points of nP one-to-one onto those of
the renamed polytope, so every order gives the same counts; the order
only sets how many rows are open at once, and with them the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import AssertionFailure, BudgetExceeded
from .graphs import BlockDecomposition, classify, graph_to_json
from .hull import RationalPolyhedron
from .vertices import count_connected_blocksets

DEFAULT_COUNT_BUDGET = 10**9
# the largest dilation `cbp hstar --max-dilation` counts
MAX_DILATION = 32


def _key_packer(widest: int):
    """bytes when every slack offset of a level fits in a byte, else tuple."""
    return bytes if widest <= 255 else tuple


def _lattice_plan(h: RationalPolyhedron) -> list[tuple[list, list, list]] | None:
    """The dilation-independent part of count_lattice_points for h, one
    entry per coordinate i, or None when a row without support has a
    negative right-hand side, so that no dilation n >= 1 has a point.

    Entry i fixes coordinate h.order[i] (coordinate i when h.order is
    None): the columns of every row are permuted into that order first.
    Permuting the coordinates of every row and every point together keeps
    each point's membership, so the plan counts the same points in any
    order; the order sets only which rows share each level's frontier.

    An entry holds, for n = 1, the finishing members, the bounds of the
    rows that start and finish at i, and the slots after i with their tail
    widths and members.  A member is (position in the current key, or -1
    for a row that starts at i; a shift; the coefficient c at i), a bound
    is (base, c).  At dilation n every shift, base and width is n times
    the stored one, and the slots, members and key positions are the same.
    `RationalPolyhedron.lattice_plan` keeps it with the rows it was read
    from.

    Two slots of a level with the same tail width and the same members
    hold the same offset in every state, so they share one key position.
    Members name positions of the level before, so the slots are merged
    level by level from the first: a member read through a merged
    position is the same member, and duplicate members of a slot and
    duplicate finishing members are dropped.  Each tail of coefficients
    keeps its own entry in the map to key positions, so the rows of merged
    slots still move on to the slots their next coefficients pick.
    """
    d = h.dim
    rows = h.rows
    if h.order is not None:
        # level i fixes coordinate order[i]
        rows = [(tuple(a[j] for j in h.order), b) for a, b in rows]
    starting: list[list] = [[] for _ in range(d)]  # rows by their first nonzero coordinate
    for a, b in rows:
        support = [j for j, c in enumerate(a) if c]
        if support:
            starting[support[0]].append((a, b))
        elif b < 0:
            return None
    levels = []
    slots: dict[tuple, int] = {}  # coefficients from the current coordinate on -> key position
    for i in range(d):
        # The slots after i, by the coefficients after i, each with its
        # members as dict keys.  The offset of a member after i is
        # base - c * v, where base is its current offset plus the shift,
        # or the shift alone for a starting row.
        groups: dict[tuple, dict] = {}
        finishing: dict[tuple, None] = {}
        for rest, k in slots.items():
            member = (k, min(0, rest[0]), rest[0])
            if any(rest[1:]):
                groups.setdefault(rest[1:], {})[member] = None
            else:
                finishing[member] = None
        # the rows that start and finish at i bound every state's values alike
        bounds = []
        for a, b in starting[i]:
            c, rest = a[i], a[i + 1 :]
            base = b - sum(x for x in rest if x < 0)
            if any(rest):
                groups.setdefault(rest, {})[(-1, base, c)] = None
            else:
                bounds.append((base, c))
        merged: dict[tuple, int] = {}  # (width, members) -> key position after i
        plan = []
        slots = {}
        for rest, members in groups.items():
            width = sum(map(abs, rest))
            k = merged.setdefault((width, frozenset(members)), len(plan))
            if k == len(plan):
                plan.append((width, list(members)))
            slots[rest] = k
        levels.append((list(finishing), bounds, plan))
    return levels


def count_lattice_points(h: RationalPolyhedron, n: int) -> int:
    """Number of integer points in the n-th dilation of the polyhedron.

    The polyhedron is assumed to lie in the unit box, so candidates range
    over {0..n}^d.  A forward dynamic program fixes one coordinate per
    level, in the order h.order (the identity when it is None).  Any
    permutation of the coordinates gives the same count, since it maps the
    integer points of nP one-to-one onto those of the permuted polytope.
    The order only changes the frontier, and with it the states: a state
    after level i holds the slacks of the frontier rows, the rows with a
    nonzero coefficient both at or before level i and after it; rows not
    yet started or already finished are constants and stay out of the key.
    A graph's H-description counts in the block-cut tree order
    `cbp.graphs.tree_order`: every row's support is a connected blockset,
    and a depth-first order keeps few of them open at a time.  Frontier
    rows whose coefficients after level i agree evolve alike from there
    on, so only the least of their slacks matters, and they
    share one slot that holds it; slots with the same tail width that take
    their least from the same members hold the same offset, and share one
    key position.  A slack is stored as its offset above
    tail_min, the least contribution of the coordinates after i, so a row
    admits a completion exactly when the offset is nonnegative, and it is
    clamped at the width of that tail, past which the row can no longer
    bind.  Keys are packed into bytes, or into a tuple when an offset can
    pass 255.  Equal keys merge with a multiplicity, and only two levels
    are alive at a time.

    Which rows share a slot, and where each slot sits in the key, does not
    depend on n, and every shift, width and right-hand side is linear in
    n.  So that plan (`_lattice_plan`) is built once per H-description
    object, on its first count, and each count scales it by n.

    Along the values v of coordinate i the offset of a row falls with v
    when its coefficient is positive and rises when it is negative, so
    each state's feasible values form one interval, cut from above by the
    positive rows and from below by the negative ones.  DEFAULT_COUNT_BUDGET
    caps the number of (state, value) transitions of each count.
    """
    if n < 0:
        raise ValueError("dilation must be nonnegative")
    if h.dim == 0 or n == 0:
        return 1
    levels = h.lattice_plan
    if levels is None:
        return 0
    level: dict = {b"": 1}
    explored = 0
    for unit_finishing, bounds, slots in levels:
        finishing = [(k, n * shift, c) for k, shift, c in unit_finishing]
        lo0, hi0 = 0, n
        for base, c in bounds:
            if c > 0:
                hi0 = min(hi0, n * base // c)
            else:
                lo0 = max(lo0, -(n * base // -c))
        plan = [(n * width, [(k, n * shift, c) for k, shift, c in members]) for width, members in slots]
        pack = _key_packer(max((width for width, _ in plan), default=0))
        nxt: dict = {}
        get = nxt.get
        for key, mult in level.items():
            lo, hi = lo0, hi0
            for k, shift, c in finishing:
                base = key[k] + shift
                if c > 0:
                    top = base // c
                    if top < hi:
                        hi = top
                else:
                    bottom = -(base // -c)
                    if bottom > lo:
                        lo = bottom
            # per slot, the least offset of the members that stay put (at
            # most the clamp) and the members that move with v
            parts = []
            for width, members in plan:
                const, moving = width, []
                for k, shift, c in members:
                    base = key[k] + shift if k >= 0 else shift
                    if c > 0:
                        top = base // c
                        if top < hi:
                            hi = top
                        moving.append((base, c))
                    elif c < 0:
                        bottom = -(base // -c)
                        if bottom > lo:
                            lo = bottom
                        moving.append((base, c))
                    elif base < const:
                        const = base
                parts.append((const, moving))
            if lo > hi:
                continue
            explored += hi - lo + 1
            if explored > DEFAULT_COUNT_BUDGET:
                raise BudgetExceeded(f"more than {DEFAULT_COUNT_BUDGET} prefixes explored")
            if not any(movers for _, movers in parts):
                k = pack([const for const, _ in parts])
                nxt[k] = get(k, 0) + mult * (hi - lo + 1)
                continue
            for v in range(lo, hi + 1):
                offsets = []
                for x, moving in parts:
                    for base, c in moving:
                        if base - c * v < x:
                            x = base - c * v
                    offsets.append(x)
                k = pack(offsets)
                nxt[k] = get(k, 0) + mult
        level = nxt
    return sum(level.values())


def hstar_vector(counts) -> tuple[int, ...]:
    """The h* vector from the counts E(0) .. E(d), in integers only.

    Stanley's formula hstar_k = sum_{j <= k} (-1)^j C(d + 1, j) E(k - j)
    reads h* off the series sum_n E(n) t^n = h*(t) / (1 - t)^(d + 1).
    """
    d = len(counts) - 1
    return tuple(
        sum((-1) ** j * comb(d + 1, j) * counts[k - j] for j in range(k + 1)) for k in range(d + 1)
    )


def ehrhart_value(hstar, n: int) -> int:
    """E(n) = sum_i hstar_i C(n + d - i, d)."""
    d = len(hstar) - 1
    return sum(x * comb(n + d - i, d) for i, x in enumerate(hstar))


def ehrhart_coefficients(hstar) -> tuple[Fraction, ...]:
    """Coefficients (c_0 .. c_d) of the Ehrhart polynomial, ascending degree.

    Expands sum_i hstar_i C(n + d - i, d) with integer coefficients, where
    d! C(n + d - i, d) is the product of n + k over k = 1 - i .. d - i, and
    divides by d! once at the end.
    """
    d = len(hstar) - 1
    total = [0] * (d + 1)
    for i, x in enumerate(hstar):
        poly = [1]  # ascending coefficients in n
        for k in range(1 - i, d - i + 1):
            poly = [k * c + low for c, low in zip(poly + [0], [0] + poly)]
        for j, c in enumerate(poly):
            total[j] += x * c
    return tuple(Fraction(c, factorial(d)) for c in total)


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


def hstar_profile(d: BlockDecomposition, h: RationalPolyhedron) -> HStarProfile:
    """Counts at dilations 0..dim of the H-description h, h* from them, and
    the Ehrhart coefficients from h*."""
    dim = len(d.blocks)
    counts = {n: count_lattice_points(h, n) for n in range(dim + 1)}
    hstar = hstar_vector([counts[n] for n in range(dim + 1)])
    return HStarProfile(ehrhart_coeffs=ehrhart_coefficients(hstar), evaluations=counts, hstar=hstar)


@dataclass(frozen=True)
class HStarReport:
    clauses: dict[str, bool]
    narayana_index: int | None
    gamma1: int
    volume_count: int  # the lattice count at dilation d + 1, read by the volume clause


def hstar_checks(
    profile: HStarProfile, d: BlockDecomposition, h: RationalPolyhedron
) -> HStarReport:
    """Assert every structural h* property; raises AssertionFailure on any failure.

    Clauses: top zero plus palindromic truncation; unimodality; row-wise
    reflexivity of the doubled polytope shifted by the all-ones point
    (each normalized row (a, b) must satisfy 2b - sum(a) = 1); the
    hstar_1 vertex-count formula with its lower bound and equality
    characterization; gamma_1 >= 0; the polynomial of h* predicting the
    lattice count at dilation d + 1, one past the counts it was read from
    (the volume clause); and for block paths the Narayana match, recording
    which index fits.  Every clause is read from profile.hstar.  The vertex
    count comes from count_connected_blocksets, a route of its own:
    hstar_1 = E(1) - (d + 1) holds for every lattice polytope, so a
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
        h1 == count_connected_blocksets(d) - (dim + 1)
        and h1 >= dim - 1
        and ((h1 == dim - 1) == (dim <= 2))
    )
    clauses["gamma1_nonneg"] = gamma1 >= 0
    # the counts at 0..dim fix h*, so the count at dim + 1 is a fresh test of it
    volume_count = count_lattice_points(h, dim + 1)
    clauses["volume"] = volume_count == ehrhart_value(hs, dim + 1)
    narayana_index: int | None = None
    if classify(d.graph, d).is_block_path:
        # narayana_vector(dim) has dim entries, so the slice keeps it whole
        narayana_index = next((i for i in (dim, dim + 1) if hs == narayana_vector(i)[:dim] + (0,)), None)
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
    return HStarReport(
        clauses=clauses, narayana_index=narayana_index, gamma1=gamma1, volume_count=volume_count
    )
