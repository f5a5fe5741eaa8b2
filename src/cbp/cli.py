"""Command-line entry point: per-graph analyses, corpus generation, verification.

All results go to stdout as JSON with sorted keys; diagnostics go to
stderr.  Exit code 0 means success, 1 means a mathematical check failed
or a budget was exceeded, 2 means the invocation or its input was bad.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict
from fractions import Fraction

from .ehrhart import MAX_DILATION, count_lattice_points, ehrhart_value, hstar_checks
from .errors import (
    AssertionFailure,
    BudgetExceeded,
    CBPError,
    EmptyGraph,
    InvalidGraph,
    NotConnected,
    NotEulerianCactus,
    NotTree,
    ParseError,
)
from .graphs import (
    Graph,
    classify,
    graph_to_json,
    parse_edge_list,
)
from .corpus import corpus
from .facets import _check_ibi_cap
from .optimize import (
    _blockset_edges,
    eulerian_adapter,
    max_weight_connected_blockset,
    tree_adapter,
)
from .serialize import jsonable, parse_rational
from .skeleton import hirsch_check, simplicity_report
from .toric import buchberger_verify, fiber_reduction_test
from .verify import GraphContext, VerifyOptions, run_verification
from .vertices import _bits

USAGE_ERRORS = (
    ParseError,
    InvalidGraph,
    NotConnected,
    EmptyGraph,
    NotEulerianCactus,
    NotTree,
    OSError,
    ValueError,
)


# items per slice of a long int list or int-list list that _emit writes,
# and encoder chunks per batch of everything else
_SLICE = 1024
_BATCH = 4096
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _int_rows(x) -> bool | None:
    """False for a nonempty list or tuple of ints (not bools), True for one
    of lists or tuples of ints, None for anything else."""
    if type(x) not in (list, tuple) or not x:
        return None
    kinds = set(map(type, x))
    if kinds == {int}:
        return False
    if kinds <= {list, tuple} and set(map(type, itertools.chain.from_iterable(x))) <= {int}:
        return True
    return None


def _layout(items, rows: bool, item: str) -> str:
    """The indent=2 text of the items of an int list, or of an int-list
    list when rows, whose items open with `item` (a newline and the
    indent), brackets left out, in one C-level pass.

    The ints of a flat list are joined by the separator.  A list of int
    lists is one compact encoding, laid out by replacing its commas and
    brackets: it holds only digits, signs, commas and brackets, so a NUL
    and a SOH are free to mark the row separators and the empty rows while
    the rest is replaced.
    """
    if not rows:
        return ("," + item).join(map(str, items))
    text = _compact(items)[1:-1]
    row_item = item + "  "
    return (
        text.replace("],[", "]\0[")
        .replace(",", "," + row_item)
        .replace("[]", "\1")
        .replace("[", "[" + row_item)
        .replace("]", item + "]")
        .replace("\1", "[]")
        .replace("\0", "," + item)
    )


def _emit(payload: dict) -> None:
    """Print the payload, a non-empty dict with str keys as every command
    hands over, as indented JSON with sorted keys: byte for byte
    `json.dumps(payload, indent=2, sort_keys=True, default=jsonable)` and
    a newline.

    It is written key by key.  A value `_int_rows` accepts goes out by
    `_layout`, in slices of at most _SLICE items; any other value goes to
    the indenting encoder, whose text then sits one level in.  Encoded
    strings hold no raw newline, so that shift gives each newline of the
    text two more spaces.  The encoder's chunks are joined _BATCH at a
    time, so neither a long list nor a large value is ever held as one
    string.  An empty dict or a key that is not a str is refused with a
    TypeError, since the encoder writes the one as `{}` on one line and
    turns the other into a string key, and this writer does neither.
    """
    if not payload or any(type(k) is not str for k in payload):
        raise TypeError("the payload must be a non-empty dict with str keys")
    write = sys.stdout.write
    encode = json.JSONEncoder(indent=2, sort_keys=True, default=jsonable).iterencode
    opening = "{"
    for key in sorted(payload):
        value = payload[key]
        write(f"{opening}\n  {_compact(key)}: ")
        opening = ","
        rows = _int_rows(value)
        if rows is None:
            chunks = encode(value)
            for first in chunks:
                text = first + "".join(itertools.islice(chunks, _BATCH - 1))
                write(text.replace("\n", "\n  "))
            continue
        for start in range(0, len(value), _SLICE):
            write(("," if start else "[") + "\n    " + _layout(value[start : start + _SLICE], rows, "\n    "))
        write("\n  ]")
    write("\n}\n")


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _load_rationals(path: str) -> list[Fraction]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                out.append(parse_rational(body))
    return out


def _blockset_key(a) -> str:
    return ",".join(str(b) for b in a)


def cmd_blocks(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    d = ctx.decomposition
    cuts = sorted(d.cut_vertices)
    _emit(
        {
            "blocks": [
                {"vertices": sorted(b.vertices), "edges": [list(e) for e in sorted(b.edges)]}
                for b in d.blocks
            ],
            "cut_vertices": cuts,
            "tree": {
                "nodes": [["B", i] for i in range(len(d.blocks))] + [["C", v] for v in cuts],
                "edges": sorted([["B", i], ["C", v]] for v in cuts for i in d.blocks_at_vertex[v]),
            },
            "class": asdict(classify(ctx.graph, d)),
        }
    )
    return 0


def cmd_vertices(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    _emit(
        {
            "dimension": len(ctx.decomposition.blocks),
            "count": len(ctx.vertices),
            "vertices": [list(a) for a in ctx.vertices],
        }
    )
    return 0


def _row_kind(a, b) -> str:
    if b == 0 and sum(1 for c in a if c) == 1 and min(a) == -1:
        return "nonnegativity"
    return "independent-blocks"


def cmd_facets(args) -> int:
    h = GraphContext(_load_graph(args.graph)).hrep
    _emit(
        {
            "dimension": h.dim,
            "count": len(h.rows),
            "rows": [
                {"coeffs": list(a), "rhs": b, "kind": _row_kind(a, b)}
                for a, b in h.rows
            ],
        }
    )
    return 0


def cmd_edges(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    pg = ctx.geometric_skeleton if args.method == "geometric" else ctx.skeleton
    # _bits yields ascending indices, so the pairs come out sorted
    edges = [[i, j] for i, nbrs in enumerate(pg.neighbors) for j in _bits(nbrs) if i < j]
    _emit(
        {
            "method": args.method,
            "vertex_count": len(pg.vertices),
            "vertices": [list(a) for a in pg.vertices],
            "edge_count": len(edges),
            "edges": edges,
        }
    )
    return 0


def cmd_diameter(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    h = ctx.hrep  # before the skeleton: its block cap fires first
    pg = ctx.skeleton
    hirsch = hirsch_check(ctx.decomposition, pg, h)
    simplicity = simplicity_report(ctx.decomposition, pg, ctx.tight_rows)
    _emit({**asdict(hirsch), **asdict(simplicity)})
    return 0


def cmd_hstar(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    d = ctx.decomposition
    dim = len(d.blocks)
    top = args.max_dilation if args.max_dilation is not None else dim
    # checked first: building the H-description can take minutes
    if top < dim:
        raise ValueError(f"--max-dilation must be at least the dimension {dim}")
    # each extra dilation is one more lattice count, costlier than the last
    if top > max(dim, MAX_DILATION):
        raise BudgetExceeded(f"--max-dilation {top} exceeds the cap {MAX_DILATION}")
    h, profile = ctx.hrep, ctx.hstar
    report = hstar_checks(profile, d, h)
    # string keys, sorted as strings like every other key of the output
    evaluations = {str(n): count for n, count in profile.evaluations.items()}
    for n in range(dim + 1, top + 1):
        # the volume clause counted dilation d + 1 already
        measured = report.volume_count if n == dim + 1 else count_lattice_points(h, n)
        predicted = ehrhart_value(profile.hstar, n)
        if measured != predicted:
            raise AssertionFailure(
                f"lattice count at dilation {n} disagrees with the polynomial",
                payload={
                    "graph": graph_to_json(ctx.graph),
                    "dilation": n,
                    "measured": measured,
                    "predicted": str(predicted),
                },
            )
        evaluations[str(n)] = measured
    clauses = report.clauses
    _emit(
        {
            "dimension": dim,
            "evaluations": evaluations,
            "ehrhart": list(profile.ehrhart_coeffs),
            "hstar": list(profile.hstar),
            "flags": {
                "symmetric_index2": clauses["top_zero"] and clauses["symmetric"],
                "unimodal": clauses["unimodal"],
                "hstar_top_zero": clauses["top_zero"],
                "h1_formula_ok": clauses["h1_formula"],
                "gamma1": report.gamma1,
            },
            "clauses": clauses,
            "narayana_index": report.narayana_index,
        }
    )
    return 0


def cmd_groebner(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    basis, order = ctx.basis, ctx.order
    is_groebner = buchberger_verify(basis, order)
    fiber_ok = fiber_reduction_test(ctx.decomposition, basis, order)
    _emit(
        {
            "variable_count": order.variable_count(),
            "variables": [list(a) for a in order.variables],
            "binomial_count": len(basis),
            "binomials": [
                {
                    "plus": {_blockset_key(order.variables[r]): lt.count(r) for r in lt},
                    "minus": {_blockset_key(order.variables[r]): tail.count(r) for r in tail},
                }
                for lt, tail in basis
            ],
            "is_groebner": is_groebner,
            "fiber_test": fiber_ok,
        }
    )
    return 0 if (is_groebner and fiber_ok) else 1


def cmd_triangulate(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    # the H-description's block cap first; then ctx.basis checks the
    # predicted variable count, before any artifact is built
    _check_ibi_cap(len(ctx.decomposition.blocks))
    complex_ = ctx.triangulation
    _emit(
        {
            "ground": [list(a) for a in complex_.ground],
            "minimal_nonfaces": [list(p) for p in complex_.minimal_nonfaces],
            "maximal_faces": [list(f) for f in complex_.maximal_faces],
            "face_count": len(complex_.maximal_faces),
            "f_vector": list(complex_.f_vector),
            "h_vector": list(complex_.h_vector),
            "hstar": list(ctx.hstar.hstar),
        }
    )
    return 0


def cmd_optimize(args) -> int:
    ctx = GraphContext(_load_graph(args.graph))
    g = ctx.graph
    if args.weights:
        d = ctx.decomposition
        sol = max_weight_connected_blockset(d, _load_rationals(args.weights))
        edges = _blockset_edges(d, sol.blockset)
    else:
        # a connected graph is a tree exactly when |E| = |V| - 1, and no
        # tree is an Eulerian cactus, so every other graph goes to the
        # Eulerian adapter, which refuses it unless it is one
        adapter = tree_adapter if len(g.edges) == g.vertex_count - 1 else eulerian_adapter
        sol = adapter(g, _load_rationals(args.edge_weights))
        edges = sol.edges
    _emit({"value": sol.value, "blocks": list(sol.blockset), "edges": [list(e) for e in edges]})
    return 0


def cmd_corpus(args) -> int:
    entries = corpus(args.max_blocks, args.seed)
    graphs = []
    for entry in entries:
        d = GraphContext(entry.graph).decomposition
        graphs.append(
            {"name": entry.name, "blocks": len(d.blocks), **graph_to_json(entry.graph)}
        )
    _emit(
        {
            "max_blocks": args.max_blocks,
            "seed": args.seed,
            "count": len(entries),
            "graphs": graphs,
        }
    )
    return 0


def cmd_verify(args) -> int:
    report = run_verification(VerifyOptions(max_blocks=args.max_blocks, seed=args.seed))
    _emit(report.to_json())
    return 0 if report.passed() else 1


def build_parser() -> argparse.ArgumentParser:
    """The `cbp` parser; each subcommand carries its handler as `handler`."""
    parser = argparse.ArgumentParser(
        prog="cbp",
        description="Connected blocks polytope toolkit: exact facets, "
        "lattice counts, Groebner bases, and optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, graph: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if graph:
            p.add_argument("--graph", required=True, help="edge-list file, one 'u v' per line")
        return p

    command("blocks", cmd_blocks, "block decomposition, cut vertices, block-cut tree")

    command("vertices", cmd_vertices, "all connected blocksets (polytope vertices)")

    command("facets", cmd_facets, "complete irredundant facet description")

    p = command("edges", cmd_edges, "polytope graph edges")
    p.add_argument(
        "--method",
        choices=("combinatorial", "geometric"),
        default="combinatorial",
    )

    command("diameter", cmd_diameter, "diameter, Hirsch check, simplicity flags")

    p = command("hstar", cmd_hstar, "Ehrhart polynomial and h* vector with checks")
    p.add_argument(
        "--max-dilation",
        type=int,
        default=None,
        help=f"also count and cross-check dilations beyond the dimension, up to {MAX_DILATION}",
    )

    command("groebner", cmd_groebner, "toric Groebner basis with Buchberger verification")

    command("triangulate", cmd_triangulate, "unimodular triangulation from the basis")

    p = command("optimize", cmd_optimize, "max-weight connected blockset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", help="file with one rational block weight per line")
    group.add_argument(
        "--edge-weights",
        help="file with one rational edge weight per line; the graph must be "
        "a tree (max-weight subtree) or an Eulerian cactus (max-weight Eulerian subgraph)",
    )

    for name, handler, help_text in (
        ("corpus", cmd_corpus, "deterministic graph corpus"),
        ("verify", cmd_verify, "run every check over the corpus"),
    ):
        p = command(name, handler, help_text, graph=False)
        p.add_argument("--max-blocks", type=int, default=5)
        p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        if exc.payload:
            print(json.dumps(jsonable(exc.payload), indent=2, sort_keys=True), file=sys.stderr)
        return 1
    except CBPError as exc:
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
