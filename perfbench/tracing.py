"""Spans and counters recorded around calls into cbp, from outside the package.

`Tracer.install()` replaces every public function of every `cbp.*` module,
in every `cbp.*` namespace that holds it, by a wrapper; `uninstall()` puts
the original objects back.  Each wrapped call pushes a frame on a stack.
When it returns, its duration minus the time of the wrapped calls made
inside it is its self time, added to the bucket of its layer.  A call that
is not hot also leaves a span (id, parent id, name, start, end) in memory;
hot per-pair and per-element helpers only add to a count and a total.

Buckets are per-layer metric names such as `facets.self_s`.  A few layers
split their self time by pipeline stage (`skeleton.geometric_self_s`,
`toric.fiber_self_s`, ...); a helper without a stage of its own inherits
the stage of the innermost enclosing call of its layer.  Reported times are
divided by the traced pass's calibrated slowdown (calibrate.py), and the
calibration samples, taken from a signal handler, are passed to
`Tracer.exclude` so that no layer's self time contains them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter
from math import comb

# Per-pair and per-element entry points: aggregated instead of one span per call.
HOT = frozenset(
    {
        "skeleton.adjacent_geometric",
        "skeleton.adjacent_combinatorial",
        "vertices.is_connected_blockset",
        "vertices.to_incidence",
        "graphs.steiner_nodes",
        "graphs.blockset_closure",
        "graphs.split_components_at",
        "facets.is_independent",
        "facets.ibi_violations",
        "facets.validate_ibi",
        "hull.normalize_row",
        "hull.affine_rank",
    }
)
# Monomial arithmetic is called only from inside toric's reduction loops,
# about 5 million times per analyze pass; it is left unwrapped, so its time
# stays in the self time of the toric stage that calls it.
UNWRAPPED_PREFIX = "toric.mono_"
# Hot calls whose boolean results are counted: the skeleton's edge tests.
EDGE_TESTS = ("skeleton.adjacent_geometric", "skeleton.adjacent_combinatorial")

# Calls that open a stage of their layer; other calls of the layer inherit it.
STAGES = {
    "skeleton.adjacent_geometric": "skeleton.geometric_self_s",
    "skeleton.adjacent_combinatorial": "skeleton.combinatorial_self_s",
    "skeleton.diameter": "skeleton.diameter_self_s",
    "skeleton.hirsch_check": "skeleton.diameter_self_s",
    "skeleton.simplicity_report": "skeleton.diameter_self_s",
    "toric.make_term_order": "toric.buchberger_self_s",
    "toric.groebner_candidates": "toric.buchberger_self_s",
    "toric.buchberger_verify": "toric.buchberger_self_s",
    "toric.fiber_reduction_test": "toric.fiber_self_s",
    "toric.triangulation": "toric.triangulation_self_s",
    "toric.triangulation_checks": "toric.triangulation_self_s",
    "optimize.max_weight_connected_blockset": "optimize.dp_self_s",
    "optimize.brute_force_optimum": "optimize.brute_force_self_s",
    "optimize.tree_adapter": "optimize.adapter_self_s",
    "optimize.eulerian_adapter": "optimize.adapter_self_s",
}
DEFAULT_STAGE = {
    "skeleton": "skeleton.combinatorial_self_s",
    "toric": "toric.buchberger_self_s",
    "optimize": "optimize.dp_self_s",
}


def _skeleton_build_stage(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "combinatorial")
    return f"skeleton.{method}_self_s"


ARG_STAGES = {"skeleton.build_polytope_graph": _skeleton_build_stage}

CHECKS = (
    "blocks",
    "dimension",
    "facets",
    "ibis",
    "adjacency",
    "diameter",
    "simplicity",
    "hstar",
    "groebner",
    "triangulation",
    "optimizer",
)
REBUILT = ("skeleton.build_polytope_graph", "toric.make_term_order", "toric.groebner_candidates")


def _fiber_monomials(args, kwargs, result):
    order = args[2] if len(args) > 2 else kwargs["order"]
    maxdeg = args[3] if len(args) > 3 else kwargs.get("maxdeg", 3)
    n = order.variable_count()
    return {"toric.fiber_monomials": sum(comb(n + k - 1, k) for k in range(2, maxdeg + 1))}


def _verify_statuses(args, kwargs, result):
    st = Counter(c.status for c in result.checks)
    return {"verify.checks": st["pass"] + st["fail"], "verify.skipped": st["skip"], "verify.failed": st["fail"]}


# Work counts read from a call's arguments and result.
OBSERVE = {
    "vertices.enumerate_vertices": lambda a, k, r: {"vertices.sets": len(r)},
    "facets.h_representation": lambda a, k, r: {"facets.rows": len(r.rows)},
    "facets.facet_certificate": lambda a, k, r: {"facets.certificates": 1},
    "hull.brute_force_facets": lambda a, k, r: {"hull.points": len(a[0]), "hull.rows": len(r.rows)},
    "ehrhart.count_lattice_points": lambda a, k, r: {"ehrhart.dilations": 1, "ehrhart.lattice_points": r},
    "toric.groebner_candidates": lambda a, k, r: {"toric.binomials": len(r)},
    "toric.buchberger_verify": lambda a, k, r: {"toric.spairs": comb(len(a[0]), 2)},
    "toric.fiber_reduction_test": _fiber_monomials,
    "toric.triangulation": lambda a, k, r: {"toric.faces": len(r.maximal_faces)},
    "optimize.max_weight_connected_blockset": lambda a, k, r: {"optimize.solves": 1},
    "verify.verify_graph": _verify_statuses,
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [("corpus.self_s", "s"), ("graphs.calls", "count"), ("graphs.self_s", "s")]
    + [("vertices.calls", "count"), ("vertices.sets", "count"), ("vertices.self_s", "s")]
    + [("facets.rows", "count"), ("facets.certificates", "count"), ("facets.self_s", "s")]
    + [(f"hull.{m}", "count") for m in ("calls", "points", "rows")] + [("hull.self_s", "s")]
    + [("skeleton.pairs", "count"), ("skeleton.edges", "count"), ("skeleton.edge_ratio", "ratio")]
    + [(f"skeleton.{s}_self_s", "s") for s in ("geometric", "combinatorial", "diameter")]
    + [("ehrhart.dilations", "count"), ("ehrhart.lattice_points", "count"), ("ehrhart.self_s", "s")]
    + [(f"toric.{m}", "count") for m in ("binomials", "spairs", "fiber_monomials", "faces")]
    + [(f"toric.{s}_self_s", "s") for s in ("buchberger", "fiber", "triangulation")]
    + [("optimize.solves", "count")]
    + [(f"optimize.{s}_self_s", "s") for s in ("dp", "brute_force", "adapter")]
    + [(f"verify.{m}", "count") for m in ("checks", "skipped", "failed", "rebuilds")]
    + [("verify.self_s", "s")] + [(f"verify.{c}_s", "s") for c in CHECKS]
    + [("serialize.self_s", "s"), ("cli.self_s", "s")]
    + [("trace.overhead_s", "s"), ("trace.unattributed_s", "s"), ("trace.wall_s", "s")]
)
SELF_BUCKETS = tuple(n for n, u in PER_LAYER if n.endswith("self_s"))


def public_functions():
    """(namespace, attribute, function) for every public cbp function binding."""
    out = []
    namespaces = [m for name, m in sorted(sys.modules.items()) if name == "cbp" or name.startswith("cbp.")]
    for ns in namespaces:
        for attr, obj in sorted(vars(ns).items()):
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__.startswith("cbp.")
            ):
                out.append((ns, attr, obj))
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"


class Tracer:
    """Wraps cbp's public functions; collects spans, aggregates and counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: Counter = Counter()  # spanned calls per function
        self.hot: dict[str, dict[str, list]] = {}  # name -> stage -> [calls, s, self s, true results]
        self.self_time: Counter = Counter()  # stage -> self seconds of spanned calls
        self.counters: Counter = Counter()
        self.inclusive: Counter = Counter()  # verify.<check>_s
        # frames: [child seconds, stage, layer, id of the innermost span]
        self._stack: list[list] = [[0.0, None, None, None]]
        self._patched: list[tuple] = []

    def install(self) -> None:
        wrappers: dict[int, types.FunctionType] = {}
        for ns, attr, fn in public_functions():
            if span_name(fn).startswith(UNWRAPPED_PREFIX):
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            self._patched.append((ns, attr, fn))
            setattr(ns, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn):
        name = span_name(fn)
        layer = name.split(".", 1)[0]
        fixed_stage = STAGES.get(name)
        arg_stage = ARG_STAGES.get(name)
        default = DEFAULT_STAGE.get(layer, f"{layer}.self_s")
        stack, clock = self._stack, time.perf_counter

        if name in HOT:
            cells = self.hot.setdefault(name, {})

            def hot_wrapper(*args, **kwargs):
                parent = stack[-1]
                stage = fixed_stage or (parent[1] if parent[2] == layer else default)
                frame = [0.0, stage, layer, parent[3]]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[0] += elapsed
                    cell = cells.get(stage)
                    if cell is None:
                        cell = cells[stage] = [0, 0.0, 0.0, 0]
                    cell[0] += 1
                    cell[1] += elapsed
                    cell[2] += elapsed - frame[0]
                if result is True:
                    cell[3] += 1
                return result

            return functools.wraps(fn)(hot_wrapper)

        spans, calls, self_time = self.spans, self.calls, self.self_time
        observe = OBSERVE.get(name)
        check = f"verify.{fn.__name__[6:]}_s" if name.startswith("verify.check_") else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if arg_stage is not None:
                stage = arg_stage(args, kwargs)
            else:
                stage = fixed_stage or (parent[1] if parent[2] == layer else default)
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, stage, layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                self_time[stage] += elapsed - frame[0]
                spans[span_id] = (span_id, parent[3], name, start, end)
                calls[name] += 1
                if check is not None:
                    self.inclusive[check] += elapsed
            if observe is not None:
                self.counters.update(observe(args, kwargs, result))
            return result

        return functools.wraps(fn)(wrapper)

    def exclude(self, seconds: float) -> None:
        """Count time spent outside cbp (a calibration sample taken from a
        signal handler) as a child of the current call, not as its self time."""
        self._stack[-1][0] += seconds

    def rebuilds(self) -> int:
        """Builds of a skeleton, term order or basis repeated within one verify_graph call."""
        names = {s[0]: s[2] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        per_graph: Counter = Counter()
        for sid, _, name, _, _ in self.spans:
            if name not in REBUILT:
                continue
            p = parents[sid]
            while p is not None and names[p] != "verify.verify_graph":
                p = parents[p]
            if p is not None:
                per_graph[(p, name)] += 1
        return sum(c - 1 for c in per_graph.values())

    def metrics(self, wall_s: float, slowdown: float, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, times divided by the calibrated slowdown;
        the self-time buckets plus trace.unattributed_s sum to trace.wall_s."""
        self_time = Counter(self.self_time)
        calls = Counter({n.split(".", 1)[0]: 0 for n in self.calls})
        for name, c in self.calls.items():
            calls[name.split(".", 1)[0]] += c
        counters = Counter(self.counters)
        for name, cells in self.hot.items():
            for stage, (n, _, own, true) in cells.items():
                self_time[stage] += own
                calls[name.split(".", 1)[0]] += n
                if name in EDGE_TESTS:
                    counters["skeleton.pairs"] += n
                    counters["skeleton.edges"] += true
        out: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
        unknown = (set(self_time) | set(counters)) - set(out)
        if unknown:
            raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
        out.update(counters)
        out.update({k: v / slowdown for k, v in self_time.items()})
        out.update({k: v / slowdown for k, v in self.inclusive.items()})
        for layer in ("graphs", "vertices", "hull"):
            out[f"{layer}.calls"] = calls[layer]
        pairs = out["skeleton.pairs"]
        out["skeleton.edge_ratio"] = out["skeleton.edges"] / pairs if pairs else 0.0
        out["verify.rebuilds"] = self.rebuilds()
        out["trace.wall_s"] = wall_s / slowdown
        out["trace.overhead_s"] = overhead_s
        out["trace.unattributed_s"] = (wall_s - sum(self_time.values())) / slowdown
        return out

    def dump(self, path) -> None:
        """Write spans, then per-stage aggregates of the hot calls, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name, cells in sorted(self.hot.items()):
                for stage, (n, total, own, _) in sorted(cells.items()):
                    row = {"aggregate": name, "stage": stage, "calls": n, "total_s": total, "self_s": own}
                    fh.write(json.dumps(row) + "\n")
