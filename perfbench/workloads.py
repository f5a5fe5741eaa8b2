"""The benchmark's workloads: seeded inputs, the calls each item makes, checks.

Every cbp function is looked up on its module at call time, so the
wrappers installed by `tracing.Tracer` see every call.

- sweep: `verify_graph` over the default 102-graph corpus of at most five
  blocks, each report serialized as `cbp verify` emits it.
- analyze: single-graph CLI commands called in-process on mid-size graphs
  (every layer that grows exponentially in the block count) and on
  vertex-rich graphs (the O(V^2) combinatorial skeleton).
- dp: maximum-weight connected blocksets on 128-block trees, several weight
  vectors per tree, plus the tree and Eulerian-cactus adapters.

The graph structures of sweep and analyze come from the package's own
generators at the reference seed, and the run seed relabels their
vertices (on analyze, those of the random tree; the named graphs are
fixed inputs).  The run seed also picks the optimizer trial weights and,
on dp, draws every input.  Fixed structures keep per-graph costs
comparable across seeds: the 5-block corpus has only 17 block-cut tree
shapes, and redrawing it per seed moves the median per-graph latency by
about 20% between seeds; 12-block random trees of similar vertex counts
differ twofold in cost.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

REFERENCE_SEED = 7  # VerifyOptions' default corpus seed


def cbp(module: str):
    return importlib.import_module(f"cbp.{module}")


def relabel(graph, rng: random.Random):
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph.sorted_edges()))
    return cbp("graphs").Graph(graph.vertex_count, edges)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def graph_key(graph) -> tuple:
    return (graph.vertex_count, graph.sorted_edges())


@dataclass
class Inputs:
    items: list
    digest: str


class Sweep:
    name = "sweep"
    whole_passes = True

    def __init__(self, tiny: bool):
        self.max_blocks, self.per_size = (3, 2) if tiny else (5, 26)

    def generate(self, seed: int, workdir: str) -> Inputs:
        rng = random.Random(seed)
        entries = [
            cbp("corpus").CorpusEntry(e.name, relabel(e.graph, rng))
            for e in cbp("corpus").corpus(self.max_blocks, REFERENCE_SEED, self.per_size)
        ]
        self.options = cbp("verify").VerifyOptions(
            max_blocks=self.max_blocks, seed=seed, random_per_size=self.per_size, workers=1
        )
        return Inputs(entries, digest([(e.name, graph_key(e.graph)) for e in entries]))

    def units(self, inputs: Inputs, trace: bool = False):
        for entry in inputs.items:
            yield entry, lambda e=entry: self.verify(e)

    def verify(self, entry):
        verify, serialize = cbp("verify"), cbp("serialize")
        report = verify.verify_graph(entry, self.options)
        payload = verify.VerificationReport(self.options, (report,)).to_json()
        return json.dumps(serialize.jsonable(payload), indent=2, sort_keys=True)

    def check(self, entry, text: str) -> str | None:
        data = json.loads(text)
        failed = [c["name"] for g in data["graphs"] for c in g["checks"] if c["status"] == "fail"]
        if failed or not data["all_passed"]:
            return f"{entry.name}: failed checks {failed}"
        return None


# Steps of one analyze item: CLI commands, plus "dd", the double description oracle.
MID = ("vertices", "facets", "dd", "edges geometric", "edges combinatorial", "diameter", "hstar")
GROEBNER = ("groebner", "triangulate")
RICH = ("vertices", "facets", "edges combinatorial", "diameter")
GROEBNER_MAX_BLOCKS = 6  # the CLI's --groebner-max-blocks default


class Analyze:
    name = "analyze"
    whole_passes = True

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def graphs(self):
        corpus = cbp("corpus")
        if self.tiny:
            tree = corpus.random_block_tree(random.Random(REFERENCE_SEED), 3)
            return [("path-3", corpus.path_graph(3), "mid"), ("random-3", tree, "rich")]
        mid = [
            ("path-6", corpus.path_graph(6)),
            ("triangle-chain-6", corpus.triangle_chain(6)),
            ("spider-3-2-1", corpus.spider((3, 2, 1))),
            ("triangle-chain-7", corpus.triangle_chain(7)),
        ]
        rich = [("flower-9", corpus.flower(9)), ("random-12", self.vertex_rich_tree())]
        return [(n, g, "mid") for n, g in mid] + [(n, g, "rich") for n, g in rich]

    @staticmethod
    def vertex_rich_tree():
        """First 12-block random tree of the reference seed with 560-640 vertices."""
        rng = random.Random(REFERENCE_SEED)
        while True:
            g = cbp("corpus").random_block_tree(rng, 12)
            blocks = oracles.find_blocks(g.vertex_count, g.sorted_edges())
            if 560 <= oracles.count_connected_blocksets(blocks) <= 640:
                return g

    def generate(self, seed: int, workdir: str) -> Inputs:
        rng = random.Random(seed)
        items = []
        for name, graph, kind in self.graphs():
            if name.startswith("random"):
                graph = relabel(graph, rng)
            path = os.path.join(workdir, f"{name}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"n {graph.vertex_count}\n")
                fh.writelines(f"{u} {v}\n" for u, v in graph.sorted_edges())
            blocks = oracles.find_blocks(graph.vertex_count, graph.sorted_edges())
            steps = RICH if kind == "rich" else MID + (GROEBNER if len(blocks) <= GROEBNER_MAX_BLOCKS else ())
            items.append((name, graph, steps, path))
        return Inputs(items, digest([(n, graph_key(g), s) for n, g, s, _ in items]))

    def units(self, inputs: Inputs, trace: bool = False):
        for item in inputs.items:
            yield item, lambda it=item: self.pipeline(*it)

    def pipeline(self, name, graph, steps, path) -> dict:
        cli = cbp("cli")
        out = {}
        for step in steps:
            if step == "dd":
                d = cbp("graphs").block_decomposition(graph)
                to_incidence = cbp("vertices").to_incidence
                points = [to_incidence(d, a) for a in cbp("vertices").enumerate_vertices(d)]
                out[step] = cbp("hull").brute_force_facets(points).rows
                continue
            command, *extra = step.split()
            argv = [command, "--graph", path] + [f"--method={m}" for m in extra]
            args = cli.build_parser().parse_args(argv)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = getattr(cli, f"cmd_{command}")(args)
            if code != 0:
                raise RuntimeError(f"cbp {' '.join(argv)} exited {code}")
            out[step] = buf.getvalue()
        return out

    def check(self, item, out: dict) -> str | None:
        name, graph, _, _ = item
        res = {k: (json.loads(v) if isinstance(v, str) else v) for k, v in out.items()}
        blocks = oracles.find_blocks(graph.vertex_count, graph.sorted_edges())
        problems = []
        verts = res["vertices"]
        if verts["count"] != len(verts["vertices"]) or verts["count"] != oracles.count_connected_blocksets(blocks):
            problems.append("vertex count")
        rows = {(tuple(r["coeffs"]), r["rhs"]) for r in res["facets"]["rows"]}
        if "dd" in res and rows != set(res["dd"]):
            problems.append("facet rows differ from the double description oracle")
        if "edges geometric" in res and res["edges geometric"]["edges"] != res["edges combinatorial"]["edges"]:
            problems.append("geometric and combinatorial edges differ")
        dia = res["diameter"]
        if not (dia["hirsch_ok"] and dia["diameter_le_dim"] and dia["facet_count_ok"]):
            problems.append("Hirsch bounds")
        if dia["is_simple"] != dia["predicted_simple"] or dia["is_simplicial"] != dia["predicted_simplicial"]:
            problems.append("simplicity prediction")
        if "hstar" in res and not all(res["hstar"]["clauses"].values()):
            problems.append("h* clauses")
        if "groebner" in res and not (res["groebner"]["is_groebner"] and res["groebner"]["fiber_test"]):
            problems.append("Groebner basis")
        if "triangulate" in res:
            tri, hstar = res["triangulate"], res["hstar"]["hstar"]
            padded = hstar + [0] * (len(tri["h_vector"]) - len(hstar))
            if tri["h_vector"] != padded or tri["face_count"] != sum(hstar):
                problems.append("triangulation h-vector or face count differs from h*")
        return f"{name}: {', '.join(problems)}" if problems else None


class DP:
    name = "dp"
    whole_passes = False
    min_items = 100
    weight_vectors = 4

    def __init__(self, tiny: bool):
        self.blocks, self.rounds, self.trace_rounds = (16, 2, 2) if tiny else (128, 40, 8)

    def generate(self, seed: int, workdir: str) -> Inputs:
        rng = random.Random(seed)
        rounds = []
        for _ in range(self.rounds):
            tree = cbp("corpus").random_block_tree(rng, self.blocks)
            weights = [[rational(rng, 12, 6) for _ in range(self.blocks)] for _ in range(self.weight_vectors)]
            plain = random_tree(rng, self.blocks)
            cactus = random_cactus(rng, self.blocks // 2)
            rounds.append(
                (
                    tree,
                    weights,
                    (plain, [rational(rng, 6, 4) for _ in plain.edges]),
                    (cactus, [rational(rng, 6, 4) for _ in cactus.edges]),
                )
            )
        keys = [(graph_key(t), w, graph_key(p), pw, graph_key(c), cw) for t, w, (p, pw), (c, cw) in rounds]
        return Inputs(rounds, digest(keys))

    def units(self, inputs: Inputs, trace: bool = False):
        optimize = cbp("optimize")
        for tree, weights, (plain, pw), (cactus, cw) in inputs.items[: self.trace_rounds if trace else None]:
            d = cbp("graphs").block_decomposition(tree)
            for w in weights:
                yield ("dp", tree, w), lambda d=d, w=w: optimize.max_weight_connected_blockset(d, w)
            yield ("tree", plain, pw), lambda: optimize.tree_adapter(plain, pw)
            yield ("eulerian", cactus, cw), lambda: optimize.eulerian_adapter(cactus, cw)

    def check(self, item, sol) -> str | None:
        kind, graph, weights = item
        blocks = oracles.find_blocks(graph.vertex_count, graph.sorted_edges())
        if kind == "dp":
            block_weights = weights
        else:
            wmap = dict(zip(graph.sorted_edges(), weights))
            block_weights = [sum((wmap[e] for e in es), Fraction(0)) for _, es in blocks]
            chosen_edges = tuple(sorted(e for b in sol.blockset for e in blocks[b][1]))
            if sol.edges != chosen_edges:
                return f"{kind}: edges are not the union of the chosen blocks"
        chosen = sol.blockset
        if list(chosen) != sorted(set(chosen)) or any(not 0 <= b < len(blocks) for b in chosen):
            return f"{kind}: malformed blockset {chosen}"
        if not oracles.is_connected_blockset(blocks, chosen):
            return f"{kind}: blockset {chosen} is not connected"
        if sum((Fraction(block_weights[b]) for b in chosen), Fraction(0)) != sol.value:
            return f"{kind}: value {sol.value} is not the weight of {chosen}"
        if sol.value != oracles.best_value(blocks, block_weights):
            return f"{kind}: value {sol.value} is not the optimum"
        return None


def rational(rng: random.Random, top: int, den: int) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, den))


def random_tree(rng: random.Random, edges: int):
    return cbp("graphs").Graph(edges + 1, tuple((rng.randrange(v), v) for v in range(1, edges + 1)))


def random_cactus(rng: random.Random, cycles: int):
    """Cycles of length 3 to 5, each glued at a uniformly chosen existing vertex."""
    edges, n = [], 1
    for _ in range(cycles):
        ring = [rng.randrange(n)] + list(range(n, n + rng.randint(2, 4)))
        n += len(ring) - 1
        edges += [tuple(sorted((ring[i], ring[i - 1]))) for i in range(len(ring))]
    return cbp("graphs").Graph(n, tuple(sorted(edges)))


WORKLOADS = {w.name: w for w in (Sweep, Analyze, DP)}
