"""CLI stdout pinned byte for byte by sha256 digest.

The digests were recorded from the per-pair combinatorial skeleton, the
dict-based diameter search and the Fraction row evaluations that the
integer mask kernels replaced, so a kernel that changes one output byte of
these commands fails here.  The digests of `blocks`, `vertices`, `hstar`,
`groebner` and `triangulate` were recorded while each command still built
its own artifacts, before they all read them from `verify.GraphContext`.  The `hstar` digest of triangle-chain-7 was
recorded from the prefix recursion and the `Fraction` interpolation that
the level-by-level count and the integer h* replaced.  The `hstar`
digests of star-14 and of path-3 with `--max-dilation 12` were recorded
while the output still went through a deep `jsonable` copy (which turns the
integer dilation keys into strings before sorting) and while the `volume`
clause still compared sum(h*) with the leading coefficient.  A path and a
triangle chain of six blocks have the same block structure and hence the
same output (apart from `blocks`).  The refusal of `groebner` and
`triangulate` on star-6 is the variable cap's, checked on the predicted
vertex count.  The `optimize` digests were recorded while the tie-break
reconstruction still queried every block after the prefix, whatever its
rerooted value, and rebuilt the banned set for each query.  The `verify`
digest, of the five-block report with every `seconds` set to 0, was
recorded while the facet certificates still ranked the incidence rows of
each row's tight vertices and the cut-off points still summed them.  The
`triangulate` digests were recorded while the f-vector was still counted
one clique at a time, before it was derived from the descent h-vector.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest

from cbp.cli import _emit, main
from cbp.corpus import flower, path_graph, random_block_tree, spider, star_graph, triangle_chain
from cbp.graphs import Graph, block_decomposition
from cbp.verify import VerifyOptions, run_verification

GRAPHS = {
    "path-6": lambda: path_graph(6),
    "triangle-chain-6": lambda: triangle_chain(6),
    "spider-3-2-1": lambda: spider((3, 2, 1)),
    "flower-9": lambda: flower(9),
    "random-12": lambda: random_block_tree(random.Random(7), 12),
    "triangle-chain-7": lambda: triangle_chain(7),
    "star-14": lambda: star_graph(14),
    "path-3": lambda: path_graph(3),
    "star-6": lambda: star_graph(6),
    "random-128": lambda: random_block_tree(random.Random(23), 128),
    "tree-96": lambda: random_tree(random.Random(29), 96),
    "cactus-40": lambda: random_cactus(random.Random(31), 40),
}

COMMANDS = {
    "facets": ["facets"],
    "edges-combinatorial": ["edges", "--method", "combinatorial"],
    "edges-geometric": ["edges", "--method", "geometric"],
    "diameter": ["diameter"],
    "blocks": ["blocks"],
    "vertices": ["vertices"],
    "hstar": ["hstar"],
    "hstar-12": ["hstar", "--max-dilation", "12"],
    "groebner": ["groebner"],
    "triangulate": ["triangulate"],
}

DIGESTS = {
    ("path-6", "facets"): "2237379665b51632132edba0f4bb2ed7abadb49711d0c1ac9d40b757b665362f",
    ("path-6", "edges-combinatorial"): "a4a5a398a87c42354f4b091fa73d199f334e54c47f80a9fd97cc4c22d147c372",
    ("path-6", "edges-geometric"): "aa78424aa3c144f6cfa6d985fc427ec566840fed8b879f96faa262153bc499b6",
    ("path-6", "diameter"): "91bc1b04f66251b16137ebd6bf9a0ebeed370c403499fe28e29e7a82590dfb7d",
    ("triangle-chain-6", "facets"): "2237379665b51632132edba0f4bb2ed7abadb49711d0c1ac9d40b757b665362f",
    ("triangle-chain-6", "edges-combinatorial"): "a4a5a398a87c42354f4b091fa73d199f334e54c47f80a9fd97cc4c22d147c372",
    ("triangle-chain-6", "edges-geometric"): "aa78424aa3c144f6cfa6d985fc427ec566840fed8b879f96faa262153bc499b6",
    ("triangle-chain-6", "diameter"): "91bc1b04f66251b16137ebd6bf9a0ebeed370c403499fe28e29e7a82590dfb7d",
    ("spider-3-2-1", "facets"): "e03c5609f0371bacb31c1cc6037c9b1cef0c5dac51ade7ded40c978142b451b9",
    ("spider-3-2-1", "edges-combinatorial"): "399e34926c526574d19d1c73ea6ba2f08335186c2416e09260bbdfbcc0a276c7",
    ("spider-3-2-1", "edges-geometric"): "f7854ec7e44e70cc5dd02327d39c36611014d03b7e946f85f569c66a67d22752",
    ("spider-3-2-1", "diameter"): "56b7f5bd4aca6ff421e3fc0b43756c881faedbd8f231dc9ff146385d2328bc0d",
    ("flower-9", "facets"): "5859f94229c0cc699a1c1dbc1ec01249d4c78276e924fb0dd59c0ba78b933298",
    ("flower-9", "edges-combinatorial"): "3ec6db6d433d412ea6fe458d3294b6e4698e40d5355a924957bc69a0f9f06008",
    ("flower-9", "edges-geometric"): "d4348ed2884cda523ee94f8b447334999cd573a605e91fa60f864cf661ba0d5d",
    ("flower-9", "diameter"): "9aac33cdbbcec6190e24dc938de51c1db2d0ec3cae67066495e300c8f9c14546",
    ("random-12", "facets"): "0127264d0abc570de8a51c694d051e26c3d54a0a79058f3100ec0ab95814210f",
    ("random-12", "edges-combinatorial"): "bacbc4d194f4c772e4bf327679a3b09f964f711aa3aa21ea29b89ba263ab4e27",
    ("random-12", "edges-geometric"): "12d52b48bf7f3946d4fc695ccee6bcdabdfdbf1cf011ad9c4f7f6f25ddfe563c",
    ("random-12", "diameter"): "caca779cb02fe995178c6a103f5d5d268e32607149ad4c8af1080e8afce0d5a1",
    ("path-6", "blocks"): "e8890ecc3ab89c5fde22a1c9ed470473ac469ff73c56a49405074b04df10e8b1",
    ("path-6", "vertices"): "353847b3b8f2471340a790e541a4b75e2669ab0ecd6d31688de1346e9148efa8",
    ("triangle-chain-6", "blocks"): "c297f0d8baa95d5b72991f5407a1783d0cb971cd1ac8e92000da5fdc9f5c738d",
    ("triangle-chain-6", "vertices"): "353847b3b8f2471340a790e541a4b75e2669ab0ecd6d31688de1346e9148efa8",
    ("spider-3-2-1", "blocks"): "796c989614e559febca0b01f665308bb4053ec29a6aabe963a70447d6c37c871",
    ("spider-3-2-1", "vertices"): "b03b2f7ae577d61c5349af168387c942a3c832ba542a1fc33ee70ad9ab720caa",
    ("flower-9", "blocks"): "0171bfac1965a111492e82c695a6d6e43a85e2c993c4c25ed005ad622d422299",
    ("flower-9", "vertices"): "5ff0855e799a95fb1fe3efef1e05bbf53b2e093f6646863c558b754db0001c49",
    ("random-12", "blocks"): "8d5517cc68f506eee3611bcdc4e821f03c01f4b95028c94035f09d168ae8a099",
    ("random-12", "vertices"): "171d231deaf1305a744af2dcc6643bcf9ff9281a8fbc2f3edb26e297f83cfc33",
    ("path-6", "hstar"): "ae3c11d8e447b8b942a0d4f1961369bcbf1995792de491984fa97790ec272c2d",
    ("path-6", "groebner"): "ae46cdb08b6102d2f572268f0d0234c1f97386324a11dc771b55dd1d494f7a50",
    ("path-6", "triangulate"): "7035e4f85164d6389c34e5b18aee8517e4f7b811be043144042516cf0593796a",
    ("spider-3-2-1", "hstar"): "3be38a705dda207b0f3eccd6e47c5ff608e337560d6453aeec48090f4a36be6c",
    ("spider-3-2-1", "triangulate"): "569bc9ddcd45cfd740b82c3996954b9ffd4fe1f1c737eb649a5bf50e0a65afa4",
    ("triangle-chain-7", "hstar"): "161caeb9b72dde8d95c7dae9a950c0844844c806faaf7deecfa9491473f5f280",
    ("star-14", "hstar"): "82427917205bd299ea9379c7352e0849ccff5a41c742077d0a1c9336e884eb04",
    ("path-3", "hstar-12"): "9307e5ce7468c99b0518ee0ff36c94ad6399ef7ce239f482db9769d443822e78",
}


VERIFY_DIGEST = "dbf70e58fd7b080a892ecf70d6330437d2a45968ba364448dc7bad8412f39405"


def random_tree(rng, n):
    """A tree on n + 1 vertices: vertex i hangs from a uniform earlier one."""
    return Graph(n + 1, tuple((rng.randrange(i), i) for i in range(1, n + 1)))


def random_cactus(rng, k):
    """k triangles and four-cycles, each at a uniformly chosen existing vertex."""
    edges, vertex_count = [], 1
    for _ in range(k):
        cycle = [rng.randrange(vertex_count)] + list(range(vertex_count, vertex_count + rng.choice((2, 3))))
        vertex_count = cycle[-1] + 1
        edges += zip(cycle, cycle[1:] + cycle[:1])
    return Graph(vertex_count, tuple(edges))


WEIGHTS = {
    "signed": lambda rng: Fraction(rng.randint(-12, 12), rng.randint(1, 6)),
    "ties": lambda rng: rng.randint(-1, 1),
}

# graph, the adapter its class picks (None for block weights), weight kind
OPTIMIZE_DIGESTS = {
    ("random-12", None, "signed"): "2bc9a3482ce50be82bdeec09681facd6f068295604b31a56878d33fca9fcefed",
    ("random-12", None, "ties"): "bce058c917d2a04593a18c4adfa2958a28b6f3b7e7c5be8e24c7a7517945d902",
    ("random-128", None, "signed"): "c13fab9ac0dfa57023a42d7df47d06474785e44e69af7a22e8d06364fa4f80d7",
    ("random-128", None, "ties"): "1eefac9df39cf20e98fea2f50529ad5fccedb257e120ae9d1a3835451f5253b1",
    ("tree-96", "tree", "signed"): "8c0a0b41a0c54fbdbfe3e39a76678df94be402a877a85106db76e20be5979e44",
    ("tree-96", "tree", "ties"): "0340913cc1cd95b979c7de8dbad1c2323113003d9729900d37e6afa40caccc60",
    ("cactus-40", "eulerian", "signed"): "d3c540df96b11c4746c699d4ead5dcbc97d39cd5abb0c31475ae237fc0468752",
    ("cactus-40", "eulerian", "ties"): "0fc6406bc1498a7911af85c29f3eb285fb5bab22af8915b6405df2d19bad419a",
}


def write_graph(name, tmp_path) -> str:
    g = GRAPHS[name]()
    path = tmp_path / "graph.txt"
    path.write_text(f"n {g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges()))
    return str(path)


@pytest.mark.parametrize("graph, command", sorted(DIGESTS))
def test_stdout_digest(graph, command, tmp_path, capsys):
    path = write_graph(graph, tmp_path)
    assert main([COMMANDS[command][0], "--graph", path, *COMMANDS[command][1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[graph, command]


@pytest.mark.parametrize("graph, adapter, kind", sorted(OPTIMIZE_DIGESTS, key=str))
def test_optimize_stdout_digest(graph, adapter, kind, tmp_path, capsys):
    path = write_graph(graph, tmp_path)
    g = GRAPHS[graph]()
    count = len(g.edges) if adapter else len(block_decomposition(g).blocks)
    rng = random.Random(f"{graph}:{kind}")
    weights = tmp_path / "weights.txt"
    weights.write_text("".join(f"{WEIGHTS[kind](rng)}\n" for _ in range(count)))
    flags = ["--edge-weights", str(weights)] if adapter else ["--weights", str(weights)]
    assert main(["optimize", "--graph", path, *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OPTIMIZE_DIGESTS[graph, adapter, kind]


@pytest.mark.parametrize("command", ["groebner", "triangulate"])
def test_groebner_refusal_output(command, tmp_path, capsys):
    # star-6 has 64 vertices, over the 60-variable cap
    assert main([command, "--graph", write_graph("star-6", tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failed: BudgetExceeded: 64 variables exceed the cap 60\n"


def test_verify_report_digest():
    # the report `cbp verify --max-blocks 5` emits, timings zeroed
    payload = run_verification(VerifyOptions(max_blocks=5, workers=1)).to_json()
    for graph in payload["graphs"]:
        for check in graph["checks"]:
            check["seconds"] = 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_DIGEST
