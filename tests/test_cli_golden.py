"""CLI stdout pinned byte for byte by sha256 digest.

The digests were recorded from the per-pair combinatorial skeleton, the
dict-based diameter search and the Fraction row evaluations that the
integer mask kernels replaced, so a kernel that changes one output byte of
these commands fails here.  A path and a triangle chain of six blocks have
the same block structure and hence the same output.
"""

import hashlib
import random

import pytest

from cbp.cli import main
from cbp.corpus import flower, path_graph, random_block_tree, spider, triangle_chain

GRAPHS = {
    "path-6": lambda: path_graph(6),
    "triangle-chain-6": lambda: triangle_chain(6),
    "spider-3-2-1": lambda: spider((3, 2, 1)),
    "flower-9": lambda: flower(9),
    "random-12": lambda: random_block_tree(random.Random(7), 12),
}

COMMANDS = {
    "facets": ["facets"],
    "edges-combinatorial": ["edges", "--method", "combinatorial"],
    "edges-geometric": ["edges", "--method", "geometric"],
    "diameter": ["diameter"],
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
}


@pytest.mark.parametrize("graph, command", sorted(DIGESTS))
def test_stdout_digest(graph, command, tmp_path, capsys):
    g = GRAPHS[graph]()
    path = tmp_path / "graph.txt"
    path.write_text(f"n {g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges()))
    assert main([COMMANDS[command][0], "--graph", str(path), *COMMANDS[command][1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[graph, command]
