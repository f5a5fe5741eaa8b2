"""End-to-end CLI runs through main(argv)."""

import contextlib
import io
import json
import re
import sys
import time
import types
from fractions import Fraction
from math import comb

import pytest

import oracles
from cbp import cli, ehrhart, skeleton, verify
from cbp.cli import main
from cbp.corpus import corpus, triangle_chain
from cbp.serialize import jsonable

PATH3 = "0 1\n1 2\n2 3\n"
BOWTIE = "0 1\n0 2\n1 2\n0 3\n0 4\n3 4\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_blocks(graph_file, capsys):
    code, out, _ = run(capsys, ["blocks", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert [b["vertices"] for b in payload["blocks"]] == [[0, 1], [1, 2], [2, 3]]
    assert payload["cut_vertices"] == [1, 2]
    assert payload["class"]["is_block_path"] is True
    assert len(payload["tree"]["nodes"]) == 5
    assert len(payload["tree"]["edges"]) == 4


def test_blocks_rejects_disconnected_graph(graph_file, capsys):
    # vertex 4 is dropped as isolated; the edges 0-1 and 2-3 stay apart
    with pytest.warns(UserWarning, match="isolated"):
        code, out, err = run(capsys, ["blocks", "--graph", graph_file("n 5\n0 1\n2 3\n")])
    assert code == 2
    assert out == ""
    assert err == "error: graph must be connected\n"


def test_vertices(graph_file, capsys):
    code, out, _ = run(capsys, ["vertices", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["count"] == 7
    assert payload["vertices"][0] == []
    assert payload["vertices"][-1] == [0, 1, 2]


def test_facets(graph_file, capsys):
    code, out, _ = run(capsys, ["facets", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["count"] == 7
    kinds = [row["kind"] for row in payload["rows"]]
    assert kinds.count("nonnegativity") == 3
    assert kinds.count("independent-blocks") == 4
    assert {"coeffs": [1, -1, 1], "rhs": 1, "kind": "independent-blocks"} in payload["rows"]


def test_facets_cap(graph_file, capsys):
    path15 = "".join(f"{i} {i + 1}\n" for i in range(15))
    start = time.perf_counter()
    code, out, err = run(capsys, ["facets", "--graph", graph_file(path15)])
    assert (code, out) == (1, "")
    assert err == "failed: CountOverflow: 15 blocks exceed the enumeration cap 14\n"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "command, flag, value",
    [("facets", "--max-blocks", "30"), ("groebner", "--groebner-max-blocks", "30"), ("triangulate", "--groebner-max-blocks", "30")],
)
def test_graph_commands_refuse_the_removed_cap_flags(graph_file, command, flag, value, capsys):
    # the caps are module constants; no flag raises them
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", graph_file(PATH3), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_edges_both_methods_agree(graph_file, capsys):
    path = graph_file(PATH3)
    _, out_a, _ = run(capsys, ["edges", "--graph", path])
    _, out_b, _ = run(capsys, ["edges", "--graph", path, "--method", "geometric"])
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["method"] == "combinatorial"
    assert b["method"] == "geometric"
    assert a["edges"] == b["edges"]
    assert a["vertex_count"] == 7


def test_diameter(graph_file, capsys):
    code, out, _ = run(capsys, ["diameter", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] == 2
    assert payload["dim"] == 3
    assert payload["facet_count"] == 7
    assert payload["hirsch_ok"] is True
    assert payload["is_simple"] is False


def test_diameter_checks_vertex_cap_before_building(graph_file, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("skeleton built before the vertex cap was checked")

    monkeypatch.setattr(skeleton, "_combinatorial_neighbors", no_build)
    monkeypatch.setattr(skeleton, "MAX_DIAMETER_VERTICES", 6)
    code, _, err = run(capsys, ["diameter", "--graph", graph_file(PATH3)])
    assert code == 1
    assert "BudgetExceeded: 7 vertices exceed the diameter cap 6" in err


STAR17 = "".join(f"0 {i}\n" for i in range(1, 18))


def test_diameter_star17_fails_fast(graph_file, capsys):
    start = time.perf_counter()
    code, _, _ = run(capsys, ["diameter", "--graph", graph_file(STAR17)])
    assert code == 1
    assert time.perf_counter() - start < 10


def test_combinatorial_edges_star17_fails_fast(graph_file, capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, ["edges", "--graph", graph_file(STAR17), "--method", "combinatorial"])
    assert code == 1
    assert "BudgetExceeded: 131072 vertices exceed the diameter cap 16384" in err
    assert time.perf_counter() - start < 10


def test_combinatorial_edges_star15_fails_fast(graph_file, capsys):
    # star-14 (16,384 vertices) is the largest star under the cap
    star15 = "".join(f"0 {i}\n" for i in range(1, 16))
    start = time.perf_counter()
    code, out, err = run(capsys, ["edges", "--graph", graph_file(star15), "--method", "combinatorial"])
    assert (code, out) == (1, "")
    assert err == "failed: BudgetExceeded: 32768 vertices exceed the diameter cap 16384\n"
    assert time.perf_counter() - start < 10


def test_geometric_edges_star13_fails_before_building(graph_file, capsys, monkeypatch):
    # star-12 (4,096 vertices) is the largest star under the cap; the count
    # is predicted before the vertices or the H-description are built
    monkeypatch.setattr(verify, "enumerate_vertices", None)
    monkeypatch.setattr(verify, "enumerate_ibis", None)
    star13 = "".join(f"0 {i}\n" for i in range(1, 14))
    start = time.perf_counter()
    code, out, err = run(capsys, ["edges", "--graph", graph_file(star13), "--method", "geometric"])
    assert (code, out) == (1, "")
    assert err == "failed: BudgetExceeded: 8192 vertices exceed the geometric skeleton cap 4096\n"
    assert time.perf_counter() - start < 3


def test_combinatorial_edges_star20_fails_before_enumerating(graph_file, capsys):
    star20 = "".join(f"0 {i}\n" for i in range(1, 21))
    start = time.perf_counter()
    code, _, err = run(capsys, ["edges", "--graph", graph_file(star20), "--method", "combinatorial"])
    assert code == 1
    assert err == "failed: BudgetExceeded: 1048576 vertices exceed the diameter cap 16384\n"
    assert time.perf_counter() - start < 3


def test_vertices_star25_fails_before_enumerating(graph_file, capsys):
    star25 = "".join(f"0 {i}\n" for i in range(1, 26))
    start = time.perf_counter()
    code, _, err = run(capsys, ["vertices", "--graph", graph_file(star25)])
    assert code == 1
    assert err == "failed: CountOverflow: more than 16777216 connected blocksets\n"
    assert time.perf_counter() - start < 3


def test_hstar(graph_file, capsys):
    code, out, _ = run(
        capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "5"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hstar"] == [1, 3, 1, 0]
    assert payload["narayana_index"] == 3
    assert payload["evaluations"]["3"] == 54
    assert payload["evaluations"]["5"] == 181
    assert all(payload["clauses"].values())


def test_hstar_counts_each_dilation_once(graph_file, capsys, monkeypatch):
    seen = []
    real = ehrhart.count_lattice_points

    def spy(h, n, **kwargs):
        seen.append(n)
        return real(h, n, **kwargs)

    monkeypatch.setattr(ehrhart, "count_lattice_points", spy)
    monkeypatch.setattr(cli, "count_lattice_points", spy)
    code, _, _ = run(
        capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "6"]
    )
    assert code == 0
    assert sorted(seen) == list(range(7))


def test_hstar_lists_no_blocksets(graph_file, capsys, monkeypatch):
    # the h1 clause reads the vertex count from count_connected_blocksets
    def no_listing(d):
        raise AssertionError("blocksets listed")

    for name, module in list(sys.modules.items()):
        if name.startswith("cbp") and hasattr(module, "enumerate_vertices"):
            monkeypatch.setattr(module, "enumerate_vertices", no_listing)
    code, _, _ = run(capsys, ["hstar", "--graph", graph_file(PATH3)])
    assert code == 0


def test_hstar_dilation_mismatch_is_a_failed_check(graph_file, capsys, monkeypatch):
    real = cli.count_lattice_points
    monkeypatch.setattr(cli, "count_lattice_points", lambda h, n: real(h, n) + 1)
    code, out, err = run(capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "5"])
    assert (code, out) == (1, "")
    head, _, body = err.partition("\n")
    assert head == "check failed: lattice count at dilation 5 disagrees with the polynomial"
    payload = json.loads(body)
    assert (payload["dilation"], payload["measured"], payload["predicted"]) == (5, 182, "181")


def test_hstar_rejects_small_dilation(graph_file, capsys):
    code, _, err = run(
        capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "2"]
    )
    assert code == 2
    assert "error:" in err


def test_hstar_rejects_small_dilation_before_counting(graph_file, capsys, monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("lattice points counted before --max-dilation was checked")

    def no_hrep(*args, **kwargs):
        raise AssertionError("H-description built before --max-dilation was checked")

    monkeypatch.setattr(ehrhart, "count_lattice_points", no_count)
    monkeypatch.setattr(verify, "enumerate_ibis", no_hrep)
    monkeypatch.setattr(verify, "h_representation", no_hrep)
    code, _, err = run(
        capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "2"]
    )
    assert code == 2
    assert err == "error: --max-dilation must be at least the dimension 3\n"


def test_hstar_small_dilation_is_bad_usage_above_the_ibi_cap(graph_file, capsys):
    # path-15 passes the 14-block cap of the H-description, which is never built
    path15 = "".join(f"{i} {i + 1}\n" for i in range(15))
    start = time.perf_counter()
    code, out, err = run(capsys, ["hstar", "--graph", graph_file(path15), "--max-dilation", "2"])
    assert (code, out) == (2, "")
    assert err == "error: --max-dilation must be at least the dimension 15\n"
    assert time.perf_counter() - start < 3


def test_hstar_refuses_dilations_above_the_cap_before_building(graph_file, capsys, monkeypatch):
    def no_hrep(*args, **kwargs):
        raise AssertionError("H-description built before --max-dilation was checked")

    monkeypatch.setattr(verify, "enumerate_ibis", no_hrep)
    code, out, err = run(capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "33"])
    assert (code, out) == (1, "")
    assert err == "failed: BudgetExceeded: --max-dilation 33 exceeds the cap 32\n"


def test_hstar_admits_the_dilation_cap(graph_file, capsys):
    code, out, _ = run(capsys, ["hstar", "--graph", graph_file(PATH3), "--max-dilation", "32"])
    assert code == 0
    # path-3's Ehrhart polynomial at 32, from h* = (1, 3, 1, 0)
    assert json.loads(out)["evaluations"]["32"] == comb(35, 3) + 3 * comb(34, 3) + comb(33, 3)


def test_hstar_star14_is_the_cube(graph_file, capsys):
    # star-14 gives the 14-cube, whose h* holds the Eulerian numbers
    star = "".join(f"0 {i}\n" for i in range(1, 15))
    start = time.perf_counter()
    code, out, _ = run(capsys, ["hstar", "--graph", graph_file(star)])
    assert code == 0
    assert time.perf_counter() - start < 10
    payload = json.loads(out)
    assert payload["hstar"] == oracles.eulerian_numbers(14) + [0]
    assert payload["evaluations"]["2"] == 3**14


def test_groebner(graph_file, capsys):
    code, out, _ = run(capsys, ["groebner", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["variable_count"] == 7
    assert payload["binomial_count"] == 5
    assert payload["is_groebner"] is True
    assert payload["fiber_test"] is True
    plus_keys = {tuple(sorted(b["plus"])) for b in payload["binomials"]}
    assert ("0", "1") in plus_keys


def test_groebner_random6_within_seconds(graph_file, capsys):
    # random_block_tree(Random(7), 6): 35 variables, 291 binomials, 42,195
    # S-pairs, of which 37,095 are coprime
    edges = "0-1 0-2 0-5 0-6 0-8 0-9 0-10 1-2 2-3 2-4 3-4 3-11 3-13 6-7 7-8 9-10 11-12 12-13"
    text = "".join(e.replace("-", " ") + "\n" for e in edges.split())
    start = time.perf_counter()
    code, out, _ = run(capsys, ["groebner", "--graph", graph_file(text)])
    assert code == 0
    assert time.perf_counter() - start < 10
    payload = json.loads(out)
    assert (payload["variable_count"], payload["binomial_count"]) == (35, 291)
    assert payload["is_groebner"] is True
    assert payload["fiber_test"] is True


def test_groebner_star20_fails_before_enumerating(graph_file, capsys):
    star20 = "".join(f"0 {i}\n" for i in range(1, 21))
    start = time.perf_counter()
    code, out, err = run(capsys, ["groebner", "--graph", graph_file(star20)])
    assert (code, out) == (1, "")
    assert err == "failed: BudgetExceeded: 1048576 variables exceed the cap 60\n"
    assert time.perf_counter() - start < 3


def test_groebner_refusal(graph_file, capsys):
    # star-6 has 64 vertices, the first star above the 60-variable cap
    star6 = "".join(f"0 {i}\n" for i in range(1, 7))
    code, out, err = run(capsys, ["groebner", "--graph", graph_file(star6)])
    assert (code, out) == (1, "")
    assert err == "failed: BudgetExceeded: 64 variables exceed the cap 60\n"


def test_triangulate(graph_file, capsys):
    code, out, _ = run(capsys, ["triangulate", "--graph", graph_file(PATH3)])
    assert code == 0
    payload = json.loads(out)
    assert payload["face_count"] == 5
    assert payload["f_vector"] == [1, 7, 16, 15, 5]
    assert payload["h_vector"] == [1, 3, 1, 0, 0]
    assert payload["hstar"] == [1, 3, 1, 0]
    assert all(len(f) == 4 for f in payload["maximal_faces"])


def test_optimize_block_weights(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n-2\n1\n")
    code, out, _ = run(
        capsys,
        ["optimize", "--graph", graph_file(PATH3), "--weights", str(weights)],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"blocks": [0], "edges": [[0, 1]], "value": "1/1"}


def test_optimize_refuses_a_huge_exponent(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1e999999999\n1\n1\n")
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        ["optimize", "--graph", graph_file(PATH3), "--weights", str(weights)],
    )
    assert code == 2
    assert out == ""
    assert "bad rational '1e999999999'" in err
    assert time.perf_counter() - start < 2


def test_optimize_refuses_over_the_block_cap(graph_file, tmp_path, capsys):
    path = "".join(f"{i} {i + 1}\n" for i in range(1025))
    weights = tmp_path / "w.txt"
    weights.write_text("1\n" * 1025)
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["optimize", "--graph", graph_file(path), "--weights", str(weights)]
    )
    assert time.perf_counter() - start < 3
    assert code == 1
    assert out == ""
    assert err == "failed: BudgetExceeded: 1025 blocks exceed the optimizer cap 1024\n"


def path_text(k):
    return "".join(f"{i} {i + 1}\n" for i in range(k))


def star_text(k):
    return "".join(f"0 {i}\n" for i in range(1, k + 1))


BLOCK_CAP = "CountOverflow: 15 blocks exceed the enumeration cap 14"
OPTIMIZER_CAP = "BudgetExceeded: 1025 blocks exceed the optimizer cap 1024"
CACTUS1025 = "".join(f"{u} {v}\n" for u, v in triangle_chain(1025).sorted_edges())

# command, its flags, the graph (None for the corpus commands, which read
# none), its weight files by flag, a cap patched down (None when the input
# is a natural one just past the cap), and the refusal on stderr.  `blocks`
# hits none of the caps.  `verify` past 14 blocks would fail on the IBI
# check's block cap at every graph over it, so it refuses up front, and
# `corpus` refuses on its predicted entry count: 11,830 at 26 blocks.
REFUSALS = [
    ("vertices", [], star_text(25), {}, None, "CountOverflow: more than 16777216 connected blocksets"),
    ("facets", [], path_text(15), {}, None, BLOCK_CAP),
    (
        "edges",
        ["--method", "combinatorial"],
        star_text(15),
        {},
        None,
        "BudgetExceeded: 32768 vertices exceed the diameter cap 16384",
    ),
    (
        "edges",
        ["--method", "geometric"],
        star_text(13),
        {},
        None,
        "BudgetExceeded: 8192 vertices exceed the geometric skeleton cap 4096",
    ),
    ("edges", ["--method", "geometric"], path_text(15), {}, None, BLOCK_CAP),
    ("diameter", [], path_text(15), {}, None, BLOCK_CAP),
    # star-14, the largest skeleton within the block cap, has exactly 2^14
    # vertices, so no natural input is just past the diameter cap
    (
        "diameter",
        [],
        PATH3,
        {},
        (skeleton, "MAX_DIAMETER_VERTICES", 6),
        "BudgetExceeded: 7 vertices exceed the diameter cap 6",
    ),
    ("hstar", [], path_text(15), {}, None, BLOCK_CAP),
    ("hstar", ["--max-dilation", "33"], PATH3, {}, None, "BudgetExceeded: --max-dilation 33 exceeds the cap 32"),
    ("groebner", [], star_text(6), {}, None, "BudgetExceeded: 64 variables exceed the cap 60"),
    ("triangulate", [], path_text(15), {}, None, BLOCK_CAP),
    ("triangulate", [], path_text(14), {}, None, "BudgetExceeded: 106 variables exceed the cap 60"),
    ("optimize", [], path_text(1025), {"--weights": "1\n" * 1025}, None, OPTIMIZER_CAP),
    ("optimize", ["--mode", "tree"], path_text(1025), {"--edge-weights": "1\n" * 1025}, None, OPTIMIZER_CAP),
    ("optimize", ["--mode", "eulerian"], CACTUS1025, {"--edge-weights": "1\n" * 3075}, None, OPTIMIZER_CAP),
    ("verify", ["--max-blocks", "15"], None, {}, None, BLOCK_CAP),
    ("corpus", ["--max-blocks", "26"], None, {}, None, "BudgetExceeded: more than 10000 corpus entries"),
]


@pytest.mark.parametrize(
    "command, flags, graph, weights, patch, refusal",
    REFUSALS,
    ids=[f"{r[0]}-{r[5].split(':')[0]}-{i}" for i, r in enumerate(REFUSALS)],
)
def test_every_command_refuses_just_past_each_cap(
    graph_file, tmp_path, capsys, monkeypatch, command, flags, graph, weights, patch, refusal
):
    if patch:
        monkeypatch.setattr(*patch)
    argv = [command, *(["--graph", graph_file(graph)] if graph is not None else []), *flags]
    for flag, text in weights.items():
        path = tmp_path / "weights.txt"
        path.write_text(text)
        argv += [flag, str(path)]
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (1, "", f"failed: {refusal}\n")


def test_refusal_table_covers_every_command_with_a_cap():
    assert {r[0] for r in REFUSALS} == set(cli.COMMANDS) - {"blocks"}


def test_optimize_tree_mode(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("2\n3\n4\n")
    star = graph_file("0 1\n0 2\n0 3\n")
    code, out, _ = run(
        capsys,
        ["optimize", "--graph", star, "--edge-weights", str(weights), "--mode", "tree"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "9/1"
    assert payload["edges"] == [[0, 1], [0, 2], [0, 3]]


def test_optimize_eulerian_mode(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n1\n1\n1\n1\n1\n")
    code, out, _ = run(
        capsys,
        [
            "optimize",
            "--graph",
            graph_file(BOWTIE),
            "--edge-weights",
            str(weights),
            "--mode",
            "eulerian",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "6/1"
    assert len(payload["edges"]) == 6


def test_optimize_edge_weights_need_mode(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n1\n1\n")
    code, _, err = run(
        capsys,
        ["optimize", "--graph", graph_file(PATH3), "--edge-weights", str(weights)],
    )
    assert code == 2
    assert "requires --mode" in err


def test_optimize_block_weights_refuse_a_mode(graph_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n1\n1\n")
    code, out, err = run(
        capsys,
        ["optimize", "--graph", graph_file(PATH3), "--weights", str(weights), "--mode", "tree"],
    )
    assert (code, out) == (2, "")
    assert err == "error: --mode applies to --edge-weights only\n"


def test_optimize_weight_flags_exclusive(graph_file, tmp_path):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "optimize",
                "--graph",
                graph_file(PATH3),
                "--weights",
                str(weights),
                "--edge-weights",
                str(weights),
            ]
        )
    assert exc.value.code == 2


def test_corpus_listing(graph_file, capsys):
    code, out, _ = run(capsys, ["corpus", "--max-blocks", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 18
    names = [g["name"] for g in payload["graphs"]]
    assert "path-3" in names
    assert "flower-pendant-3" in names
    code2, out2, _ = run(capsys, ["corpus", "--max-blocks", "3"])
    assert out2 == out


def test_verify_small_corpus(capsys, monkeypatch):
    monkeypatch.setenv("CBP_THREADS", "2")
    code, out, _ = run(capsys, ["verify", "--max-blocks", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["graph_count"] == 18


@pytest.mark.parametrize("flag, value", [("--max-dilation", "3"), ("--groebner-max-blocks", "5")])
def test_verify_refuses_the_removed_gate_flags(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_verify_help_lists_only_the_corpus_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert sorted(set(re.findall(r"--[a-z-]+", out))) == ["--help", "--max-blocks", "--seed"]


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["blocks", "--graph", "/nonexistent/g.txt"])
    assert code == 2
    assert "error:" in err


def test_bad_graph_is_usage_error(graph_file, capsys):
    code, _, err = run(capsys, ["blocks", "--graph", graph_file("0 0\n")])
    assert code == 2
    assert "error:" in err


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def emitted(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


def reference_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=jsonable) + "\n"


def test_emit_matches_the_indenting_encoder_on_every_command(tmp_path, monkeypatch):
    # every payload a command hands _emit, over the corpus up to 4 blocks
    payloads = []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    for entry in corpus(4, 7, 8):
        g = entry.graph
        path = tmp_path / f"{entry.name}.txt"
        path.write_text(f"n {g.vertex_count}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges()))
        blocks = len(verify.GraphContext(g).decomposition.blocks)
        block_weights = tmp_path / f"{entry.name}-blocks.txt"
        block_weights.write_text("".join(f"{Fraction(i - 2, i + 1)}\n" for i in range(blocks)))
        weights = tmp_path / f"{entry.name}-edges.txt"
        weights.write_text("".join(f"{Fraction(i % 5 - 2, i % 3 + 1)}\n" for i in range(len(g.edges))))
        for argv in (
            ["blocks"],
            ["vertices"],
            ["facets"],
            ["edges", "--method", "combinatorial"],
            ["edges", "--method", "geometric"],
            ["diameter"],
            ["hstar", "--max-dilation", "6"],
            ["groebner"],
            ["triangulate"],
            ["optimize", "--weights", str(block_weights)],
            ["optimize", "--edge-weights", str(weights), "--mode", "tree"],
            ["optimize", "--edge-weights", str(weights), "--mode", "eulerian"],
        ):
            main(argv[:1] + ["--graph", str(path)] + argv[1:])
    main(["corpus", "--max-blocks", "4"])
    main(["verify", "--max-blocks", "2"])
    monkeypatch.undo()
    assert len(payloads) > 300
    for payload in payloads:
        assert emitted(payload) == reference_text(payload)


@pytest.mark.parametrize(
    "payload",
    [
        [1, True, 2],
        {"rows": [[0, 1], [False, 1]], "flags": [True, False]},
        [[], [1, 2], []],
        [[], []],
        {"a": [[[]], []], "b": [[[1]], [[], [2, 3]]], "c": []},
        [-7, 10**30, -(10**29), 0],
        [[-(10**30)], [10**29, -1]],
        ((1, 2), (3,), ()),
        {"t": (4, 5), "u": [(6,), [7, 8]]},
        {"s": {3, 1, 2}, "f": Fraction(-3, 4), "mixed": [Fraction(1, 2), 1, [2]]},
        {"deep": {"deeper": [{"x": [1, 2]}, [[3]]]}},
        {2: [1], 1: [[0]]},
        {"ints": [3, 1], "s": {2, 1}, "f": Fraction(1, 3), "rows": [[1], []], "": True, "t": None, "e": []},
        {"rows": [[1, 2]], "nested": {"x": [[1, 2]], "y": "a\nb", "z": [{"w": [0]}, []]}, "text": "\n"},
        {"long": list(range(3000)), "rows": [[i] for i in range(2500)], "dicts": [{"k": i} for i in range(3000)]},
        list(range(-3000, 3000)),
        [[i, -i, i * i] for i in range(2500)],
        [],
        {},
        7,
        "text",
        None,
    ],
)
def test_emit_matches_the_indenting_encoder_on_crafted_payloads(payload):
    assert emitted(payload) == reference_text(payload)


def test_emit_writes_a_large_payload_in_pieces(monkeypatch):
    # neither a long int list nor a long list of dicts goes out as one string
    payload = {"edges": [[i, i + 1] for i in range(20000)], "rows": [{"k": [i]} for i in range(20000)]}
    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    cli._emit(payload)
    text = "".join(writes)
    assert text == reference_text(payload)
    assert max(map(len, writes)) < len(text) / 8
