import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from stardecomp.cli import main
from stardecomp.embedding import EmbeddingCertificate
from stardecomp.graphs import (
    complete_graph,
    graph_from_edges,
    graph_to_json_dict,
    join,
    read_graph,
    write_graph,
)
from stardecomp.solver import (
    StarDecomposition,
    _on_rows,
    two_star_decompose,
    validate_decomposition,
)


GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


def test_decompose_complete_k6(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--complete", "6", "--k", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["exists"] is True
    dec = StarDecomposition.from_json_dict(data["decomposition"])
    assert len(dec.stars) == 5
    assert validate_decomposition(complete_graph(6), dec) is None


def test_decompose_complete_writes_dot(tmp_path):
    out = tmp_path / "dec.json"
    dot = tmp_path / "dec.dot"
    assert run(["decompose", "--complete", "6", "--k", "3", "--out", str(out), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph stars {")
    assert text.count(" -- ") == 15
    assert "gray" not in text


def test_decompose_complete_none_exists(tmp_path):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--complete", "5", "--k", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"exists": False, "n": 5, "k": 3}


def test_decompose_complete_accepts_k0(tmp_path, capsys):
    out = tmp_path / "dec.json"
    assert run(["decompose", "--complete", "0", "--k", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "exists": True, "n": 0, "k": 3, "decomposition": {"k": 3, "stars": []}
    }
    assert run(["decompose", "--complete", "-1", "--k", "3"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_decompose_graph_two_star(tmp_path):
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4)])
    gpath = tmp_path / "g.json"
    write_graph(g, gpath)
    out = tmp_path / "out.json"
    assert run(["decompose", "--graph", str(gpath), "--k", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["exists"] is True


def test_decompose_graph_two_star_parity_witness(tmp_path):
    g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    out = tmp_path / "out.json"
    assert run(["decompose", "--graph", str(gpath), "--k", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data == {"exists": False, "odd_components": [[0, 1, 2]]}


def test_decompose_two_star_odd_components_on_many_components(tmp_path):
    # 900 components (triangles, 2-edge paths, single edges, lone vertices)
    # under a shuffled labeling, so components interleave
    rng = random.Random(3)
    shapes = [[(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2)], [(0, 1)], []]
    edges, n = [], 0
    for i in range(900):
        shape = shapes[i % 4]
        edges += [(n + u, n + v) for u, v in shape]
        n += 1 + max((v for _, v in shape), default=0)
    label = list(range(n))
    rng.shuffle(label)
    g = graph_from_edges(n, [(label[u], label[v]) for u, v in edges])
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    out = tmp_path / "out.json"
    assert run(["decompose", "--graph", str(gpath), "--k", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    odd = []
    for comp in g.components():
        index = {x: i for i, x in enumerate(comp)}
        own = graph_from_edges(
            len(comp), [(index[x], index[y]) for x, y in g.edges if x in index]
        )
        if two_star_decompose(own) is None:
            odd.append(comp)
    assert len(odd) == 450
    assert data == {"exists": False, "odd_components": odd}


def test_decompose_with_gamma_and_dot(tmp_path):
    gpath = tmp_path / "g.json"
    write_graph(complete_graph(6), gpath)
    gamma = tmp_path / "gamma.json"
    gamma.write_text("[1, 1, 1, 1, 1, 0]\n")
    out = tmp_path / "out.json"
    dot = tmp_path / "out.dot"
    code = run(
        [
            "decompose",
            "--graph", str(gpath),
            "--k", "3",
            "--gamma", str(gamma),
            "--out", str(out),
            "--dot", str(dot),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["exists"] is True
    assert dot.read_text().startswith("graph stars {")


def test_decompose_gamma_witness(tmp_path):
    gpath = tmp_path / "g.json"
    write_graph(graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), gpath)
    gamma = tmp_path / "gamma.json"
    gamma.write_text("[1, 1, 1, 0, 0, 0]\n")
    out = tmp_path / "out.json"
    assert run(["decompose", "--graph", str(gpath), "--k", "2", "--gamma", str(gamma), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["exists"] is False
    assert data["witness"]["delta"] < 0


def test_decompose_search_budget_exit_code(tmp_path):
    # an infeasible join with 2 candidate vectors of twin-class totals: budget 1 trips
    gpath = tmp_path / "g.json"
    write_graph(join(graph_from_edges(8, [(0, 1)]), 2), gpath)
    out = tmp_path / "out.json"
    code = run(["decompose", "--graph", str(gpath), "--k", "3", "--budget", "1", "--out", str(out)])
    assert code == 2
    code = run(["decompose", "--graph", str(gpath), "--k", "3", "--budget", "50", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["exists"] is False


def test_decompose_many_disjoint_claws(tmp_path):
    # 2400 vertices: the gamma enumeration must not recurse once per vertex
    g = graph_from_edges(2400, [(4 * i, 4 * i + j) for i in range(600) for j in (1, 2, 3)])
    gpath = tmp_path / "claws.txt"
    write_graph(g, gpath)
    out = tmp_path / "out.json"
    assert run(["decompose", "--graph", str(gpath), "--k", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["exists"] is True
    assert validate_decomposition(g, StarDecomposition.from_json_dict(data["decomposition"])) is None


def test_decompose_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert run(["decompose", "--graph", str(bad), "--k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


K6_FILES = {
    "g.json": json.dumps(graph_to_json_dict(complete_graph(6))),
    "gamma.json": "[1, 1, 1, 1, 1, 0]",
}


@pytest.mark.parametrize(
    "files, args",
    [
        ({"g.json": '{"edges": [[0, 1]]}'}, ["decompose", "--graph", "g.json", "--k", "3"]),
        ({"g.json": '{"n": 3, "edges": [[0, 1.5]]}'}, ["embed", "--leave", "g.json", "--k", "3"]),
        ({}, ["decompose", "--k", "3"]),
        ({}, ["decompose", "--complete", "6", "--graph", "g.json", "--k", "3"]),
        (
            {"g.json": '{"n": 3, "edges": [[0, 1], [1, 2]]}', "gamma.json": "[1.5, 0, 0]"},
            ["decompose", "--graph", "g.json", "--k", "2", "--gamma", "gamma.json"],
        ),
        # flags the chosen mode would ignore, and counts below their least value
        ({}, ["decompose", "--complete", "6", "--k", "3", "--gamma", "does-not-exist.json"]),
        ({}, ["decompose", "--complete", "6", "--k", "3", "--budget", "5"]),
        (K6_FILES, ["decompose", "--graph", "g.json", "--k", "3", "--gamma", "gamma.json", "--budget", "5"]),
        (K6_FILES, ["decompose", "--graph", "g.json", "--k", "2", "--budget", "5"]),
        (K6_FILES, ["embed", "--leave", "g.json", "--k", "3", "--max-s", "-1"]),
        ({}, ["family", "--id", "single-edge", "--k", "3", "--n", "8", "--flow-limit", "10"]),
        (K6_FILES, ["embed", "--leave", "g.json", "--k", "3", "--budget", "-5"]),
        (K6_FILES, ["decompose", "--graph", "g.json", "--k", "3", "--budget", "-1"]),
        ({}, ["family", "--id", "even-bound", "--t", "3", "--verify", "--flow-limit", "-1"]),
        ({}, ["sweep", "--k", "3", "--n", "4:5", "--budget", "-1"]),
        ({}, ["sweep", "--k", "3", "--n", "4:5", "--jobs", "0"]),
        ({}, ["sweep", "--k", "3", "--n", "4:5", "--jobs", "-2"]),
        ({}, ["sweep", "--k", "3", "--n", "4:5", "--jobs", "two"]),
    ],
)
def test_malformed_input_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys, files, args):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(8, [(0, 1)]), gpath)
    monkeypatch.setattr("stardecomp.embedding.validate_decomposition", lambda g, d: "forced")
    assert run(["embed", "--leave", str(gpath), "--k", "3"]) == 3
    assert capsys.readouterr().err == "internal error: embedding failed validation: forced\n"

    def refuse(n, k):
        raise RuntimeError("balanced centers refused")

    monkeypatch.setattr("stardecomp.cli.decompose_complete", refuse)
    assert run(["decompose", "--complete", "6", "--k", "3"]) == 3
    assert capsys.readouterr().err == "internal error: balanced centers refused\n"


def test_memory_exhaustion_exits_2_without_traceback(tmp_path, monkeypatch, capsys):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(8, [(0, 1)]), gpath)

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("stardecomp.cli.embed", exhausted)
    assert run(["embed", "--leave", str(gpath), "--k", "3"]) == 2
    assert capsys.readouterr() == ("", "error: memory ran out\n")


def test_family_internal_error_exits_3(monkeypatch, capsys):
    def broken(g, k, gamma):
        raise RuntimeError("broken flow")

    monkeypatch.setattr("stardecomp.solver.decide_star_decomposition", broken)
    assert run(["family", "--id", "single-edge", "--k", "3", "--n", "8", "--verify"]) == 3
    assert capsys.readouterr().err == "internal error: broken flow\n"


def test_embed_single_edge(tmp_path):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(8, [(0, 1)]), gpath)
    out = tmp_path / "cert.json"
    assert run(["embed", "--leave", str(gpath), "--k", "3", "--out", str(out)]) == 0
    cert = EmbeddingCertificate.from_json_dict(json.loads(out.read_text()))
    assert cert.s == 4
    assert cert.minimality == "exact"
    assert {r.s: r.reason for r in cert.rejections}[2] == "exhausted-nonexistence"


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_embed_empty_leave(tmp_path, k):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(0, []), gpath)
    out = tmp_path / "cert.json"
    assert run(["embed", "--leave", str(gpath), "--k", str(k), "--out", str(out)]) == 0
    cert = EmbeddingCertificate.from_json_dict(json.loads(out.read_text()))
    assert (cert.n, cert.s, cert.minimality, cert.rejections) == (0, 0, "exact", ())
    assert cert.decomposition.stars == ()


def test_embed_caterpillar(tmp_path):
    # 4000 vertices, max degree 3: alpha and the searches must not recurse per vertex
    path = [(i, i + 1) for i in range(2999)]
    leave = graph_from_edges(4000, path + [(3 * i + 1, 3000 + i) for i in range(1000)])
    gpath = tmp_path / "caterpillar.json"
    write_graph(leave, gpath)
    out = tmp_path / "cert.json"
    assert run(["embed", "--leave", str(gpath), "--k", "4", "--out", str(out)]) == 0
    cert = EmbeddingCertificate.from_json_dict(json.loads(out.read_text()))
    assert validate_decomposition(join(leave, cert.s), cert.decomposition) is None


def test_embed_matches_golden(capsys):
    # three K_6 and a hub: greedy star removal leaves a core too poor in
    # independent sets to seed s = k = 15, so the gamma search decides it
    leave = GOLDEN / "three_k6_hub_leave.json"
    assert run(["embed", "--leave", str(leave), "--k", "15"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "three_k6_hub_embed_k15.json").read_text()


def test_embed_large_k_matches_golden(capsys):
    # k = 21, n = 50, seed 0: the s = 20 gamma search accepts its first
    # candidate; walking per-vertex center counts took seconds to reach it
    leave = GOLDEN / "k21_n50_seed0_leave.json"
    assert run(["embed", "--leave", str(leave), "--k", "21"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "k21_n50_seed0_embed_k21.json").read_text()


def test_embed_large_k_exact_matches_golden(capsys):
    # k = 21, n = 60, seed 0: the s = 18 search finds a decomposition at its
    # 6,352nd candidate, so s = 18 is exact; Hakimi's condition refuses its
    # first 2,001 candidates without a flow, and a budget of 2,000 left
    # s = 24 conditional
    leave = GOLDEN / "k21_n60_seed0_leave.json"
    assert run(["embed", "--leave", str(leave), "--k", "21"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "k21_n60_seed0_embed_k21.json").read_text()


def test_embed_large_k_conditional_matches_golden(capsys):
    # k = 21, n = 68, seed 0: the s = 17 search spends the default budget,
    # so s = 23 is conditional and the ledger names the budget at s = 17
    leave = GOLDEN / "k21_n68_seed0_leave.json"
    assert run(["embed", "--leave", str(leave), "--k", "21"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "k21_n68_seed0_embed_k21.json").read_text()


def test_decompose_witness_matches_golden(capsys):
    # an infeasible gamma: the witness is the smallest minimum-deficiency
    # set, which no choice of starting orientation can move
    args = ["decompose", "--graph", str(GOLDEN / "n11_witness_graph.json"), "--k", "3"]
    assert run(args + ["--gamma", str(GOLDEN / "n11_witness_gamma.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "n11_witness_decompose_k3.json").read_text()


def test_decompose_rows_witness_matches_golden(capsys):
    # the same on the rows route: C_128(1..8) has 1,024 = 128^2/16 edges,
    # and 3 and 2 centers in turn on 0..63 overload them. Adding 63 to the
    # witness 0..62 keeps its deficiency at -92 (8 more edges, 8 more
    # demand), so the golden pins the smallest minimum-deficiency set
    graph = GOLDEN / "c128_witness_graph.json"
    g = read_graph(graph)
    assert _on_rows(g.n, g.num_edges)
    args = ["decompose", "--graph", str(graph), "--k", "4"]
    assert run(args + ["--gamma", str(GOLDEN / "c128_witness_gamma.json")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "c128_witness_decompose_k4.json").read_text()


def test_decompose_two_star_matches_golden(capsys):
    # K_5, K_4 and a 4-edge path, disjoint: the stars of the parity
    # orientation by ascending center, each center's leaves ascending
    args = ["decompose", "--graph", str(GOLDEN / "k5_k4_p5_graph.json"), "--k", "2"]
    assert run(args) == 0
    assert capsys.readouterr().out == (GOLDEN / "k5_k4_p5_decompose_k2.json").read_text()


def test_family_verify_matches_golden(capsys):
    # every claim of the smallest single-edge instance, with its evidence
    assert run(["family", "--id", "single-edge", "--k", "3", "--n", "8", "--verify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "single_edge_k3_n8_verify.json").read_text()


def test_embed_max_s_exhausted(tmp_path, capsys):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(8, [(0, 1)]), gpath)
    assert run(["embed", "--leave", str(gpath), "--k", "3", "--max-s", "2"]) == 2


def test_family_verify_single_edge(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["family", "--id", "single-edge", "--k", "3", "--n", "8", "--verify", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_ok"] is True
    assert data["family_id"] == "single-edge"


def test_family_generate_without_verify(tmp_path):
    out = tmp_path / "inst.json"
    assert run(["family", "--id", "even-bound", "--t", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 28
    assert data["leave"]["n"] == 28


def test_family_bad_parameters(capsys):
    assert run(["family", "--id", "single-edge", "--k", "4", "--n", "10"]) == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--id", "bound-n", "--t", "7", "--k", "5", "--n", "3"],  # --k and --n unused
        ["--id", "odd-bound", "--k", "27", "--t", "3"],  # --t unused
        ["--id", "bound-n"],  # --t missing
        ["--id", "single-edge", "--k", "3"],  # --n missing
    ],
)
def test_family_rejects_unused_and_missing_flags(flags, tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run(["family", *flags, "--out", str(out)]) == 1
    assert not out.exists()
    assert "family" in capsys.readouterr().err


def test_family_passes_optional_flag_through(tmp_path):
    out = tmp_path / "inst.json"
    assert run(["family", "--id", "tightness-T2", "--t", "4", "--n", "82", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 82


def test_family_verify_odd_bound(tmp_path):
    out = tmp_path / "report.json"
    assert run(["family", "--id", "odd-bound", "--k", "27", "--verify", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_ok"] is True
    statuses = {c["kind"]: c["status"] for c in data["claims"]}
    assert statuses["leave-realizable"] == "verified"


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--k", "8", "--n", "6:10", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# stardecomp bounds v1\n")
    rows = list(csv.DictReader(text.splitlines()[1:]))
    assert len(rows) == 5
    by_n = {row["n"]: row for row in rows}
    assert by_n["9"]["n_threshold"] == "8.000000"
    assert by_n["9"]["n_above_threshold"] == "1"
    assert by_n["8"]["n_above_threshold"] == "0"
    assert by_n["9"]["large_n_cap"] == "22"


def test_bounds_without_n(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--k", "8", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert rows[0]["n"] == ""
    assert rows[0]["n_threshold"] == "8.000000"


@pytest.mark.parametrize("k", [7, 8, 9])
def test_bounds_match_golden(tmp_path, k):
    # odd and even cap strings, thresholds and lower bounds, byte for byte;
    # k = 9 puts a square factor in every kind of radicand (72, 18, 2(n - k))
    out = tmp_path / "bounds.csv"
    assert run(["bounds", "--k", str(k), "--n", "6:40", "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / f"bounds_k{k}_n6-40.csv").read_text()


@pytest.mark.parametrize(
    "args, golden",
    [
        # 8k keeps a square-free part near 10^17, which nothing may factor
        (["--k", "100000000000000001"], "bounds_k100000000000000001.csv"),
        # min_s exactly 2k - 5, where a float start answered 2k - 2
        (["--k", "100000000000000000000", "--n", "5"], "bounds_k1e20_n5.csv"),
    ],
)
def test_bounds_at_large_k_match_golden(tmp_path, args, golden):
    out = tmp_path / "bounds.csv"
    assert run(["bounds", *args, "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / golden).read_text()


def test_bounds_past_the_float_range(capsys):
    # every column of k = 10^320 is past the largest float
    k = 10**320
    assert run(["bounds", "--k", str(k), "--n", "1:2"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    assert [row["s_lower_general_min_s"] for row in rows] == [str(2 * k - 1), str(2 * k - 2)]
    assert rows[0]["large_n_cap"] == str(3 * k - 2)
    assert rows[0]["general_cap"].startswith("3171572875253809902396622551")


@pytest.mark.parametrize("n", ["0", "0:5"])
def test_bounds_refuse_an_empty_leave(capsys, n):
    # the bound formulas need n >= 1, so a range that starts at 0 writes no row
    assert run(["bounds", "--k", "3", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound formulas need a nonempty leave, n >= 1\n"


@pytest.mark.parametrize(
    "args, flag",
    [
        (["bounds", "--k", "3", "--n", "5:2"], "--n"),
        (["bounds", "--k", "3", "--n", "3:4:5"], "--n"),
        (["bounds", "--k", "3", "--n", ","], "--n"),
        (["sweep", "--k", "3", "--n", "9:4", "--seeds", "1"], "--n"),
        (["sweep", "--k", "3", "--n", "3:4:5", "--seeds", "1"], "--n"),
        (["sweep", "--k", ",", "--n", "5", "--seeds", "1"], "--k"),
        (["sweep", "--k", "3", "--n", "5", "--seeds", "0"], "--seeds"),
        (["sweep", "--k", "7", "--n", "3:5", "--seeds", "1"], "--n"),  # every n <= k
    ],
)
def test_empty_or_malformed_selection_exits_1_naming_the_flag(capsys, args, flag):
    # a header with no rows and exit 0 would read as "no cap broken"
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and f"argument {flag}: " in captured.err


def test_sweep_matches_golden(tmp_path):
    # k = 2 takes the even caps; every column but runtime_ms is deterministic
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--k", "2,3,4", "--n", "3:9", "--seeds", "2", "--out", str(out)]
    assert run(args) == 0
    header, *rows = out.read_text().splitlines()
    stripped = [header] + [row.rsplit(",", 1)[0] for row in rows]
    golden = (GOLDEN / "sweep_k2-4_n3-9_seeds2.csv").read_text().splitlines()
    assert stripped == golden


def test_sweep_small_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(
        ["sweep", "--k", "3", "--n", "4:6", "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# stardecomp sweep v1")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 6
    assert all(row["within_general_cap"] == "1" for row in rows)
    assert [int(r["n"]) for r in rows] == [4, 4, 5, 5, 6, 6]


def test_sweep_rejects_negative_seeds(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--k", "3", "--n", "4:5", "--seeds", "-3", "--out", str(out)]) == 1
    assert not out.exists()


def test_family_verify_takes_flow_limit(tmp_path):
    out = tmp_path / "family.json"
    args = ["family", "--id", "single-edge", "--k", "3", "--n", "8", "--out", str(out)]
    assert run(args + ["--verify", "--flow-limit", "10"]) == 0
    claims = {c["kind"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims["leave-realizable"]["evidence"] == {"complement_edges": 27, "limit": 10}
    # the gamma search's join is held to the same limit
    assert claims["nonexistence-at-s"]["evidence"] == {"join_edges": 18, "limit": 10}


def test_sweep_worker_pool_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    args = ["sweep", "--k", "3", "--n", "4:6", "--seeds", "2"]
    assert run(args + ["--out", str(serial)]) == 0
    assert run(args + ["--jobs", "2", "--out", str(pooled)]) == 0

    def strip_runtime(path):
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        for row in rows:
            row.pop("runtime_ms")
        return rows

    assert strip_runtime(serial) == strip_runtime(pooled)


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs 2 or more needs the pool, and with it multiprocessing
    code = (
        "import sys, stardecomp.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert child.stdout == "[]\n"


def test_sweep_deterministic_apart_from_runtime(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--k", "2,3", "--n", "4:6", "--seeds", "2"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0

    def strip_runtime(path):
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        for row in rows:
            row.pop("runtime_ms")
        return rows

    assert strip_runtime(out1) == strip_runtime(out2)


def test_decompose_outputs_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(["decompose", "--complete", "8", "--k", "2", "--out", str(out1)])
    run(["decompose", "--complete", "8", "--k", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_embed_round_trips_through_reader(tmp_path):
    gpath = tmp_path / "leave.json"
    write_graph(graph_from_edges(6, [(0, 1), (2, 3)]), gpath)
    out = tmp_path / "cert.json"
    assert run(["embed", "--leave", str(gpath), "--k", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    cert = EmbeddingCertificate.from_json_dict(data)
    assert cert.to_json_dict() == data
