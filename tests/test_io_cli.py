import json

import pytest

from turanlag import (CancellativePredicate, Hypergraph, ParseError,
                      SubgraphPredicate, broom_graph, brute_force_ex,
                      enlargement, expanded_clique_with_embedded,
                      generalized_triangle, lagrangian, lagrangian_constrained,
                      parse_hypergraph, path_graph, serialize_hypergraph,
                      single_edge)
from turanlag import extremal
from turanlag.cli import build_from_spec, main, parse_forbidden


# -- .hg format ---------------------------------------------------------------


def test_parse_basic():
    g = parse_hypergraph("4 3\n0 1 2\n")
    assert g.n == 4 and g.r == 3 and g.edges == frozenset({(0, 1, 2)})


def test_parse_comments_and_blanks():
    text = "# a comment\n\n5 2\n0 1  # trailing note\n\n2 3\n"
    g = parse_hypergraph(text)
    assert g.edges == frozenset({(0, 1), (2, 3)})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2.*repeated vertex"):
        parse_hypergraph("3 3\n0 1 1\n")
    with pytest.raises(ParseError, match="line 2.*expected 3"):
        parse_hypergraph("3 3\n0 1\n")
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_hypergraph("3 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="line 2.*outside"):
        parse_hypergraph("3 2\n0 5\n")
    with pytest.raises(ParseError, match="line 1.*header"):
        parse_hypergraph("3\n")
    with pytest.raises(ParseError, match="non-integer"):
        parse_hypergraph("3 2\n0 x\n")
    with pytest.raises(ParseError):
        parse_hypergraph("")


def test_round_trip_canonical():
    messy = "4 2\n\n2 3\n0 1\n# done\n"
    g = parse_hypergraph(messy)
    canon = serialize_hypergraph(g)
    assert canon == "4 2\n0 1\n2 3\n"
    assert serialize_hypergraph(parse_hypergraph(canon)) == canon


# -- construction specs ----------------------------------------------------------


def test_build_from_spec():
    assert len(build_from_spec("turan:n=9,r=3,l=3").edges) == 27
    assert build_from_spec("gentriangle:r=3").n == 5
    fan = build_from_spec("fan:r=3")
    assert fan.n == 7 and len(fan.edges) == 4
    assert build_from_spec("complete:n=4,r=2").covers_pairs()
    assert len(build_from_spec("empty:n=5,r=3").edges) == 0
    assert build_from_spec("path:k=4").n == 4
    assert build_from_spec("star:k=5").degrees[0] == 4
    assert build_from_spec("tree:k=6,seed=1").n == 6
    with pytest.raises(Exception):
        build_from_spec("nonsense:r=3")


def test_parse_forbidden():
    assert parse_forbidden("cancellative").kind == "cancellative"
    assert parse_forbidden("sigma:r=3").kind == "sigma"
    sp = parse_forbidden("subgraph:complete:n=3,r=2")
    assert sp.kind == "subgraph" and sp.pattern.n == 3
    fp = parse_forbidden("family:p=4:edge:r=3")
    assert fp.kind == "family" and fp.p == 4 and fp.pattern.n == 3


# -- CLI commands ------------------------------------------------------------------


def test_cli_construct_and_info(tmp_path, capsys):
    out = tmp_path / "t.hg"
    assert main(["construct", "turan:n=6,r=3,l=3", "-o", str(out)]) == 0
    assert main(["info", str(out), "--json"]) == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["n"] == 6 and info["edges"] == 8 and not info["covers_pairs"]


def test_cli_construct_stdout(capsys):
    assert main(["construct", "edge:r=3"]) == 0
    assert capsys.readouterr().out == "3 3\n0 1 2\n"


def test_cli_lagrangian(tmp_path, capsys):
    p = tmp_path / "k43.hg"
    main(["construct", "complete:n=4,r=3", "-o", str(p)])
    capsys.readouterr()
    assert main(["lagrangian", "--graph", str(p), "--restarts", "10", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert abs(payload["value"] - 0.375) <= 1e-8
    assert payload["converged"] and payload["certificate"] == "exact-symmetric"

    assert main(["lagrangian", "--graph", str(p), "--beta", "1/4",
                 "--restarts", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["beta"] == 0.25 and payload["cap_binds"]
    # the CLI passes the exact fraction; the estimate is the float call's
    est = lagrangian_constrained(parse_hypergraph(p.read_text()), 0.25, restarts=5)
    assert payload["value"] == est.value and payload["weights"] == list(est.weights)


def test_cli_symmetrize(tmp_path, capsys):
    p = tmp_path / "g.hg"
    p.write_text("5 3\n0 1 2\n")
    trace = tmp_path / "trace.json"
    out = tmp_path / "result.hg"
    code = main(["symmetrize", "--graph", str(p), "--alpha", "1/2",
                 "--trace", str(trace), "-o", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["result_n"] == 3 and summary["kept"] == [0, 1, 2]
    tr = json.loads(trace.read_text())
    assert [s["kind"] for s in tr["steps"]] == ["symmetrize", "clean"]
    assert out.read_text() == "3 3\n0 1 2\n"


def test_cli_search_exact(capsys):
    code = main(["search", "--n", "5", "--r", "2",
                 "--forbid", "subgraph:complete:n=3,r=2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["value"] == 6 and payload["exact"]


def test_cli_search_refuses_big_exact(capsys):
    code = main(["search", "--n", "16", "--r", "3", "--forbid", "sigma:r=3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: C(16,3) = 560")


@pytest.mark.parametrize("mode", [["--n", "7"], ["--sweep", "7:7"]],
                         ids=["single", "sweep"])
def test_cli_search_budget_exhausted_exits_3(mode, capsys):
    # F5-free n=7 runs its DFS below the ceiling floor(10 * 7 / 4) = 17, and
    # the sizes below it take fewer than 4096 nodes each; a zero budget stops
    # the n=7 search once 4096 of its nodes are counted
    code = main(["search", "--r", "3", "--forbid", "subgraph:gentriangle:r=3",
                 "--budget-secs", "0", "--json", *mode])
    assert code == 3
    out = capsys.readouterr().out
    if mode[0] == "--n":
        payload = json.loads(out)
        assert not payload["exact"] and payload["nodes"] == 4096
        witness = Hypergraph(7, 3, [tuple(e) for e in payload["witness"]])
        assert SubgraphPredicate(generalized_triangle(3)).is_free(witness)
    else:
        header, row = out.splitlines()
        assert row.split(",")[:5] == ["7", "3", "15", "0", "4096"]


def test_cli_sweep_solves_each_size_once(monkeypatch, capsys):
    sizes = []
    exhaust = extremal._exhaust

    def counted(k, *rest):
        sizes.append(k)
        return exhaust(k, *rest)

    monkeypatch.setattr(extremal, "_exhaust", counted)
    assert main(["search", "--r", "3", "--sweep", "4:7",
                 "--forbid", "family:p=4:edge:r=3"]) == 0
    assert sizes == list(range(8))
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["2", "4", "8", "12"]


@pytest.mark.parametrize("forbid, pred", [
    ("cancellative", CancellativePredicate()),
    ("subgraph:gentriangle:r=3", SubgraphPredicate(generalized_triangle(3))),
])
def test_cli_sweep_rows_match_standalone_search(forbid, pred, capsys):
    # LO = 0 < r: the rows below r come from the same pass
    assert main(["search", "--r", "3", "--sweep", "0:5", "--forbid", forbid]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "n,r,value,exact,nodes,elapsed"
    got = [row.split(",")[:4] for row in rows]
    want = []
    for n in range(6):
        res = brute_force_ex(n, 3, pred)
        want.append([str(n), "3", str(res.value), str(int(res.exact))])
    assert got == want


def test_cli_search_heuristic(capsys):
    code = main(["search", "--n", "9", "--r", "3", "--forbid", "sigma:r=3",
                 "--heuristic", "--iters", "30", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["value"] >= 27 and not payload["exact"]


def test_cli_verify_core_deterministic(capsys):
    assert main(["verify", "--suite", "core", "--json", "-"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "core", "--json", "-"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first[first.index("{"):])
    assert payload["summary"]["fail"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == ["frankl-matching-bound", "turan-size"]


def test_cli_verify_json_path_writes_file_and_prints_table(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--suite", "core", "--json", str(path)]) == 0
    header, rule, *rows, total = capsys.readouterr().out.splitlines()
    assert main(["verify", "--suite", "core", "--json", "-"]) == 0
    assert path.read_text() == capsys.readouterr().out
    assert header.split() == ["check", "suite", "status", "measured", "expected",
                              "elapsed"]
    assert set(rule) == {"-", " "} and len(rule) == len(header.rstrip())
    assert [row.split()[:3] for row in rows] == [
        ["frankl-matching-bound", "core", "pass"], ["turan-size", "core", "pass"]]
    assert total == "total: 2 checks, 2 pass, 0 fail, 0 skipped (seed 0)"


def test_cli_usage_error():
    assert main(["construct", "nonsense:z=1"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["search", "--n", "5", "--r", "3", "--forbid", "sigma"],
    ["search", "--n", "5", "--r", "3", "--forbid", "family:q=3:edge:r=3"],
    ["search", "--n", "5", "--r", "3", "--forbid", "subgraph:complete:n=3"],
    ["search", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2", "--sweep", "3"],
    ["search", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2", "--sweep", "a:4"],
    ["search", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2", "--sweep", "7:3"],
    ["search", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2", "--sweep=-1:2"],
    ["search", "--n", "5", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2",
     "--exact"],
    ["search", "--n", "5", "--r", "3", "--forbid", "cancellative", "--heuristic",
     "--iters", "-3", "--json"],
    ["search", "--r", "3", "--sweep", "4:5", "--forbid", "cancellative", "--heuristic",
     "--iters", "-3"],
    ["search", "--n", "6", "--r", "4", "--forbid", "sigma:r=3", "--heuristic",
     "--iters", "0"],
    ["search", "--r", "3", "--sweep", "4:16", "--forbid", "cancellative"],
], ids=["sigma-no-r", "family-no-p", "subgraph-no-r", "sweep-no-hi",
        "sweep-not-int", "sweep-reversed", "sweep-negative", "exact-flag-removed",
        "iters-negative", "sweep-iters-negative", "sigma-uniformity-iters-0",
        "sweep-hi-beyond-cap"])
def test_cli_malformed_search_exits_2_silently(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, option", [("lagrangian", "--beta"),
                                             ("symmetrize", "--alpha")])
def test_cli_zero_denominator_exits_2(command, option, tmp_path, capsys):
    # a usage error, not a ZeroDivisionError escaping main with exit 1
    p = tmp_path / "c3.hg"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")
    assert main([command, "--graph", str(p), option, "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"argument {option}: invalid" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("beta", ["1e400", "-1e400"])
def test_cli_beta_beyond_float_range_exits_2(beta, tmp_path, capsys):
    # the range check runs on the exact fraction, before any float conversion
    p = tmp_path / "c3.hg"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")
    assert main(["lagrangian", "--graph", str(p), f"--beta={beta}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "beta must lie in [1/n, 1]" in captured.err
    # one short line, whatever the size of the fraction
    assert captured.err.count("\n") == 1 and len(captured.err) < 100


@pytest.mark.parametrize("extra", [[], ["--beta", "1/2"]], ids=["plain", "capped"])
def test_cli_lagrangian_negative_restarts_exits_2_silently(extra, tmp_path, capsys):
    p = tmp_path / "c3.hg"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")
    assert main(["lagrangian", "--graph", str(p), "--restarts", "-2", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "restarts must be nonnegative" in captured.err


@pytest.mark.parametrize("command", ["verify", "lagrangian"])
def test_cli_negative_seed_exits_2_with_one_line(command, tmp_path, capsys):
    # numpy's seed sequences refuse negative entries; the CLI says so before
    # any check or ascent runs
    p = tmp_path / "k3.hg"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")
    argv = ["verify"] if command == "verify" else ["lagrangian", "--graph", str(p)]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be nonnegative, got -1\n"


def test_cli_search_accepts_negative_seed(capsys):
    # --seed seeds only the heuristic's random.Random; the exact search
    # runs no random code
    assert main(["search", "--n", "4", "--r", "2", "--seed", "-1",
                 "--forbid", "subgraph:complete:n=3,r=2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 4


@pytest.mark.parametrize("argv, message", [
    (["search", "--r", "2", "--forbid", "subgraph:complete:n=3,r=2"],
     "error: provide --n or --sweep LO:HI"),
    (["search", "--n", "5", "--r", "2", "--forbid", "subgraph:complete:n3,r=2"],
     "error: expected key=value, got 'n3'"),
    (["search", "--n", "5", "--r", "2", "--forbid", "clique:k=3"],
     "error: unknown forbidden kind 'clique'"),
], ids=["no-n-no-sweep", "item-without-equals", "unknown-kind"])
def test_cli_usage_errors_exit_2_with_message(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"


def test_cli_construct_specs_match_library(tmp_path, capsys):
    tree = tmp_path / "p4.hg"
    tree.write_text(serialize_hypergraph(path_graph(4)))
    edge = tmp_path / "edge.hg"
    edge.write_text(serialize_hypergraph(single_edge(3)))
    cases = [
        (f"file:{tree}", path_graph(4)),
        ("broom:handle=3,leaves=2", broom_graph(3, 2)),
        (f"expand:F={edge},p=5", expanded_clique_with_embedded(single_edge(3), 5).graph),
        (f"enlarge:T={tree},r=4", enlargement(path_graph(4), 4)),
    ]
    for spec, want in cases:
        assert main(["construct", spec]) == 0
        assert capsys.readouterr().out == serialize_hypergraph(want)


def test_cli_text_output(tmp_path, capsys):
    p = tmp_path / "k3.hg"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")
    assert main(["info", str(p)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n: 3", "r: 2", "edges: 3", "covers_pairs: True", "min_degree: 2",
        "max_degree: 2", "avg_degree: 2.0", "max_matching: 1"]

    assert main(["lagrangian", "--graph", str(p), "--restarts", "3"]) == 0
    est = lagrangian(parse_hypergraph(p.read_text()), restarts=3)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"value: {est.value}", f"weights: {list(est.weights)}",
                     f"converged: {est.converged}",
                     f"gradient_residual: {est.gradient_residual}",
                     "certificate: exact-motzkin-straus"]

    assert main(["search", "--n", "4", "--r", "2",
                 "--forbid", "subgraph:complete:n=3,r=2"]) == 0
    head, wit = capsys.readouterr().out.splitlines()
    assert head == "ex(4, subgraph(n=3,r=2,e=3)) exact: 4"
    assert wit.startswith("witness edges: [[")
