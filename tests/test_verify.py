import json

import pytest

import turanlag.verify as verify
from turanlag import PartitionedHypergraph, turan_hypergraph
from turanlag.cli import main
from turanlag.verify import check_names, run_check, run_verify


def test_suite_names_cover_all_checks():
    names = check_names("all")
    assert len(names) == 15 and len(set(names)) == 15
    partition = sum((check_names(s) for s in ("core", "lagrangian",
                                              "symmetrization", "extremal")), [])
    assert sorted(partition) == sorted(names)


def test_core_suite_passes():
    report = run_verify("core", seed=0)
    assert report.ok
    assert {c.name for c in report.checks} == {"turan-size", "frankl-matching-bound"}


def test_report_json_shape():
    report = run_verify("core", seed=0)
    payload = json.loads(report.to_json())
    assert payload["summary"]["fail"] == 0
    for entry in payload["checks"]:
        assert "elapsed" not in entry  # timings excluded for byte-stable output
        assert {"name", "suite", "status", "measured", "expected",
                "tolerance", "detail"} <= set(entry)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify("nonsense", seed=0)


def test_tampered_turan_fails_size_check(monkeypatch):
    def skewed(n, r, parts):
        good = turan_hypergraph(n, r, parts)
        if n > parts:  # shift one vertex between parts: sizes go off by one
            sizes = [len(p) for p in good.parts]
            sizes[0] += 1
            sizes[-1] -= 1
            if sizes[-1] < 0:
                return good
            from turanlag import Hypergraph
            import itertools

            bounds, start = [], 0
            for s in sizes:
                bounds.append(tuple(range(start, start + s)))
                start += s
            edges = [
                tuple(sorted(c))
                for pick in itertools.combinations(range(parts), r)
                for c in itertools.product(*(bounds[i] for i in pick))
            ]
            return PartitionedHypergraph(Hypergraph(n, r, edges), tuple(bounds))
        return good

    monkeypatch.setattr(verify, "turan_hypergraph", skewed)
    result = run_check("turan-size", seed=0)
    assert result.status == "fail"


def test_mantel_report_is_deterministic():
    first = run_check("mantel-exact").to_dict()
    assert first["status"] == "pass"
    assert run_check("mantel-exact").to_dict() == first


def _crashing_check(seed):
    raise RuntimeError("boom")


def test_run_check_reports_a_crash_as_failure(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [("crash", "core", 60.0, _crashing_check)])
    result = run_check("crash")
    assert result.status == "fail"
    assert result.measured == "exception: boom"


def test_run_check_fails_a_passing_check_over_budget(monkeypatch):
    passing = lambda seed: (True, 1, 1, 0, "fine")  # noqa: E731
    monkeypatch.setattr(verify, "CHECKS", [("slow", "core", -1.0, passing)])
    result = run_check("slow")
    assert result.status == "fail"
    assert "exceeded budget" in result.detail


def test_verify_exits_1_and_prints_the_table_on_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS",
                        verify.CHECKS + [("crash", "core", 60.0, _crashing_check)])
    assert main(["verify", "--suite", "core"]) == 1
    out = capsys.readouterr().out
    assert "exception: boom" in out
    assert "total: 3 checks, 2 pass, 1 fail, 0 skipped (seed 0)" in out
