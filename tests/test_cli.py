from __future__ import annotations

import json
import os
import pathlib
import re
import threading

import pytest

import figure_data
from qsymk import cli, config, kernel, qsym
from qsymk.cli import CHECK_NAMES, main
from qsymk.compositions import compositions_of
from qsymk.kernel import RelationId
from qsymk.qsym import QSymElement
from qsymk.statistics import StatisticId

GOLDEN = pathlib.Path(__file__).parent / "golden"

# CLI reports, each the stdout of `PYTHONPATH=src python -m qsymk.cli
# ARGV...`: the verify and dims reports recorded before the spanning
# checks moved to the quotient map, the tri12ctilde graph exports before
# relation graphs moved to composition indices, the pkbasis and degree
# 8..10 pknumbasis exports before the trimmed relations became their
# parents' first move, the monomial checks and props4 at higher degrees
# before those checks moved to M coordinates, and the edge spanning,
# basis and Theorem 1 checks at higher degrees before the edge rank came
# from the components, `verify ideal --deg 1..9`, `shufflecheck maj 9`
# and `shufflecheck Des 10` before the F products were packed into ints,
# and `verify bridges --deg 1..10` and `dims --deg 1..11`, the benchmark's
# last unpinned jobs, before the regions became descent-mask formulas, and
# `verify ideal --deg 1..11` and `shufflecheck Epk 12`, whose scans counted
# Epk, Lpk and Rpk in Counters, before the ideal check shared one scan.
# A change to how the checks or graphs are computed must reproduce them
# byte for byte.
GOLDEN_REPORTS = [
    *((f"verify_{check}_deg1-6.json", ("verify", check, "--deg", "1..6")) for check in CHECK_NAMES),
    *((f"verify_{check}_deg1-{hi}.json", ("verify", check, "--deg", f"1..{hi}"))
      for check, hi in (("thm3a", 11), ("thm3b", 11), ("thm0", 10), ("props4", 9), ("props4", 11),
                        ("thm2b", 12), ("thm35", 11), ("thm53b", 11), ("thm1a", 9), ("thm1b", 9),
                        ("ideal", 9), ("ideal", 10), ("ideal", 11), ("bridges", 10))),
    *((f"dims_deg1-{hi}.csv", ("dims", "--deg", f"1..{hi}")) for hi in (8, 11)),
    *((f"shufflecheck_{stat}_{length}.json", ("shufflecheck", stat, str(length)))
      for stat, length in (("Pk", 9), ("Epk", 9), ("maj", 9), ("Des", 10), ("Pk", 11), ("Epk", 12))),
    ("graph_pknumbasis_deg1-7.json",
     ("graph", "--rels", "pknumbasis", "--deg", "1..7", "--format", "json")),
    ("graph_pknumbasis_deg8-10.csv",
     ("graph", "--rels", "pknumbasis", "--deg", "8..10", "--format", "csv")),
    ("graph_pkbasis_deg0-10.csv",
     ("graph", "--rels", "pkbasis", "--deg", "0..10", "--format", "csv")),
    *((f"graph_tri12ctilde_deg0-7.{fmt}",
       ("graph", "--rels", "tri12ctilde", "--deg", "0..7", "--format", fmt))
      for fmt in ("dot", "json", "csv")),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_and_reports(capsys):
    code, out = run_cli(capsys, "verify", "thm2a", "--deg", "1..6")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["check"] == "thm2a"
    assert report["pass"] is True
    assert [row["degree"] for row in report["rows"]] == list(range(1, 7))
    assert all(row["pass"] for row in report["rows"])
    assert all(row["stat"] == "Pk" for row in report["rows"])


def test_verify_vacuous_degree_zero(capsys):
    code, out = run_cli(capsys, "verify", "thm2a", "--deg", "0..0")
    assert code == 0
    assert json.loads(out)["rows"][0]["degree"] == 0


def test_verify_default_range_is_1_to_8(capsys):
    code, out = run_cli(capsys, "verify", "thm33")
    assert code == 0
    assert [row["degree"] for row in json.loads(out)["rows"]] == list(range(1, 9))
    # --deg alone sets the range
    with pytest.raises(SystemExit) as info:
        main(["verify", "thm33", "--deep"])
    assert info.value.code == 2


def test_verify_all_registry_checks_small(capsys):
    for check in ("thm0", "thm2b", "thm33", "thm35", "thm3a", "thm3b",
                  "thm53a", "thm53b", "props4", "lemma22", "bridges"):
        code, out = run_cli(capsys, "verify", check, "--deg", "0..5")
        assert code == 0, (check, out)
        assert json.loads(out)["pass"] is True


def test_verify_thm1_consistency_suite(capsys):
    for check in ("thm1a", "thm1b"):
        code, out = run_cli(capsys, "verify", check, "--deg", "0..5")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert {row["rels"] for row in report["rows"]} >= {"arrow12", "pkbasis", "val123"}


def test_verify_ideal_single_stat(capsys):
    code, out = run_cli(capsys, "verify", "ideal", "--stat", "Pk", "--deg", "1..5")
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == [
        {"check": "ideal", "degree": 5, "pass": True, "stat": "Pk"}
    ]


def test_verify_ideal_all_statistics(capsys):
    code, out = run_cli(capsys, "verify", "ideal", "--deg", "1..4")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 13
    assert all(row["pass"] for row in report["rows"])


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense", "--deg", "1..3"])
    assert info.value.code == 2
    capsys.readouterr()
    # --stat restricts only the ideal check; elsewhere it is refused
    for stat in ("Nope", "Pk"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "thm2a", "--deg", "1..3", "--stat", stat])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: --stat")


def test_bad_degree_range_is_usage_error(capsys):
    for bad in ("5..3", "-2..4", "x..y"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "thm2a", "--deg", bad])
        assert info.value.code == 2


def test_degree_above_limit_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--max-degree", "4", "verify", "thm2a", "--deg", "1..6"])
    assert info.value.code == 2


def test_negative_max_degree_is_usage_error(capsys):
    previous = config.set_max_degree(12)
    try:
        with pytest.raises(SystemExit) as info:
            main(["--max-degree", "-1", "dims"])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")
        # the rejected value leaves the caller's limit in place
        assert config.max_degree() == 12
    finally:
        config.set_max_degree(previous)


def test_max_degree_defaults_to_the_environment(capsys, monkeypatch):
    before = config.max_degree()
    monkeypatch.setenv("QSYMK_MAX_DEGREE", "3")
    with pytest.raises(SystemExit) as info:
        main(["dims", "--deg", "4..4"])
    assert info.value.code == 2
    assert "exceeds the configured maximum 3" in capsys.readouterr().err
    # the flag wins over the variable
    code, out = run_cli(capsys, "--max-degree", "5", "dims", "--stat", "Pk", "--deg", "5..5")
    assert code == 0
    assert out.splitlines()[1].startswith("Pk,5,")
    assert config.max_degree() == before


@pytest.mark.parametrize("raw", ["not-a-number", "-1", ""])
def test_bad_max_degree_variable_is_usage_error(capsys, monkeypatch, raw):
    previous = config.set_max_degree(12)
    try:
        monkeypatch.setenv("QSYMK_MAX_DEGREE", raw)
        with pytest.raises(SystemExit) as info:
            main(["dims", "--deg", "1..2"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        assert config.max_degree() == 12
    finally:
        config.set_max_degree(previous)


def test_library_reads_no_environment(monkeypatch):
    monkeypatch.setenv("QSYMK_MAX_DEGREE", "3")
    assert len(compositions_of(4)) == 8


def test_dims_table(capsys):
    code, out = run_cli(capsys, "dims", "--stat", "Pk", "--stat", "pk", "--deg", "4..5")
    assert code == 0
    assert out.splitlines() == [
        "stat,degree,kernel_dim,quotient_dim",
        "Pk,4,5,3",
        "Pk,5,11,5",
        "pk,4,6,2",
        "pk,5,13,3",
    ]
    code, out = run_cli(capsys, "dims", "--stat", "Des", "--deg", "1..4")
    assert all(line.split(",")[2] == "0" for line in out.splitlines()[1:])


def test_dims_json_and_tsv(capsys):
    code, out = run_cli(capsys, "dims", "--stat", "pk", "--deg", "5..5", "--format", "json")
    assert json.loads(out) == [
        {"stat": "pk", "degree": 5, "kernel_dim": 13, "quotient_dim": 3}
    ]
    code, out = run_cli(capsys, "dims", "--stat", "pk", "--deg", "5..5", "--format", "tsv")
    assert out.splitlines()[1] == "pk\t5\t13\t3"


_DOT_EDGE = re.compile(r'^\s*"(?P<src>[^"]+)" -> "(?P<dst>[^"]+)" \[label="(?P<label>[^"]+)"\];$')
_DOT_MARK = re.compile(r'^\s*"(?P<name>[^"]+)" \[peripheries=2\];$')


def _parse_dot(text):
    edges = []
    marks = []
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((m.group("src"), m.group("dst"), m.group("label")))
        m = _DOT_MARK.match(line)
        if m:
            marks.append(m.group("name"))
    return edges, marks


def test_graph_dot_matches_figure1(capsys):
    code, out = run_cli(capsys, "graph", "--rels", "arrow123", "--deg", "0..5")
    assert code == 0
    edges, _ = _parse_dot(out)
    expected = [e for n in range(0, 6) for e in figure_data.FIGURE1_EDGES[n]]
    assert sorted(edges) == sorted(expected)


def test_graph_dot_matches_figure2(capsys):
    code, out = run_cli(capsys, "graph", "--rels", "tri12ctilde", "--deg", "0..5")
    assert code == 0
    edges, marks = _parse_dot(out)
    expected = [e for n in range(0, 6) for e in figure_data.FIGURE2_EDGES[n]]
    expected_marks = [m for n in range(0, 6) for m in figure_data.FIGURE2_CTILDE[n]]
    assert sorted(edges) == sorted(expected)
    assert sorted(marks) == sorted(expected_marks)


def test_graph_json_and_csv(capsys):
    code, out = run_cli(capsys, "graph", "--rels", "arrow123", "--deg", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["degrees"] == [4]
    assert {(e["from"], e["to"], e["label"]) for e in payload["edges"]} == set(
        figure_data.FIGURE1_EDGES[4]
    )
    code, out = run_cli(capsys, "graph", "--rels", "arrow123", "--deg", "2", "--format", "csv")
    assert out == 'from,to,label\n"(2)","(1,1)",2\n'


def test_graph_dot_golden_file(capsys):
    code, out = run_cli(capsys, "graph", "--rels", "arrow123", "--deg", "3")
    assert out == (GOLDEN / "arrow123_deg3.dot").read_text()


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS, ids=[name for name, _ in GOLDEN_REPORTS])
def test_reports_match_golden_files(capsys, name, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_is_checked():
    # the CI loop diffs every file in tests/golden; each must be diffed here too
    checked = {name for name, _ in GOLDEN_REPORTS} | {"arrow123_deg3.dot"}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(checked)


def test_graph_single_vertex_degree_one(capsys):
    code, out = run_cli(capsys, "graph", "--rels", "arrow123", "--deg", "1")
    assert code == 0
    assert '"(1)";' in out
    assert "->" not in out


def test_output_deterministic_and_file_writing(tmp_path, capsys):
    _, first = run_cli(capsys, "verify", "props4", "--deg", "1..5")
    _, second = run_cli(capsys, "verify", "props4", "--deg", "1..5")
    assert first == second

    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "thm33", "--deg", "1..4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["pass"] is True


@pytest.mark.parametrize("argv, want_code", [
    (("dims", "--deg", "1..4", "--format", "tsv"), 0),
    *((("graph", "--rels", "tri12ctilde", "--deg", "0..3", "--format", fmt), 0)
      for fmt in ("dot", "json", "csv")),
    (("shufflecheck", "Pk", "5"), 0),
    (("verify", "thm2a", "--deg", "1..4"), 1),
], ids=["dims-tsv", "graph-dot", "graph-json", "graph-csv", "shufflecheck", "verify-failing"])
def test_out_file_holds_the_stdout_report(tmp_path, capsys, monkeypatch, argv, want_code):
    # planted, for the failing verify: the arrow1 splits alone span too little for Pk
    monkeypatch.setitem(cli.RELATION_SETS, "arrow12", frozenset({RelationId.Arrow1}))
    code, want = run_cli(capsys, *argv)
    target = tmp_path / "report"
    assert run_cli(capsys, *argv, "--out", str(target)) == (code, "")
    assert code == want_code
    assert target.read_bytes() == want.encode()


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as info:
        main(["verify", "thm2a", "--deg", "1..3", "--out", str(target)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(target) in captured.err


def test_unwritable_out_path_fails_before_the_check(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the check ran before --out was opened")

    monkeypatch.setattr(cli, "ideal_reports", refuse)
    target = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as info:
        main(["verify", "ideal", "--deg", "1..3", "--out", str(target)])
    assert info.value.code == 2


def test_out_may_be_a_fifo(tmp_path, capsys):
    # a FIFO, a pipe or a piped /dev/stdout cannot seek: the report is written
    # unchanged, and a usage error exits 2 with no traceback
    _, want = run_cli(capsys, "shufflecheck", "Pk", "3")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    for argv, code in ((["shufflecheck", "Pk", "3"], 0), (["verify", "thm2a", "--deg", "5..3"], 2)):
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert main([*argv, "--out", str(fifo)]) == code == 0
        except SystemExit as exc:
            assert exc.code == code == 2
        reader.join(timeout=30)
        assert not reader.is_alive()
        captured = capsys.readouterr()
        if code:
            assert (got, captured.out, captured.err) == ([b""], "", "error: bad degree range '5..3'\n")
        else:
            assert (got, captured.out, captured.err) == ([want.encode()], "", "")


def test_usage_error_keeps_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "old.json"
    target.write_bytes(b"old report\n")
    for argv in (["verify", "thm2a", "--deg", "5..3"], ["verify", "thm2a", "--stat", "Nope"],
                 ["verify", "ideal", "--stat", "Nope"], ["dims", "--stat", "Nope"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(target)])
        assert info.value.code == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
        assert target.read_bytes() == b"old report\n", argv
    # a run that completes replaces the old bytes entirely
    code, out = run_cli(capsys, "verify", "thm2a", "--deg", "1..2", "--out", str(target))
    assert (code, out) == (0, "")
    assert json.loads(target.read_text())["pass"] is True


def test_usage_error_creates_no_out_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "new.json"
    for argv in (["verify", "thm2a", "--deg", "5..3"], ["verify", "thm2a", "--stat", "Nope"],
                 ["verify", "ideal", "--stat", "Nope"], ["dims", "--stat", "Nope"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out", str(target)])
        assert info.value.code == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists(), argv
    # a failing check is no usage error: its report is written
    monkeypatch.setitem(cli.RELATION_SETS, "arrow12", frozenset({RelationId.Arrow1}))
    code, out = run_cli(capsys, "verify", "thm2a", "--deg", "1..4", "--out", str(target))
    assert (code, out) == (1, "")
    assert json.loads(target.read_text())["pass"] is False


def test_failing_checks_report_witnesses(capsys, monkeypatch):
    # planted: the arrow1 splits alone are sound for Pk but span too little
    arrow1 = frozenset({RelationId.Arrow1})
    monkeypatch.setitem(cli.RELATION_SETS, "arrow12", arrow1)
    monkeypatch.setitem(cli.RELATION_SETS, "pkbasis", arrow1)
    dims = (1, 2, 5, 11)
    for check, key, counts in (("thm2a", "edge_rank", (0, 1, 3, 8)), ("thm33", "edges", (0, 1, 3, 8))):
        code, out = run_cli(capsys, "verify", check, "--deg", "1..5")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        first, *rest = report["rows"]
        assert first["pass"] and "witness" not in first
        assert not any(row["pass"] for row in rest)
        assert [row["witness"] for row in rest] == [
            {"kernel_dim": dim, key: count} for dim, count in zip(dims, counts)
        ]

    monkeypatch.setattr(cli, "check_spanning_M", lambda stat, n: False)
    code, out = run_cli(capsys, "verify", "thm3a", "--deg", "1..3")
    assert code == 1
    assert [row["witness"] for row in json.loads(out)["rows"]] == [
        {"kernel_dim": dim} for dim in (0, 1, 2)
    ]

    # planted: Pk's classes are max_part's, not an ideal from degree 5, so in the one
    # scan of all 13 statistics only Pk fails; its row carries max_part's violations
    def max_part(comp):
        return max(comp.parts) if comp.parts else 0

    violations = kernel.is_ideal_upto(max_part, 5)["violations"]
    real = kernel.kernel_space
    monkeypatch.setattr(kernel, "kernel_space", lambda stat, n: real(max_part if stat is StatisticId.Pk else stat, n))
    code, out = run_cli(capsys, "verify", "ideal", "--deg", "1..5")
    assert code == 1
    assert violations == [{"row_degree": 4, "factor": "(1)", "row": {"(2,2)": "1", "(2,1,1)": "-1"}}]
    for row in json.loads(out)["rows"]:
        fails = row["stat"] == "Pk"
        assert row["pass"] is not fails
        assert row.get("witness") == (violations if fails else None)


@pytest.mark.parametrize("name, broken, flag", [
    ("f_to_m", lambda elem: QSymElement(elem.n, "M", {}), "round_trip"),
    ("lemma22b_combination", lambda n, c, k: QSymElement(n, "F", {}), "part_b"),
    ("lemma22c_combination", lambda n, c, k: QSymElement(n, "F", {}), "part_c"),
], ids=["f_to_m", "lemma22b", "lemma22c"])
def test_lemma22_reports_the_part_that_fails(capsys, monkeypatch, name, broken, flag):
    # planted: one map returns zero, so only its part of Lemma 2.2 fails; the check
    # imports the maps when it runs, so the planted one is read off `qsym`
    monkeypatch.setattr(qsym, name, broken)
    code, out = run_cli(capsys, "verify", "lemma22", "--deg", "3..5")
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [row["degree"] for row in rows] == [3, 4, 5]
    for row in rows:
        assert row["pass"] is False
        assert row["details"] == {part: part != flag for part in ("round_trip", "part_b", "part_c")}


def test_shufflecheck(capsys):
    code, out = run_cli(capsys, "shufflecheck", "Des", "4")
    assert code == 0
    report = json.loads(out)
    assert report["compatible"] is True
    assert report["statistic"] == "Des"
    with pytest.raises(SystemExit) as info:
        main(["shufflecheck", "NotAStat", "4"])
    assert info.value.code == 2


def test_shufflecheck_length_is_validated(capsys):
    for argv in (["shufflecheck", "Pk", "-1"], ["--max-degree", "4", "shufflecheck", "Pk", "5"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_console_script_subprocess():
    import os
    import subprocess
    import sys

    # the child imports the package under test, wherever pytest found it
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qsymk.cli", "verify", "thm33", "--deg", "1..4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
