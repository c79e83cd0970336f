from __future__ import annotations

import json
import os
import pathlib
import random
import re
import subprocess
import sys
import threading

import pytest

import figure_data
from golden_argv import golden_argv
from qsymk import cli, config, ideal, kernel, linalg, monomial_span, qsym
from qsymk.cli import CHECK_NAMES, main
from qsymk.compositions import compositions_of
from qsymk.kernel import RelationId, relation_edges
from qsymk.qsym import QSymElement
from qsymk.statistics import StatisticId

GOLDEN = pathlib.Path(__file__).parent / "golden"

# CLI reports, each the stdout of the argv its file name spells (see
# golden_argv.py): the verify and dims reports recorded before the spanning
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
GOLDEN_NAMES = sorted(path.name for path in GOLDEN.iterdir())


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


def test_thm1_ranks_sorted_edges(monkeypatch):
    # thm1a/thm1b eliminate the edge vectors by larger index, descending, which walks
    # short pivot chains; the rank must still be the component count's
    calls = []

    def spy(vectors, n):
        vectors = list(vectors)
        calls.append((vectors, linalg_rank(vectors, n)))
        return calls[-1][1]

    linalg_rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", spy)
    relnames = list(dict.fromkeys(relname for _, relname in cli.THM1_SUITE))
    for n in (13, 14):
        calls.clear()
        assert all(row["pass"] for row in cli._thm1_rows("thm1a", n))
        assert len(calls) == len(relnames)
        for relname, (vectors, got) in zip(relnames, calls):
            assert got == relation_edges(cli.RELATION_SETS[relname], n).edge_rank, (relname, n)
            larger = [max(v.entries, default=0) for v in vectors]
            assert larger == sorted(larger, reverse=True), (relname, n)


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


@pytest.mark.parametrize("argv, name", [
    (["verify", "thm2a", "--deg", ""], "--deg"),
    (["verify", "thm2a", "--deg", "1_0"], "--deg"),
    (["verify", "thm2a", "--deg", "\u0663"], "--deg"),  # ARABIC-INDIC DIGIT THREE
    (["dims", "--deg", "\uff13..4"], "--deg"),  # FULLWIDTH DIGIT THREE
    (["graph", "--rels", "arrow1", "--deg", "+3"], "--deg"),
    (["verify", "thm2a", "--deg", "1.."], "--deg"),
    (["verify", "thm2a", "--deg", "1..2..3"], "degree range"),
    (["shufflecheck", "Pk", "1_0"], "MAXLEN"),
    (["shufflecheck", "Pk", " 3"], "MAXLEN"),
    (["--max-degree", "\u0663", "dims"], "--max-degree"),
    (["--max-degree", "", "dims"], "--max-degree"),
])
def test_numbers_are_ascii_digits_only(tmp_path, capsys, argv, name):
    # int() takes "1_0", " 3" and other scripts' digits; the CLI takes [0-9]+ alone
    target = tmp_path / "report"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(target)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and name in captured.err
    assert not target.exists()


def test_degree_defaults_live_in_the_parser():
    parser = cli.build_parser()
    for argv, default in ((["verify", "thm2a"], "1..8"), (["dims"], "1..8"), (["graph", "--rels", "arrow1"], "1..5")):
        assert parser.parse_args(argv).deg == default


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
    previous = config.set_max_degree(12)
    try:
        monkeypatch.setenv("QSYMK_MAX_DEGREE", "3")
        with pytest.raises(SystemExit) as info:
            main(["dims", "--deg", "4..4"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the configured maximum 3" in captured.err
        # the flag wins over the variable, and either leaves the caller's limit in place
        assert config.max_degree() == 12
        code, out = run_cli(capsys, "--max-degree", "5", "dims", "--stat", "Pk", "--deg", "5..5")
        assert code == 0
        assert out.splitlines()[1].startswith("Pk,5,")
        assert config.max_degree() == 12
    finally:
        config.set_max_degree(previous)


@pytest.mark.parametrize("raw", ["not-a-number", "-1", "", "x", "\u0663"])
def test_bad_max_degree_variable_is_usage_error(capsys, monkeypatch, raw):
    # the refusal names the variable as well as the flag it stands for
    previous = config.set_max_degree(12)
    try:
        monkeypatch.setenv("QSYMK_MAX_DEGREE", raw)
        with pytest.raises(SystemExit) as info:
            main(["dims", "--deg", "1..2"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-degree or QSYMK_MAX_DEGREE takes the ASCII digits 0-9, not {raw!r}\n"
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
    assert out == (GOLDEN / "graph_arrow123_deg3.dot").read_text()


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_reports_match_golden_files(capsys, name):
    code, out = run_cli(capsys, *golden_argv(name))
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_names_follow_the_grammar():
    assert golden_argv("graph_pknumbasis_deg1-7.json") == [
        "graph", "--rels", "pknumbasis", "--deg", "1..7", "--format", "json"]
    assert golden_argv("dims_deg1-8.csv") == ["dims", "--deg", "1..8", "--format", "csv"]
    # a misnamed golden cannot be run, so its parametrized test fails by name
    for name in ("arrow123_deg3.dot", "verify_thm2a_deg1..6.json", "verify_thm2a_deg6.json",
                 "shufflecheck_Pk_9.csv", "graph_pkbasis_deg0-10", "dims_deg1-8.csv.orig"):
        with pytest.raises(ValueError, match="not a golden file name"):
            golden_argv(name)
    # every check keeps its degree 1..6 report
    assert {f"verify_{check}_deg1-6.json" for check in CHECK_NAMES} <= set(GOLDEN_NAMES)


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

    monkeypatch.setattr(ideal, "ideal_reports", refuse)
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


# usage errors, each with the text its message names: nothing is printed, and exit is 2
USAGE_ERRORS = (
    (["verify", "thm2a", "--deg", "5..3"], "5..3"),
    (["verify", "thm2a", "--stat", "Nope"], "--stat"),
    (["verify", "ideal", "--stat", "Nope"], "Nope"),
    (["dims", "--stat", "Nope"], "Nope"),
    (["dims", "--stat", "Pk", "--stat", "Pk", "--deg", "2..3"], "--stat Pk"),  # it printed each row twice
)


def _refused(capsys, argv: list[str], name: str) -> None:
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and name in captured.err, argv


def test_usage_error_keeps_an_existing_out_file(tmp_path, capsys):
    target = tmp_path / "old.json"
    target.write_bytes(b"old report\n")
    for argv, name in USAGE_ERRORS:
        _refused(capsys, [*argv, "--out", str(target)], name)
        assert target.read_bytes() == b"old report\n", argv
    # a run that completes replaces the old bytes entirely
    code, out = run_cli(capsys, "verify", "thm2a", "--deg", "1..2", "--out", str(target))
    assert (code, out) == (0, "")
    assert json.loads(target.read_text())["pass"] is True


def test_usage_error_creates_no_out_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "new.json"
    for argv, name in USAGE_ERRORS:
        _refused(capsys, argv, name)
        _refused(capsys, [*argv, "--out", str(target)], name)
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

    monkeypatch.setattr(monomial_span, "check_spanning_M", lambda stat, n: False)
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
    monkeypatch.setattr(ideal, "kernel_space", lambda stat, n: real(max_part if stat is StatisticId.Pk else stat, n))
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


def test_lemma22_expands_each_basis_element_once(capsys, monkeypatch):
    # M_C is expanded once and read by the round trip and by parts (b)/(c): the 32 M_C
    # and the 32 round-tripped F_C at degree 6, not a fresh pair for each of the 80 (C, k)
    calls = []
    real = qsym.m_to_f
    monkeypatch.setattr(qsym, "m_to_f", lambda elem: calls.append(elem) or real(elem))
    code, out = run_cli(capsys, "verify", "lemma22", "--deg", "6..6")
    assert code == 0 and json.loads(out)["pass"] is True
    assert len(calls) == 64


def test_runners_return_verdicts_and_verify_adds_check_and_degree(capsys):
    for check, runner in cli.PER_DEGREE_CHECKS.items():
        rows = runner(3)
        assert rows and all("check" not in row and "degree" not in row for row in rows), check
        code, out = run_cli(capsys, "verify", check, "--deg", "3")
        assert code == 0
        assert json.loads(out)["rows"] == [{"check": check, "degree": 3, **row} for row in rows], check


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


# The input contract, fuzzed: an invocation is drawn as words and options whose
# values are names, ints or (lo, hi) ranges, at degrees <= 4.  `_spell` writes it
# canonically, or with a free choice of the grammar: leading zeros, N for N..N,
# --flag=value, option order.  A corrupted draw swaps one value for a token the
# grammar refuses.
FUZZ_BAD_NUMBERS = ("", "1_0", "\u0663", "\uff13", "\u00b3", "+3", "-1", " 3", "3 ", "3.0", "0x3", "1e1")
FUZZ_BAD_RANGES = ("1..", "..2", "..", "1..2..3", "4..1", "1...2", "1-3", "1. .2")
FUZZ_BAD_NAMES = ("", "nope", "PK", "thm9", "Pk ", "arrow4")


def _fuzz_draw(rng):
    """(global options, words, options) of one valid invocation."""
    lo = rng.randint(0, 4)
    deg, stat = (lo, rng.randint(lo, 4)), rng.choice([s.value for s in StatisticId])
    limit = {"--max-degree": rng.choice((5, 16))} if rng.random() < 0.3 else {}
    command = rng.choice(("verify", "dims", "graph", "shufflecheck"))
    if command == "verify":
        check = rng.choice(CHECK_NAMES)
        return limit, ["verify", check], {"--deg": deg, **({"--stat": stat} if check == "ideal" else {})}
    if command == "dims":
        return limit, ["dims"], {"--deg": deg, "--stat": stat, "--format": rng.choice(("csv", "tsv", "json"))}
    if command == "graph":
        rels, fmt = rng.choice(sorted(cli.RELATION_SETS)), rng.choice(tuple(cli.GRAPH_FORMATS))
        return limit, ["graph"], {"--rels": rels, "--deg": deg, "--format": fmt}
    return limit, ["shufflecheck", stat, deg[1]], {}


def _spell(value, rng=None):
    if isinstance(value, tuple):
        lo, hi = (_spell(bound, rng) for bound in value)
        return lo if rng and value[0] == value[1] and rng.random() < 0.5 else f"{lo}..{hi}"
    if isinstance(value, int):
        return (rng.choice(("", "0", "00")) if rng else "") + str(value)
    return value


def _spell_argv(words, options, rng=None):
    argv, items = [_spell(word, rng) for word in words], list(options.items())
    if rng:
        rng.shuffle(items)
    for flag, value in items:
        text = _spell(value, rng)
        argv += [f"{flag}={text}"] if rng and rng.random() < 0.5 else [flag, text]
    return argv


def _corrupt(value, rng):
    if isinstance(value, tuple):
        bound = rng.choice(FUZZ_BAD_NUMBERS)
        return rng.choice((rng.choice(FUZZ_BAD_RANGES), f"{bound}..{value[1]}", f"{value[0]}..{bound}"))
    return rng.choice(FUZZ_BAD_NUMBERS if isinstance(value, int) else FUZZ_BAD_NAMES)


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzzed_argvs_keep_the_input_contract(tmp_path, capsys, seed):
    rng, canonical = random.Random(seed), {}

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # anything else is a traceback, and fails the test
            code = exc.code
        return code, capsys.readouterr()

    for i in range(200):
        limit, words, options = _fuzz_draw(rng)
        want_argv = tuple(_spell_argv([], limit) + _spell_argv(words, options))
        corrupt = rng.random() < 0.4
        if corrupt:
            spots = [(words, k) for k in range(1, len(words))] + [(d, k) for d in (limit, options) for k in d]
            place, key = rng.choice(spots)
            place[key] = _corrupt(place[key], rng)
        argv = _spell_argv([], limit, rng) + _spell_argv(words, options, rng)
        target = tmp_path / f"report{i}" if rng.random() < 0.5 else None
        code, captured = run(argv + (["--out", str(target)] if target else []))
        assert code in (0, 1, 2), argv
        assert (code == 2) == corrupt, (argv, captured.err)
        if code == 2:
            assert captured.out == "" and captured.err, argv
            assert target is None or not target.exists(), argv
            continue
        if want_argv not in canonical:
            canonical[want_argv] = run(list(want_argv))
        want_code, want = canonical[want_argv]
        assert want_code == code, argv
        assert (target.read_text(encoding="utf-8") if target else captured.out) == want.out, argv
        assert captured.err == want.err == "", argv
        if target:
            assert captured.out == "", argv


def _child_env():
    # the child imports the package under test, wherever pytest found it
    src = str(pathlib.Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.mark.parametrize("out", [[], ["--out", "/dev/stdout"]], ids=["stdout", "out-dev-stdout"])
def test_closed_output_pipe_exits_141(out):
    # the read end is closed before the spawn, so the first write fails, with no race
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qsymk.cli", "verify", "thm2a", "--deg", "1..3", *out],
                              stdout=write_end, stderr=subprocess.PIPE, env=_child_env())
    finally:
        os.close(write_end)
    # 128 + SIGPIPE, as a shell reports a writer stopped by a closed pipe; no traceback
    # and no "Exception ignored" line from the flush at exit
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qsymk.cli", "verify", "thm33", "--deg", "1..4"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
