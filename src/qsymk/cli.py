"""Command-line front end.

Subcommands:
  verify CHECK       run a named verification over a degree range
  dims               tabulate kernel and quotient dimensions
  graph              export a relation graph (dot/json/csv)
  shufflecheck       shuffle-compatibility check, from F products

Every number (a degree, LO..HI, MAXLEN, --max-degree) is ASCII digits 0-9.
Exit codes: 0 all checks passed, 1 a check failed (report carries a
witness), 2 usage error, 141 (128 + SIGPIPE) the output pipe was closed.
Reports are UTF-8 JSON with sorted keys, so output is byte-for-byte
deterministic for identical flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import config
from .compositions import full_mask, mask_to_set, parse_natural
from .errors import QsymkError
# the F checks and the dimensions only; each runner imports the module of any other check it runs
from .kernel import (RelationId, check_basis_F, check_spanning_F, edge_vectors, is_forest, kernel_space,
                     quotient_dimension, relation_edges)
from .statistics import StatisticId, check_shuffle_compatible, parse_statistic

SCHEMA_VERSION = 1

RELATION_SETS: dict[str, frozenset[RelationId]] = {
    **{rel.value: frozenset({rel}) for rel in RelationId if rel is not RelationId.CTilde},
    "arrow12": frozenset({RelationId.Arrow1, RelationId.Arrow2}),
    "arrow123": frozenset({RelationId.Arrow1, RelationId.Arrow2, RelationId.Arrow3}),
    "tri12": frozenset({RelationId.Tri1, RelationId.Tri2}),
    "tri12ctilde": frozenset({RelationId.Tri1, RelationId.Tri2, RelationId.CTilde}),
    "val12": frozenset({RelationId.ValArrow1, RelationId.ValArrow2}),
    "val123": frozenset({RelationId.ValArrow1, RelationId.ValArrow2, RelationId.ValArrow3}),
}

# (stat, relation-set name) pairs on which `verify thm1a/thm1b` compares
# the graph verdicts (components, forest) with elimination; the list mixes
# spanning and non-spanning, forest and non-forest cases.
THM1_SUITE: tuple[tuple[StatisticId, str], ...] = (
    (StatisticId.Pk, "arrow12"),
    (StatisticId.Pk, "arrow1"),
    (StatisticId.Pk, "arrow2"),
    (StatisticId.Pk, "pkbasis"),
    (StatisticId.pk, "arrow123"),
    (StatisticId.pk, "arrow12"),
    (StatisticId.pk, "arrow3"),
    (StatisticId.pk, "pknumbasis"),
    (StatisticId.Val, "val12"),
    (StatisticId.Val, "val1"),
    (StatisticId.val, "val123"),
    (StatisticId.val, "val3"),
    (StatisticId.Epk, "epkarrow"),
)


def _edge_rows(stat: StatisticId, relname: str, n: int, basis: bool = False) -> list[dict]:
    rels = RELATION_SETS[relname]
    passed = (check_basis_F if basis else check_spanning_F)(stat, n, rels)
    row = {"pass": passed, "stat": stat.value, "rels": relname}
    if not passed:
        graph = relation_edges(rels, n)
        edges = {"edges": len(graph.edges)} if basis else {"edge_rank": graph.edge_rank}
        row["witness"] = {"kernel_dim": kernel_space(stat, n).dim, **edges}
    return [row]


def _monomial_rows(stat: StatisticId, n: int) -> list[dict]:
    from .monomial_span import check_spanning_M
    passed = check_spanning_M(stat, n)
    witness = {} if passed else {"witness": {"kernel_dim": kernel_space(stat, n).dim}}
    return [{"pass": passed, "stat": stat.value, **witness}]


def _thm0_rows(n: int) -> list[dict]:
    from .monomial_span import check_spanning_M
    f_ok = check_spanning_F(StatisticId.Epk, n, RELATION_SETS["epkarrow"])
    m_ok = check_spanning_M(StatisticId.Epk, n)
    return [{"pass": f_ok and m_ok, "stat": "Epk", "details": {"fundamental": f_ok, "monomial": m_ok}}]


def _thm1_rows(which: str, n: int) -> list[dict]:
    # the one runtime check of Theorem 1: the graph verdicts of the kernel checks against
    # the rank of the edge differences, found by elimination once per relation set
    from .linalg import rank  # thm1a/thm1b and lemma22 alone load linalg and qsym
    rows, edge_ranks = [], {}
    for stat, relname in THM1_SUITE:
        rels = RELATION_SETS[relname]
        graph = relation_edges(rels, n)
        if relname not in edge_ranks:  # by larger index, descending: short pivot chains
            edges = sorted(edge_vectors(graph), key=lambda v: max(v.entries, default=0), reverse=True)
            edge_ranks[relname] = rank(edges, n)
        edge_rank = edge_ranks[relname]
        spanning, ranked = check_spanning_F(stat, n, rels), edge_rank == kernel_space(stat, n).dim
        forest, independent = is_forest(graph), edge_rank == len(graph.edges)
        disagreement = None
        if spanning != ranked:
            disagreement = f"graph criterion ({spanning}) and rank comparison ({ranked})"
        elif which == "thm1b" and forest != independent:
            disagreement = f"forest criterion ({forest}) and independence ({independent})"
        witness = {"witness": f"{disagreement} disagree for {stat.value} at degree {n}"} if disagreement else {}
        rows.append({"pass": disagreement is None, "stat": stat.value, "rels": relname, **witness})
    return rows


def _props4_rows(n: int) -> list[dict]:
    from .monomial_span import check_section4_props
    return _report_rows(check_section4_props(n))


def _bridges_rows(n: int) -> list[dict]:
    from .bridges import check_symmetry_bridges
    return _report_rows(check_symmetry_bridges(n))


def _report_rows(report: dict) -> list[dict]:
    return [{"pass": report["pass"], "details": report["results"]}]


def _lemma22_rows(n: int) -> list[dict]:
    from .qsym import QSymElement, f_to_m, lemma22b_combination, lemma22c_combination, m_to_f
    masks = range(full_mask(n) + 1)
    m_in_f = [m_to_f(QSymElement(n, "M", {mask: 1})) for mask in masks]  # each M_C once, for every part
    round_trip = part_b = part_c = True
    for mask in masks:
        f_elem, c_set = QSymElement(n, "F", {mask: 1}), mask_to_set(mask)
        if f_to_m(m_in_f[mask]) != QSymElement(n, "M", {mask: 1}) or m_to_f(f_to_m(f_elem)) != f_elem:
            round_trip = False
        for k in range(1, n):
            if (mask >> (k - 1)) & 1:
                continue
            pair = m_in_f[mask] + m_in_f[mask | (1 << (k - 1))]
            if lemma22b_combination(n, c_set, k) != pair:
                part_b = False
            if k >= 2 and not (mask >> (k - 2)) & 1 and lemma22c_combination(n, c_set, k) != pair:
                part_c = False
    details = {"round_trip": round_trip, "part_b": part_b, "part_c": part_c}
    return [{"pass": all(details.values()), "details": details}]


# each runner returns the degree's rows as {"pass": ..., **fields}; `_cmd_verify` adds check and degree
PER_DEGREE_CHECKS = {
    "thm0": _thm0_rows,
    "thm1a": lambda n: _thm1_rows("thm1a", n),
    "thm1b": lambda n: _thm1_rows("thm1b", n),
    "thm2a": lambda n: _edge_rows(StatisticId.Pk, "arrow12", n),
    "thm2b": lambda n: _edge_rows(StatisticId.pk, "arrow123", n),
    "thm33": lambda n: _edge_rows(StatisticId.Pk, "pkbasis", n, basis=True),
    "thm35": lambda n: _edge_rows(StatisticId.pk, "pknumbasis", n, basis=True),
    "thm3a": lambda n: _monomial_rows(StatisticId.Pk, n),
    "thm3b": lambda n: _monomial_rows(StatisticId.pk, n),
    "thm53a": lambda n: _edge_rows(StatisticId.Val, "val12", n),
    "thm53b": lambda n: _edge_rows(StatisticId.val, "val123", n),
    "props4": _props4_rows,
    "lemma22": _lemma22_rows,
    "bridges": _bridges_rows,
}

CHECK_NAMES = tuple(PER_DEGREE_CHECKS) + ("ideal",)


def _parse_degrees(text: str) -> list[int]:
    bounds = [parse_natural(bound, "--deg") for bound in text.split("..")]
    if len(bounds) > 2 or bounds[-1] < bounds[0]:
        raise ValueError(f"bad degree range {text!r}")
    return list(range(bounds[0], bounds[-1] + 1))


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    if args.stat and args.check != "ideal":
        raise ValueError(f"--stat applies only to the ideal check, not {args.check}")
    degrees = _parse_degrees(args.deg)
    if args.check == "ideal":
        from .ideal import ideal_reports
        stats = [parse_statistic(args.stat)] if args.stat else list(StatisticId)
        verdicts = [(report["total_degree"], {"pass": report["ideal"], "stat": report["stat"],
                     **({} if report["ideal"] else {"witness": report["violations"]})})
                    for report in ideal_reports(stats, max(degrees))]
    else:
        verdicts = [(n, row) for n in degrees for row in PER_DEGREE_CHECKS[args.check](n)]
    rows = [{"check": args.check, "degree": n, **row} for n, row in verdicts]
    passed = all(row["pass"] for row in rows)
    report = {"schema_version": SCHEMA_VERSION, "check": args.check, "pass": passed, "rows": rows}
    return _json(report), 0 if passed else 1


def _cmd_dims(args: argparse.Namespace) -> tuple[str, int]:
    degrees = _parse_degrees(args.deg)
    stats = [parse_statistic(name) for name in args.stat] if args.stat else list(StatisticId)
    for i, stat in enumerate(stats):
        if stat in stats[:i]:
            raise ValueError(f"--stat {stat.value} is given more than once")
    records = [
        {
            "stat": stat.value,
            "degree": n,
            "kernel_dim": kernel_space(stat, n).dim,
            "quotient_dim": quotient_dimension(stat, n),
        }
        for stat in stats
        for n in degrees
    ]
    if args.format == "json":
        return _json(records), 0
    sep = "\t" if args.format == "tsv" else ","
    fields = ("stat", "degree", "kernel_dim", "quotient_dim")
    lines = [sep.join(fields)] + [sep.join(str(record[f]) for f in fields) for record in records]
    return "\n".join(lines) + "\n", 0


GRAPH_FORMATS = ("dot", "json", "csv")


def _cmd_graph(args: argparse.Namespace) -> tuple[str, int]:
    from .bridges import graphs_to_csv, graphs_to_dot, graphs_to_json_dict
    degrees = _parse_degrees(args.deg)
    graphs = [relation_edges(RELATION_SETS[args.rels], n) for n in degrees]
    if args.format == "json":
        return _json(graphs_to_json_dict(graphs)), 0
    return (graphs_to_dot if args.format == "dot" else graphs_to_csv)(graphs), 0


def _cmd_shufflecheck(args: argparse.Namespace) -> tuple[str, int]:
    report = check_shuffle_compatible(parse_statistic(args.stat), parse_natural(args.max_total_len, "MAXLEN"))
    return _json({"schema_version": SCHEMA_VERSION, **report.as_dict()}), 0 if report.compatible else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsymk",
        description="Exact verification of kernel subspaces of descent statistics.",
    )
    parser.add_argument("--max-degree", default=os.environ.get("QSYMK_MAX_DEGREE"),
                        help="override the configured maximum degree "
                             "(default: $QSYMK_MAX_DEGREE, if set)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named check over a degree range")
    p_verify.add_argument("check", choices=CHECK_NAMES, help="the check to run; ideal checks every total degree up to HI")
    p_verify.add_argument("--stat", default=None, help="restrict the ideal check to one statistic")
    p_verify.set_defaults(func=_cmd_verify)

    p_dims = sub.add_parser("dims", help="kernel/quotient dimension table")
    p_dims.add_argument("--stat", action="append", default=None,
                        help="statistic name (repeatable, each once; default all)")
    p_dims.add_argument("--format", choices=("csv", "tsv", "json"), default="csv")
    p_dims.set_defaults(func=_cmd_dims)

    p_graph = sub.add_parser("graph", help="export a relation graph")
    p_graph.add_argument("--rels", choices=sorted(RELATION_SETS), required=True)
    p_graph.add_argument("--format", choices=GRAPH_FORMATS, default="dot")
    p_graph.set_defaults(func=_cmd_graph)

    p_shuf = sub.add_parser("shufflecheck", help="shuffle-compatibility check, from F products")
    p_shuf.add_argument("stat")
    p_shuf.add_argument("max_total_len", metavar="MAXLEN")
    p_shuf.set_defaults(func=_cmd_shufflecheck)

    for p_sub, deg in ((p_verify, "1..8"), (p_dims, "1..8"), (p_graph, "1..5")):
        p_sub.add_argument("--deg", default=deg, help="degree N or range LO..HI (default %(default)s)")
    for p_sub in sub.choices.values():
        p_sub.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    restore, out, created, written = False, None, False, False
    try:
        if args.max_degree is not None:
            previous, restore = config.set_max_degree(parse_natural(args.max_degree, "--max-degree or QSYMK_MAX_DEGREE")), True
        if args.out:
            # opened before the run, so a bad path fails first; truncated only once there is a report
            created = not os.path.exists(args.out)
            out = open(args.out, "a", encoding="utf-8")
        text, code = args.func(args)
        if out is not None and out.seekable():  # a pipe or FIFO cannot be truncated
            out.truncate(0)
        print(text, end="", file=out or sys.stdout, flush=True)
        written = True
        return code
    except BrokenPipeError:  # exit as SIGPIPE would; devnull takes the flushes at close and exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), (out or sys.stdout).fileno())
        return 141
    except (QsymkError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    finally:
        if out is not None:
            out.close()
            if created and not written:
                os.remove(args.out)
        if restore:
            config.set_max_degree(previous)


if __name__ == "__main__":
    sys.exit(main())
