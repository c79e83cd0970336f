"""Long-lived qsymk library server for the query-stream workload.

Usage: python3 perfbench/serve.py [--trace]

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout, in order.  After a warm-up that exercises every request
kind once at a tiny degree, it prints {"ready": true}.  A {"op": "quit"}
request ends the session; its reply carries the tracer's report when
--trace was given (the tracer is installed after the warm-up, so only
the stream is traced).  `src` must be on PYTHONPATH.

Requests (coefficient terms are [mask, value] pairs, masks being
composition indices):
  {"op": "dims", "stat": S, "n": N}            -> [kernel dim, quotient dim]
  {"op": "span", "stat": S, "rels": R, "n": N} -> check_spanning_F verdict
  {"op": "mul", "a": [NA, MA], "b": [NB, MB]}  -> terms of F_A * F_B
  {"op": "rt", "n": N, "terms": T}             -> terms of f_to_m(m_to_f(M-element))
  {"op": "invol", "n": N, "basis": B, "terms": T}
                                              -> {"psi": psi(psi(x)), "rho": rho(rho(x))}
Replies are {"ok": true, "result": ...} or {"ok": false, "error": "..."}.
"""

from __future__ import annotations

import json
import sys

import qsymk
from qsymk.cli import RELATION_SETS
from tracer import Tracer


def _terms(elem) -> list:
    return [[mask, str(value)] for mask, value in sorted(elem.coeffs.items())]


def _element(n: int, basis: str, terms: list):
    return qsymk.QSymElement(n, basis, {mask: value for mask, value in terms})


def handle(req: dict):
    op = req["op"]
    if op == "dims":
        stat, n = qsymk.parse_statistic(req["stat"]), req["n"]
        return [qsymk.kernel_space(stat, n).dim, qsymk.quotient_dimension(stat, n)]
    if op == "span":
        stat = qsymk.parse_statistic(req["stat"])
        return qsymk.check_spanning_F(stat, req["n"], RELATION_SETS[req["rels"]])
    if op == "mul":
        (na, ma), (nb, mb) = req["a"], req["b"]
        left = qsymk.fundamental(qsymk.from_index(na, ma))
        right = qsymk.fundamental(qsymk.from_index(nb, mb))
        return _terms(qsymk.multiply_f(left, right))
    if op == "rt":
        elem = _element(req["n"], "M", req["terms"])
        return _terms(qsymk.f_to_m(qsymk.m_to_f(elem)))
    if op == "invol":
        elem = _element(req["n"], req["basis"], req["terms"])
        return {
            "psi": _terms(qsymk.psi(qsymk.psi(elem))),
            "rho": _terms(qsymk.rho(qsymk.rho(elem))),
        }
    raise ValueError(f"unknown op {op!r}")


WARM_UP = (
    {"op": "dims", "stat": "Pk", "n": 2},
    {"op": "span", "stat": "Pk", "rels": "arrow12", "n": 2},
    {"op": "mul", "a": [1, 0], "b": [2, 1]},
    {"op": "rt", "n": 2, "terms": [[1, 1]]},
    {"op": "invol", "n": 2, "basis": "M", "terms": [[0, 1]]},
)


def _write(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    for req in WARM_UP:
        handle(req)
    tracer = Tracer().install() if "--trace" in sys.argv[1:] else None
    _write({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("op") == "quit":
            _write({"ok": True, "trace": tracer.report() if tracer else None})
            return 0
        try:
            reply = {"ok": True, "result": handle(req)}
        except Exception as exc:  # one bad request must not end the session
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        _write(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
