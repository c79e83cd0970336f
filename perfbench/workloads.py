"""Workload inputs and the exact output gate.

Batch workloads are lists of `qsymk` CLI jobs, each run in a fresh
process.  The query-stream workload is a seeded list of small library
requests sent to one warm `serve.py` process.  Every job report and
every reply is checked exactly here; nothing counts as correct unless
its check passes.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from pathlib import Path

STATISTICS = ("Des", "des", "maj", "Pk", "pk", "Epk", "epk", "Lpk", "lpk", "Rpk", "rpk", "Val", "val")


@dataclass(frozen=True)
class Job:
    """One `qsymk` invocation and the shape its report must have."""

    argv: tuple[str, ...]
    degrees: tuple[int, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _verify(check: str, hi: int) -> Job:
    return Job(("verify", check, "--deg", f"1..{hi}"), tuple(range(1, hi + 1)))


def batch_jobs(workload: str, quick: bool) -> list[Job]:
    """The jobs of one pass of a batch workload; `quick` shrinks every
    degree range for the self-test."""
    def d(full: int, small: int) -> int:
        return small if quick else full

    if workload == "verify-batch":
        return [
            _verify("thm2b", d(12, 7)),
            _verify("thm35", d(11, 6)),
            _verify("thm3b", d(11, 6)),
            _verify("thm53b", d(11, 6)),
            _verify("props4", d(9, 5)),
            _verify("bridges", d(10, 5)),
            Job(("dims", "--deg", f"1..{d(11, 6)}"), tuple(range(1, d(11, 6) + 1))),
        ]
    if workload == "shuffle-products":
        ideal = d(9, 5)
        return [
            Job(("verify", "ideal", "--deg", f"1..{ideal}"), (ideal,)),
            Job(("shufflecheck", "Pk", str(d(9, 5))), ()),
            Job(("shufflecheck", "Epk", str(d(9, 5))), ()),
        ]
    raise ValueError(f"not a batch workload: {workload}")


def check_job(job: Job, returncode: int, stdout: str) -> str | None:
    """None when the job's output is exactly right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    command = job.argv[0]
    if command == "dims":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        seen = {(r["stat"], int(r["degree"])) for r in rows}
        if len(rows) != len(STATISTICS) * len(job.degrees) or seen != {
            (s, n) for s in STATISTICS for n in job.degrees
        }:
            return f"dims has {len(rows)} rows, not one per statistic and degree"
        for r in rows:
            n = int(r["degree"])
            if int(r["kernel_dim"]) + int(r["quotient_dim"]) != 1 << (n - 1):
                return f"dimension law fails for {r['stat']} at degree {n}"
        return None
    report = json.loads(stdout)
    if command == "shufflecheck":
        if report.get("compatible") is not True:
            return "shufflecheck did not report compatible"
        if report.get("statistic") != job.argv[1] or report.get("max_total_length") != int(job.argv[2]):
            return "shufflecheck report names another statistic or length"
        return None
    check = job.argv[1]
    rows = report.get("rows", [])
    if report.get("pass") is not True or report.get("check") != check:
        return f"verify {check} did not pass"
    if not all(row.get("pass") is True and row.get("check") == check for row in rows):
        return f"verify {check} has a failing row"
    if check == "ideal":
        if sorted(row.get("stat") for row in rows) != sorted(STATISTICS):
            return "ideal report does not cover every statistic"
        expected_degrees = list(job.degrees) * len(STATISTICS)
    else:
        expected_degrees = list(job.degrees)
    if sorted(row.get("degree") for row in rows) != expected_degrees:
        return f"verify {check} has {len(rows)} rows, expected {len(expected_degrees)}"
    return None


# -- query stream -------------------------------------------------------------

_EXPECTED_SPANNING: dict[str, list[bool]] = json.loads(
    Path(__file__).with_name("expected_spanning.json").read_text(encoding="utf-8")
)
SPAN_PAIRS = tuple(tuple(key.split("/")) for key in _EXPECTED_SPANNING)

STREAM_LENGTH = 3000
QUICK_STREAM_LENGTH = 300
# Degrees are drawn with weight DEGREE_SKEW ** n, so small inputs dominate
# and repeat; the caps keep every request small.
DEGREE_SKEW = 0.85
MAX_DEGREE = {"dims": 10, "span": 9, "mul": 6, "rt": 10, "invol": 9}
KINDS = tuple(MAX_DEGREE)


def _spread(values, weights, count: int, rng: random.Random) -> list:
    """`count` values at evenly spaced quantiles of the weighted
    distribution, in seeded order: the mix is the same for every seed."""
    total = sum(weights)
    bounds = list(accumulate(w / total for w in weights))
    out = []
    i = 0
    for j in range(count):
        while (j + 0.5) / count > bounds[i]:
            i += 1
        out.append(values[i])
    rng.shuffle(out)
    return out


def _masks(n: int, count: int, rng: random.Random) -> list[int]:
    """Random composition indices of degree n whose numbers of parts
    follow the uniform distribution's, at fixed proportions.  The cost of
    a basis change grows as 3 ** (parts - 1), so fixing the mix keeps the
    cost of a stream from depending on the seed."""
    positions = range(n - 1)
    sizes = _spread(range(n), [comb(n - 1, k) for k in range(n)], count, rng)
    return [sum(1 << p for p in rng.sample(positions, k)) for k in sizes]


def make_stream(seed: int, length: int) -> list[dict]:
    """A seeded request stream.

    The number of requests of each kind and degree is fixed by the
    weights.  Within each kind and degree, the statistics, spanning
    pairs, factor degrees, term counts, numbers of parts and bases are
    dealt at fixed proportions.  The seed picks the order and the
    remaining choices, so every seed costs about the same.
    """
    rng = random.Random(seed)
    stream: list[dict] = []
    for kind in KINDS:
        degrees = range(1, MAX_DEGREE[kind] + 1)
        weights = [DEGREE_SKEW ** n for n in degrees]
        for n, w in zip(degrees, weights):
            count = max(1, round(length / len(KINDS) * w / sum(weights)))
            if kind == "dims":
                stream += [{"op": "dims", "stat": stat, "n": n}
                           for stat in _spread(STATISTICS, [1] * len(STATISTICS), count, rng)]
            elif kind == "span":
                stream += [{"op": "span", "stat": stat, "rels": rels, "n": n}
                           for stat, rels in _spread(SPAN_PAIRS, [1] * len(SPAN_PAIRS), count, rng)]
            elif kind == "mul":
                for nb in _spread(range(1, 7), [DEGREE_SKEW ** k for k in range(1, 7)], count, rng):
                    stream.append({"op": "mul", "a": [n, rng.randrange(1 << (n - 1))],
                                   "b": [nb, rng.randrange(1 << (nb - 1))]})
            else:
                sizes = _spread((1, 2), (2, 1), count, rng)
                masks = iter(_masks(n, sum(sizes), rng))
                bases = _spread(("M", "F"), (1, 1), count, rng)
                for size, basis in zip(sizes, bases):
                    terms = {next(masks): rng.choice((-2, -1, 1, 2)) for _ in range(size)}
                    req = {"op": kind, "n": n, "terms": [[m, c] for m, c in sorted(terms.items())]}
                    if kind == "invol":
                        req["basis"] = basis
                    stream.append(req)
    rng.shuffle(stream)
    return stream


def repeat_share(keys: list) -> float:
    """Share of inputs equal to an earlier input."""
    seen: set = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def _same_terms(reply_terms: list, terms: list) -> bool:
    return [[mask, Fraction(value)] for mask, value in reply_terms] == [
        [mask, Fraction(value)] for mask, value in terms
    ]


def check_reply(req: dict, reply: dict) -> str | None:
    """None when the reply satisfies the request's exact invariant."""
    if reply.get("ok") is not True:
        return f"server error: {reply.get('error')}"
    result = reply["result"]
    op = req["op"]
    if op == "dims":
        dim, qdim = result
        if dim < 0 or qdim < 1 or dim + qdim != 1 << (req["n"] - 1):
            return "dimension law fails"
    elif op == "span":
        if result is not _EXPECTED_SPANNING[f"{req['stat']}/{req['rels']}"][req["n"] - 1]:
            return "spanning verdict differs from the expected one"
    elif op == "mul":
        (na, _), (nb, _) = req["a"], req["b"]
        coeffs = [Fraction(value) for _, value in result]
        if any(c.denominator != 1 or c <= 0 for c in coeffs) or sum(coeffs) != comb(na + nb, na):
            return "product coefficients do not sum to the shuffle count"
        if any(not 0 <= mask < 1 << (na + nb - 1) for mask, _ in result):
            return "product has an index outside its degree"
    elif op == "rt":
        if not _same_terms(result, req["terms"]):
            return "m_to_f / f_to_m round trip is not the identity"
    elif op == "invol":
        if not (_same_terms(result["psi"], req["terms"]) and _same_terms(result["rho"], req["terms"])):
            return "psi o psi or rho o rho is not the identity"
    else:
        return f"unknown op {op}"
    return None
