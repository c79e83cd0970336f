"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. A quick run of every workload, untraced and traced, through the real
   command.  Each run must be correct and print exactly the metrics of
   BENCHMARK.json with their units.  Each function mapped to a workload
   must record at least one call there, so that a missed rebinding shows
   up as a failure instead of reading 0.
2. The output gate must accept real outputs and reject deliberately
   wrong ones, for CLI reports and for query-stream replies.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
from workloads import Job, check_job, check_reply

# Functions that must record calls on each workload.
MAPPED_CALLS = {
    "verify-batch": (
        "linalg.reduce", "linalg.spans_equal", "qsym.m_to_f", "kernel.kernel_space",
        "kernel.relation_edges", "statistics.equivalence_classes",
        "compositions.compositions_of",
    ),
    "shuffle-products": (
        "linalg.in_span", "kernel.is_ideal_upto", "kernel.kernel_space",
        "statistics.shuffles", "statistics.check_shuffle_compatible",
    ),
    "query-stream": (
        "kernel.kernel_space", "kernel.relation_edges", "linalg.spans_equal",
        "qsym.m_to_f", "qsym.f_to_m", "qsym.multiply_f", "qsym.psi", "qsym.rho",
        "statistics.equivalence_classes",
    ),
}
# Metrics that must be positive on each workload's traced run.
MAPPED_POSITIVE = {
    "verify-batch": ("cli.self_s", "cli.cpu_s", "cli.pool_overlap"),
    "shuffle-products": ("cli.cpu_s",),
    "query-stream": ("workload.repeat_share",),
}


def quick_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs(errors: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if expected[0] != run.END_TO_END_UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if expected[1] != run.per_layer_units():
        errors.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        errors.append("BENCHMARK.json names a workload that run.py does not know")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = quick_run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: not correct ({result['failed']}/{result['attempted']} failed)")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(units) ^ set(expected[trace]))}")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                zero = [name for name, value in values.items() if not value > 0]
                if zero:
                    errors.append(f"{where}: end-to-end metrics not positive: {zero}")
                continue
            for fn in MAPPED_CALLS[workload]:
                if not values.get(f"{fn}.calls", 0) > 0:
                    errors.append(f"{where}: {fn} recorded no call")
            for name in MAPPED_POSITIVE[workload]:
                if not values.get(name, 0) > 0:
                    errors.append(f"{where}: {name} is not positive")
            print(f"ok  {where}")


def cli_output(*argv: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "qsymk.cli", *argv], cwd=run.ROOT, env=run.child_env(),
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def check_job_gate(errors: list[str]) -> None:
    def expect(job: Job, code: int, text: str, good: bool, what: str) -> None:
        reason = check_job(job, code, text)
        if (reason is None) != good:
            errors.append(f"job gate {'rejected' if good else 'accepted'} {what}: {reason}")

    dims = Job(("dims", "--deg", "1..4"), (1, 2, 3, 4))
    code, text = cli_output(*dims.argv)
    expect(dims, code, text, True, "real dims output")
    lines = text.splitlines()
    stat, degree, kdim, qdim = lines[-1].split(",")
    expect(dims, code, "\n".join(lines[:-1] + [f"{stat},{degree},{kdim},{int(qdim) + 1}"]),
           False, "a dims row off by one")
    expect(dims, code, "\n".join(lines[:-1]), False, "a dims table missing a row")
    expect(dims, 1, text, False, "a nonzero exit code")

    verify = Job(("verify", "thm2b", "--deg", "1..3"), (1, 2, 3))
    code, text = cli_output(*verify.argv)
    expect(verify, code, text, True, "real verify output")
    report = json.loads(text)
    failing = json.loads(text)
    failing["rows"][1]["pass"] = False
    expect(verify, code, json.dumps(failing), False, "a failing verify row")
    short = dict(report, rows=report["rows"][:-1])
    expect(verify, code, json.dumps(short), False, "a verify report missing a row")

    shuffle = Job(("shufflecheck", "Pk", "4"), ())
    code, text = cli_output(*shuffle.argv)
    expect(shuffle, code, text, True, "real shufflecheck output")
    report = json.loads(text)
    expect(shuffle, code, json.dumps(dict(report, compatible=False)), False,
           "an incompatible shufflecheck report")
    expect(shuffle, code, json.dumps(dict(report, max_total_length=3)), False,
           "a shufflecheck report for another length")


def check_reply_gate(errors: list[str]) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import serve

    requests = [
        {"op": "dims", "stat": "pk", "n": 6},
        {"op": "span", "stat": "Pk", "rels": "arrow1", "n": 5},
        {"op": "mul", "a": [3, 1], "b": [2, 1]},
        {"op": "rt", "n": 5, "terms": [[3, 2], [9, -1]]},
        {"op": "invol", "n": 5, "basis": "M", "terms": [[6, 1]]},
    ]

    def corrupt(req: dict, result):
        op = req["op"]
        if op == "dims":
            return [result[0] + 1, result[1]]
        if op == "span":
            return not result
        if op == "mul":
            return [[result[0][0], str(int(result[0][1]) + 1)]] + result[1:]
        if op == "rt":
            return result[:-1]
        return {"psi": result["psi"], "rho": [[m, str(-int(v))] for m, v in result["rho"]]}

    for req in requests:
        reply = {"ok": True, "result": serve.handle(req)}
        if check_reply(req, reply) is not None:
            errors.append(f"reply gate rejected a real reply to {req}")
        if check_reply(req, {"ok": True, "result": corrupt(req, reply["result"])}) is None:
            errors.append(f"reply gate accepted a corrupted reply to {req}")
        if check_reply(req, {"ok": False, "error": "boom"}) is None:
            errors.append(f"reply gate accepted an error reply to {req}")


def main() -> int:
    errors: list[str] = []
    check_job_gate(errors)
    check_reply_gate(errors)
    print("ok  output gate" if not errors else "FAILED output gate")
    check_runs(errors)
    for error in errors:
        print(f"FAILED {error}")
    print("selftest passed" if not errors else f"selftest: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
