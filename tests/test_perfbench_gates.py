"""The benchmark's own inputs through the benchmark's own gates, in process:
the quick query streams answered by `perfbench/serve.py`'s `handle` and
checked by `workloads.check_reply`, and the quick batch jobs run by
`cli.main` and checked by `workloads.check_job`.  A change to a library
name the server calls, or to a report field the gates read, fails here
rather than only in a benchmark run."""

from __future__ import annotations

import hashlib
import importlib
import json
import pathlib

import pytest

from qsymk import cli

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("serve"), importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quick_query_streams_pass_the_reply_gate(perfbench, seed):
    serve, workloads = perfbench
    stream = workloads.make_stream(seed, workloads.QUICK_STREAM_LENGTH)
    for req in (*serve.WARM_UP, *stream):
        # the reply as the client reads it: one JSON line
        reply = json.loads(json.dumps({"ok": True, "result": serve.handle(req)}))
        assert workloads.check_reply(req, reply) is None, req


@pytest.mark.parametrize("workload", ["verify-batch", "shuffle-products"])
def test_quick_batch_jobs_pass_the_job_gate(perfbench, capsys, workload):
    _, workloads = perfbench
    for job in workloads.batch_jobs(workload, quick=True):
        code = cli.main(list(job.argv))
        assert workloads.check_job(job, code, capsys.readouterr().out) is None, job.label


# SHA-256 of the reply lines that `serve.py` writes for the seed-1 stream of 3000 requests,
# recorded before the submask walk, the one-term products and the whole-degree st-keys
# replaced the per-item routes; the benchmark's query-stream traffic must get the same bytes.
SEED_1_STREAM_DIGEST = "c1e38bcb22edef019799745e7c09df0d756344c169b08d11e0a57a99dfe60d9e"


def test_the_measured_stream_gets_the_same_replies(perfbench):
    serve, workloads = perfbench
    lines = hashlib.sha256()
    for req in workloads.make_stream(1, 3000):
        try:  # the reply exactly as `serve.main` writes it
            reply = {"ok": True, "result": serve.handle(req)}
        except Exception as exc:
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        line = json.dumps(reply) + "\n"
        assert workloads.check_reply(req, json.loads(line)) is None, req
        lines.update(line.encode())
    assert lines.hexdigest() == SEED_1_STREAM_DIGEST
