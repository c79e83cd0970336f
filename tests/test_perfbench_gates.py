"""The benchmark's own inputs through the benchmark's own gates, in process:
the quick query streams answered by `perfbench/serve.py`'s `handle` and
checked by `workloads.check_reply`, and the quick batch jobs run by
`cli.main` and checked by `workloads.check_job`.  A change to a library
name the server calls, or to a report field the gates read, fails here
rather than only in a benchmark run."""

from __future__ import annotations

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
