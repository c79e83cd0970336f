"""Regenerate expected_spanning.json, the golden check_spanning_F verdicts
that the query-stream workload compares its `span` replies against.

Usage: PYTHONPATH=src python3 perfbench/make_expected.py

Run it only on a commit whose test suite passes; the verdicts are then
the program's known-good answers for every pair of the CLI's THM1_SUITE
at degrees 1..MAX_DEGREE.
"""

from __future__ import annotations

import json
from pathlib import Path

from qsymk import check_spanning_F
from qsymk.cli import RELATION_SETS, THM1_SUITE

MAX_DEGREE = 10


def main() -> None:
    verdicts = {
        f"{stat.value}/{rels}": [
            check_spanning_F(stat, n, RELATION_SETS[rels]) for n in range(1, MAX_DEGREE + 1)
        ]
        for stat, rels in THM1_SUITE
    }
    out = Path(__file__).with_name("expected_spanning.json")
    out.write_text(json.dumps(verdicts, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
