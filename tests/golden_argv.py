"""The CLI command of a golden report, read off its file name.

Each file in tests/golden is the stdout of `qsymk ARGV...`, where ARGV is
spelled by the file name in one of four forms:

    verify_CHECK_degLO-HI.json        verify CHECK --deg LO..HI
    dims_degLO-HI.FMT                 dims --deg LO..HI --format FMT
    shufflecheck_STAT_LEN.json        shufflecheck STAT LEN
    graph_RELS_degN[-M].FMT           graph --rels RELS --deg N[..M] --format FMT

Tier-1 (`test_cli.py`) and the CI loop both read the argv from here, so a
golden is added by adding its file.  Run as a script, it prints the argv of
the file name it is given, one word per line:

    python tests/golden_argv.py verify_thm2a_deg1-6.json
"""

from __future__ import annotations

import re
import sys

_FORMS = (
    (r"verify_(?P<check>[a-z0-9]+)_deg(?P<deg>\d+-\d+)\.json", "verify {check} --deg {deg}"),
    (r"dims_deg(?P<deg>\d+-\d+)\.(?P<fmt>csv|tsv|json)", "dims --deg {deg} --format {fmt}"),
    (r"shufflecheck_(?P<stat>[A-Za-z]+)_(?P<length>\d+)\.json", "shufflecheck {stat} {length}"),
    (r"graph_(?P<rels>[a-z0-9]+)_deg(?P<deg>\d+(?:-\d+)?)\.(?P<fmt>dot|json|csv)",
     "graph --rels {rels} --deg {deg} --format {fmt}"),
)


def golden_argv(name: str) -> list[str]:
    """The argv whose report the golden file `name` holds; ValueError for a
    name in none of the four forms."""
    for pattern, command in _FORMS:
        if match := re.fullmatch(pattern, name):
            fields = match.groupdict()
            if "deg" in fields:
                fields["deg"] = fields["deg"].replace("-", "..")
            return command.format(**fields).split()
    raise ValueError(f"{name!r} is not a golden file name: see golden_argv.py")


if __name__ == "__main__":
    print(*golden_argv(sys.argv[1]), sep="\n")
