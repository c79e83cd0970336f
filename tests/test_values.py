"""The immutable value classes behave as the frozen dataclasses they
replaced: equality, hashing, repr, refused assignment and deletion,
pickling and copying.  Each object is compared with a frozen dataclass
of the same name and fields, built here as the reference."""

import copy
import dataclasses
import hashlib
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qsymk
from qsymk import (
    Composition,
    DescentSet,
    KernelSpace,
    OmegaSets,
    Permutation,
    RelationGraph,
    RelationId,
    StatisticId,
    kernel_space,
    omega_sets,
    relation_edges,
)
from qsymk.statistics import ShuffleCompatibilityReport, check_shuffle_compatible

FIELDS = {
    Composition: ("parts",),
    DescentSet: ("n", "positions"),
    Permutation: ("letters",),
    RelationGraph: ("n", "edges", "marks"),
    KernelSpace: ("stat", "n", "classes"),
    OmegaSets: ("n", "om1", "om2", "om3", "om4"),
    ShuffleCompatibilityReport: ("statistic", "max_total_length", "compatible", "witness"),
}


def _samples():
    return [
        Composition((3, 1, 2)),
        Composition(),
        DescentSet(6, {3, 4}),
        DescentSet(0, ()),
        Permutation((3, 1, 2)),
        Permutation((10, 2, 7)),
        relation_edges({RelationId.Arrow1, RelationId.CTilde}, 4),
        RelationGraph(2, ((0, 1, "2"),)),
        kernel_space(StatisticId.Pk, 5),
        omega_sets(5),
        check_shuffle_compatible(StatisticId.Pk, 4),
        ShuffleCompatibilityReport("max_run", 3, False, {"kind": "distribution-mismatch"}),
    ]


def _values(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def _reference(x):
    """A frozen dataclass with x's class name and fields, holding x's values."""
    cls = type(x)
    ref = dataclasses.make_dataclass(cls.__qualname__, FIELDS[cls], frozen=True, eq=cls is not KernelSpace)
    return ref(*_values(x))


def test_repr_matches_the_dataclass():
    for x in _samples():
        assert repr(x) == repr(_reference(x))
    assert repr(Composition((3, 1, 2))) == "Composition(parts=(3, 1, 2))"
    assert repr(DescentSet(6, [3, 4])) == "DescentSet(n=6, positions=frozenset({3, 4}))"
    # the bytes of every region listing, as the dataclass printed them
    listing = "\n".join(repr(omega_sets(n)) for n in range(10)).encode()
    assert hashlib.sha256(listing).hexdigest() == "9fdb3976a52357362ac7918f61ba13a045aecf6c12cf5a290e350a42d050686f"


def test_equality_and_hash_match_the_dataclass():
    for x in _samples():
        twin = type(x)(*_values(x))
        assert x == x
        assert x != _reference(x) and x != _values(x)  # same class only
        if isinstance(x, KernelSpace):
            assert twin != x  # identity equality, as with eq=False
            assert hash(x) == object.__hash__(x)
        else:
            assert twin == x and not twin != x
            try:
                expected = hash(_values(x))
            except TypeError:  # a report with a witness dict is unhashable
                with pytest.raises(TypeError):
                    hash(x)
            else:
                assert hash(x) == hash(_reference(x)) == expected
    assert Composition((1, 2)) != Composition((2, 1))
    assert Composition((1,)) != Permutation((1,))
    assert Permutation((1, 2)) != Permutation((2, 1))
    assert DescentSet(3, {1}) != DescentSet(4, {1})


def test_constructor_defaults_and_keywords():
    assert Composition() == Composition(()) == Composition(parts=[])
    assert Composition([2, 1]).parts == (2, 1) and Composition((2, 1)).n == 3
    assert Permutation() == Permutation(letters=())
    assert DescentSet(n=4, positions=[3, 1]).positions == frozenset({1, 3})
    assert RelationGraph(3, ()).marks == ()
    assert ShuffleCompatibilityReport("Pk", 2, True).witness is None


def test_class_patterns_take_the_fields_by_position():
    for x in _samples():
        assert type(x).__match_args__ == _reference(x).__match_args__ == FIELDS[type(x)]
    match DescentSet(6, {3, 4}):
        case Composition(parts):
            pytest.fail(f"a DescentSet matched Composition({parts})")
        case DescentSet(n, positions):
            assert (n, positions) == (6, {3, 4})
        case _:
            pytest.fail("a DescentSet matched no pattern")


def test_assignment_and_deletion_raise():
    for x in _samples():
        for name in (*FIELDS[type(x)], "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
    comp = Composition((3, 1))
    with pytest.raises(AttributeError):
        comp.n = 5
    assert comp.n == 4 and comp.parts == (3, 1)


def test_pickle_and_copy_round_trips():
    for x in _samples():
        copies = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(x), copy.deepcopy(x)]
        for y in copies:
            assert type(y) is type(x)
            if isinstance(x, KernelSpace):
                assert (y.stat, y.n, y.classes) == (x.stat, x.n, x.classes)
                assert y.labels == x.labels and y.basis.rows == x.basis.rows
            else:
                assert y == x and repr(y) == repr(x)
    graph = relation_edges({RelationId.Arrow1, RelationId.Arrow2}, 5)
    assert pickle.loads(pickle.dumps(graph)).components == graph.components


def test_cli_import_needs_no_dataclasses_or_inspect():
    # -S keeps the environment's site hooks, which may import either, out
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qsymk.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


# one cold job under -S: its argv through `cli.main`, then its exit code, the qsymk
# modules loaded, and those of the oracles' standard-library modules loaded
_COLD_JOB = """
import io, sys
sys.path.insert(0, sys.argv[1])
from qsymk import cli
sys.stdout, out = io.StringIO(), sys.stdout
try:
    code = cli.main(sys.argv[2].split())
finally:
    sys.stdout = out
print(sys.argv[2], code, sorted(m for m in sys.modules if m.startswith("qsymk.")),
      sorted({"fractions", "decimal", "random"} & set(sys.modules)))
"""

# what `import qsymk.cli` loads: the F checks, the dimensions and the graphs
CLI_MODULES = ["qsymk.cli", "qsymk.compositions", "qsymk.config", "qsymk.errors", "qsymk.kernel", "qsymk.statistics"]


def _cold_jobs(*argvs: str) -> list[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return [subprocess.run([sys.executable, "-S", "-c", _COLD_JOB, src, argv], capture_output=True, text=True,
                           timeout=120, check=True).stdout.strip() for argv in argvs]


def test_cold_cli_jobs_load_neither_qsym_nor_linalg():
    # a job loads the module of its own check family, if any, on top of the CLI's; the
    # oracles of thm1a/thm1b (elimination) and lemma22 (the F/M maps) alone load linalg,
    # qsym and fractions, and no job loads the word-level oracle `words`
    from qsymk.cli import CHECK_NAMES
    monomial, oracles = ["qsymk.monomial_span"], {"thm1a", "thm1b", "lemma22"}
    family = {"thm0": monomial, "thm3a": monomial, "thm3b": monomial, "props4": monomial,
              "ideal": ["qsymk.ideal"], "bridges": ["qsymk.bridges"], "thm1a": ["qsymk.linalg"],
              "thm1b": ["qsymk.linalg"], "lemma22": ["qsymk.linalg", "qsymk.qsym"]}
    jobs = {f"verify {check} --deg 1..{4 if check in oracles else 5}": family.get(check, []) for check in CHECK_NAMES}
    jobs.update({"shufflecheck Epk 6": ["qsymk.ideal"], "dims --deg 1..6": [],
                 "graph --rels arrow123 --deg 1..4": ["qsymk.bridges"]})
    assert {"verify thm2b --deg 1..5", "verify thm35 --deg 1..5", "verify thm53b --deg 1..5"} <= {
        argv for argv, modules in jobs.items() if not modules}
    assert _cold_jobs(*jobs) == [
        f"{argv} 0 {sorted(CLI_MODULES + modules)} {['decimal', 'fractions'] if 'qsymk.linalg' in modules else []}"
        for argv, modules in jobs.items()]


def test_the_package_namespace_loads_each_name_from_its_module(monkeypatch):
    assert len(set(qsymk.__all__)) == len(qsymk.__all__)
    for module, names in qsymk._EXPORTS.items():
        home = importlib.import_module(f"qsymk.{module}")
        assert getattr(qsymk, module) is home
        for name in names:
            assert getattr(qsymk, name) is getattr(home, name), name
    assert set(qsymk.__all__) <= set(dir(qsymk))
    star: dict = {}
    exec("from qsymk import *", star)
    assert all(star[name] is getattr(qsymk, name) for name in qsymk.__all__)
    assert not hasattr(qsymk, "nope")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        qsymk.nope
    # a name is looked up once, then read off the package like any other attribute
    calls = []
    real = qsymk.__getattr__
    monkeypatch.delitem(vars(qsymk), "psi")
    monkeypatch.setattr(qsymk, "__getattr__", lambda name: calls.append(name) or real(name))
    assert qsymk.psi is qsymk.psi is importlib.import_module("qsymk.qsym").psi
    assert calls == ["psi"]


def test_a_bare_import_loads_no_submodule_until_one_is_named():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qsymk; "
        "print(sorted(m for m in sys.modules if m.startswith('qsymk.'))); "
        "print(qsymk.kernel.__name__, qsymk.kernel_space.__module__, 'qsymk.qsym' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "qsymk.kernel qsymk.kernel False"]
