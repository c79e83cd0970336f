"""The immutable value classes behave as the frozen dataclasses they
replaced: equality, hashing, repr, refused assignment and deletion,
pickling and copying.  Each object is compared with a frozen dataclass
of the same name and fields, built here as the reference."""

import copy
import dataclasses
import hashlib
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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
