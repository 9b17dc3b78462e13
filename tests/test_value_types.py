"""The package's value types: one frozen, slotted contract for every
subclass of ``lattice._Frozen``.

Each type compares and hashes field-wise, prints as
``Name(field=value, ...)``, refuses assignment and deletion, and survives
``copy``, ``deepcopy`` and ``pickle``.  The plain records, which have no
``__init__`` of their own, take exactly one value per field.  Importing the
package does not load ``dataclasses`` or ``inspect``, nor ``fractions`` and
what it imports.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import stripwalks
from stripwalks import (
    BridgeDecomposition,
    CountTable,
    HWDecomposition,
    IntPolynomial,
    IrreducibleFactor,
    RationalGF,
    RootResult,
    StripGeometry,
    Walk,
    decompose_bridge,
)
from stripwalks.bounds import InequalityReport, SandwichReport, SandwichRow
from stripwalks.lattice import _Frozen


def _walk():
    return Walk(((0, 0), (1, 0), (1, 1)))


def _factor():
    return IrreducibleFactor(_walk(), -1, 2, "OI")


def _row():
    return SandwichRow(3, 22, 3.375, 2822.0, True, False)


# (a function called twice for two equal instances, its repr as the
# frozen dataclasses of earlier versions printed it)
INSTANCES = [
    (lambda: StripGeometry(-1, 2), "StripGeometry(y_min=-1, y_max=2)"),
    (_walk, "Walk(points=((0, 0), (1, 0), (1, 1)))"),
    (lambda: CountTable((1, 4, 10)), "CountTable(counts=(1, 4, 10))"),
    (
        _factor,
        "IrreducibleFactor(walk=Walk(points=((0, 0), (1, 0), (1, 1))), "
        "start_line=-1, tail_length=2, bridge_type='OI')",
    ),
    (
        lambda: BridgeDecomposition((_factor(),), 1),
        "BridgeDecomposition(factors=(IrreducibleFactor(walk=Walk(points=((0, 0), "
        "(1, 0), (1, 1))), start_line=-1, tail_length=2, bridge_type='OI'),), "
        "trailing_right_run=1)",
    ),
    (lambda: HWDecomposition((3, 1), (4, 7)), "HWDecomposition(spans=(3, 1), cut_indices=(4, 7))"),
    (lambda: IntPolynomial((1, -2, 3)), "IntPolynomial(coefficients=(1, -2, 3))"),
    (
        lambda: RationalGF(IntPolynomial((0, 1)), IntPolynomial((1, -1))),
        "RationalGF(numerator=IntPolynomial(coefficients=(0, 1)), "
        "denominator=IntPolynomial(coefficients=(1, -1)))",
    ),
    (
        lambda: RootResult(0.5, 2.0, 1e-12, (0.25, 0.75)),
        "RootResult(root=0.5, mu=2.0, tolerance=1e-12, bracket=(0.25, 0.75))",
    ),
    (
        _row,
        "SandwichRow(n=3, count=22, lower=3.375, upper=2822.0, lower_ok=True, upper_ok=False)",
    ),
    (
        lambda: SandwichReport((_row(),)),
        "SandwichReport(rows=(SandwichRow(n=3, count=22, lower=3.375, upper=2822.0, "
        "lower_ok=True, upper_ok=False),))",
    ),
    (
        lambda: InequalityReport(("c_2 > c_1 c_1",), 6),
        "InequalityReport(failures=('c_2 > c_1 c_1',), checked=6)",
    ),
]
IDS = [text.split("(")[0] for _, text in INSTANCES]


def test_every_value_type_is_covered():
    assert {build().__class__ for build, _ in INSTANCES} == set(_Frozen.__subclasses__())


PLAIN_RECORDS = [
    IrreducibleFactor,
    BridgeDecomposition,
    HWDecomposition,
    RootResult,
    SandwichRow,
    SandwichReport,
    InequalityReport,
]


@pytest.mark.parametrize("cls", PLAIN_RECORDS, ids=lambda cls: cls.__name__)
def test_plain_records_take_one_value_per_field(cls):
    assert "__init__" not in cls.__dict__
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError) as info:
            cls(*range(count))
        assert str(info.value) == f"{cls.__name__} takes {n} values, not {count}"


@pytest.mark.parametrize("build, text", INSTANCES, ids=IDS)
def test_repr_is_the_dataclass_form(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", INSTANCES, ids=IDS)
def test_equality_and_hash(build, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != text and a != object()
    if isinstance(a, RationalGF):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_equality_is_field_wise_and_same_class_only():
    assert StripGeometry(-1, 1) != StripGeometry(-1, 2)
    assert Walk.from_steps("RU") != Walk.from_steps("RD")
    assert CountTable((1, 2)) != IntPolynomial((1, 2))
    assert _factor() != IrreducibleFactor(_walk(), -1, 2, None)


@pytest.mark.parametrize("build, text", INSTANCES, ids=IDS)
def test_fields_are_read_only(build, text):
    obj = build()
    field = text.split("(")[1].split("=")[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, before)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.other = 1
    assert getattr(obj, field) is before and not hasattr(obj, "__dict__")


@pytest.mark.parametrize("build, text", INSTANCES, ids=IDS)
def test_copy_deepcopy_and_pickle(build, text):
    obj = build()
    for twin in (
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)),
        pickle.loads(pickle.dumps(obj, protocol=0)),
    ):
        assert twin.__class__ is obj.__class__
        assert twin == obj and repr(twin) == text


def test_walk_post_init_sees_every_validated_walk(monkeypatch):
    seen = []
    check = Walk.__post_init__

    def wrapper(self):
        seen.append(self.points)
        return check(self)

    monkeypatch.setattr(Walk, "__post_init__", wrapper)
    Walk(((0, 0), (0, 1)))
    Walk.from_steps("RRU")
    Walk(points=[(0, 0)])
    with pytest.raises(ValueError):
        Walk.from_steps("RL")
    assert seen == [((0, 0), (0, 1)), ((0, 0), (1, 0), (2, 0), (2, 1)), ((0, 0),),
                    ((0, 0), (1, 0), (0, 0))]


def test_list_built_walks_and_tables_are_tuple_built():
    points = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]
    from_list, from_tuple = Walk(points), Walk(tuple(points))
    assert isinstance(from_list.points, tuple)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    strip = StripGeometry(-1, 1)
    assert decompose_bridge(from_list, strip) == decompose_bridge(from_tuple, strip)
    counts = [1, 4, 10]
    assert CountTable(counts) == CountTable(tuple(counts))
    assert hash(CountTable(counts)) == hash(CountTable(tuple(counts)))
    # A tuple is stored as given, not copied.
    pts = tuple(points)
    assert Walk(pts).points is pts


def test_list_built_polynomials_are_tuple_built():
    from_list, from_tuple = IntPolynomial([1, 2]), IntPolynomial((1, 2))
    assert isinstance(from_list.coefficients, tuple)
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    coefficients = (3, 0, 1)
    assert IntPolynomial(coefficients).coefficients is coefficients
    normal_form = r"^coefficients must be in normal form \(no trailing zeros\)$"
    with pytest.raises(ValueError, match=normal_form):
        IntPolynomial([1, 0])


@pytest.mark.parametrize(
    "rows", [(-1.5, 1), (-1, 1.0), ("-1", 1), (None, 2), (0, True), (False, 1)]
)
def test_strip_rows_must_be_integers(rows):
    bad = next(y for y in rows if type(y) is not int)
    with pytest.raises(TypeError, match=f"={bad!r} is not an integer"):
        StripGeometry(*rows)


def test_import_loads_no_dataclasses_inspect_or_fractions():
    # fractions would pull in decimal and numbers with it.
    src = str(Path(stripwalks.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import stripwalks, stripwalks.cli\n"
        "forbidden = {'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers'}\n"
        "print(sorted(forbidden & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
