"""The immutable records keep the contract they had as frozen dataclasses, and start-up loads no unused module."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lspectra.abelian import FgAbGroup, IntMatrix, SnfResult, smith_normal_form
from lspectra.forms import F2QuadForm, LinkingForm, SymForm
from lspectra.graded import GradedGroup, GradedMap, SesDatum
from lspectra.ltables import CheckResult, RingPresentation, mono, mult_by, presentation, table
from lspectra.poincare import StructuredComplex, representative, tensor_structured

from stdlib_checks import NOT_LOADED

Z, Z2 = FgAbGroup(1), FgAbGroup(0, (2,))

# (record, the repr its frozen dataclass printed, a record equal to it but for one field)
RECORDS = [
    (FgAbGroup(0, (2,)), "FgAbGroup(free_rank=0, torsion=(2,))", FgAbGroup(0, (4,))),
    (FgAbGroup(free_rank=1), "FgAbGroup(free_rank=1, torsion=())", FgAbGroup(2)),
    (smith_normal_form(IntMatrix([[2, 4], [6, 8]])),
     "SnfResult(U=IntMatrix([[-2, 1], [3, -1]]), D=IntMatrix([[2, 0], [0, 4]]), V=IntMatrix([[1, 0], [0, 1]]))",
     SnfResult(IntMatrix([[-2, 1], [3, -1]]), IntMatrix([[2, 0], [0, 4]]), IntMatrix([[0, 1], [1, 0]]))),
    (SymForm(IntMatrix([[2, 1], [1, 2]])), "SymForm(gram=IntMatrix([[2, 1], [1, 2]]))",
     SymForm(IntMatrix([[2, 1], [1, 3]]))),
    (F2QuadForm(IntMatrix([[1, 1], [0, 1]])), "F2QuadForm(matrix=IntMatrix([[1, 1], [0, 1]]))",
     F2QuadForm(IntMatrix([[1, 1], [0, 0]]))),
    (SesDatum(sub=Z2, quotient=Z),
     "SesDatum(sub=FgAbGroup(free_rank=0, torsion=(2,)), quotient=FgAbGroup(free_rank=1, torsion=()), resolved=None)",
     SesDatum(Z2, Z, Z)),
    (RingPresentation("Lq", (("t", 4),), (), ()),
     "RingPresentation(name='Lq', generators=(('t', 4),), rewrites=(), torsion_patterns=())",
     RingPresentation("Lq", (("t", 4),), (), ((mono(("t", 1)), 2),))),
    (CheckResult("a", True), "CheckResult(name='a', passed=True, detail='')", CheckResult("a", True, "x")),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def fields(record) -> dict:
    """The record's fields, which are its constructor's parameters, in order."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


def contract_violations(record, twin) -> list:
    """How a record and an equal one built apart break ==, != or hash, which a dataclass reads off the fields."""
    values = tuple(fields(record).values())
    found = []
    if not (record == twin and twin == record) or record != twin:
        found.append("== of equal records")
    if hash(record) != hash(twin):
        found.append("hash of equal records")
    if hash(record) != hash(values):
        found.append("hash is not the hash of the fields")
    return found


@pytest.mark.parametrize("record,text,other", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr_is_the_dataclass_text(self, record, text, other):
        assert repr(record) == text

    def test_equal_records_hash_alike(self, record, text, other):
        values = fields(record)
        by_position, by_keyword = type(record)(*values.values()), type(record)(**values)
        assert by_position is not record
        assert contract_violations(record, by_position) == contract_violations(record, by_keyword) == []
        assert record != other and other != record and fields(record) != fields(other)
        assert len({record, by_position, other}) == 2
        assert record.__eq__(values) is NotImplemented and record != tuple(values.values())

    def test_a_copy_is_equal(self, record, text, other):
        assert copy.copy(record) == record

    def test_assignment_raises(self, record, text, other):
        for name in fields(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == text


class TestDefaults:
    def test_defaults(self):
        assert FgAbGroup() == FgAbGroup(0, ()) and FgAbGroup(torsion=(2,)) == Z2
        assert SesDatum(Z2, Z).resolved is None
        assert CheckResult("a", False).detail == ""


class TestValidation:
    @pytest.mark.parametrize("make,message", [
        (lambda: FgAbGroup(-1), "negative free rank"),
        (lambda: FgAbGroup(0, (4, 2)), "torsion is not an invariant-factor chain"),
        (lambda: FgAbGroup(0, (2, 6, 9)), "torsion is not an invariant-factor chain"),
        (lambda: FgAbGroup(0, (1, 2)), "invariant factors must be >= 2"),
        (lambda: SymForm(IntMatrix([[1, 2]])), "gram matrix must be square"),
        (lambda: SymForm(IntMatrix([[1, 2], [3, 4]])), "gram matrix must be symmetric"),
        (lambda: F2QuadForm(IntMatrix([[1, 0]])), "form matrix must be square"),
        (lambda: F2QuadForm(IntMatrix([[1, 0], [1, 1]])), "form matrix must be upper triangular mod 2"),
    ])
    def test_each_validation_raises(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_even_entries_below_the_diagonal_are_accepted(self):
        assert F2QuadForm(IntMatrix([[1, 0], [2, 1]])).dim == 2


class TestGroupHash:
    def test_a_wrong_cached_hash_breaks_the_contract(self):
        # equality reads the cached hash first, so a wrong one shows as unequal twins as well as a wrong hash
        bad = FgAbGroup(0, (2,))
        object.__setattr__(bad, "_hash", hash((0, (2,))) + 1)
        assert contract_violations(bad, FgAbGroup(0, (2,))) == [
            "== of equal records", "hash of equal records", "hash is not the hash of the fields"]

    def test_a_pickled_group_is_equal(self):
        assert pickle.loads(pickle.dumps(Z2)) == Z2

    def test_interned_and_built_groups_agree(self):
        for divisors in ([], [0], [2, 3], [0, 0, 4, 6], [8, 2, 2]):
            interned = FgAbGroup.from_divisors(divisors)
            built = FgAbGroup(interned.free_rank, interned.torsion)
            assert built is not interned and contract_violations(built, interned) == []


class TestPresentationMemos:
    def test_memos_take_no_part_in_eq_hash_or_repr(self):
        shared = presentation("Ls")
        fresh = RingPresentation(**fields(shared))
        shared.reduce({mono(("x", 3), ("e", 1)): 1})
        assert shared._normal_forms and not fresh._normal_forms
        assert contract_violations(shared, fresh) == [] and repr(shared) == repr(fresh)

    def test_a_copy_starts_with_empty_memos(self):
        shared = presentation("Lgs")
        shared.reduce({mono(("y1", 2)): 1})
        for twin in (copy.copy(shared), pickle.loads(pickle.dumps(shared))):
            assert twin == shared and not twin._normal_forms and twin._parts is None


SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_at_startup(prelude=""):
    """The modules of NOT_LOADED in sys.modules after ``import lspectra.cli`` under ``python -S``."""
    script = "\n".join([prelude, "import sys", f"sys.path.insert(0, {SRC!r})", "import lspectra.cli",
                        f"print(','.join(m for m in {NOT_LOADED!r} if m in sys.modules))"])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return [name for name in done.stdout.strip().split(",") if name]


class TestStartUp:
    def test_the_cli_loads_no_unused_module(self):
        assert loaded_at_startup() == []

    def test_the_check_sees_a_loaded_module(self):
        assert "dataclasses" in loaded_at_startup("import dataclasses")


# one value of each slotted class that refuses assignment, and a record holding one
IMMUTABLE = [IntMatrix([[1, -2], [0, 3]]), table("Lgs", (-8, 8)), mult_by("Ls", "x", table("Ls", (-8, 8))),
             LinkingForm.hyperbolic(2), tensor_structured(representative("E"), representative("F")), SymForm(IntMatrix([[2, 1], [1, 2]]))]


@pytest.mark.parametrize("value", IMMUTABLE, ids=[type(value).__name__ for value in IMMUTABLE])
class TestPickle:
    """pickle and deepcopy rebuild each immutable class slot by slot, and the copy still refuses assignment."""

    @pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_round_trip(self, value, round_trip):
        back = round_trip(value)
        assert type(back) is type(value) and back is not value
        slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
        assert [getattr(back, name) for name in slots] == [getattr(value, name) for name in slots]
        if type(value).__eq__ is not object.__eq__:  # GradedMap and StructuredComplex compare by identity
            assert back == value
        with pytest.raises(AttributeError):
            setattr(back, slots[0], None)
        with pytest.raises(AttributeError):
            back.extra = 1


def test_every_immutable_class_is_pickled():
    assert {type(v) for v in IMMUTABLE} == {IntMatrix, GradedGroup, GradedMap, LinkingForm,
                                            StructuredComplex, SymForm}
