"""What every public record type promises: construction, equality, hash, repr,
immutability, copy and pickle.

The frozen records are values: they compare and hash by their fields, only
against the same class, and refuse assignment.  The mutable records compare
by their fields and have no hash.  Every record survives ``copy.copy``,
``copy.deepcopy`` and a pickle round-trip.
"""

import copy
import pickle

import pytest

from coxfold.coxeter import CoxeterMatrix, Element
from coxfold.errors import CoxfoldError, InvalidBase, InvalidMatrix, InvalidParameters
from coxfold.folding import FamilyId
from coxfold.qseries import Monomial
from coxfold.verifier import VerificationCase, VerificationJob, VerificationReport

# (record, its field values in order, its exact repr)
FROZEN = [
    (Element(data=(1, -1, 2), length=3), ((1, -1, 2), 3), "Element(data=(1, -1, 2), length=3)"),
    (
        CoxeterMatrix(entries=((1, 3), (3, 1))),
        (((1, 3), (3, 1)),),
        "CoxeterMatrix(entries=((1, 3), (3, 1)))",
    ),
    (FamilyId(name="Bn-Dn+1", n=6), ("Bn-Dn+1", 6, None), "FamilyId(name='Bn-Dn+1', n=6, m=None)"),
    (FamilyId("affA-affA", 3, 2), ("affA-affA", 3, 2), "FamilyId(name='affA-affA', n=3, m=2)"),
    (
        Monomial(coeff=-1, q_exp=2),
        (-1, 2, 0, 0),
        "Monomial(coeff=-1, q_exp=2, a_exp=0, b_exp=0)",
    ),
    (Monomial(1, -1, 2, 1), (1, -1, 2, 1), "Monomial(coeff=1, q_exp=-1, a_exp=2, b_exp=1)"),
    (
        VerificationCase.make("Bn-A2n-1", 4, n=3),
        ("Bn-A2n-1", (("n", 3),), 4),
        "VerificationCase(family='Bn-A2n-1', params=(('n', 3),), max_len=4)",
    ),
]
FROZEN_IDS = [r[2].split("(")[0] + str(i) for i, r in enumerate(FROZEN)]

MUTABLE = [
    (
        VerificationJob(cases=[VerificationCase("I2-An", (("n", 3),), None)]),
        ([VerificationCase("I2-An", (("n", 3),), None)], 10**7),
        "VerificationJob(cases=[VerificationCase(family='I2-An', params=(('n', 3),), "
        "max_len=None)], budget=10000000)",
    ),
    (
        VerificationReport(job={"budget": 5}),
        ({"budget": 5}, []),
        "VerificationReport(job={'budget': 5}, cases=[])",
    ),
]
MUTABLE_IDS = [r[2].split("(")[0] for r in MUTABLE]


def _rebuilt(record, values):
    return type(record)(*values)


@pytest.mark.parametrize("record, values, text", FROZEN, ids=FROZEN_IDS)
class TestFrozenRecords:
    def test_equality_and_hash_by_fields(self, record, values, text):
        twin = _rebuilt(record, values)
        assert twin == record and not (twin != record)
        assert hash(twin) == hash(record) == hash(values)
        assert len({record, twin}) == 1

    def test_unequal_to_a_plain_tuple(self, record, values, text):
        assert record != values
        assert values != record
        assert record != list(values)

    def test_exact_type_required(self, record, values, text):
        subclass = type("Sub", (type(record),), {})
        assert subclass(*values) != record
        assert record != subclass(*values)

    def test_repr(self, record, values, text):
        assert repr(record) == text

    def test_assignment_raises(self, record, values, text):
        name = text.split("(")[1].split("=")[0]
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert record == _rebuilt(record, values)

    def test_copy_deepcopy_pickle(self, record, values, text):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)
            assert hash(back) == hash(record)


@pytest.mark.parametrize("record, values, text", MUTABLE, ids=MUTABLE_IDS)
class TestMutableRecords:
    def test_equality_by_fields_and_no_hash(self, record, values, text):
        assert _rebuilt(record, values) == record
        assert record != values
        with pytest.raises(TypeError):
            hash(record)

    def test_repr(self, record, values, text):
        assert repr(record) == text

    def test_assignment_changes_equality(self, record, values, text):
        other = copy.copy(record)
        name = text.split("(")[1].split("=")[0]
        setattr(other, name, "changed")
        assert other != record and getattr(other, name) == "changed"

    def test_copy_deepcopy_pickle(self, record, values, text):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is type(record)


def test_keyword_construction():
    assert Element(length=2, data=(0, 1)) == Element((0, 1), 2)
    assert CoxeterMatrix(entries=((1, 4), (4, 1))).rank == 2
    assert FamilyId(n=3, name="affA-affA", m=2) == FamilyId("affA-affA", 3, 2)
    assert FamilyId("Bn-A2n-1", 3).m is None
    assert Monomial(q_exp=1, coeff=1, b_exp=2) == Monomial(1, 1, 0, 2)
    assert VerificationJob([VerificationCase("x", (), None)], budget=7).budget == 7
    assert VerificationReport({}).cases == []
    assert VerificationReport({}).cases is not VerificationReport({}).cases


def test_bad_input_raises():
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix(((1, 3), (2, 1)))
    with pytest.raises(InvalidMatrix):
        CoxeterMatrix(entries=())
    with pytest.raises(InvalidParameters):
        FamilyId("no-such-family", 3)
    with pytest.raises(InvalidParameters):
        FamilyId(name="affA-affA", n=3)
    with pytest.raises(InvalidParameters):
        FamilyId("Bn-A2n-1", 3, m=2)
    with pytest.raises(InvalidBase):
        Monomial(2, 1)
    with pytest.raises(InvalidBase):
        Monomial(1, 1, a_exp=-1)
    with pytest.raises(CoxfoldError):
        VerificationJob(cases=[])


def test_constructor_arity():
    with pytest.raises(TypeError):
        Element((1,))
    with pytest.raises(TypeError):
        Element((1,), 0, 1)
    with pytest.raises(TypeError):
        FamilyId("Bn-A2n-1", n=3, k=1)
