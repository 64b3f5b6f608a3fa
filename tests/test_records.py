"""The package's nine frozen value classes share one record semantics
(numerics._Record): the dataclass repr, equality and hash on the fields within
one class, immutability, copies and pickles that compare equal and still
evaluate, defaults, and TypeError for a missing or unknown field."""

from __future__ import annotations

import copy
import pickle

import pytest

from lindsum import (
    LINDLEY, RAM_AWADH, SHANKER, CheckResult, DistSpec, ErlangMixture, FamilyMember,
    QuadratureResult, StandbyModel, SumSpec, VerificationReport, VerifyConfig,
)
from lindsum.family import AlphaKind
from lindsum.numerics import _Record

# each class: a factory of fresh, equal instances, and the repr of the frozen
# dataclass the class used to be; StandbyModel twice, once from each of its
# constructors, the exponential one under the id ExponentialStandby
RECORDS = {
    "ErlangMixture": (
        lambda: ErlangMixture(2.0, (0.25, 0.75), (1, 3)),
        "ErlangMixture(rate=2.0, weights=(0.25, 0.75), shapes=(1, 3))",
    ),
    "QuadratureResult": (
        lambda: QuadratureResult(1.0, 2e-12, 21),
        "QuadratureResult(value=1.0, error_estimate=2e-12, evaluations=21)",
    ),
    "FamilyMember": (
        lambda: FamilyMember("Lindley", 1, AlphaKind.UNIT),
        "FamilyMember(name='Lindley', degree=1, alpha_kind=<AlphaKind.UNIT: 'unit'>)",
    ),
    "DistSpec": (
        lambda: DistSpec(LINDLEY, 1.5),
        "DistSpec(member=FamilyMember(name='Lindley', degree=1, "
        "alpha_kind=<AlphaKind.UNIT: 'unit'>), theta=1.5)",
    ),
    "SumSpec": (
        lambda: SumSpec(DistSpec(RAM_AWADH, 0.5), 3),
        "SumSpec(dist=DistSpec(member=FamilyMember(name='RamAwadh', degree=5, "
        "alpha_kind=<AlphaKind.THETA: 'theta'>), theta=0.5), n=3)",
    ),
    "StandbyModel": (
        lambda: StandbyModel.of(DistSpec(SHANKER, 1), 2),
        "StandbyModel(label='shanker theta=1 n=2', mixture=ErlangMixture(rate=1.0, "
        "weights=(0.25, 0.5, 0.25), shapes=(2, 3, 4)))",
    ),
    "ExponentialStandby": (
        lambda: StandbyModel.exponential(0.5, 4),
        "StandbyModel(label='exponential theta=0.5 n=4', mixture=ErlangMixture(rate=0.5, "
        "weights=(1.0,), shapes=(4,)))",
    ),
    "VerifyConfig": (
        lambda: VerifyConfig(members=("Lindley",), only=("ks",), sample_count=10),
        "VerifyConfig(members=('Lindley',), only=('ks',), sample_count=10)",
    ),
    "CheckResult": (
        lambda: CheckResult("ks/lindley", "pass", 1e-12, 1e-6, "", 0.25),
        "CheckResult(check_id='ks/lindley', status='pass', value=1e-12, bound=1e-06, "
        "detail='', elapsed_s=0.25)",
    ),
    "VerificationReport": (
        lambda: VerificationReport((CheckResult("a", "fail", 2.0, 1.0, "why"),)),
        "VerificationReport(results=(CheckResult(check_id='a', status='fail', value=2.0, "
        "bound=1.0, detail='why', elapsed_s=0.0),))",
    ),
}

# the classes with a density and a tail, and the calls that must still evaluate
# (a member's are those of SumSpec(dist, 1))
EVALUATORS = {
    "ErlangMixture": ("pdf", "survival"),
    "SumSpec": ("pdf", "survival"),
    "StandbyModel": ("reliability",),
    "ExponentialStandby": ("reliability",),
}

records = pytest.mark.parametrize("name", list(RECORDS))


def _fields(record):
    return [getattr(record, f) for f in type(record)._fields]


def test_every_value_class_is_a_record():
    assert len({type(make()) for make, _ in RECORDS.values()}) == 9
    assert all(isinstance(make(), _Record) for make, _ in RECORDS.values())


@records
def test_repr_is_the_dataclass_repr(name):
    make, expected = RECORDS[name]
    assert repr(make()) == expected


@records
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = RECORDS[name][0](), RECORDS[name][0]()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the hash of the compared values' tuple, as a frozen dataclass's, however
    # many fields are compared (VerificationReport has one)
    compared = tuple(getattr(a, f) for f in a._fields if f not in a._uncompared)
    assert a._key() == compared and hash(a) == hash(compared)


@records
def test_another_class_with_the_same_fields_is_not_equal(name):
    record = RECORDS[name][0]()
    twin_class = type(name, (_Record,), {"__annotations__": dict.fromkeys(type(record)._fields)})
    twin = twin_class(*_fields(record))
    assert _fields(twin) == _fields(record)
    assert record != twin and twin != record
    assert record != tuple(_fields(record))


@records
def test_assignment_and_del_raise(name):
    record = RECORDS[name][0]()
    for field in (*type(record)._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == RECORDS[name][0]()


@records
def test_copy_and_pickle_round_trip(name):
    record = RECORDS[name][0]()
    calls = EVALUATORS.get(name, ())
    expected = [getattr(record, call)(1.0) for call in calls]  # fills cached plans
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record)
        assert repr(clone) == repr(record)
        assert [getattr(clone, call)(1.0) for call in calls] == expected
    fresh = pickle.loads(pickle.dumps(RECORDS[name][0]()))  # plans built after the load
    assert [getattr(fresh, call)(1.0) for call in calls] == expected


def test_check_results_differing_only_in_elapsed_time_are_equal():
    fast = CheckResult("moments/lindley", "pass", 1e-15, 1e-6, "", 0.01)
    slow = CheckResult("moments/lindley", "pass", 1e-15, 1e-6, "", 2.5)
    assert fast == slow and hash(fast) == hash(slow)
    assert fast != CheckResult("moments/lindley", "fail", 1e-15, 1e-6, "", 0.01)
    assert repr(fast) != repr(slow)


def test_defaults():
    assert _fields(VerifyConfig()) == [None, None, 1_000_000]
    assert _fields(VerifyConfig(sample_count=10)) == [None, None, 10]
    assert _fields(VerifyConfig(only=("ks",))) == [None, ("ks",), 1_000_000]
    assert _fields(VerifyConfig(("Lindley",))) == [("Lindley",), None, 1_000_000]
    result = CheckResult("a", "pass", 1.0, 2.0)
    assert (result.detail, result.elapsed_s) == ("", 0.0)
    assert CheckResult(bound=2.0, value=1.0, status="pass", check_id="a") == result


@records
def test_missing_unknown_repeated_or_surplus_arguments_raise_type_error(name):
    record = RECORDS[name][0]()
    cls, values = type(record), _fields(record)
    first = cls._fields[0]
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    if name != "VerifyConfig":  # every field has a default there
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**{f: v for f, v in zip(cls._fields[1:], values[1:])})

