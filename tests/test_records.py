"""The package's records keep the contract of the frozen dataclasses they
replace: read-only fields, field-wise equality and hash (identity for the
four array-holding classes), the `Name(field=value, ...)` repr, and copies
and pickles with the same fields."""

import copy
import pickle
from unittest import mock

import numpy as np
import pytest

from eteleport.acceptance import Check, Criterion, CriterionResult
from eteleport.circuit import CircuitDescription, ElementSpec
from eteleport.fock import FockState, ModeRegistry, SingleParticleUnitary
from eteleport.leviton import KEYS, CorrelatorTable
from eteleport.protocol import MeasurementOutcome, POVMElement, QubitState, TeleportParams
from eteleport.saw import DephasingParams
from eteleport.scalar import LevitonParams, ThermalFactors

PAIR = ModeRegistry(("a", "b"))


def _no_checks():
    return (), None


# class -> (a build with fresh, equal arguments on each call, its field names)
VALUES = {
    Check: (lambda: Check("x", 1.0, 2.0), ("name", "measured", "bound")),
    CriterionResult: (
        lambda: CriterionResult(1, "n", (Check("x", 1.0, 2.0),), None),
        ("number", "name", "checks", "detail"),
    ),
    Criterion: (lambda: Criterion(1, "n", _no_checks), ("number", "name", "func")),
    ElementSpec: (
        lambda: ElementSpec("prep", ["a", "b"], [0.3, 1.2]), ("kind", "modes", "params")
    ),
    CircuitDescription: (
        lambda: CircuitDescription(["a", "b"], [ElementSpec("prep", ("a", "b"), (0.3, 1.2))]),
        ("modes", "elements"),
    ),
    ModeRegistry: (lambda: ModeRegistry(["a", "b"]), ("labels",)),
    TeleportParams: (lambda: TeleportParams(0.3, 1.2), ("R", "phi")),
    MeasurementOutcome: (lambda: MeasurementOutcome([1, 0, 1, 0]), ("bits",)),
    POVMElement: (lambda: POVMElement(MeasurementOutcome((1, 0, 1, 0))), ("outcome",)),
    DephasingParams: (lambda: DephasingParams([0.1] * 6), ("variances",)),
    LevitonParams: (lambda: LevitonParams(0.05, 0.3), ("gamma", "tau", "series_tol")),
    ThermalFactors: (
        lambda: ThermalFactors(1.0, 0.5, 0.5, 3), ("pair", "triple", "damping", "terms")
    ),
}
IDENTITIES = {
    FockState: (lambda: FockState(PAIR, 1, [1.0, 0.0]), ("registry", "particle_number", "amps")),
    SingleParticleUnitary: (
        lambda: SingleParticleUnitary(np.eye(2), PAIR, PAIR), ("matrix", "rows", "cols")
    ),
    CorrelatorTable: (lambda: CorrelatorTable("X", np.zeros(len(KEYS))), ("setting", "values")),
    QubitState: (lambda: QubitState([0.0, 0.0, 1.0]), ("bloch",)),
}
RECORDS = {**VALUES, **IDENTITIES}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_keeps_the_dataclass_contract(cls):
    build, fields = RECORDS[cls]
    a, b = build(), build()
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    if cls in VALUES:  # equal arguments, equal records with equal hashes
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    else:  # equal only to itself
        assert a == a and a != b and not a == b and len({a, b}) == 2
    assert a != object() and a == mock.ANY  # another class's __eq__ is asked
    shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__qualname__}({shown})"
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and repr(twin) == repr(a)


# the hashed records and one more, each with one field changed
CHANGED = {
    ModeRegistry: ModeRegistry(("b", "a")),
    MeasurementOutcome: MeasurementOutcome((0, 1, 1, 0)),
    POVMElement: POVMElement(MeasurementOutcome((0, 1, 1, 0))),
    LevitonParams: LevitonParams(0.05, 0.3, series_tol=1e-10),
}


@pytest.mark.parametrize("cls", CHANGED, ids=lambda cls: cls.__name__)
def test_a_changed_field_makes_records_unequal(cls):
    record = VALUES[cls][0]()
    assert record != CHANGED[cls] and not record == CHANGED[cls]

