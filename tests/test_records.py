"""The package's records are immutable and no default value is shared
mutable state.  Each record is a NamedTuple, and one that validates its
fields subclasses a NamedTuple and checks them in ``__new__``; the one
frozen dataclass is ``checks.Check``."""

import dataclasses
import importlib
import pkgutil

import pytest

import stablelab
from stablelab.exactmath import MinValuation, ParamPolygon
from stablelab.ledger import SSClassSurvey
from stablelab.modmaps import ImageCertificate
from stablelab.sslab import TorsionProfile

_CLASSES = [
    cls
    for info in pkgutil.walk_packages(stablelab.__path__, "stablelab.")
    for cls in vars(importlib.import_module(info.name)).values()
    if isinstance(cls, type) and cls.__module__ == info.name
]
_NAMED_TUPLES = [cls for cls in _CLASSES if issubclass(cls, tuple) and hasattr(cls, "_fields")]
_DATACLASSES = [cls for cls in _CLASSES if dataclasses.is_dataclass(cls)]


@pytest.mark.parametrize("cls", _NAMED_TUPLES, ids=lambda cls: cls.__qualname__)
def test_named_tuple_fields_cannot_be_assigned(cls):
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields + ("unlisted",):  # a subclass keeps __slots__ = ()
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", _DATACLASSES, ids=lambda cls: cls.__qualname__)
def test_dataclasses_are_frozen(cls):
    assert cls.__dataclass_params__.frozen


def test_records_store_no_field_that_another_decides():
    """A polygon's ends and breakpoints, a unique minimum, a canonical
    subgroup and a census's mass are read off the fields that decide them,
    so no record can state them inconsistently."""
    assert ParamPolygon._fields == ("cells",)
    assert MinValuation._fields == ("value", "witnesses")
    assert TorsionProfile._fields == ("x_root_valuations", "z_valuations")
    assert ImageCertificate._fields == ("lower_bound", "unique")
    assert SSClassSurvey._fields == ("entries",)
