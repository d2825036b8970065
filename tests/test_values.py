"""The contract every value class in braidcalc keeps.

Each class is found by scanning the package's modules, so a new value
class is tested as soon as it exists: it only needs a sample below.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import pickle
import pkgutil

import pytest

import braidcalc
from braidcalc.b3 import (
    Conjugate,
    GenericUnique,
    NotConjugate,
    TorusKnot2k,
    UnknotClass,
    Unresolved,
    normal_form,
)
from braidcalc.burau import Laurent
from braidcalc.certify import FamilyParams, certify
from braidcalc.links import components, linking_matrix
from braidcalc.moves import (
    ConjugateBy,
    Destabilize,
    Exchange,
    FoliationCounts,
    Stabilize,
    validate_tower,
)
from braidcalc.templates import Crossing, flype_template
from braidcalc.words import parse_word

W = parse_word("s1^3 s2^-1 s1")


def _value_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(braidcalc.__path__):
        module = importlib.import_module(f"braidcalc.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and not issubclass(obj, (BaseException, argparse.ArgumentParser))
        ]
    return sorted(found, key=lambda cls: cls.__name__)


def _samples() -> dict[type, object]:
    report = certify(FamilyParams(2, 4, 3))
    template = flype_template(-1)
    tower = validate_tower("topological", W, [Stabilize(1)])
    samples = [
        W, Laurent(-1, (2, 0, -3)), normal_form(W),
        UnknotClass((1, -1)), TorusKnot2k(5, 1), GenericUnique(),
        Conjugate(W), NotConjugate("psl2z_class"), Unresolved(),
        report, report.params, report.checks, report.checks.obstruction,
        components(W)[0], linking_matrix(parse_word("s1^2 s2")),
        Stabilize(1), Destabilize(-1), ConjugateBy(W), Exchange((0, 3)),
        tower, tower.counts,
        template, template.plus, template.plus.block_slots()[0], Crossing(2, -1),
    ]
    return {type(obj): obj for obj in samples}


SAMPLES = _samples()


def test_every_value_class_has_a_sample():
    assert sorted(SAMPLES, key=lambda cls: cls.__name__) == _value_classes()


@pytest.mark.parametrize("cls", _value_classes(), ids=lambda cls: cls.__name__)
def test_value_class_contract(cls):
    obj = SAMPLES[cls]
    names = tuple(vars(cls).get("__annotations__", ()))
    assert cls.__match_args__ == names
    values = tuple(getattr(obj, name) for name in names)
    # equal fields, by position or by keyword: equal objects, equal hashes
    for twin in (cls(*values), cls(**dict(zip(names, values)))):
        assert twin is not obj
        assert twin == obj and not twin != obj
        assert hash(twin) == hash(obj) == hash(values)
    assert obj.__eq__(values) is NotImplemented
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(obj) == f"{cls.__name__}({fields})"
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    assert copy.deepcopy(obj) == obj == pickle.loads(pickle.dumps(obj))


def test_same_fields_in_another_class_are_unequal():
    assert Stabilize(1) != Destabilize(1)
    assert GenericUnique() != Unresolved()
    assert Stabilize(1) == Stabilize(1) and Stabilize(1) != Stabilize(-1)


def test_reprs_read_like_the_constructor_call():
    assert repr(parse_word("s1 s2^-1")) == "BraidWord(strands=3, letters=((1, 1), (2, -1)))"
    assert repr(Laurent.one()) == "Laurent(low=0, coeffs=(1,))"
    assert repr(NotConjugate("psl2z_class")) == "NotConjugate(witness='psl2z_class')"
    assert repr(GenericUnique()) == "GenericUnique()"


def test_constructor_arguments_follow_the_fields():
    assert FoliationCounts() == FoliationCounts(0, 0, 0, 0)
    assert FoliationCounts(1, s_minus=2) == FoliationCounts(1, 0, 0, 2)
    for args, kwargs in [((), {}), ((1, 2), {}), ((1,), {"sign": 1}), ((), {"sign": 1, "kind": 2})]:
        with pytest.raises(TypeError):
            Stabilize(*args, **kwargs)
