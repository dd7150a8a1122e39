"""kstab's record classes keep the semantics of frozen dataclasses without being dataclasses
or tuples, and every value class, record or number, is a ``Frozen``.

Each record sample is compared with a frozen dataclass of the same name and fields, built
here with the same values: ``==`` and ``hash`` follow the fields and the repr is the
dataclass's.  No class is generated at import.  A record is built from its fields by
position or by name; a missing or extra field raises TypeError.  A record cannot be added to
another or indexed.  Assigning or deleting a field of any value, record or number, raises
AttributeError, and a number has no instance ``__dict__``.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kstab
from kstab.arith import Frozen, Poly, RationalFunction, _Min
from kstab.blowup import BlowupSpec, transform_config
from kstab.catalog import _CHECK_KINDS, _compile, instantiate, load_catalog, verify
from kstab.cli import _json
from kstab.invariants import delta_lower_bound, s_invariant
from kstab.plan import _guarded, _Run, _Served
from kstab.zariski import decompose_ray

CATALOG = load_catalog()
INSTANCE = instantiate(CATALOG, 2, 0)
CONFIG = INSTANCE.config("cx")
POINT = CONFIG.singular_points[0]
BLOWUP = transform_config(CONFIG, BlowupSpec.make(POINT.point, (1, 1), dict(POINT.multiplicities)))
RAY = decompose_ray(CONFIG, CONFIG.anticanonical, CONFIG.basis_vector(CONFIG.basis[0]))
REPORT = verify(CATALOG, 2, 0)
PLAN = CATALOG.plans[2]  # built by the first verify of family 2

# one sample of each class, with a field to change and a value for it that the class accepts
SAMPLES = {
    "_Min": (_compile("min(n,3)"), "second", Fraction(4)),
    "_Chain": (_compile("1+n"), "first", Fraction(2)),
    "_Kind": (_CHECK_KINDS["negdef"], "items", _CHECK_KINDS["ambient"].items),
    "_Plan": (PLAN, "family_id", 99),
    "_Served": (next(item for item in PLAN.items if isinstance(item, _Served)), "label", "other"),
    "BlowupSpec": (BLOWUP.spec, "exceptional", "F"),
    "BlowupResult": (BLOWUP, "log_discrepancy_e", Fraction(7)),
    "FamilyEntry": (INSTANCE.entry, "family_id", 99),
    "Catalog": (CATALOG, "source", "elsewhere"),
    "FamilyInstance": (INSTANCE, "n", 1),
    "CheckItem": (REPORT.items[0], "match", False),
    "VerificationReport": (REPORT, "items", REPORT.items[1:]),
    "DeltaBoundReport": (delta_lower_bound(s_invariant(RAY), 1, Fraction(1, 2), "p"), "point_label", "q"),
    "Quintuple": (INSTANCE.quintuple, "degree", INSTANCE.quintuple.degree + 1),
    "QuotientSingularity": (POINT.point, "label", "other"),
    "SingularPointRecord": (POINT, "multiplicities", ()),
    "CurveConfig": (CONFIG, "basis", tuple(name + "'" for name in CONFIG.basis)),
    "RayInterval": (RAY.intervals[0], "right", RAY.intervals[0].right + 1),
    "RayDecomposition": (RAY, "tau", RAY.tau + 1),
}
# one value of each number class, as SAMPLES; a number keeps its own constructors and repr
NUMBERS = {
    "Poly": (Poly([1, Fraction(1, 2)]), "denominator", 3),
    "PiecewisePoly": (RAY.volume, "pieces", ()),
    "RationalFunction": (RationalFunction((1, 2), (3,)), "num", (5,)),
    "Guarded": (_guarded(RationalFunction.variable(), _Run(3, 2)), "run", None),
    "ClassVector": (CONFIG.anticanonical, "coeffs", ()),
}
VALUES = {**SAMPLES, **NUMBERS}


def _values(x) -> tuple:
    return tuple(getattr(x, name) for name in x._fields)


def _twin(x, **changes):
    """A new value of x's class from x's fields, with changes."""
    return type(x)(*(changes.get(name, value) for name, value in zip(x._fields, _values(x))))


def _as_dataclass(x):
    """A frozen dataclass of x's class name and fields, holding x's values."""
    cls = dataclasses.make_dataclass(type(x).__qualname__, x._fields, frozen=True)
    return cls(*_values(x))


def _field_names(x) -> list:
    """x's fields, and a slot that a subclass adds to them (Guarded's run)."""
    slots = [name for cls in reversed(type(x).__mro__) for name in getattr(cls, "__slots__", ())]
    return list(dict.fromkeys([*x._fields, *slots]))


def _hash(x):
    try:
        return hash(x)
    except TypeError as exc:  # a field holds a dict
        return TypeError, str(exc)


def test_every_former_dataclass_has_a_sample():
    assert {type(x).__qualname__ for x, _, _ in SAMPLES.values()} == set(SAMPLES)


def test_importing_kstab_defines_no_dataclass_and_no_tuple_class():
    code = (
        "import dataclasses, sys, kstab.cli, kstab.plan\n"
        "print(sorted(f'{m.__name__}.{v.__qualname__}' for m in list(sys.modules.values())\n"
        "      if m.__name__.startswith('kstab') for v in vars(m).values()\n"
        "      if isinstance(v, type) and v.__module__ == m.__name__\n"
        "      and (dataclasses.is_dataclass(v) or issubclass(v, tuple))))"
    )
    src = str(Path(kstab.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, cwd=src)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_give_equal_values_and_hashes(name):
    x, field, value = SAMPLES[name]
    twin = _twin(x)
    assert twin is not x and twin == x and not twin != x
    assert _hash(twin) == _hash(x) == _hash(_as_dataclass(x))
    changed = _twin(x, **{field: value})
    assert changed != x and not changed == x


@pytest.mark.parametrize("name", VALUES)
def test_assigning_an_attribute_raises(name):
    x, field, value = VALUES[name]
    fields = _field_names(x)
    before = [getattr(x, f) for f in fields]
    for attr in (*fields, "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(x, attr, value)
    assert field in fields and getattr(x, field) != value and not hasattr(x, "new_attribute")
    assert all(getattr(x, f) is v for f, v in zip(fields, before))


@pytest.mark.parametrize("name", VALUES)
def test_deleting_a_field_raises(name):
    x, _, _ = VALUES[name]
    fields = _field_names(x)
    before = [getattr(x, f) for f in fields]
    for attr in fields:
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert all(getattr(x, f) is v for f, v in zip(fields, before))


@pytest.mark.parametrize("name", NUMBERS)
def test_a_number_is_frozen_and_has_no_instance_dict(name):
    x, _, _ = NUMBERS[name]
    assert type(x).__qualname__ == name and isinstance(x, Frozen) and not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", SAMPLES)
def test_the_repr_is_the_dataclass_repr(name):
    x, _, _ = SAMPLES[name]
    assert repr(x) == repr(_as_dataclass(x))


FROZEN = [name for name, (x, _, _) in SAMPLES.items() if isinstance(x, Frozen)]


def test_every_frozen_class_has_a_sample():
    numbers = {"Poly", "PiecewisePoly", "RationalFunction", "ClassVector"}  # Guarded subclasses RationalFunction
    assert {cls.__qualname__ for cls in Frozen.__subclasses__()} == set(FROZEN) | numbers


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_value_is_built_from_its_fields_by_name_or_by_position(name):
    x, _, _ = SAMPLES[name]
    by_name = type(x)(**dict(zip(x._fields, _values(x))))
    assert by_name == _twin(x) == x and _values(by_name) == _values(x)


@pytest.mark.parametrize("name", FROZEN)
def test_a_missing_or_extra_field_raises_type_error(name):
    x, _, _ = SAMPLES[name]
    values, named = _values(x), dict(zip(x._fields, _values(x)))
    del named[x._fields[0]]  # a field with no default
    for args, kwargs in [((), named), ((*values, None), {}), (values, {"extra": None})]:
        with pytest.raises(TypeError):
            type(x)(*args, **kwargs)


def test_the_type_error_names_the_fields():
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1,), {"first": 2}), ((1,), {"third": 2})]:
        with pytest.raises(TypeError, match=r"_Min takes the fields \(first, second\)"):
            _Min(*args, **kwargs)


@pytest.mark.parametrize("name", SAMPLES)
def test_a_value_is_no_tuple_and_no_number(name):
    x, _, _ = SAMPLES[name]
    assert not isinstance(x, tuple)
    with pytest.raises(TypeError):
        x + x
    with pytest.raises(TypeError):
        x[0]


def test_a_record_is_no_json_array():
    with pytest.raises(TypeError, match="CheckItem is not JSON serializable"):
        _json({"item": REPORT.items[0]})
    assert _json({"items": (1, 2)}) == '{\n "items": [\n  1,\n  2\n ]\n}\n'
