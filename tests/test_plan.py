"""The plan that serves a parametric family's n, against the pointwise pipeline, its oracle."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import plan
from kstab.arith import RationalFunction
from kstab.catalog import _CHECK_KINDS, Catalog, FamilyEntry, load_catalog, verify, verify_pointwise

CATALOG = load_catalog()
PARAMETRIC = [entry.family_id for entry in CATALOG.families if entry.parametric]
_polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(tuple)


def _fresh(family_id, mutate=None):
    """A catalog of one family, with no plan yet; mutate(data) edits the family first."""
    data = copy.deepcopy(dict(CATALOG.family(family_id).data))
    if mutate:
        mutate(data)
    return Catalog(1, (FamilyEntry(family_id, data),), (), "in-memory")


def _outcome(run, catalog, family_id, n):
    try:
        return run(catalog, family_id, n).to_json_dict()
    except ValueError as exc:  # CatalogError and ParameterError included
        return type(exc), str(exc)


def _sweep(catalog, family_id, ns):
    """Assert that verify and verify_pointwise agree at every n; return what the plans did."""
    catalog.plan_counts.clear()
    for n in ns:
        assert _outcome(verify, catalog, family_id, n) == _outcome(verify_pointwise, catalog, family_id, n), n
    return dict(catalog.plan_counts)


def test_the_catalog_has_parametric_families():
    assert PARAMETRIC


@pytest.mark.parametrize("family_id", PARAMETRIC)
def test_plan_serves_every_n_as_the_pointwise_pipeline_does(family_id):
    lo = CATALOG.family(family_id).minimum_n
    rng = random.Random(f"kstab-plan/{family_id}")
    ns = list(range(lo, lo + 301)) + [rng.randrange(lo, 10**15) for _ in range(200)]
    assert _sweep(_fresh(family_id), family_id, ns) == {"plans built": 1, "n served": len(ns) - 1}
    # a plan built at a large n serves the small ones as well
    assert _sweep(_fresh(family_id), family_id, ns[::-1]) == {"plans built": 1, "n served": len(ns) - 1}


def _ample_on_z2_vanishing_at_7(data):
    # A = Z1 + a Z2 on the split fiber with A.Z2 = 2 (n-7)^2 / ((n+7)^2 (n+1) (n+2)): Z2 enters
    # the support at u = 0 when n = 7 and later at every other n, so one guard fails at n = 7 only
    for check in data["checks"]:
        if check.get("config") == "pair":
            check["ample"] = {"Z1": "1", "Z2": "1 + (2 - 2*(n-7)*(n-7)/((n+7)*(n+7)))/(n+1)"}


def test_a_guard_that_fails_at_one_n_sends_that_n_to_the_pointwise_path():
    catalog = _fresh(2, _ample_on_z2_vanishing_at_7)
    assert _sweep(catalog, 2, range(0, 60)) == {"plans built": 1, "n served": 58, "n fell back": 1}
    assert [guard[:2] for guard in catalog.plans[2].guards] == [((98, -28, 2), None)]
    ray = "split-fiber ray: nef_threshold"
    assert next(i for i in verify(catalog, 2, 7).items if i.name == ray).computed == "0"
    assert next(i for i in verify(catalog, 2, 8).items if i.name == ray).computed != "0"


def test_n_where_the_pipeline_raises_raise_the_same_and_the_plan_starts_after_them():
    # C^2 = (n-7)/n on the pencil: no positive anticanonical square up to n = 7
    catalog = _fresh(1, lambda data: data["configs"]["pencil"]["gram"][0].__setitem__(0, "(n-7)/n"))
    # n = 2 .. 7 raise in instantiate, n = 8 builds the plan, and 5, 7 and 3 raise again before it
    assert _sweep(catalog, 1, [*range(2, 60), 5, 7, 3]) == {"plans built": 1, "n served": 51}
    assert catalog.plans[1].guards  # A^2 = 4 (n-7) / n > 0 and the rest are checked at each n


def test_a_mismatch_at_a_served_n_is_reported_as_the_pipeline_reports_it():
    def corrupt(data):
        next(c for c in data["checks"] if c["name"] == "node exceptional ray")["expect"]["s"] = "(4*n+2)/(3*n) + 1/(n-40)"

    catalog = _fresh(1, corrupt)
    # the divisor n - 40 is a guard: that n runs pointwise, and raises
    assert _sweep(catalog, 1, range(2, 80)) == {"plans built": 1, "n served": 76, "n fell back": 1}
    report = verify(catalog, 1, 41)
    assert [i.name for i in report.mismatches] == ["node exceptional ray: s"]
    with pytest.raises(ValueError, match="division by zero"):
        verify(catalog, 1, 40)


def test_a_family_without_a_plan_runs_pointwise(monkeypatch):
    def unsupported(self):
        raise plan.Unsupported("no plan")

    monkeypatch.setattr(plan._Builder, "plan", unsupported)
    catalog = _fresh(2)
    assert _sweep(catalog, 2, range(0, 12)) == {"plans refused": 1, "n fell back": 11}
    assert catalog.plans == {2: None}


def test_every_check_kind_has_a_plan_builder():
    assert all(callable(getattr(plan._Builder, f"_{kind}", None)) for kind in _CHECK_KINDS)


def test_a_check_kind_without_a_builder_runs_pointwise(monkeypatch):
    monkeypatch.delattr(plan._Builder, "_ray")
    catalog = _fresh(1)
    assert _sweep(catalog, 1, range(2, 8)) == {"plans refused": 1, "n fell back": 5}


def test_a_square_root_needs_a_square():
    n = RationalFunction.variable()
    assert plan._sqrt(n + RationalFunction.constant(2)) is None
    assert plan._sqrt(RationalFunction.constant(-4) * n * n) is None
    assert plan._sqrt(RationalFunction.constant(Fraction(9, 4)) * n * n) == RationalFunction((0, 3), (2,))


@settings(max_examples=300, deadline=None)
@given(_polys, _polys)
def test_the_square_root_of_a_square(num, den):
    if not any(den):
        return
    x = RationalFunction(num, den)
    root = plan._sqrt(x * x)
    assert root is not None and root * root == x * x


@settings(max_examples=300, deadline=None)
@given(_polys, _polys, st.integers(-3, 5))
def test_settled_signs_hold_at_every_n_from_the_minimum(num, den, lo):
    try:
        x = RationalFunction(num, den)
    except ZeroDivisionError:
        return
    signs = plan._possible_signs(x, lo)
    for n in range(lo, lo + 40):
        if sum(c * n**i for i, c in enumerate(x.den)):  # x is defined at n
            assert x.sign_at(n) in signs, n
