"""The plan that serves a parametric family's n, against the pointwise pipeline, its oracle."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kstab import catalog as catalog_module
from kstab import plan
from kstab import ClassVector, CurveConfig
from kstab.arith import Poly, RationalFunction, _Min, minimum
from kstab.catalog import _CHECK_KINDS, _Kind, Catalog, CatalogError, FamilyEntry, eval_expr, load_catalog, verify, verify_pointwise
from tests._oracles import oracle_served_at
from tests.test_catalog import _well_formed

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
    catalog = _fresh(family_id)
    assert _sweep(catalog, family_id, ns) == {"plans built": 1, "n served": len(ns) - 1}
    # on the shipped catalog no guard survives, a sign, integrality or coprimality test
    assert catalog.plans[family_id].guards == ()
    # a plan built at a large n serves the small ones as well
    assert _sweep(_fresh(family_id), family_id, ns[::-1]) == {"plans built": 1, "n served": len(ns) - 1}


def _ample_on_z2_vanishing_at_7(data):
    # A = Z1 + a Z2 on the split fiber with A.Z2 = 2 (n-7)^2 / ((n+7)^2 (n+1) (n+2)): Z2 enters
    # the support at u = 0 when n = 7 and later at every other n, so the guards fail at n = 7 only
    for check in data["checks"]:
        if check.get("config") == "pair":
            check["ample"] = {"Z1": "1", "Z2": "1 + (2 - 2*(n-7)*(n-7)/((n+7)*(n+7)))/(n+1)"}


def _fails_at(guard, ns):
    (test, f), signs = guard
    assert test is RationalFunction.sign_at
    at = [sum(c * n**i for i, c in enumerate(f.num)) * sum(c * n**i for i, c in enumerate(f.den)) for n in ns]
    return [n for n, s in zip(ns, at) if (s > 0) - (s < 0) not in signs]


def test_a_guard_that_fails_at_one_n_sends_that_n_to_the_pointwise_path():
    catalog = _fresh(2, _ample_on_z2_vanishing_at_7)
    assert _sweep(catalog, 2, range(0, 60)) == {"plans built": 1, "n served": 58, "n fell back": 1}
    # A.Z2 >= 0, where Z2 enters, seen over two positive denominators, is one guard on its
    # numerator 2 (n-7)^2; the join of the two volume pieces, equal at n = 7 only, keeps none
    assert len(catalog.plans[2].guards) == 1
    assert all(_fails_at(guard, range(0, 60)) == [7] for guard in catalog.plans[2].guards)
    ray = "split-fiber ray: nef_threshold"
    assert next(i for i in verify(catalog, 2, 7).items if i.name == ray).computed == "0"
    assert next(i for i in verify(catalog, 2, 8).items if i.name == ray).computed != "0"


def test_a_chamber_that_ends_at_tau_at_one_n_sends_that_n_to_the_pointwise_path():
    # Z2 enters at u = 1, where vol = (n-5)^2 / (n+1): the walk ends there at n = 5 only
    family = CATALOG.family(2).data
    data = {
        "id": 9, "weights": family["weights"], "degree": family["degree"], "parameter": {"name": "n", "min": 0},
        "configs": {"tri": {
            "basis": ["H", "Z1", "Z2"],
            "gram": [["3 + (n-5)*(n-5)/(n+1)", "1", "1"], ["1", "-1", "1"], ["1", "1", "-1"]],
            "anticanonical": ["1", "0", "0"],
        }},
        "checks": [{"kind": "ray", "name": "tri ray", "config": "tri", "ray": "Z1", "expect": {"tau": "1"}}],
    }
    catalog = Catalog(1, (FamilyEntry(9, data),), (), "in-memory")
    assert _sweep(catalog, 9, range(0, 60)) == {"plans built": 1, "n served": 58, "n fell back": 1}
    assert len(catalog.plans[9].guards) == 4  # one per numerator, such as (n-5)^2 > 0
    assert {n for guard in catalog.plans[9].guards for n in _fails_at(guard, range(0, 60))} == {5}
    assert [item.match for item in verify(catalog, 9, 5).items] == [True] * 3
    assert [item.match for item in verify(catalog, 9, 6).items] == [True, True, False]


def test_n_where_the_pipeline_raises_raise_the_same_and_the_plan_starts_after_them():
    # C^2 = (n-7)/n on the pencil: no positive anticanonical square up to n = 7
    catalog = _fresh(1, lambda data: data["configs"]["pencil"]["gram"][0].__setitem__(0, "(n-7)/n"))
    # n = 2 .. 7 raise in instantiate, n = 8 builds the plan, and 5, 7 and 3 fail its guard
    # A^2 > 0, run pointwise and raise again
    assert _sweep(catalog, 1, [*range(2, 60), 5, 7, 3]) == {"plans built": 1, "n served": 51, "n fell back": 3}
    # A^2 = 4 (n-7) / n > 0, C^2 > 0 and the divisor n - 7 are one guard, n - 7 > 0
    assert catalog.plans[1].guards == (((RationalFunction.sign_at, RationalFunction((-7, 1))), plan.POS),)


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


def _raised(run, catalog, family_id, n):
    with pytest.raises(CatalogError) as exc:
        run(catalog, family_id, n)
    return type(exc.value), str(exc.value)


def _half_ambient(data):
    # O(n/2).O(2): n/2 is an integer, as _eval_int requires, at even n only
    next(c for c in data["checks"] if c["kind"] == "ambient")["m"] = "n/2"


def test_an_expression_that_is_an_integer_at_some_n_only_is_a_condition_of_the_plan():
    catalog = _fresh(1, _half_ambient)
    verify(catalog, 1, 2)  # builds the plan
    assert _raised(verify, catalog, 1, 3) == _raised(verify_pointwise, catalog, 1, 3)
    assert "expression 'n/2' is not an integer at n=3" in _raised(verify, catalog, 1, 3)[1]
    assert _sweep(_fresh(1, _half_ambient), 1, range(2, 60)) == {"plans built": 1, "n served": 28, "n fell back": 29}


def _weight_2_at_order_n_plus_2(data):
    data["configs"]["cx"]["singular_points"][0]["weights"] = [1, 2]  # 1/(n+2)(1,2): odd n only


def _blowup_weight_2_at_order_n(data):
    # the node blow-up, moved to the point p_t of order n with weights (1, 2): odd n only
    data["blowups"][0].update(center={"label": "p_t", "order": "n", "weights": [1, 1]}, weights=[1, 2])


def _weights_1_2_n_plus_2_2n_plus_4(data):
    data.update(weights=["1", "2", "n+2", "2*n+4"], degree="3*n+7")  # index 2; well-formed at odd n only


@pytest.mark.parametrize("family_id, mutate, message", [
    (2, _weight_2_at_order_n_plus_2, lambda n: f"local weights (1,2) must be coprime to {n + 2}"),
    (1, _blowup_weight_2_at_order_n, lambda n: f"weights (1,2) must be coprime to {n}"),
    (2, _weights_1_2_n_plus_2_2n_plus_4, lambda n: "quintuple not well-formed"),
], ids=["point", "blow-up", "well-formedness"])
def test_a_coprimality_that_fails_at_even_n_sends_only_those_n_to_the_pointwise_path(family_id, mutate, message):
    lo = CATALOG.family(family_id).minimum_n
    ns = range(lo + 1, lo + 41)  # built at an odd n
    catalog = _fresh(family_id, mutate)
    assert _sweep(catalog, family_id, ns) == {"plans built": 1, "n served": 19, "n fell back": 20}
    assert [test for (test, _), _ in catalog.plans[family_id].guards] == [plan._coprime_at]
    for n in ns:
        if n % 2 == 0:
            assert _raised(verify, catalog, family_id, n)[1].endswith(message(n)), n


def test_a_sweep_of_41_n_instantiates_the_family_at_its_first_n_only(monkeypatch):
    calls = []

    def counted(catalog, family_id, n=None):
        calls.append(type(n).__name__)
        return instantiate(catalog, family_id, n)

    instantiate = catalog_module.instantiate
    monkeypatch.setattr(catalog_module, "instantiate", counted)
    monkeypatch.setattr(plan, "instantiate", counted)
    for family_id in PARAMETRIC:
        lo = CATALOG.family(family_id).minimum_n + 10**6
        catalog = _fresh(family_id)
        calls.clear()
        for n in range(lo, lo + 41):
            verify(catalog, family_id, n)
        assert calls == ["int", "Guarded"]  # the plan's first n, and its symbolic run
        assert catalog.plan_counts == {"plans built": 1, "n served": 40}


def test_a_family_without_a_plan_runs_pointwise(monkeypatch):
    def refused(catalog, instance):
        raise ValueError("no plan")

    monkeypatch.setattr(plan, "_build", refused)
    catalog = _fresh(2)
    assert _sweep(catalog, 2, range(0, 12)) == {"plans refused": 1, "n fell back": 11}
    assert catalog.plans == {2: None}


def test_a_symbolic_run_that_raises_refuses_the_plan(monkeypatch):
    # int() takes a Fraction but no number over Q(n): the symbolic run raises a TypeError
    s_invariant = catalog_module.s_invariant
    monkeypatch.setattr(catalog_module, "s_invariant", lambda rd: s_invariant(rd) + 0 * int(rd.tau))
    catalog = _fresh(1)
    assert _sweep(catalog, 1, range(2, 10)) == {"plans refused": 1, "n fell back": 7}
    assert catalog.plans == {1: None}


def test_a_check_kind_added_to_the_table_is_served_with_no_plan_side_code(monkeypatch):
    monkeypatch.setitem(_CHECK_KINDS, "pairing, again", _CHECK_KINDS["pairing"])

    def add_check(data):
        check = dict(next(c for c in data["checks"] if c["kind"] == "pairing"), kind="pairing, again")
        data["checks"].append(dict(check, name="the same pairing, again"))

    catalog = _fresh(1, add_check)
    assert _sweep(catalog, 1, range(2, 60)) == {"plans built": 1, "n served": 57}
    assert verify(catalog, 1, 59).items[-1].name == "the same pairing, again"


def test_the_plan_follows_a_changed_pointwise_rule(monkeypatch):
    # a value rule (S doubled) and a decision rule (the negdef verdict negated), changed under
    # the plan: it runs the pointwise code itself at a symbolic n, so it follows both
    s_invariant = catalog_module.s_invariant
    monkeypatch.setattr(catalog_module, "s_invariant", lambda rd: 2 * s_invariant(rd))
    negdef = _CHECK_KINDS["negdef"]

    def negated(instance, check, rays):
        items = negdef.items(instance, check, rays)
        return [(label, expected, lambda compute=compute: not compute()) for label, expected, compute in items]

    monkeypatch.setitem(_CHECK_KINDS, "negdef", _Kind(negdef.fields, negated))
    for family_id in (1, 2):
        lo = CATALOG.family(family_id).minimum_n
        catalog = _fresh(family_id)
        assert _sweep(catalog, family_id, range(lo, lo + 60)) == {"plans built": 1, "n served": 59}
        assert not verify(catalog, family_id, lo + 59).overall


def test_a_divisor_that_uses_n_is_guarded_to_stay_nonzero():
    run = plan._Run(2, 0)
    n = plan._guarded(RationalFunction.variable(), run)
    assert (1 / (n - 5)) * (n - 5) == 1 and (n + 1) // (2 * n - 6) != 0
    # n - 5 and 2n - 6 (kept as n - 3) may vanish; 1, 2 and the recorded n + 1 never do
    sign = RationalFunction.sign_at
    assert run.guards == {(sign, RationalFunction((-5, 1))): plan.NONZERO, (sign, RationalFunction((-3, 1))): plan.NONZERO}


def test_polys_over_q_of_n_compare_as_functions_of_n_and_record_no_guard():
    run = plan._Run(0, 0)  # at n0 = 0, n + 1 and 2n + 1 are both 1
    n, three = (plan._guarded(f, run) for f in (RationalFunction.variable(), RationalFunction.constant(3)))
    a, b, c = Poly([n + 1]), Poly([2 * n + 1]), Poly([n + n + 1])
    d, e, f = Poly([three]), Poly([n, three]), Poly([n, 3])  # the symbolic run mixes ints and Guarded numbers
    assert run.guards == {}
    assert a != b and not a == b and b == c and e == f
    assert d == 3 and d == Fraction(3) and d != 2 and d != a
    assert run.guards == {}


def test_class_vectors_over_q_of_n_fold_their_denominator_and_record_no_new_guard():
    run, rf = plan._Run(3, 0), RationalFunction

    def values(v):  # the coefficients as rational functions of n, compared without a guard
        return [plan._frozen(x) for x in v]

    n = plan._guarded(rf.variable(), run)
    v = ClassVector([n, Fraction(1, 2)])  # over the lcm 2, a unit of Q(n): folded
    assert v.denominator == 1 and run.guards == {}
    w = ClassVector.from_integers([2, 4], n)  # over n itself: folded as well, n kept nonzero as by any divisor
    assert w.denominator == 1 and run.guards == {(rf.sign_at, rf.variable()): plan.NONZERO}
    assert values(v) == [rf.variable(), rf.constant(Fraction(1, 2))] and values(w) == [rf((2,), (0, 1)), rf((4,), (0, 1))]
    assert values(v + w) == [rf((2, 0, 1), (0, 1)), rf((8, 1), (0, 2))] and values(-w) == [rf((-2,), (0, 1)), rf((-4,), (0, 1))]
    assert values(3 * v - v) == [rf((0, 2)), rf.constant(1)]
    config = CurveConfig.make(["A", "B"], [[1, 0], [0, -1]], [1, 0])
    assert plan._frozen(config.pairing(v, v)) == rf((-1, 0, 4), (4,))  # n^2 - 1/4
    assert run.guards == {(rf.sign_at, rf.variable()): plan.NONZERO}


def _smooth_point_delta(text):
    def mutate(data):
        next(c for c in data["checks"] if c["name"] == "conic-pencil flag at a smooth point")["expect"]["delta"] = text

    return mutate


@pytest.mark.parametrize("text", ["min(4, min(3, 3*(n+2)/4))", "min(min(3, 3*(n+2)/4), 4)"])
def test_a_min_nested_in_a_min_is_served_from_the_plan(text):
    catalog = _fresh(2, _smooth_point_delta(text))
    assert _sweep(catalog, 2, range(0, 41)) == {"plans built": 1, "n served": 40}
    assert catalog.plans[2].guards == ()


def test_a_min_with_a_number_over_q_of_n_on_either_side_is_a_node_and_records_no_guard():
    run = plan._Run(2, 0)
    n = plan._guarded(RationalFunction.variable(), run)
    three, x = Fraction(3), 3 * (n + 2) / 4  # 3(n+2)/4 - 3 changes sign at n = 2
    for a, b in ((three, x), (x, three)):
        node = minimum(a, b)
        assert type(node) is _Min and node.first is a and node.second is b
    assert run.guards == {}


def test_arithmetic_on_min_nodes_refuses_the_plan_and_every_n_runs_pointwise():
    def corrupt(data):  # min(3, n) and min(n, 4) both stay nodes at the symbolic n, which cannot be added
        next(c for c in data["checks"] if c["name"] == "anticanonical degree")["expect"] = "min(3,n)+min(n,4)"

    catalog = _fresh(1, corrupt)
    assert _sweep(catalog, 1, range(2, 13)) == {"plans refused": 1, "n fell back": 10}
    mismatches = verify(catalog, 1, 5).mismatches
    assert [(i.name, i.expected, i.computed) for i in mismatches] == [("anticanonical degree", "7", "8/5")]


@settings(max_examples=300, deadline=None)
@given(_well_formed, st.integers(0, 39))
@example(text="min(1,n)+min(n,0)", n0=0)  # two min() nodes added
def test_an_expression_at_the_symbolic_n_takes_its_value_at_every_n_where_the_guards_hold(text, n0):
    run = plan._Run(n0, 0)
    try:
        value = plan._frozen(eval_expr(text, plan._guarded(RationalFunction.variable(), run)))
    except (ArithmeticError, TypeError, ValueError):  # arithmetic on a min() node, say
        return
    for m in range(0, 40):
        if any(test(args, m) not in answers for (test, args), answers in run.guards.items()):
            continue
        try:
            expected = eval_expr(text, m)
        except CatalogError:
            continue
        assert plan._at(value, m) == str(expected), m  # a served number is its Fraction's text


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
    signs = plan._possible_signs(x.num, x.den, lo)
    for n in range(lo, lo + 40):
        if sum(c * n**i for i, c in enumerate(x.den)):  # x is defined at n
            assert x.sign_at(n) in signs, n


def _answers_hold(test, args, lo):
    answers = plan._possible_answers(test, args, lo)
    if len(answers) == 1:  # settled: the plan keeps no guard
        assert all(test(args, n) in answers for n in range(lo, lo + 301))
    return answers


@settings(max_examples=300, deadline=None)
@given(_polys, st.integers(1, 12), st.integers(-3, 5))
def test_a_settled_integrality_holds_at_every_n_from_the_minimum(num, den, lo):
    _answers_hold(plan._is_integer_at, (RationalFunction(num, (den,)),), lo)


@settings(max_examples=300, deadline=None)
@given(st.lists(_polys, min_size=1, max_size=3), st.integers(-12, 12), st.integers(-3, 5))
def test_a_settled_coprimality_holds_at_every_n_from_the_minimum(nums, constant, lo):
    _answers_hold(plan._coprime_at, (RationalFunction((constant,)), *map(RationalFunction, nums)), lo)


def test_the_conditions_that_one_period_settles():
    n, c = RationalFunction.variable(), RationalFunction.constant
    is_integer, coprime = plan._is_integer_at, plan._coprime_at
    assert _answers_hold(is_integer, (n * n,), 0) == {True}
    assert _answers_hold(is_integer, (n * (n + c(1)) / c(2),), 0) == {True}
    assert _answers_hold(is_integer, (n / c(2),), 0) == {False, True}
    assert _answers_hold(is_integer, (c(1) / n,), 1) == {False, True}  # no constant denominator
    assert _answers_hold(coprime, (c(1), n, n), 2) == {True}
    assert _answers_hold(coprime, (c(2), n + c(2), n + c(3)), 0) == {True}
    assert _answers_hold(coprime, (c(2), n + c(2)), 0) == {False, True}
    assert _answers_hold(coprime, (c(6), c(2) * n), 0) == {False}
    assert _answers_hold(coprime, (n, n + c(1)), 0) == {False, True}  # no constant among them


_ints = st.integers(-(10**20), 10**20)
_nonzero = _ints.filter(bool)


@settings(max_examples=500, deadline=None)
@given(_ints, _nonzero, _ints, _nonzero)
@example(0, -7, 0, 3)
@example(6, -4, -3, 2)  # equal values, the first over a negative denominator
def test_a_served_number_is_the_text_of_its_fraction(p, q, r, s):
    """A value over a denominator of either sign, and a _Min of two such, formatted from ints
    and taken by cross-multiplying, is str() of its Fraction."""
    a, b = plan._rational_function((p,), (q,)), plan._rational_function((r,), (s,))
    assert plan._at(a, 0) == str(Fraction(p, q))
    assert plan._at(_Min(a, b), 0) == str(min(Fraction(p, q), Fraction(r, s)))
    with pytest.raises(ZeroDivisionError):
        plan._at(plan._rational_function((p,), (0,)), 0)


@pytest.mark.parametrize("family_id", PARAMETRIC)
def test_a_served_item_at_n_is_the_item_of_its_fractions(family_id):
    """Each item the plan serves, at the first 301 n and at 200 seeded n < 10^15, is the item
    that ``_item`` makes of the Fraction-valued oracle."""
    catalog = _fresh(family_id)
    lo = catalog.family(family_id).minimum_n
    verify(catalog, family_id, lo)
    served = [item for item in catalog.plans[family_id].items if isinstance(item, plan._Served)]
    assert served
    rng = random.Random(f"served/{family_id}")
    for n in [*range(lo, lo + 301), *(rng.randrange(lo, 10**15) for _ in range(200))]:
        for item in served:
            expected = oracle_served_at(item.expected, n)
            computed = expected if item.computed is None else oracle_served_at(item.computed, n)
            assert item.at(n) == catalog_module._item(item.label, expected, computed, item.anchor), (n, item.label)


@pytest.mark.parametrize("family_id", PARAMETRIC)
def test_a_served_n_builds_no_fraction_but_its_volume_pieces_endpoints(family_id, monkeypatch):
    """Numbers and polynomial texts are written from ints: at n = 10^6 + 1 .. 10^6 + 10, the only
    Fractions built are the endpoints of the volume profiles' pieces, two a piece."""
    catalog = _fresh(family_id)
    verify(catalog, family_id, 10**6)
    profiles = [
        x for item in catalog.plans[family_id].items if isinstance(item, plan._Served)
        for x in (item.expected, item.computed) if isinstance(x, tuple)
    ]
    assert profiles
    built, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for n in range(10**6 + 1, 10**6 + 11):
        verify(catalog, family_id, n)
    monkeypatch.undo()
    assert catalog.plan_counts["n served"] == 10
    assert len(built) <= 10 * 2 * sum(map(len, profiles))
