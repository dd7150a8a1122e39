"""Catalog loading, instantiation, and exact verification."""

import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstab import catalog as catalog_module
from kstab import expected_invariants, instantiate, load_catalog, verify
from kstab.catalog import (
    CatalogError,
    ParameterError,
    VerificationReport,
    _approx,
    _compile,
    eval_expr,
    load_fixture,
)
from kstab.surface import CurveConfig
from tests._oracles import oracle_eval_expr
from tests.test_cli import README_FIXTURE

F = Fraction

CATALOG = load_catalog()


def test_catalog_shape():
    assert CATALOG.version == 1
    assert CATALOG.family_ids == list(range(1, 11))
    assert len(CATALOG.non_ke_quintuples) == 5
    assert all(q["ke"] == "no" for q in CATALOG.non_ke_quintuples)


def test_expression_parser():
    assert eval_expr("25/162") == F(25, 162)
    assert eval_expr("2*(2*n+5)/(3*(n+2)*(n+3))", 4) == F(26, 3 * 6 * 7)
    assert eval_expr("min(3/2, 3*(n+2)/4)", 0) == F(3, 2)
    assert eval_expr("-(n+1)/(n+2)", 2) == F(-3, 4)
    with pytest.raises(ParameterError):
        eval_expr("n+1")
    with pytest.raises(CatalogError):
        eval_expr("2 +")
    with pytest.raises(CatalogError):
        eval_expr("foo")
    for not_an_expression in (True, False, 1.5, [1]):  # JSON true is not the integer 1
        with pytest.raises(CatalogError):
            eval_expr(not_an_expression)


_blank = st.sampled_from(["", "", " ", "  ", "\t"])


def _spaced(*parts):
    """Join the drawn parts, with optional whitespace around each."""
    return st.tuples(*[p for part in parts for p in (_blank, part)], _blank).map("".join)


_atoms = st.one_of(st.integers(0, 10**9).map(str), st.just("n"))
_well_formed = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        _spaced(inner, st.sampled_from("+-*/"), inner),
        _spaced(st.just("-"), inner),
        _spaced(st.just("("), inner, st.just(")")),
        _spaced(st.just("min("), inner, st.just(","), inner, st.just(")")),
    ),
    max_leaves=10,
)
_token_soup = st.lists(
    st.sampled_from(["n", "+", "-", "*", "/", "(", ")", "min(", ",", " ", "0", "3", "12", "x", ".", "min"]),
    max_size=6,
).map("".join)
_expressions = st.one_of(
    _well_formed,
    st.tuples(_well_formed, _token_soup).map("".join),  # malformed tail
    st.tuples(_well_formed, st.integers(0, 40)).map(lambda t: t[0][: t[1]]),  # cut short
    _token_soup,
)
_n_values = st.one_of(st.none(), st.integers(-3, 12), st.integers(10**6, 10**12))


def _evaluation(evaluate, text, n):
    try:
        value = evaluate(text, n)
    except ValueError as exc:  # CatalogError and ParameterError included
        return type(exc), str(exc)
    assert type(value) is Fraction
    return value


@settings(max_examples=600, deadline=None)
@given(_expressions, _n_values, _n_values)
def test_compiled_expressions_match_the_parsing_oracle(text, n1, n2):
    try:
        _compile(text)
        refused = None
    except CatalogError as exc:
        refused = type(exc), str(exc)
    for n in (n1, n2, n1):  # the later calls evaluate the cached compilation
        oracle = _evaluation(oracle_eval_expr, text, n)
        if refused is None:
            assert _evaluation(eval_expr, text, n) == oracle
            continue
        # refused text raises its compile error at every n; the oracle, parsing while
        # it evaluates, may first meet a missing n or a division by zero
        assert _evaluation(eval_expr, text, n) == refused
        assert isinstance(oracle, tuple)
        assert oracle == refused or oracle[0] is ParameterError or "division by zero" in oracle[1]


def test_expression_errors_are_not_cached():
    _compile.cache_clear()
    for text in ("2 + )", "min(1", "n + (", "3/x"):
        for _ in range(2):
            with pytest.raises(CatalogError):
                eval_expr(text, 3)
    assert _compile.cache_info().currsize == 0  # malformed text is compiled anew each call
    for _ in range(2):
        with pytest.raises(CatalogError, match="division by zero"):
            eval_expr("1/(n-3)", 3)
    assert eval_expr("1/(n-3)", 5) == F(1, 2)
    assert eval_expr("7*n - 4/(n+9)", 3) == F(62, 3)
    for _ in range(2):
        with pytest.raises(ParameterError, match="needs the parameter n"):
            eval_expr("7*n - 4/(n+9)")
    # what is wrong whatever n is, is what is reported, even before a missing n
    with pytest.raises(CatalogError, match="cannot parse"):
        eval_expr("n + )")
    with pytest.raises(CatalogError, match="division by zero"):
        eval_expr("n + 1/0")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\u00b2", "cannot parse expression '1\u00b2' at position 0: invalid literal"),  # a superscript two
        ("1" * 4301, "Exceeds the limit (4300 digits)"),
        ("n/0", "division by zero in 'n/0'"),
        ("(" * 3000 + "n" + ")" * 3000, "is nested too deeply"),  # deep while compiling
        ("-" * 5000 + "n", "is nested too deeply"),
    ],
    ids=["superscript", "4301 digits", "constant zero divisor", "parentheses", "unary minus"],
)
def test_text_wrong_at_every_n_raises_one_catalog_error(text, message):
    errors = set()
    for n in (None, 3, 10**6, None):
        with pytest.raises(CatalogError) as info:
            eval_expr(text, n)
        errors.add((type(info.value), str(info.value)))
    assert len(errors) == 1
    kind, error = errors.pop()
    assert kind is CatalogError and message in error and "\n" not in error


LONG_SUM = "+".join(["n"] * 3000)


@pytest.mark.parametrize(
    "text, n, outcome",
    [
        (f"min(1/(n-3), {LONG_SUM})", None, ParameterError(f"expression 'min(1/(n-3), {LONG_SUM})' needs the parameter n")),
        (f"min(1/(n-3), {LONG_SUM})", 3, CatalogError(f"division by zero in 'min(1/(n-3), {LONG_SUM})'")),
        (f"min(1/(n-3), {LONG_SUM})", 4, F(1)),
        ("+".join(["n"] * 5000), 10**6, F(5000 * 10**6)),
        ("1 - " + " - ".join(["n"] * 5000), 2, F(1 - 10000)),
        ("*".join(["n"] * 3000) + "/" + "/".join(["n"] * 2999), 7, F(7)),
        ("2/" + "/".join(["n"] * 3000), 0, CatalogError("division by zero in '2/n/")),
        ("+".join(["min(n, 2)"] * 3000), 5, F(6000)),
    ],
    ids=["min at None", "min at 3", "min at 4", "long sum", "long difference", "long product", "long quotient",
         "long sum of mins"],
)
def test_long_chains_evaluate_in_one_node(text, n, outcome):
    """A run of + and - (or * and /) evaluates in a loop: no depth limit, errors left to right."""
    if isinstance(outcome, Fraction):
        assert eval_expr(text, n) == outcome == oracle_eval_expr(text, n)
        return
    with pytest.raises(type(outcome)) as info:
        eval_expr(text, n)
    assert type(info.value) is type(outcome) and str(info.value).startswith(str(outcome))


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.integers(0, 10**300))
def test_approximations_match_float_of_the_fraction(x, big):
    for value in (x, F(big, 7), F(-big, 3 * big + 1)):
        assert _approx(str(value)) == f"{float(value):.6f}"
    for text in ("true", "false", "[0, 1]: 3 - u", "1/0", ""):
        assert _approx(text) is None


def test_instantiate_family2_at_zero():
    inst = instantiate(CATALOG, 2, 0)
    assert inst.quintuple.weights == (1, 2, 2, 3)
    assert inst.quintuple.degree == 6
    assert inst.quintuple.ambient_pairing(2, 2) == 2


def test_instantiate_fixed_family():
    inst = instantiate(CATALOG, 7)
    assert inst.quintuple.weights == (1, 5, 7, 11)
    assert inst.quintuple.degree == 22


def test_instantiate_parameter_errors():
    with pytest.raises(ParameterError):
        instantiate(CATALOG, 1, 1)  # below the admissible range
    with pytest.raises(ParameterError):
        instantiate(CATALOG, 1)  # parameter missing
    with pytest.raises(ParameterError):
        instantiate(CATALOG, 3, 4)  # parameter superfluous
    with pytest.raises(CatalogError):
        instantiate(CATALOG, 11)


def test_every_instantiation_is_index_two_and_well_formed():
    for entry in CATALOG.families:
        for n in range(entry.minimum_n, entry.minimum_n + 19) if entry.parametric else [None]:
            inst = instantiate(CATALOG, entry.family_id, n)
            assert inst.quintuple.index == 2
            assert inst.quintuple.is_well_formed()


def test_expected_invariants_samples():
    by_name = dict(expected_invariants(CATALOG, 1, 3))
    assert by_name["node exceptional ray: beta"] == F(4, 9)

    by_name = dict(expected_invariants(CATALOG, 2, 4))
    assert by_name["split-fiber flag at the component crossing: s_w"] == F(4, 9)

    by_name = dict(expected_invariants(CATALOG, 10))
    assert by_name["exceptional ray: k_bound"] == F(41, 78)


def test_expected_invariants_are_the_expression_items_of_verify_without_any_ray(monkeypatch):
    import kstab.catalog

    reports = [verify(CATALOG, e.family_id, e.minimum_n) for e in CATALOG.families]

    def refuse(*args, **kwargs):
        raise AssertionError("expected_invariants decomposed a ray")

    monkeypatch.setattr(kstab.catalog, "decompose_ray", refuse)
    for report in reports:
        # items[:2] are the quintuple's; an expression-valued item prints as p/q
        scalars = [(i.name, F(i.expected)) for i in report.items[2:] if "expected_approx" in i.to_json_dict()]
        assert expected_invariants(CATALOG, report.family_id, report.n) == scalars


def test_config_expression_errors_name_family_and_field_and_keep_their_type():
    from kstab.catalog import Catalog, FamilyEntry

    for value, error, message in (
        ("n", ParameterError, "expression 'n' needs the parameter n"),
        ("1/0", CatalogError, "division by zero in '1/0'"),
    ):
        data = json.loads(json.dumps(CATALOG.family(3).data))
        data["configs"]["lr"]["anticanonical"][1] = value
        with pytest.raises(error) as raised:
            instantiate(Catalog(1, (FamilyEntry(3, data),), (), "in-memory"), 3)
        assert type(raised.value) is error
        assert str(raised.value) == f"family 3: config 'lr' anticanonical: {message}"


def test_recorded_delta_bounds():
    expected = {
        3: F(6, 5), 4: F(11, 10), 5: F(40, 39), 6: F(4, 3),
        7: F(18, 17), 8: F(4, 3), 9: F(8, 7), 10: F(79, 78),
    }
    for fid, value in expected.items():
        entry = CATALOG.family(fid)
        assert F(entry.delta_lower) == value


def test_anchor_strings_are_nonempty():
    for entry in CATALOG.families:
        for check in entry.data.get("checks", []):
            assert check.get("anchor"), (entry.family_id, check["name"])


def test_verify_all_families_at_sampled_parameters():
    for entry in CATALOG.families:
        samples = [None] if not entry.parametric else [entry.minimum_n, entry.minimum_n + 5]
        for n in samples:
            report = verify(CATALOG, entry.family_id, n)
            assert report.overall, report.mismatches


def test_verify_full_parameter_sweep():
    for n in range(2, 21):
        assert verify(CATALOG, 1, n).overall
    for n in range(0, 21):
        assert verify(CATALOG, 2, n).overall


def test_every_catalog_blowup_satisfies_multiplicity_identity():
    # (pullback(A) - mE).E == (order/(a*b)) * m on each stored blow-up
    for entry in CATALOG.families:
        n = entry.minimum_n if entry.parametric else None
        inst = instantiate(CATALOG, entry.family_id, n)
        for name, result in inst.blowups.items():
            up = result.upstairs
            e = up.basis_vector(result.spec.exceptional)
            order = result.spec.center.order
            a, b = result.spec.weights
            pulled = result.pullback(result.downstairs.anticanonical)
            for m in (F(0), F(1, 3), F(7, 5)):
                assert up.pairing(pulled - m * e, e) == F(order, a * b) * m, (
                    entry.family_id,
                    name,
                )


def test_verify_family1_beta_values_at_n2():
    report = verify(CATALOG, 1, 2)
    values = {item.name: item for item in report.items}
    assert values["pencil member ray: beta"].computed == "1/3"
    assert values["node exceptional ray: beta"].computed == "1/3"
    assert report.overall


def test_verify_family3_recomputes_corrected_constants():
    report = verify(CATALOG, 3)
    values = {item.name: item.computed for item in report.items}
    assert values["component ray: integral"] == "4/27"
    assert values["component ray: k_bound"] == "2/9"
    assert values["first blow-up exceptional ray: k_bound"] == "1/3"
    assert report.overall


def test_family3_and_5_carry_erratum_notes():
    assert any("25/162" in note for note in CATALOG.family(3).notes)
    assert any("1/60" in note for note in CATALOG.family(5).notes)


def test_report_json_round_trip():
    report = verify(CATALOG, 5)
    doc = report.to_json_dict()
    json.dumps(doc)  # must be serializable as-is
    assert VerificationReport.from_json_dict(doc) == report


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda doc: doc.update(family=1.9), "verification report family must be an integer"),
        (lambda doc: doc.update(n=2.7), "verification report n must be an integer or null"),
        (lambda doc: doc["items"][0].update(match="false"), "check item match must be true or false"),
    ],
    ids=["float family", "float n", "text match"],
)
def test_report_json_of_another_type_is_refused(corrupt, named):
    doc = verify(CATALOG, 1, 3).to_json_dict()
    corrupt(doc)
    with pytest.raises(CatalogError, match=named):
        VerificationReport.from_json_dict(doc)


def _field_tables() -> dict:
    """Every field table of kstab.catalog by name: each module-level dict whose values are all
    shapes (fits, what, required), and each check kind's fields."""
    def is_shape(s):
        return isinstance(s, tuple) and len(s) == 3 and callable(s[0]) and isinstance(s[1], str)

    tables = {
        name: value for name, value in vars(catalog_module).items()
        if isinstance(value, dict) and value and all(map(is_shape, value.values()))
    }
    tables.update({f"_CHECK_KINDS[{kind}]": k.fields for kind, k in catalog_module._CHECK_KINDS.items()})
    return tables


EMBEDDED = json.loads(resources.files("kstab").joinpath("data/catalog.json").read_text(encoding="utf-8"))


def _family(doc, family_id=1):
    return next(f for f in doc["families"] if f["id"] == family_id)


def _first_check(kind):
    return lambda doc: next(c for f in doc["families"] for c in f["checks"] if c["kind"] == kind)


def _read_catalog(doc, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    load_catalog(path)


_CATALOG_INPUT = (lambda: json.loads(json.dumps(EMBEDDED)), _read_catalog)
_FIXTURE_INPUT = (
    lambda: dict(json.loads(json.dumps(README_FIXTURE)), point={"a_value": "1"}, log_discrepancy="1"),
    lambda doc, tmp_path: load_fixture("fixture.json", doc),
)
_CONFIG_INPUT = (
    lambda: instantiate(CATALOG, 3).stages["cx"].to_json_dict(),
    lambda data, tmp_path: CurveConfig.from_json_dict(data),
)
_REPORT_INPUT = (
    lambda: verify(CATALOG, 1, 3).to_json_dict(),
    lambda doc, tmp_path: VerificationReport.from_json_dict(doc),
)
# table -> (a valid input and the entry point that reads it, where the table's object sits in it)
READERS = {
    "_DOCUMENT": (_CATALOG_INPUT, lambda doc: doc),
    "_FAMILY": (_CATALOG_INPUT, _family),
    "_BLOWUP": (_CATALOG_INPUT, lambda doc: _family(doc)["blowups"][0]),
    "_POINT": (_CATALOG_INPUT, lambda doc: _family(doc)["blowups"][0]["center"]),
    "_CHECK_FIELDS": (_CATALOG_INPUT, lambda doc: _family(doc)["checks"][0]),
    **{f"_CHECK_KINDS[{kind}]": (_CATALOG_INPUT, _first_check(kind)) for kind in catalog_module._CHECK_KINDS},
    "_CONFIG": (_CONFIG_INPUT, lambda data: data),
    "_SINGULAR_POINT": (_CONFIG_INPUT, lambda data: data["singular_points"][0]),
    "_FIXTURE": (_FIXTURE_INPUT, lambda doc: doc),
    "_RAY": (_FIXTURE_INPUT, lambda doc: doc["ray"]),
    "_FIXTURE_POINT": (_FIXTURE_INPUT, lambda doc: doc["point"]),
    "_REPORT": (_REPORT_INPUT, lambda doc: doc),
    "_CHECK_ITEM": (_REPORT_INPUT, lambda doc: doc["items"][0]),
}


LEFT_OUT = object()  # a case that removes the field


@pytest.mark.parametrize(
    "table, field", [(name, field) for name, table in _field_tables().items() for field in table]
)
def test_each_table_field_that_is_missing_or_of_another_type_is_refused_by_name(table, field, tmp_path):
    assert table in READERS, f"no entry point reaches the table {table}"
    (make, read), locate = READERS[table]
    read(make(), tmp_path)  # the input as it is reads
    required = _field_tables()[table][field][2]
    valid = locate(make())
    expect = valid.get("expect")
    cases = [1.5] if isinstance(valid.get(field), bool) else [1.5, True]
    if required is True or isinstance(expect, dict) and required in expect:
        cases.append(LEFT_OUT)
    for value in cases:
        data = make()
        if value is LEFT_OUT:
            del locate(data)[field]
        else:
            locate(data)[field] = value
        with pytest.raises(CatalogError) as exc:
            read(data, tmp_path)
        message = str(exc.value)
        assert len(message.splitlines()) == 1 and f"{field} must be " in message, (value, message)


def test_catalog_env_override(tmp_path, monkeypatch):
    doc = {
        "version": 1,
        "families": [CATALOG.family(8).data],
        "non_ke_quintuples": [],
    }
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("KSTAB_CATALOG", str(path))
    alt = load_catalog()
    assert alt.family_ids == [8]
    assert verify(alt, 8).overall


def _corruption_sites(check):
    """Yield (mutator, expected_item_name) pairs for one check record."""
    kind = check["kind"]
    name = check["name"]
    if kind in ("pairing", "ambient", "log_discrepancy", "proportional"):
        yield (lambda c: c.update(expect=c["expect"] + "+1/97")), name
    elif kind == "negdef":
        yield (lambda c: c.update(expect=not c["expect"])), name
    elif kind in ("ray", "flag"):
        for key in list(check["expect"]):
            if key == "volume":
                def flip_volume(c):
                    c["expect"]["volume"][0]["coeffs"][0] += "+1/97"
                yield flip_volume, f"{name}: volume profile"
            else:
                def flip_scalar(c, key=key):
                    c["expect"][key] = c["expect"][key] + "+1/97"
                yield flip_scalar, f"{name}: {key}"
    elif kind == "identity":
        for key in list(check["expect"]):
            def flip_coeff(c, key=key):
                c["expect"][key] = c["expect"][key] + "+1/97"
            label = "constant term" if key == "const" else f"coefficient of {key}"
            yield flip_coeff, f"{name}: {label}"


def test_every_expected_value_is_load_bearing():
    # corrupting any one expected value must flip exactly that item to a
    # mismatch; nothing in the catalog is dead data
    from kstab.catalog import Catalog, FamilyEntry

    total = 0
    for entry in CATALOG.families:
        n = entry.minimum_n if entry.parametric else None
        for index, check in enumerate(entry.data["checks"]):
            for mutate, item_name in _corruption_sites(check):
                data = json.loads(json.dumps(dict(entry.data)))
                mutate(data["checks"][index])
                mutated = Catalog(
                    version=1,
                    families=(FamilyEntry(entry.family_id, data),),
                    non_ke_quintuples=(),
                    source="in-memory",
                )
                report = verify(mutated, entry.family_id, n)
                assert not report.overall
                assert [i.name for i in report.mismatches] == [item_name], item_name
                total += 1
    assert total > 150


def test_pipeline_errors_name_the_failing_check():
    from kstab.catalog import Catalog, FamilyEntry

    data = json.loads(json.dumps(dict(CATALOG.family(4).data)))
    for check in data["checks"]:
        if check["kind"] == "ray":
            check["config"] = "bogus"
            broken_name = check["name"]
    mutated = Catalog(1, (FamilyEntry(4, data),), (), "in-memory")
    with pytest.raises(CatalogError) as err:
        verify(mutated, 4)
    assert broken_name in str(err.value)


def test_programming_errors_in_the_pipeline_propagate(monkeypatch):
    import kstab.catalog

    def broken(*args, **kwargs):
        raise TypeError("bug in the pipeline")

    monkeypatch.setattr(kstab.catalog, "decompose_ray", broken)
    with pytest.raises(TypeError, match="bug in the pipeline"):
        verify(CATALOG, 4)


def test_corrupted_expected_value_is_flagged(tmp_path):
    data = json.loads(json.dumps(CATALOG.family(10).data))
    for check in data["checks"]:
        if check["name"] == "exceptional ray":
            check["expect"]["k_bound"] = "41/79"
    doc = {"version": 1, "families": [data], "non_ke_quintuples": []}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    report = verify(load_catalog(path), 10)
    assert not report.overall
    assert [i.name for i in report.mismatches] == ["exceptional ray: k_bound"]


def test_blowup_without_curve_orders_misses_every_curve(tmp_path):
    data = json.loads(json.dumps(CATALOG.family(1).data))
    del next(b for b in data["blowups"] if b["name"] == "node")["curve_orders"]
    path = tmp_path / "smooth_blowup.json"
    path.write_text(json.dumps({"version": 1, "families": [data], "non_ke_quintuples": []}))
    up = instantiate(load_catalog(path), 1, 4).blowups["node"].upstairs
    assert up.basis[-1] == "F"
    assert [up.pairing(up.basis_vector(c), up.basis_vector("F")) for c in up.basis] == [0] * (up.size - 1) + [-1]


def test_family1_blowup_gram_matches_stored_expectations():
    # the stored node-pair Gram must transform onto the recorded blow-up Gram
    inst = instantiate(CATALOG, 1, 4)
    up = inst.blowups["node"].upstairs
    n = 4
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("C1")) == F(1 - 2 * n, n)
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("C2")) == 0
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("F")) == 1
    assert up.pairing(up.basis_vector("F"), up.basis_vector("F")) == -1
