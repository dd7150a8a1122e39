"""Catalog loading, instantiation, and exact verification."""

import json
from fractions import Fraction

import pytest

from kstab import expected_invariants, instantiate, load_catalog, verify
from kstab.catalog import (
    CatalogError,
    ParameterError,
    VerificationReport,
    default_n_values,
    eval_expr,
)

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
        for n in default_n_values(entry, span=18):
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


def test_family1_blowup_gram_matches_stored_expectations():
    # the stored node-pair Gram must transform onto the recorded blow-up Gram
    inst = instantiate(CATALOG, 1, 4)
    up = inst.blowups["node"].upstairs
    n = 4
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("C1")) == F(1 - 2 * n, n)
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("C2")) == 0
    assert up.pairing(up.basis_vector("C1"), up.basis_vector("F")) == 1
    assert up.pairing(up.basis_vector("F"), up.basis_vector("F")) == -1
