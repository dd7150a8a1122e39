"""Acceptance suite: every catalog claim at its exact value, one line each.

All comparisons are exact rational equalities (no tolerances) except the
numeric-quadrature cross-check, which runs at 1e-9 relative error.  Each
criterion prints a single PASS/FAIL line (run pytest with -s to see them all).
"""

import json
import random
from fractions import Fraction

import pytest

from kstab import (
    az_s_w,
    beta,
    decompose_ray,
    delta_lower_bound,
    instantiate,
    k_basis_bound,
    load_catalog,
    s_invariant,
    verify,
    volume_profile,
    zariski_decompose_at,
)
from kstab.arith import PiecewisePoly, Poly
from tests._cli_runner import invoke
from tests._oracles import random_chain_config, simpson_matches

F = Fraction
CATALOG = load_catalog()


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _ray(instance, config_ref, ray_name):
    config = instance.config(config_ref)
    return config, decompose_ray(config, config.anticanonical, config.basis_vector(ray_name))


def test_criterion_01_family1_beta_values():
    ok = True
    for n in range(2, 21):
        inst = instantiate(CATALOG, 1, n)
        _, rd_c = _ray(inst, "pencil", "C")
        ok &= beta(rd_c, 1) == F(1, 3)
        _, rd_f = _ray(inst, "blowup:node", "F")
        ok &= volume_profile(rd_f) == rd_f.volume  # recomputed, not stored
        ok &= beta(rd_f, 2) == F(2 * n - 2, 3 * n)
    _report(1, "family 1: beta(C) = 1/3 and beta(F) = (2n-2)/(3n) for n = 2..20", ok)


def test_criterion_02_family2_s_values_and_delta():
    ok = True
    for n in range(0, 21):
        inst = instantiate(CATALOG, 2, n)
        cx, rd_cx = _ray(inst, "cx", "C_x")
        ok &= s_invariant(rd_cx) == F(2, 3)
        s_w_cx = az_s_w(rd_cx, "C_x")
        ok &= s_w_cx == F(2, 3 * (n + 2))

        cmu, rd_cmu = _ray(inst, "cmu", "C_mu")
        ok &= s_invariant(rd_cmu) == F(1, 3)
        s_w_cmu = az_s_w(rd_cmu, "C_mu")
        ok &= s_w_cmu == F(4, 3 * (n + 2))

        pair, rd_z = _ray(inst, "pair", "Z1")
        s_z = s_invariant(rd_z)
        ok &= s_z == F(n + 4, 3 * (n + 3))
        s_w_2a = az_s_w(rd_z, "Z1")
        ok &= s_w_2a == F(2 * (2 * n + 5), 3 * (n + 2) * (n + 3))
        s_w_2b = az_s_w(rd_z, "Z1", {"Z2": F(n + 3, n + 2)})
        ok &= s_w_2b == F(n + 4, 3 * (n + 2))

        bounds = [
            delta_lower_bound(F(2, 3), F(1, n + 2), s_w_cx),
            delta_lower_bound(F(2, 3), F(1, 2), s_w_cx),
            delta_lower_bound(F(2, 3), 1, s_w_cx),
            delta_lower_bound(F(1, 3), 1, s_w_cmu),
            delta_lower_bound(s_z, 1, s_w_2a),
            delta_lower_bound(s_z, 1, s_w_2b),
        ]
        ok &= all(b.delta_lower > 1 for b in bounds)
    _report(2, "family 2: seven S-values and delta bounds > 1 for n = 0..20", ok)


def test_criterion_03_pairings_blowup_and_bookkeeping():
    inst = instantiate(CATALOG, 3)
    lr = inst.config("lr")
    ok = lr.pairing(lr.basis_vector("L"), lr.basis_vector("R")) == 2
    ok &= lr.pairing(lr.basis_vector("L"), lr.basis_vector("L")) == F(-2, 3)

    _, rd_e = _ray(inst, "blowup:py", "E")
    ok &= k_basis_bound(rd_e) == F(1, 3)

    up = inst.config("blowup:py2")
    e_hat = up.basis_vector("E")
    rng = random.Random(162)
    for _ in range(10):
        m = F(rng.randint(-20, 20), rng.randint(1, 9))
        n = F(rng.randint(-20, 20), rng.randint(1, 9))
        a = F(rng.randint(-20, 20), rng.randint(1, 9))
        residual = (
            up.vector({"C_x": 2, "E": F(2, 3), "F": F(2, 3)})
            - m * up.vector({"E": 1, "F": 1})
            - n * up.basis_vector("F")
            - a * up.basis_vector("C_x")
        )
        ok &= up.pairing(residual, e_hat) == 3 * m - n - a
    _report(3, "family 3: component pairings, blow-up bound 1/3, two-stage bookkeeping", ok)


def test_criterion_03_published_integral_constants():
    """Pins the published constants 25/162 and 25/108 for the component ray.

    The stored Gram (L.R = 2, L^2 = -2/3, reference class (L+R)/2) forces the
    decomposition tail (L+3R)^2 = 16/3; the published tail 28/3 breaks volume
    continuity at u = 1/3, and with it these two constants.  The exact
    pipeline yields 4/27 and 2/9 instead (family-3 catalog notes); this check
    asserts the published values as stated and records the discrepancy.
    """
    inst = instantiate(CATALOG, 3)
    _, rd = _ray(inst, "lr", "L")
    integral = rd.volume.integrate(0, rd.tau)
    bound = k_basis_bound(rd)
    ok = integral == F(25, 162) and bound == F(25, 108)
    print(
        f"criterion 03: {'PASS' if ok else 'FAIL'} - family 3 published component-ray "
        f"constants (integral {integral} vs 25/162, bound {bound} vs 25/108; "
        "known erratum, see family-3 catalog notes)"
    )
    assert integral == F(25, 162), (
        "published component-ray integral 25/162 is inconsistent with the "
        f"stored intersection data; exact recomputation gives {integral}"
    )
    assert bound == F(25, 108)


def test_criterion_04_family4_thresholds_and_identity():
    inst = instantiate(CATALOG, 4)
    up, rd = _ray(inst, "blowup:pt", "E")
    ok = rd.nef_threshold == F(3, 14)
    ok &= rd.tau == F(12, 7)
    ok &= k_basis_bound(rd) == F(9, 14)
    ok &= up.pairing(up.basis_vector("C_x"), up.basis_vector("C_x")) == F(-3, 4)
    rng = random.Random(4)
    for _ in range(10):
        m = F(rng.randint(0, 12), rng.randint(1, 7))
        a = F(rng.randint(0, 12), rng.randint(1, 7))
        residual = up.vector({"C_x": 2 - a, "E": F(12, 7) - m})
        ok &= up.pairing(residual, up.basis_vector("C_x")) == F(3, 14) - m + F(3, 4) * a
    _report(4, "family 4: nef 3/14, tau 12/7, bound 9/14, residual pairing identity", ok)


def test_criterion_05_family5_bounds_and_constraint():
    inst = instantiate(CATALOG, 5)
    l1l2, rd = _ray(inst, "l1l2", "L2")
    ok = k_basis_bound(rd) == F(17, 24)

    # alpha <= 1/4 + (7/8) beta, coefficients straight from the pairing
    l1, l2 = l1l2.basis_vector("L1"), l1l2.basis_vector("L2")
    const = l1l2.pairing(l1l2.anticanonical, l2) / l1l2.pairing(l1, l2)
    slope = -l1l2.pairing(l2, l2) / l1l2.pairing(l1, l2)
    ok &= const == F(1, 4) and slope == F(7, 8)

    up1, rd1 = _ray(inst, "blowup:pz_43", "E")
    ok &= up1.pairing(up1.basis_vector("E"), up1.basis_vector("E")) == F(-5, 12)
    ok &= k_basis_bound(rd1) == F(14, 15)
    ok &= rd1.volume.pieces[0] == (F(0), F(2, 5), Poly([F(2, 5), 0, F(-5, 12)]))

    _, rd2 = _ray(inst, "blowup:pz_12", "F")
    ok &= k_basis_bound(rd2) == F(17, 30)
    _report(5, "family 5: bound 17/24, constraint 1/4 + (7/8)b, blow-up bounds 14/15 and 17/30", ok)


def test_criterion_06_family6_pairing_shapes():
    inst = instantiate(CATALOG, 6)
    q = inst.quintuple
    ok = q.ambient_pairing(1, 1) == F(1, 12)
    ok &= q.ambient_pairing(2, 1) == F(1, 6)
    ok &= q.ambient_pairing(2, 4) == F(2, 3)
    ok &= q.ambient_pairing(4, 4) == F(4, 3)
    cx = inst.config("cx")
    rng = random.Random(6)
    for _ in range(10):
        a = F(rng.randint(0, 12), rng.randint(1, 7))
        residual = cx.vector({"C_x": 2 - a})
        ok &= cx.pairing(residual, cx.basis_vector("C_x")) == F(1, 6) - a / 12
    _report(6, "family 6: hyperplane pairing constants and residual shape 1/6 - a/12", ok)


def test_criterion_07_family7_blowup_analog():
    inst = instantiate(CATALOG, 7)
    up, rd = _ray(inst, "blowup:pz", "E")
    ok = rd.tau == F(12, 7)
    e = up.basis_vector("E")
    ok &= up.pairing(e, e) == F(-7, 6)
    ok &= up.pairing(up.basis_vector("C_x"), up.basis_vector("C_x")) == F(-4, 5)
    rng = random.Random(7)
    for _ in range(10):
        m = F(rng.randint(0, 12), rng.randint(1, 7))
        d_tilde = up.vector({"C_x": 2, "E": F(12, 7) - m})
        ok &= up.pairing(d_tilde, e) == F(7, 6) * m
    _report(7, "family 7: tau 12/7 with E^2 = -7/6, C_x~^2 = -4/5, multiplicity identity", ok)


def test_criterion_08_family8_pairing_shapes():
    inst = instantiate(CATALOG, 8)
    q = inst.quintuple
    ok = F(4, 3) * q.ambient_pairing(2, 10) == F(8, 9)
    cx = inst.config("cx")
    rng = random.Random(8)
    for _ in range(10):
        a = F(rng.randint(0, 12), rng.randint(1, 7))
        residual = cx.vector({"C_x": 2 - a})
        ok &= cx.pairing(residual, cx.basis_vector("C_x")) == F(1, 15) - a / 30
    _report(8, "family 8: scaled section pairing 8/9 and residual shape 1/15 - a/30", ok)


def test_criterion_09_family9_blowup_identities():
    inst = instantiate(CATALOG, 9)
    up, _ = _ray(inst, "blowup:py", "E")
    e = up.basis_vector("E")
    cx = up.basis_vector("C_x")
    ok = up.pairing(e, e) == F(-7, 6)
    ok &= up.pairing(cx, cx) == F(-5, 6)
    rng = random.Random(9)
    for _ in range(10):
        m = F(rng.randint(0, 12), rng.randint(1, 7))
        d_tilde = up.vector({"C_x": 2, "E": F(12, 7) - m})
        ok &= up.pairing(d_tilde, cx) == F(1, 21) - m
    _report(9, "family 9: E^2 = -7/6, C_x~^2 = -5/6, strict-transform identity 1/21 - m", ok)


def test_criterion_10_family10_profile_and_bounds():
    inst = instantiate(CATALOG, 10)
    _, rd = _ray(inst, "blowup:pz", "E")
    ok = rd.nef_threshold == F(1, 26)
    ok &= rd.tau == F(20, 13)
    ok &= volume_profile(rd) == PiecewisePoly(
        [
            (0, F(1, 26), Poly([F(1, 13), 0, F(-13, 10)])),
            (F(1, 26), F(20, 13), Poly([F(40, 507), F(-4, 39), F(1, 30)])),
        ]
    )
    ok &= k_basis_bound(rd) == F(41, 78)
    ok &= F(CATALOG.family(10).delta_lower) == F(79, 78)
    _report(10, "family 10: nef 1/26, tau 20/13, profile pieces, bound 41/78, delta 79/78", ok)


def _ray_checks_with_instances():
    for entry in CATALOG.families:
        if entry.family_id == 1:
            samples = range(2, 21)
        elif entry.family_id == 2:
            samples = range(0, 21)
        else:
            samples = [None]
        for n in samples:
            inst = instantiate(CATALOG, entry.family_id, n)
            for check in entry.data.get("checks", []):
                if check["kind"] in ("ray", "flag"):
                    yield inst, check


def test_criterion_11_property_suite():
    ok = True
    seen = set()
    for inst, check in _ray_checks_with_instances():
        key = (inst.entry.family_id, inst.n, check["config"], check.get("ray") or check["curve"])
        if key in seen or check["kind"] != "ray":
            continue
        seen.add(key)
        config, rd = _ray(inst, check["config"], check["ray"])
        vol = rd.volume
        a2 = config.pairing(config.anticanonical, config.anticanonical)
        ok &= vol(0) == a2 and vol(rd.tau) == 0
        for (l1, r1, p1), (l2, _, p2) in zip(vol.pieces, vol.pieces[1:]):
            ok &= p1(r1) == p2(l2)
        for left, right, poly in vol.pieces:
            d = poly.derivative()
            ok &= d(left) <= 0 and d(right) <= 0
        mid = rd.tau / 2
        ok &= vol.integrate(0, rd.tau) == vol.integrate(0, mid) + vol.integrate(mid, rd.tau)
        for k in (1, 7):
            u = rd.tau * F(k, 8)
            p, nvec = zariski_decompose_at(config, rd.class_at(u))
            ok &= config.pairing(p, nvec) == 0
            ok &= p == rd.positive_part_at(u)

    from kstab.zariski import RayNeverEffectiveError

    rng = random.Random(20240810)
    produced = 0
    while produced < 100:
        config, _, ray_name = random_chain_config(rng)
        try:
            rd = decompose_ray(config, config.anticanonical, config.basis_vector(ray_name))
        except RayNeverEffectiveError:
            continue
        a2 = config.pairing(config.anticanonical, config.anticanonical)
        ok &= rd.volume(0) == a2 and rd.volume(rd.tau) == 0
        for iv in rd.intervals:
            ok &= config.is_negative_definite(iv.support)
        split = rd.tau * F(rng.randint(1, 15), 16)
        ok &= rd.volume.integrate(0, rd.tau) == rd.volume.integrate(0, split) + rd.volume.integrate(split, rd.tau)
        u = rd.tau * F(rng.randint(0, 16), 16)
        p, nvec = zariski_decompose_at(config, rd.class_at(u))
        ok &= config.pairing(p, nvec) == 0
        produced += 1
    _report(11, "property suite on every catalog ray and 100 randomized configurations", ok)


def test_criterion_12_numeric_quadrature_oracle():
    ok = True
    count = 0
    for inst, check in _ray_checks_with_instances():
        config = inst.config(check["config"])
        rd = decompose_ray(
            config, config.anticanonical, config.basis_vector(check.get("ray") or check["curve"])
        )
        if check["kind"] == "ray":
            ok &= simpson_matches(rd.volume, rd.volume.integrate(0, rd.tau))
        else:
            mults = {
                k: F(inst_eval(v, inst.n)) for k, v in check.get("mults", {}).items()
            }
            y = config.index_of(check["curve"])
            pieces = []
            for iv in rd.intervals:
                deg = Poly()
                for i, p in enumerate(iv.positive_part):
                    deg = deg + Poly.constant(config.gram[i][y]) * p
                ordterm = Poly()
                for idx, coeff in zip(iv.support, iv.negative_coeffs):
                    m = mults.get(config.basis[idx], F(0))
                    ordterm = ordterm + Poly.constant(m) * coeff
                pieces.append((iv.left, iv.right, deg * ordterm + Poly.constant(F(1, 2)) * deg * deg))
            integrand = PiecewisePoly(pieces)
            a2 = config.pairing(rd.ample, rd.ample)
            exact = az_s_w(rd, check["curve"], mults) * a2 / 2
            ok &= simpson_matches(integrand, exact)
        count += 1
    _report(12, f"numeric quadrature agrees with {count} exact integrals within 1e-9", ok)


def inst_eval(expr, n):
    from kstab.catalog import eval_expr

    return eval_expr(expr, n)


def test_criterion_13_cli_contract(tmp_path):
    ok = invoke(["verify", "--all"]).exit_code == 0

    exported = tmp_path / "catalog.json"
    ok &= invoke(["export", "--output", str(exported)]).exit_code == 0
    doc = json.loads(exported.read_text())

    corrupted = 0
    for family in doc["families"]:
        target = None
        for check in family["checks"]:
            if check["kind"] == "ray" and "k_bound" in check.get("expect", {}):
                target = check
                break
        if target is None:
            target = next(c for c in family["checks"] if c["kind"] in ("ambient", "pairing"))
        victim = json.loads(json.dumps(doc))
        vf = next(f for f in victim["families"] if f["id"] == family["id"])
        vc = next(c for c in vf["checks"] if c["name"] == target["name"])
        if vc["kind"] == "ray":
            name = f"{vc['name']}: k_bound"
            vc["expect"]["k_bound"] = vc["expect"]["k_bound"] + "+1/97"
        else:
            name = vc["name"]
            vc["expect"] = vc["expect"] + "+1/97"
        path = tmp_path / f"broken_{family['id']}.json"
        path.write_text(json.dumps(victim))
        n_args = ["--n", "3"] if family.get("parameter") else []
        result = invoke(["verify", "--family", str(family["id"]), *n_args, "--catalog", str(path)])
        ok &= result.exit_code == 1
        ok &= name in result.output
        corrupted += 1
    ok &= corrupted == 10

    env_result = invoke(["verify", "--all"], env={"KSTAB_CATALOG": str(tmp_path / "broken_10.json")})
    ok &= env_result.exit_code == 1
    _report(13, "CLI contract: verify --all green; every corrupted copy exits 1 naming the value", ok)
