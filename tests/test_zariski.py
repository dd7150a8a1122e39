"""Exact Zariski decomposition: single classes and one-parameter rays."""

import collections
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kstab.zariski
from kstab import (
    CurveConfig,
    decompose_ray,
    instantiate,
    load_catalog,
    volume_profile,
    zariski_decompose_at,
)
from kstab.arith import PiecewisePoly, Poly
from kstab.catalog import default_n_values, eval_expr, load_fixture
from kstab.invariants import FlagSupportError, az_s_w, beta, k_basis_bound, s_invariant
from kstab.surface import ClassVector, DimensionMismatchError
from kstab.zariski import InconsistentConfigError, NotPseudoeffectiveError, RayNeverEffectiveError
from tests._oracles import (
    bench_chain_fixture,
    decompose_ray_by_subsets,
    oracle_chamber_end,
    oracle_decompose_ray,
    oracle_is_negative_definite,
    oracle_poly_format,
    oracle_positive_on,
    oracle_quadratic_negative_on,
    oracle_smallest_rational_root,
    oracle_solve_linear_system,
    random_chain_config,
)

F = Fraction

LR = CurveConfig.make(
    basis=["L", "R"],
    gram=[[F(-2, 3), 2], [2, F(-2, 3)]],
    anticanonical=[F(1, 2), F(1, 2)],
)


def family1_blowup(n: int) -> CurveConfig:
    return CurveConfig.make(
        basis=["C1", "C2", "G"],
        gram=[
            [F(1 - 2 * n, n), 0, 1],
            [0, F(1 - 2 * n, n), 1],
            [1, 1, -1],
        ],
        anticanonical=[2, 2, 4],
    )


FAMILY10_UP = CurveConfig.make(
    basis=["C_x", "E"],
    gram=[[F(-3, 4), 1], [1, F(-13, 10)]],
    anticanonical=[2, F(20, 13)],
)


def test_decompose_at_reducible_section():
    d = LR.anticanonical - F(2, 5) * LR.basis_vector("L")
    p, n = zariski_decompose_at(LR, d)
    assert n == ClassVector([0, F(1, 5)])
    assert p == ClassVector([F(1, 10), F(3, 10)])  # (1/2 - 2/5)(L + 3R)
    assert LR.pairing(p, n) == 0
    assert LR.pairing(p, LR.basis_vector("R")) == 0


def test_decompose_at_nef_input():
    config = CurveConfig.make(["C"], [[F(1, 4)]], [2])
    d = config.vector([1])  # (2 - 1) C at u = 1
    p, n = zariski_decompose_at(config, d)
    assert n.is_zero()
    assert p == d


def test_decompose_at_family10_example():
    d = FAMILY10_UP.anticanonical - 1 * FAMILY10_UP.basis_vector("E")
    p, n = zariski_decompose_at(FAMILY10_UP, d)
    assert n == ClassVector([F(-2, 39) + F(4, 3), 0])
    assert p == ClassVector([F(7, 13) * F(4, 3), F(7, 13)])


def test_decompose_at_not_pseudoeffective():
    config = CurveConfig.make(
        basis=["Z", "C"],
        gram=[[1, 0], [0, -1]],
        anticanonical=[1, 0],
    )
    with pytest.raises(NotPseudoeffectiveError):
        zariski_decompose_at(config, ClassVector([0, -1]))


def test_ray_family1_structure():
    for n in (2, 3, 7):
        config = family1_blowup(n)
        rd = decompose_ray(config, config.anticanonical, config.basis_vector("G"))
        assert rd.nef_threshold == F(2, n)
        assert rd.tau == 4
        assert [iv.support for iv in rd.intervals] == [(), (0, 1)]
        tail = rd.intervals[-1]
        # support coefficients (2 - n u)/(1 - 2n) on each strict transform
        expected = Poly([F(2, 1 - 2 * n), F(-n, 1 - 2 * n)])
        assert tail.negative_coeffs == (expected, expected)
        assert volume_profile(rd) == PiecewisePoly(
            [
                (0, F(2, n), Poly([F(8, n), 0, -1])),
                (F(2, n), 4, Poly([F(16, 2 * n - 1), F(-8, 2 * n - 1), F(1, 2 * n - 1)])),
            ]
        )


def test_ray_single_curve_is_nef_throughout():
    config = CurveConfig.make(["C_x"], [[F(1, 6)]], [2])
    rd = decompose_ray(config, config.anticanonical, config.basis_vector("C_x"))
    assert rd.nef_threshold == 2
    assert rd.tau == 2
    assert len(rd.intervals) == 1
    assert rd.intervals[0].support == ()


def test_ray_family4_thresholds():
    config = CurveConfig.make(
        basis=["C_x", "E"],
        gram=[[F(-3, 4), 1], [1, F(-7, 6)]],
        anticanonical=[2, F(12, 7)],
    )
    rd = decompose_ray(config, config.anticanonical, config.basis_vector("E"))
    assert rd.nef_threshold == F(3, 14)
    assert rd.tau == F(12, 7)
    assert volume_profile(rd) == PiecewisePoly(
        [
            (0, F(3, 14), Poly([F(3, 7), 0, F(-7, 6)])),
            (F(3, 14), F(12, 7), Poly([F(24, 49), F(-4, 7), F(1, 6)])),
        ]
    )


def test_ray_family5_component_volume():
    config = CurveConfig.make(
        basis=["L1", "L2"],
        gram=[[F(-7, 20), F(2, 5)], [F(2, 5), F(-7, 20)]],
        anticanonical=[2, 2],
    )
    rd = decompose_ray(config, config.anticanonical, config.basis_vector("L2"))
    assert volume_profile(rd) == PiecewisePoly(
        [
            (0, F(1, 4), Poly([F(2, 5), F(-1, 5), F(-7, 20)])),
            (F(1, 4), 2, Poly([F(3, 7), F(-3, 7), F(3, 28)])),
        ]
    )


def test_ray_family10_volume():
    rd = decompose_ray(FAMILY10_UP, FAMILY10_UP.anticanonical, FAMILY10_UP.basis_vector("E"))
    assert rd.nef_threshold == F(1, 26)
    assert rd.tau == F(20, 13)
    assert volume_profile(rd) == PiecewisePoly(
        [
            (0, F(1, 26), Poly([F(1, 13), 0, F(-13, 10)])),
            (F(1, 26), F(20, 13), Poly([F(40, 507), F(-4, 39), F(1, 30)])),
        ]
    )


def test_ray_reducible_section_erratum_value():
    rd = decompose_ray(LR, LR.anticanonical, LR.basis_vector("L"))
    assert rd.nef_threshold == F(1, 3)
    assert rd.tau == F(1, 2)
    # the tail carries (L + 3R)^2 = 16/3, and the full integral is 4/27
    assert volume_profile(rd).pieces[-1][2] == Poly([F(4, 3), F(-16, 3), F(16, 3)])
    assert rd.volume.integrate(0, rd.tau) == F(4, 27)


def _sample_points(rd, rng, count=20):
    lo, hi = 0, rd.tau
    return [F(rng.randint(0, 10 ** 4), 10 ** 4) * (hi - lo) for _ in range(count)]


def _chamber_points(rd, rng):
    """Each chamber's midpoint and two seeded random rational points inside it."""
    return [
        iv.left + t * (iv.right - iv.left)
        for iv in rd.intervals
        for t in (F(1, 2), F(rng.randint(1, 999), 1000), F(rng.randint(1, 999), 1000))
    ]


def _anticanonical_rays(config, ray_name):
    return [(config, config.anticanonical, config.basis_vector(ray_name))]


def _random_chain_rays(count=100):
    """The first `count` random chains with k <= 8 whose ray has a rational threshold."""
    rng = random.Random("walk-vs-pointwise")
    rays = []
    while len(rays) < count:
        config, ample, ray_name = random_chain_config(rng, stages=len(rays) % 8)
        try:
            decompose_ray(config, ample, config.basis_vector(ray_name))
        except kstab.zariski.RayNeverEffectiveError:
            continue
        rays.append((config, ample, config.basis_vector(ray_name)))
    return rays


@pytest.mark.parametrize("rays", [
    lambda: _anticanonical_rays(LR, "L"),
    lambda: _anticanonical_rays(family1_blowup(3), "G"),
    lambda: _anticanonical_rays(FAMILY10_UP, "E"),
    pytest.param(lambda: [param.values for param in catalog_ray_inputs()], id="catalog rays"),
    pytest.param(_random_chain_rays, id="random chains"),
])
def test_ray_agrees_with_pointwise_decomposition(rays):
    """The walk's P and N equal the pointwise fixpoint's inside every chamber and across the ray."""
    rng = random.Random(1234)
    for config, ample, ray in rays():
        rd = decompose_ray(config, ample, ray)
        for u in _chamber_points(rd, rng) + _sample_points(rd, rng):
            p_ray = rd.positive_part_at(u)
            n_ray = rd.negative_part_at(u)
            p_pt, n_pt = zariski_decompose_at(config, rd.class_at(u))
            assert p_ray == p_pt
            assert n_ray == n_pt
            assert config.pairing(p_ray, n_ray) == 0
            assert rd.volume(u) == config.pairing(p_ray, p_ray)


@pytest.mark.parametrize("maker", [
    lambda: (LR, "L"),
    lambda: (family1_blowup(2), "G"),
    lambda: (family1_blowup(11), "G"),
    lambda: (FAMILY10_UP, "E"),
])
def test_ray_invariants(maker):
    config, ray_name = maker()
    rd = decompose_ray(config, config.anticanonical, config.basis_vector(ray_name))
    vol = volume_profile(rd)
    # endpoints
    assert vol(0) == config.pairing(config.anticanonical, config.anticanonical)
    assert vol(rd.tau) == 0
    # continuity across breakpoints
    for (l1, r1, p1), (l2, _, p2) in zip(vol.pieces, vol.pieces[1:]):
        assert p1(r1) == p2(l2)
    # monotone non-increasing: the derivative is linear on each piece
    for left, right, poly in vol.pieces:
        d = poly.derivative()
        assert d(left) <= 0 and d(right) <= 0
    # interval data: orthogonality and signs at endpoints and midpoints
    for iv in rd.intervals:
        for u in (iv.left, (iv.left + iv.right) / 2, iv.right):
            p = iv.positive_part_at(u)
            for j in range(config.size):
                pc = config.pairing(p, config.basis_vector(config.basis[j]))
                if j in iv.support:
                    assert pc == 0
                else:
                    assert pc >= 0
            for poly in iv.negative_coeffs:
                assert poly(u) >= 0
        assert config.is_negative_definite(iv.support)
    # the support is empty exactly up to the nef threshold
    for iv in rd.intervals:
        if iv.support == ():
            assert iv.right <= rd.nef_threshold
        else:
            assert iv.left >= rd.nef_threshold


def test_ray_rejects_non_nef_ample():
    config = CurveConfig.make(
        basis=["Z", "C"],
        gram=[[2, 1], [1, -2]],
        anticanonical=[1, 1],  # pairs negatively with C
    )
    with pytest.raises(ValueError):
        decompose_ray(config, config.anticanonical, config.basis_vector("C"))


def test_ray_rejects_zero_ray():
    config = CurveConfig.make(["C"], [[1]], [1])
    with pytest.raises(ValueError):
        decompose_ray(config, config.anticanonical, ClassVector([0]))


def test_ray_entry_refusals_keep_their_types_messages_and_order():
    # Z.Z = 2, Z.C = 1, C.C = -2; each case breaks its own rule and every later one, and both
    # lengths are checked before anything else, in one error that names them
    config = CurveConfig.make(["Z", "C"], [[2, 1], [1, -2]], [1, 0])
    zero, long_zero = ClassVector([0, 0]), ClassVector([0, 0, 0])  # the zero class, on the basis and off it
    cases = [
        (ClassVector([F(1, 2)]), long_zero, DimensionMismatchError, "vectors of length 1, 3 against basis of size 2"),
        (ClassVector([F(1, 3), 0, F(1, 5)]), zero, DimensionMismatchError, "vectors of length 3, 2 against basis of size 2"),
        (ClassVector([0, F(1, 2)]), ClassVector([1]), DimensionMismatchError, "vectors of length 2, 1 against basis of size 2"),
        (ClassVector([F(1, 3), 0]), long_zero, DimensionMismatchError, "vectors of length 2, 3 against basis of size 2"),
        (ClassVector([0, F(1, 2)]), zero, ValueError, "ample class must have positive self-intersection"),
        (ClassVector([F(1, 2), F(1, 2)]), zero, ValueError, "ample class is not nef: negative against C"),
        (ClassVector([F(1, 3), 0]), zero, ValueError, "ray class must be nonzero"),
    ]
    for ample, ray, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            decompose_ray(config, ample, ray)
        assert type(exc.value) is error
    # A.A = 0 with A nef: refused as not big, on the integer square
    flat = CurveConfig.make(["Z", "C"], [[0, 1], [1, -1]], [1, 1])
    with pytest.raises(ValueError, match="^ample class must have positive self-intersection$"):
        decompose_ray(flat, ClassVector([F(1, 2), 0]), flat.basis_vector("C"))


def test_a_ray_takes_sequences_of_rationals_as_its_classes():
    rd = decompose_ray(LR, list(LR.anticanonical), list(LR.basis_vector("L")))
    assert rd == decompose_ray(LR, LR.anticanonical, LR.basis_vector("L"))
    assert type(rd.ample) is type(rd.ray) is ClassVector


def test_ray_must_live_on_the_basis():
    for coords in ([1], [1, 0, 5]):
        with pytest.raises(DimensionMismatchError, match=f"^vectors of length 2, {len(coords)} against basis of size 2$"):
            decompose_ray(LR, LR.anticanonical, ClassVector(coords))


@pytest.mark.parametrize("seed, answered", [(1, [5, 7, 8, 10]), (2, [4, 5, 7]), (3, [6, 7, 8, 9, 10])])
def test_coefficient_texts_are_the_texts_of_their_fractions_on_the_benchmark_chains(seed, answered):
    """to_json_dict writes each coefficient from its int numerator, and format each polynomial:
    both are the Fraction texts, on every ray of the benchmark's chains that decomposes."""
    def texts(poly):
        return [str(c) for c in poly.coeffs]

    decomposed = []
    for k in range(4, 11):
        doc = bench_chain_fixture(seed, k)
        base, blowups = load_fixture(f"chain {seed}/{k}", doc)
        config = blowups[-1].upstairs if blowups else base
        try:
            rd = decompose_ray(config, config.anticanonical, config.basis_vector(doc["ray"]["curve"]))
        except ValueError:  # an irrational threshold, which the benchmark counts as refused
            continue
        decomposed.append(k)
        out = rd.to_json_dict()
        for iv, iv_out in zip(rd.intervals, out["intervals"], strict=True):
            negative = {rd.config.basis[i]: texts(poly) for i, poly in zip(iv.support, iv.negative_coeffs)}
            assert iv_out["negative_coeffs"] == negative
            assert iv_out["positive_part"] == {name: texts(p) for name, p in zip(rd.config.basis, iv.positive_part)}
            assert all(p.format() == oracle_poly_format(p) for p in (*iv.negative_coeffs, *iv.positive_part))
        assert [piece["coeffs"] for piece in out["volume"]] == [texts(p) for _, _, p in rd.volume.pieces]
        assert rd.volume.format() == "; ".join(f"[{l}, {r}]: {oracle_poly_format(p)}" for l, r, p in rd.volume.pieces)
    assert decomposed == answered


def test_ray_serializes_to_json():
    rd = decompose_ray(LR, LR.anticanonical, LR.basis_vector("L"))
    doc = rd.to_json_dict()
    assert doc["tau"] == "1/2"
    assert doc["nef_threshold"] == "1/3"
    assert doc["intervals"][1]["support"] == ["R"]
    assert doc["intervals"][1]["negative_coeffs"]["R"] == ["-1", "3"]
    assert doc["volume"][0]["coeffs"] == ["2/3", "-4/3", "-2/3"]


# -- the chamber certificate ---------------------------------------------------


def test_certificate_refuses_a_shifted_negative_part(monkeypatch):
    solve = kstab.zariski.solve_linear_system

    def shifted(matrix, rhs):
        coeffs = solve(matrix, rhs)
        return [coeffs[0] + F(1, 7), *coeffs[1:]] if coeffs else coeffs

    monkeypatch.setattr(kstab.zariski, "solve_linear_system", shifted)
    with pytest.raises(InconsistentConfigError, match=r"^P\(u\) is not orthogonal to support \{R\} from u = 1/3$"):
        decompose_ray(LR, LR.anticanonical, LR.basis_vector("L"))


def test_certificate_refuses_a_negative_coefficient(monkeypatch):
    # C1 has C1^2 = 3 > 0: with the definiteness test off it enters the
    # support at u = 11/2, and its coefficient (d.C1)/3 turns negative there
    config = CurveConfig.make(
        basis=["C0", "C1", "C2"],
        gram=[[3, 0, F(1, 2)], [0, 3, 2], [F(1, 2), 2, F(3, 2)]],
        anticanonical=[2, 3, 1],
    )
    ray = config.basis_vector("C2")
    with pytest.raises(InconsistentConfigError, match=r"^support \{C1\} at u = 11/2 is not negative definite$"):
        decompose_ray(config, config.anticanonical, ray)
    monkeypatch.setattr(CurveConfig, "is_negative_definite", lambda self, subset: True)
    with pytest.raises(InconsistentConfigError, match=r"^support \{C1\} is not a Zariski chamber on \[11/2, 7\]$"):
        decompose_ray(config, config.anticanonical, ray)


# distinct curves pair non-negatively: the walk refuses a curve entering the
# support against that, and so does the pointwise fixpoint at each u listed
NEGATIVELY_PAIRED = [
    pytest.param(
        CurveConfig.make(
            basis=["C0", "C1", "C2"],
            gram=[[-1, F(-1, 4), F(3, 4)], [F(-1, 4), F(-1, 3), 2], [F(3, 4), 2, 3]],
            anticanonical=[0, F(3, 2), F(1, 2)],
        ),
        "C2",
        "C0 enters the support at u = 0 but pairs negatively with C1",
        [F(1, 8), F(1, 4), F(3, 8)],
        id="C0 at u = 0",
    ),
    pytest.param(
        CurveConfig.make(
            basis=["C0", "C1", "C2", "C3"],
            gram=[[F(-1, 2), 5, 0, 1], [5, 1, -2, 6], [0, -2, F(-1, 4), F(3, 2)], [1, 6, F(3, 2), F(3, 2)]],
            anticanonical=[1, 0, 4, 2],
        ),
        "C3",
        "C2 enters the support at u = 4/3 but pairs negatively with C1",
        [F(3, 2)],
        id="C2 at u = 4/3",
    ),
]


@pytest.mark.parametrize("config, ray_name, message, points", NEGATIVELY_PAIRED)
def test_entering_curve_must_pair_non_negatively(config, ray_name, message, points):
    ray = config.basis_vector(ray_name)
    with pytest.raises(InconsistentConfigError) as info:
        decompose_ray(config, config.anticanonical, ray)
    assert str(info.value) == message
    for u in points:
        with pytest.raises(InconsistentConfigError) as info:
            zariski_decompose_at(config, config.anticanonical - u * ray)
        assert str(info.value) == re.sub(r" at u = \S+", "", message)


# -- the chamber walk against exhaustive subset enumeration -------------------


def _outcome(decompose, config, ample, ray):
    try:
        return decompose(config, ample, ray).to_json_dict()
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_walk_matches_enumeration(config, ample, ray):
    walk = _outcome(decompose_ray, config, ample, ray)
    assert walk == _outcome(decompose_ray_by_subsets, config, ample, ray)
    return walk


def catalog_ray_inputs():
    """(config, ample, ray) of every ray and flag check, over each default n sweep and n = min + 1000."""
    catalog = load_catalog()
    out = {}
    for entry in catalog.families:
        n_values = default_n_values(entry)
        if entry.parametric:
            n_values.append(entry.minimum_n + 1000)
        for n in n_values:
            inst = instantiate(catalog, entry.family_id, n)
            for check in entry.data.get("checks", []):
                if check["kind"] not in ("ray", "flag"):
                    continue
                config = inst.config(check["config"])
                curve = check.get("ray") or check.get("curve")
                ample = (
                    config.vector({k: eval_expr(v, n) for k, v in check["ample"].items()})
                    if check.get("ample")
                    else config.anticanonical
                )
                tag = f"family {entry.family_id} n={n} {check['config']} {curve} {ample}"
                out[tag] = pytest.param(config, ample, config.basis_vector(curve), id=tag)
    return list(out.values())


@pytest.mark.parametrize("config, ample, ray", catalog_ray_inputs())
def test_walk_matches_enumeration_on_catalog_rays(config, ample, ray):
    assert isinstance(_assert_walk_matches_enumeration(config, ample, ray), dict)


def _chain_rays(seed, stage_counts):
    """(config, ample, ray) of random chains from one seeded stream, one per blow-up count."""
    rng = random.Random(seed)
    rays = []
    for stages in stage_counts:
        config, ample, ray_name = random_chain_config(rng, stages=stages)
        assert config.size == stages + 1
        rays.append((config, ample, config.basis_vector(ray_name)))
    return rays


# enumeration costs 2^k subsets, so larger chains are sampled more sparsely
CHAINS_PER_BASIS_SIZE = {1: 100, 2: 100, 3: 90, 4: 80, 5: 60, 6: 40, 7: 20, 8: 10}


def _enumeration_chain_rays(k, count):
    return _chain_rays(f"walk-vs-subsets/{k}", [k - 1] * count)


def _kernel_chain_rays():
    """40 chains with k = 9..14."""
    return _chain_rays("integer-kernel-vs-gauss-jordan", [8 + i % 6 for i in range(40)])


def _poly_walk_chain_rays():
    """240 chains with k = 1..24."""
    return _chain_rays("walk-vs-poly-walk/chains", [i % 24 for i in range(240)])


@pytest.mark.parametrize("k, count", sorted(CHAINS_PER_BASIS_SIZE.items()))
def test_walk_matches_enumeration_on_random_chains(k, count):
    for ray in _enumeration_chain_rays(k, count):
        _assert_walk_matches_enumeration(*ray)


def test_walk_is_unchanged_with_the_gauss_jordan_oracle_kernel(monkeypatch):
    """40 chains with k = 9..14 decompose identically with either elimination kernel."""
    rays = _kernel_chain_rays()
    fraction_free = [_outcome(decompose_ray, *ray) for ray in rays]
    monkeypatch.setattr(kstab.zariski, "solve_linear_system", oracle_solve_linear_system)
    monkeypatch.setattr(CurveConfig, "is_negative_definite", oracle_is_negative_definite)
    assert [_outcome(decompose_ray, *ray) for ray in rays] == fraction_free
    assert sum(isinstance(out, dict) for out in fraction_free) >= 20


def test_walk_solves_once_on_each_support_it_grows_to(monkeypatch):
    """The walk solves only where its support grows: never on the empty support, never twice
    on one support, and once per growth step, each of which runs one definiteness test."""
    rays = [
        (LR, LR.anticanonical, LR.basis_vector("L")),
        *(param.values for param in catalog_ray_inputs()),
        *_poly_walk_chain_rays(),
    ]
    grown, solved = [], []
    negdef, solve = CurveConfig.is_negative_definite, kstab.zariski.solve_linear_system
    monkeypatch.setattr(CurveConfig, "is_negative_definite", lambda c, s: grown.append(list(s)) or negdef(c, s))
    monkeypatch.setattr(kstab.zariski, "solve_linear_system", lambda m, rhs: solved.append(m) or solve(m, rhs))
    steps = 0
    for config, ample, ray in rays:
        grown.clear()
        solved.clear()
        outcome = _outcome(decompose_ray, config, ample, ray)
        assert all(grown) and all(len(s) < len(t) and set(s) < set(t) for s, t in zip(grown, grown[1:]))
        gram = config.integer_gram[1]
        restricted = [[[gram[i][j] for j in s] for i in s] for s in grown]
        if isinstance(outcome, dict):
            assert solved == restricted
            named = [[config.basis[i] for i in s] for s in grown]
            assert all(not iv["support"] or iv["support"] in named for iv in outcome["intervals"])
        else:  # a refusal may come between a growth step's definiteness test and its solve
            assert solved in (restricted, restricted[:-1])
        steps += len(solved)
    assert steps >= len(rays)


# -- the integer walk against the Poly-based walk -------------------------------


def _assert_walk_matches_poly_walk(config, ample, ray):
    walk = _outcome(decompose_ray, config, ample, ray)
    assert walk == _outcome(oracle_decompose_ray, config, ample, ray)
    return walk


def test_walk_matches_poly_walk_on_catalog_rays():
    for param in catalog_ray_inputs():
        assert isinstance(_assert_walk_matches_poly_walk(*param.values), dict)


def test_walk_matches_poly_walk_on_random_chains():
    """240 chains with k = 1..24, irrational-threshold refusals included."""
    outcomes = [_assert_walk_matches_poly_walk(*ray) for ray in _poly_walk_chain_rays()]
    decomposed = sum(isinstance(out, dict) for out in outcomes)
    assert decomposed >= 120 and 240 - decomposed >= 40


def _random_gram_ray(rng):
    """A config of 1-5 curves with small rational Gram entries of any sign, its
    anticanonical class as the ample, and a basis curve or a random vector as the
    ray; None if the entries do not make a config."""
    k = rng.randint(1, 5)
    upper = {
        (i, j): F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 7])) for i in range(k) for j in range(i, k)
    }
    gram = [[upper[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]
    try:
        config = CurveConfig.make(
            [f"C{i}" for i in range(k)], gram, [F(rng.randint(0, 4), rng.choice([1, 2, 3])) for _ in range(k)]
        )
    except ValueError:
        return None
    if rng.random() < 0.7:
        ray = config.basis_vector(f"C{rng.randrange(k)}")
    else:
        ray = ClassVector(F(rng.randint(-2, 3), rng.choice([1, 2])) for _ in range(k))
    return config, config.anticanonical, ray


def test_walk_matches_poly_walk_on_random_grams():
    """6000 random Grams: the same JSON, or the same error type and message."""
    rng = random.Random("walk-vs-poly-walk/grams")
    kinds = collections.Counter()
    while sum(kinds.values()) < 6000:
        inputs = _random_gram_ray(rng)
        if inputs is not None:
            out = _assert_walk_matches_poly_walk(*inputs)
            kinds["decomposed" if isinstance(out, dict) else out[0].__name__] += 1
    assert kinds["decomposed"] >= 1000
    assert kinds["RayNeverEffectiveError"] >= 300 and kinds["InconsistentConfigError"] >= 300


# -- the cached volume integral -------------------------------------------------


def _assert_cached_integral(rd):
    before_json, twin = rd.to_json_dict(), decompose_ray(rd.config, rd.ample, rd.ray)
    assert "volume_integral" not in vars(rd)
    assert rd.volume_integral == rd.volume.integrate(0, rd.tau)
    assert rd.volume_integral is rd.volume_integral  # computed once, then read
    assert "volume_integral" in vars(rd) and "volume_integral" not in vars(twin)
    assert "ample_square" in vars(rd)  # the walk's continuity check reads it first
    assert rd.ample_square == rd.config.pairing(rd.ample, rd.ample)
    assert rd.to_json_dict() == before_json
    assert rd == twin and hash(rd) == hash(twin)


def test_volume_integral_is_cached_on_catalog_rays():
    for param in catalog_ray_inputs():
        _assert_cached_integral(decompose_ray(*param.values))


def test_volume_integral_is_cached_on_random_chains():
    rng = random.Random("cached-volume-integral")
    decomposed = 0
    while decomposed < 200:
        config, ample, ray_name = random_chain_config(rng)
        try:
            rd = decompose_ray(config, ample, config.basis_vector(ray_name))
        except kstab.zariski.RayNeverEffectiveError:
            continue  # an irrational threshold: no ray to cache on
        _assert_cached_integral(rd)
        decomposed += 1


def test_invariants_read_the_cached_ample_square(monkeypatch):
    """s, beta, the basis bound and the flag invariant pair nothing once a ray is decomposed."""
    flags = 0
    for param in catalog_ray_inputs():
        config, ample, ray = param.values
        rd = decompose_ray(config, ample, ray)
        curve = config.basis[list(ray).index(1)]
        with monkeypatch.context() as patched:
            patched.setattr(CurveConfig, "pairing", lambda *args: pytest.fail("A.A paired again"))
            assert s_invariant(rd) == k_basis_bound(rd) == rd.volume_integral / rd.ample_square
            assert beta(rd, 1) == 1 - s_invariant(rd)
            try:
                az_s_w(rd, curve)
                flags += 1
            except FlagSupportError:
                pass
    assert flags > 0


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# quadratics with rational roots, double roots and no real roots, and lines and constants
_volumes = st.one_of(
    st.tuples(_small, _small, _small).map(lambda r: Poly([r[0] * r[1], -(r[0] + r[1]), 1]) * Poly([r[2]])),
    st.lists(_small, min_size=0, max_size=3).map(Poly),
)


def _end(rule, alpha, beta, vol, left):
    """Where rule ends the chamber from left, or the type and message of its refusal."""
    try:
        return rule(alpha, beta, vol, left)
    except RayNeverEffectiveError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(_volumes, _small, st.lists(_small, max_size=3), st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 9)), max_size=2))
def test_volume_roots_and_dips_match_their_fraction_oracles(vol, lo, widths, rising):
    """The first rational root, and where a chamber ends after up to three falling P.C (none: right = None)."""
    assert kstab.zariski._smallest_rational_root_at_least(vol, lo) == oracle_smallest_rational_root(vol, lo)
    roots = [lo + abs(w) + Fraction(1, 7) for w in widths]
    # a falling form (i + 1) (p - r u) has its root at p / r; a rising one none
    forms = [((i + 1) * r.numerator, -(i + 1) * r.denominator) for i, r in enumerate(roots)] + rising
    alpha, beta = [x for x, _ in forms], [y for _, y in forms]
    end = _end(kstab.zariski._chamber_end, alpha, beta, vol, lo)
    if vol.is_zero() and roots:
        # the one input where the rules differ, which no chamber has: the former rule walks on
        # over vol = 0, the single rule refuses it
        assert _end(oracle_chamber_end, alpha, beta, vol, lo) == (min(roots), None)
        assert end == (RayNeverEffectiveError, "volume crosses zero at an irrational parameter")
    else:
        assert end == _end(oracle_chamber_end, alpha, beta, vol, lo)


@settings(max_examples=600, deadline=None)
@given(_volumes, _small, _small)
def test_the_sign_first_test_is_positivity_on_the_chamber(vol, lo, width):
    hi = lo + abs(width) + Fraction(1, 7)
    positive = oracle_positive_on(vol, lo, hi)
    assert (_end(kstab.zariski._chamber_end, [hi.numerator], [-hi.denominator], vol, lo) == (hi, None)) == positive
    if positive:  # where the walk decides by signs first, it passes over no root and no dip
        root = oracle_smallest_rational_root(vol, lo)
        assert (root is None or root > hi) and not oracle_quadratic_negative_on(vol, lo, hi)


@pytest.mark.parametrize("rays", [
    pytest.param(lambda: [param.values for param in catalog_ray_inputs()], id="catalog rays"),
    pytest.param(lambda: [ray for k, count in CHAINS_PER_BASIS_SIZE.items() for ray in _enumeration_chain_rays(k, count)],
                 id="enumeration chains"),
    pytest.param(_kernel_chain_rays, id="kernel chains"),
    pytest.param(_poly_walk_chain_rays, id="poly walk chains"),
    pytest.param(_random_chain_rays, id="pointwise chains"),
])
def test_every_volume_piece_starts_positive_and_the_last_ends_at_zero(rays):
    """No chamber starts where the volume is 0, so the chamber end never meets vol = 0 identically."""
    decomposed = 0
    for config, ample, ray in rays():
        try:
            rd = decompose_ray(config, ample, ray)
        except RayNeverEffectiveError:
            continue
        assert all(rd.volume(iv.left) > 0 for iv in rd.intervals)
        assert rd.volume.pieces[-1][2](rd.tau) == 0
        decomposed += 1
    assert decomposed >= 20


def test_a_chamber_whose_volume_vanishes_at_its_right_end_ends_the_walk_there():
    # Z2 enters at u = 1, where vol = h - 3: the walk ends there for h = 3 and goes on for h > 3
    for h, tau in ((3, F(1)), (F(7, 2), F(9, 8))):
        config = CurveConfig.make(["H", "Z1", "Z2"], [[h, 1, 1], [1, -1, 1], [1, 1, -1]], [1, 0, 0])
        ray = config.basis_vector("Z1")
        rd = decompose_ray(config, config.anticanonical, ray)
        assert (rd.intervals[0].right, rd.tau) == (1, tau)
        assert rd.to_json_dict() == oracle_decompose_ray(config, config.anticanonical, ray).to_json_dict()
