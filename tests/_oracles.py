"""Independent numeric and combinatorial oracles used across the test suite.

Everything here deliberately avoids the package's exact integration and
decomposition paths: integrals are checked by floating-point Simpson
quadrature, definiteness by numpy eigenvalues, ray decompositions by
enumerating every negative-definite subset of the basis, and random
configurations are built as blow-up chains over a positive base class.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from kstab import (
    BlowupSpec,
    CurveConfig,
    QuotientSingularity,
    transform_config,
)
from kstab.arith import PiecewisePoly, Poly
from kstab.surface import solve_linear_system
from kstab.zariski import (
    InconsistentConfigError,
    RayDecomposition,
    RayInterval,
    RayNeverEffectiveError,
    _check_continuity,
    _pair_poly,
    _quadratic_negative_on,
    _smallest_rational_root_at_least,
)


def simpson(f, a: float, b: float, panels: int = 4096) -> float:
    """Composite Simpson quadrature; exact for cubics up to rounding."""
    if a == b:
        return 0.0
    h = (b - a) / (2 * panels)
    total = f(a) + f(b)
    for i in range(1, 2 * panels):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3


def simpson_matches(pp: PiecewisePoly, exact: Fraction, rel: float = 1e-9) -> bool:
    """Piecewise Simpson over the full domain against the exact value.

    Each piece is integrated with its own polynomial so that boundary jumps
    (legal for raw piecewise data) cannot leak a neighbouring value in.
    """
    total = 0.0
    for left, right, poly in pp.pieces:
        coeffs = [float(c) for c in poly.coeffs]

        def f(x: float, _coeffs=coeffs) -> float:
            acc = 0.0
            for c in reversed(_coeffs):
                acc = acc * x + c
            return acc

        total += simpson(f, float(left), float(right), panels=64)
    target = float(exact)
    scale = max(abs(target), 1.0)
    return abs(total - target) <= rel * scale


def assert_negative_definite_oracle(gram, expected: bool):
    """Cross-check a definiteness verdict against numpy eigenvalues."""
    import numpy as np

    if not gram:
        assert expected is True
        return
    eigs = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in gram]))
    assert (bool((eigs < -1e-12).all())) == expected, (gram, eigs, expected)


def decompose_ray_by_subsets(config, ample, ray) -> RayDecomposition:
    """Ray decomposition by exhaustive enumeration, for cross-checking the walk.

    Every negative-definite subset of the basis is solved with coefficients
    linear in u and cut down to the u-interval where its negative part is
    effective and its positive part nef.  The ray is stitched from u = 0 at
    every endpoint of every subset's interval, and all subsets valid inside a
    stretch must give the same positive part.  Costs 2^k subsets; inputs are
    validated by ``decompose_ray`` and not re-checked here.
    """
    candidates = _subset_solutions(config, ample, ray)
    if not any(_contains(s[3], Fraction(0)) for s in candidates):
        raise InconsistentConfigError("no valid decomposition at u = 0")
    cuts = sorted(
        {Fraction(0)}
        | {s[3][0] for s in candidates if s[3]}
        | {s[3][1] for s in candidates if s[3] and s[3][1] is not None}
    )
    cuts = [c for c in cuts if c >= 0]

    intervals, vol_pieces, tau, pos = [], [], None, 0
    while tau is None:
        left = cuts[pos]
        right = cuts[pos + 1] if pos + 1 < len(cuts) else None
        probe = (left + right) / 2 if right is not None else left + 1
        live = [s for s in candidates if _contains(s[3], probe)]
        if not live:
            tau = left
            break
        subset, coeffs, p_polys, _ = min(live, key=lambda s: (len(s[0]), s[0]))
        for other in live:
            if any(p(probe) != q(probe) for p, q in zip(other[2], p_polys)):
                raise InconsistentConfigError(f"supports disagree at u = {probe}")
        vol = sum(
            (config.gram[i][j] * p * q
             for i, p in enumerate(p_polys) for j, q in enumerate(p_polys)),
            Poly(),
        )
        root = _smallest_rational_root_at_least(vol, left)
        if right is None:
            if root is None:
                raise RayNeverEffectiveError(
                    "volume does not reach zero at a rational parameter"
                )
            right = tau = root
        elif root is not None and root <= right:
            right = tau = root
        elif _quadratic_negative_on(vol, left, right):
            raise RayNeverEffectiveError("volume crosses zero at an irrational parameter")
        if left < right:
            intervals.append(RayInterval(left, right, subset, coeffs, p_polys))
            vol_pieces.append((left, right, vol))
        pos += 1
        if pos >= len(cuts) and tau is None:
            raise InconsistentConfigError("ray stitching ran past all breakpoints")

    if not intervals:
        raise InconsistentConfigError("empty decomposition range")
    volume = PiecewisePoly(vol_pieces)
    if volume(tau) != 0:
        raise InconsistentConfigError(f"volume at tau = {tau} is {volume(tau)}, expected 0")
    rd = RayDecomposition(
        config=config,
        ample=ample,
        ray=ray,
        intervals=tuple(intervals),
        nef_threshold=intervals[0].right if intervals[0].support == () else Fraction(0),
        tau=tau,
        volume=volume,
    )
    _check_continuity(rd)
    return rd


def _subset_solutions(config, ample, ray):
    """(subset, coefficients, positive part, validity interval) per ND subset."""
    k = config.size
    u = Poly.variable()
    d_polys = [Poly.constant(a) - u * Poly.constant(e) for a, e in zip(ample, ray)]
    solutions = []
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            if not config.is_negative_definite(subset):
                continue
            m = [[config.gram[i][j] for j in subset] for i in subset]
            coeffs = solve_linear_system(m, [_pair_poly(config, d_polys, j) for j in subset])
            p_polys = list(d_polys)
            for idx, c in zip(subset, coeffs):
                p_polys[idx] = p_polys[idx] - c
            constraints = list(coeffs) + [_pair_poly(config, p_polys, j) for j in range(k)]
            solutions.append(
                (subset, tuple(coeffs), tuple(p_polys), _linear_feasible_interval(constraints))
            )
    return solutions


def _linear_feasible_interval(constraints):
    """Intersection of {u >= 0} with {c(u) >= 0} for linear polynomials c."""
    lo, hi = Fraction(0), None
    for c in constraints:
        a0, a1 = c.coefficient(0), c.coefficient(1)
        if a1 == 0:
            if a0 < 0:
                return None
        elif a1 > 0:
            lo = max(lo, -a0 / a1)
        else:
            bound = -a0 / a1
            hi = bound if hi is None else min(hi, bound)
    if hi is not None and lo > hi:
        return None
    return (lo, hi)


def _contains(interval, x: Fraction) -> bool:
    if interval is None:
        return False
    lo, hi = interval
    return lo <= x and (hi is None or x <= hi)


def random_chain_config(rng: random.Random, stages: int | None = None):
    """Random blow-up chain over a positive base curve.

    Returns (config, ample, ray_name): the chain guarantees the ample class
    is the isometric pullback of a nef and big downstairs class, and that
    every strict transform of the base curve is negative enough to enter the
    support, so the ray terminates at a rational threshold.
    """
    base_square = Fraction(rng.choice([1, 2, 3, 8]), rng.choice([1, 2, 3, 5, 7]))
    multiple = rng.choice([1, 2, 3])
    order = rng.choice([1, 2, 3, 5, 7])
    config = CurveConfig.make(
        basis=["C"],
        gram=[[base_square]],
        anticanonical=[multiple],
        singular_points=(
            []
            if order == 1
            else [_record("p0", order, _coprime_pair(rng, order), {"C": 1})]
        ),
    )
    stages = stages if stages is not None else rng.choice([1, 1, 2])
    ray_name = "C"
    for stage in range(stages):
        if order == 1 or stage > 0:
            center = QuotientSingularity(1, (1, 1), label=f"s{stage}")
            weights = (1, 1)
        else:
            center = config.singular_points[0].point
            weights = _coprime_pair(rng, order)
        # exactly one existing curve passes through each center: blowing up a
        # shared point of two curves with large orders would drive their
        # cross-pairing negative, which no pair of distinct curves can do
        if stage == 0 and center.order > 1:
            through = config.singular_points[0].multiplicities[0][0]
        else:
            through = rng.choice(list(config.basis))
        square = config.pairing(config.basis_vector(through), config.basis_vector(through))
        # push the strict transform negative: w^2/(n*a*b) > C^2
        w = 1
        while Fraction(w * w, center.order * weights[0] * weights[1]) <= max(square, 0):
            w += 1
        orders = {through: w + rng.choice([0, 1])}
        exceptional = f"E{stage + 1}"
        spec = BlowupSpec.make(center, weights, orders, exceptional=exceptional)
        result = transform_config(config, spec)
        config = result.upstairs
        ray_name = exceptional
    return config, config.anticanonical, ray_name


def _coprime_pair(rng: random.Random, order: int):
    import math

    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(a, order) == 1 and math.gcd(b, order) == 1 and math.gcd(a, b) == 1:
            return (a, b)


def _record(label, order, weights, mults):
    from kstab import SingularPointRecord

    return SingularPointRecord.make(
        QuotientSingularity(order, weights, label=label), mults
    )
