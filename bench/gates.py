"""Correctness gates, applied to each operation's output outside the timed region.

A gate raises ``WrongAnswer``; the benchmark then aborts the run instead of
counting the operation as failed.  The ray gate recomputes everything it
checks from the reported data and the fixture's own upstairs Gram matrix,
except for the pointwise Zariski decomposition, where it uses the package's
``zariski_decompose_at`` (an iteration independent of ``decompose_ray``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

# the two messages of RayNeverEffectiveError: the volume's zero is not rational,
# inside a piece or on the last, unbounded one
REFUSALS = (
    "analysis failed: volume crosses zero at an irrational parameter",
    "analysis failed: volume does not reach zero at a rational parameter",
)
SIMPSON_REL = 1e-9
_RATIONAL = re.compile(r"-?\d+(/\d+)?")


class WrongAnswer(Exception):
    """An operation produced an output that the gate rejects."""


def check_verify(code: Optional[int], stdout: str, stderr: str,
                 expected: list[tuple[int, Optional[int]]], items: dict[int, int]) -> int:
    """Gate one ``kstab verify --format json`` run; return its item count.

    ``expected`` lists the (family, n) of every report in order, and ``items``
    the number of check items each family's report must carry.
    """
    if code != 0:
        raise WrongAnswer(f"verify exited {code}: {stderr.strip()[-300:]}")
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        raise WrongAnswer(f"verify output is not a report list: {exc}") from None
    got = [(r["family"], r["n"]) for r in reports]
    if got != expected:
        raise WrongAnswer(f"verify reported {len(got)} (family, n) pairs, expected {len(expected)}")
    total = 0
    for r in reports:
        if len(r["items"]) != items[r["family"]]:
            raise WrongAnswer(f"family {r['family']} n={r['n']}: {len(r['items'])} items, "
                              f"expected {items[r['family']]}")
        for item in r["items"]:
            if item["match"] is not True or item["computed"] != item["expected"]:
                raise WrongAnswer(f"family {r['family']} n={r['n']} {item['name']}: "
                                  f"expected {item['expected']}, computed {item['computed']}")
        if r["overall"] is not True:
            raise WrongAnswer(f"family {r['family']} n={r['n']}: overall is not true")
        total += len(r["items"])
    return total


def classify_analyze(code: Optional[int], stdout: str, stderr: str) -> str:
    """"ok", "refused" (irrational threshold, exit 1) or "error" (anything else)."""
    if code == 0:
        return "ok"
    if code == 1 and stderr.strip() in REFUSALS and not stdout:
        return "refused"
    return "error"


def check_ray(stdout: str, chain: dict) -> None:
    """Gate one successful ``kstab analyze --format json`` run of a chain fixture.

    Output malformed enough to make the checks themselves raise (a missing
    key, a midpoint where the pointwise decomposition does not exist) is a
    wrong answer as well.
    """
    try:
        _check_ray(stdout, chain)
    except WrongAnswer:
        raise
    except Exception as exc:
        raise WrongAnswer(f"k={chain['k']}: output fails the ray checks: "
                          f"{type(exc).__name__}: {exc}") from exc


def _check_ray(stdout: str, chain: dict) -> None:
    from kstab.surface import CurveConfig
    from kstab.zariski import zariski_decompose_at

    try:
        result = json.loads(stdout)
        upstairs = result["blowups"][-1]["upstairs"]
        ray = result["ray"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise WrongAnswer(f"analyze output lacks blow-ups or ray: {exc}") from None
    k = chain["k"]
    if upstairs["gram"] != chain["gram"] or upstairs["anticanonical"] != chain["anticanonical"]:
        raise WrongAnswer(f"k={k}: blown-up configuration differs from the fixture's")
    gram = [[Fraction(x) for x in row] for row in chain["gram"]]
    ample = [Fraction(x) for x in chain["anticanonical"]]
    if [Fraction(x) for x in ray["ample"]] != ample:
        raise WrongAnswer(f"k={k}: reported ample class is not the pulled-back polarization")
    a2 = _pair(gram, ample, ample)

    pieces = [(Fraction(p["left"]), Fraction(p["right"]), [Fraction(c) for c in p["coeffs"]])
              for p in ray["volume"]]
    tau = Fraction(ray["tau"])
    if not pieces or pieces[0][0] != 0 or pieces[-1][1] != tau:
        raise WrongAnswer(f"k={k}: volume pieces do not span [0, tau]")
    if _eval(pieces[0][2], 0) != a2:
        raise WrongAnswer(f"k={k}: vol(0) != A^2 = {a2}")
    for (_, r1, p1), (l2, _, p2) in zip(pieces, pieces[1:]):
        if r1 != l2 or _eval(p1, r1) != _eval(p2, l2):
            raise WrongAnswer(f"k={k}: volume discontinuous at u = {r1}")
    if _eval(pieces[-1][2], tau) != 0:
        raise WrongAnswer(f"k={k}: vol(tau) != 0")

    config = CurveConfig.from_json_dict(upstairs)
    ray_vector = [Fraction(x) for x in ray["ray"]]
    basis = upstairs["basis"]
    for iv in ray["intervals"]:
        left, right = Fraction(iv["left"]), Fraction(iv["right"])
        mid = (left + right) / 2
        reported = [_eval([Fraction(c) for c in iv["positive_part"][name]], mid) for name in basis]
        d = config.vector([a - mid * e for a, e in zip(ample, ray_vector)])
        p_vec, _ = zariski_decompose_at(config, d)
        if list(p_vec) != reported:
            raise WrongAnswer(f"k={k}: positive part at u = {mid} differs from the pointwise one")
        vol = next(p for l, r, p in pieces if l <= mid <= r)
        if _eval(vol, mid) != _pair(gram, reported, reported):
            raise WrongAnswer(f"k={k}: vol({mid}) != P.P")

    s = Fraction(ray["s"])
    quadrature = sum(_simpson(p, float(l), float(r)) for l, r, p in pieces)
    target = float(s * a2)
    if abs(quadrature - target) > SIMPSON_REL * max(abs(target), 1.0):
        raise WrongAnswer(f"k={k}: s*A^2 = {target!r} but Simpson gives {quadrature!r}")


def max_bits(stdout: str) -> int:
    """Largest numerator or denominator bit length among the output's p/q strings."""
    best = 0

    def walk(node):
        nonlocal best
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str) and _RATIONAL.fullmatch(node):
            x = Fraction(node)
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())

    walk(json.loads(stdout))
    return best


def _pair(gram, v, w) -> Fraction:
    return sum((a * gram[i][j] * b for i, a in enumerate(v) for j, b in enumerate(w)), Fraction(0))


def _eval(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _simpson(coeffs, a: float, b: float, panels: int = 64) -> float:
    fc = [float(c) for c in coeffs]

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(fc):
            acc = acc * x + c
        return acc

    h = (b - a) / (2 * panels)
    total = f(a) + f(b) + sum(f(a + i * h) * (4 if i % 2 else 2) for i in range(1, 2 * panels))
    return total * h / 3
