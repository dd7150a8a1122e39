"""Seeded random blow-up chains, written as ``kstab analyze`` fixtures.

This is a frozen copy of the test suite's ``random_chain_config`` recipe: a
chain of weighted blow-ups over one positive base curve, where each blow-up
pushes the strict transform of a curve through its center negative enough to
enter the support.  Instead of applying the blow-ups it emits the base
configuration plus the ``blowups`` list and the ``ray``, so the blow-ups run
inside the measured ``analyze`` call.  It carries its own copy of the Gram
update, so the fixtures stay byte-identical when the package or the test
oracles change.  The basis size of a fixture is k = 1 + number of blow-ups.

    python3 bench/chains.py --seed 7

prints the fixtures of seed 7, one JSON line each: its k and the fixture
itself.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction

K_VALUES = tuple(range(4, 11))


def fixtures(seed: int) -> list[dict]:
    """One chain per k in K_VALUES, each from its own seeded stream."""
    return [chain_fixture(seed, k) for k in K_VALUES]


def chain_fixture(seed: int, k: int) -> dict:
    """Fixture for one ray of basis size k, plus the upstairs data it implies.

    Returns ``{"k", "fixture", "gram", "anticanonical"}``: the last two are
    the exact upstairs Gram matrix and polarization (``p/q`` strings), which
    the correctness gate compares with what ``analyze`` reports.
    """
    rng = random.Random(f"kstab-chain/{seed}/{k}")
    stages = k - 1
    base_square = Fraction(rng.choice([1, 2, 3, 8]), rng.choice([1, 2, 3, 5, 7]))
    multiple = rng.choice([1, 2, 3])
    order = rng.choice([1, 2, 3, 5, 7])
    point = None if order == 1 else {
        "label": "p0", "order": order, "weights": list(_coprime_pair(rng, order)),
    }
    base = {
        "basis": ["C"],
        "gram": [[str(base_square)]],
        "anticanonical": [str(multiple)],
        "singular_points": [] if point is None else [dict(point, multiplicities={"C": "1"})],
    }

    basis = ["C"]
    gram = [[base_square]]
    anticanonical = [Fraction(multiple)]
    blowups = []
    for stage in range(stages):
        if point is None or stage > 0:
            center = {"label": f"s{stage}", "order": 1, "weights": [1, 1]}
            weights = (1, 1)
        else:
            center = {key: point[key] for key in ("label", "order", "weights")}
            weights = _coprime_pair(rng, order)
        n = center["order"]
        # exactly one existing curve passes through each center: blowing up a
        # shared point of two curves with large orders would drive their
        # cross-pairing negative, which no pair of distinct curves can do
        through = "C" if stage == 0 and n > 1 else rng.choice(basis)
        i = basis.index(through)
        # push the strict transform negative: w^2/(n*a*b) > C^2
        w = 1
        while Fraction(w * w, n * weights[0] * weights[1]) <= max(gram[i][i], 0):
            w += 1
        vanishing = w + rng.choice([0, 1])
        exceptional = f"E{stage + 1}"
        blowups.append({
            "center": center,
            "weights": list(weights),
            "curve_orders": {through: str(vanishing)},
            "exceptional": exceptional,
        })
        gram, anticanonical = _blow_up(gram, anticanonical, i, vanishing, n, weights)
        basis.append(exceptional)

    return {
        "k": k,
        "fixture": {"config": base, "blowups": blowups, "ray": {"curve": basis[-1]}},
        "gram": [[str(x) for x in row] for row in gram],
        "anticanonical": [str(x) for x in anticanonical],
    }


def _blow_up(gram, anticanonical, i, vanishing, n, weights):
    """Gram matrix and polarization after blowing up a point on curve i only."""
    ab = weights[0] * weights[1]
    orders = [Fraction(0)] * len(gram)
    orders[i] = Fraction(vanishing)
    upstairs = [
        [gram[r][c] - orders[r] * orders[c] / (n * ab) for c in range(len(gram))]
        + [orders[r] / ab]
        for r in range(len(gram))
    ]
    upstairs.append([orders[r] / ab for r in range(len(gram))] + [Fraction(-n, ab)])
    pulled_back = anticanonical + [sum(a * o for a, o in zip(anticanonical, orders)) / n]
    return upstairs, pulled_back


def _coprime_pair(rng: random.Random, order: int) -> tuple[int, int]:
    while True:
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(a, order) == 1 and math.gcd(b, order) == 1 and math.gcd(a, b) == 1:
            return (a, b)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for chain in fixtures(args.seed):
        print(json.dumps({"k": chain["k"], "fixture": chain["fixture"]}, sort_keys=True))


if __name__ == "__main__":
    main()
