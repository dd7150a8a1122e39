"""The reference task: a fixed piece of exact arithmetic that times the machine, not kstab.

On a shared host, other tenants slow every process by up to about 2x in
phases that last from seconds to minutes, so the wall time of a kstab
operation says as much about the neighbours as about kstab.  The benchmark
runs this task right before every timed operation, in the same way as the
operation (a fresh interpreter for the cold-process workloads, a function
call for the in-process one), and reports the operation's wall time as a
multiple of it.  The task is Gaussian elimination over ``Fraction`` on
seeded 9x9 matrices, the same kind of work as kstab's own linear algebra.
It is part of the benchmark and never changes with the package.

    python3 bench/reference.py

prints the task's checksum, which must equal ``CHECKSUM``.
"""

from __future__ import annotations

import random
from fractions import Fraction

SIZE = 9
MATRICES = 40
CHECKSUM = 1298278052593427147


def work() -> int:
    """Sum of the determinants of the seeded matrices, reduced to a checksum."""
    rng = random.Random(7)
    total = Fraction(0)
    for _ in range(MATRICES):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(SIZE)]
                for _ in range(SIZE)]
        det = Fraction(1)
        for col in range(SIZE):
            pivot = next((r for r in range(col, SIZE) if rows[r][col] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                rows[col], rows[pivot] = rows[pivot], rows[col]
                det = -det
            det *= rows[col][col]
            for r in range(col + 1, SIZE):
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
        total += det
    return (total.numerator * 31 + total.denominator) % (2**61 - 1)


if __name__ == "__main__":
    print(work())
