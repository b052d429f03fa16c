"""Fixed reference computation: the yardstick for the machine's speed right now.

Runs in a fresh interpreter between the benchmark's rounds.  It imports numpy
and convolves an exact rational 2-d walk law in plain dicts, the same kind of
work (interpreter start, import, Fraction arithmetic) the measured commands
do, and it never imports bakerlattice, so no change to the program moves it.
"""

from fractions import Fraction

import numpy  # noqa: F401  (import cost, as every bakerlattice command pays it)

STEPS = {(0, 0): Fraction(1, 5), (1, 0): Fraction(1, 5), (-1, 0): Fraction(1, 5),
         (0, 1): Fraction(1, 5), (0, -1): Fraction(1, 5)}


def law(n: int) -> dict:
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        nxt: dict = {}
        for (x, y), w in out.items():
            for (a, b), p in STEPS.items():
                nxt[x + a, y + b] = nxt.get((x + a, y + b), 0) + w * p
        out = nxt
    return out


if __name__ == "__main__":
    assert sum(law(14).values()) == 1
