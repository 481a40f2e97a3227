#!/usr/bin/env python3
"""Write src/airymax/_airy_nodes.py, the frozen node table of special.py:
Ai and Ai' at x = -11.25 + k/8, k = 0..170, each computed by mpmath at 40
digits and rounded once to the nearest double.  The table starts at
x = -11.25, where neither Ai nor Ai' is near a zero, so that the switch to
the oscillatory series below it is continuous to a few ulps relative.

    python scripts/airy_nodes.py

mpmath is part of the `test` extra; the package only reads the table.
"""

import os

import mpmath as mp

X_MIN, NODES_PER_UNIT, COUNT = -11.25, 8, 171   # nodes on [-11.25, 10], 1/8 apart
DIGITS = 40
TARGET = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "airymax", "_airy_nodes.py")


def node_values():
    """(Ai, Ai') at the nodes as lists of floats."""
    xs = [X_MIN + k / NODES_PER_UNIT for k in range(COUNT)]
    with mp.workdps(DIGITS):
        return ([float(mp.airyai(mp.mpf(x))) for x in xs],
                [float(mp.airyai(mp.mpf(x), 1)) for x in xs])


def render():
    ai, aip = node_values()

    def column(values):
        return "".join(f"    {v!r},\n" for v in values)

    return (f'"""Ai and Ai\' at x = {X_MIN} + k/{NODES_PER_UNIT}, k = 0..{COUNT - 1}: mpmath at '
            f'{DIGITS} digits,\neach rounded once to double.  Written by '
            f'scripts/airy_nodes.py; do not edit."""\n\n'
            f"X_MIN = {X_MIN!r}\nNODES_PER_UNIT = {NODES_PER_UNIT}\n\n"
            f"AI = (\n{column(ai)})\n\nAI_PRIME = (\n{column(aip)})\n")


def main():
    with open(TARGET, "w") as fh:
        fh.write(render())
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
