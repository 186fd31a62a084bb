"""Reference program: a fixed, standard-library-only stand-in for a small
youngfock job (interpreter start, exact Fraction arithmetic in a dict,
JSON encoding).  run.py times it next to every job and scales the job's
time by REFERENCE_S / (this program's time), which takes the machine's
own speed swings out of the end-to-end times.

It must never import youngfock, and it must not change: every baseline
is expressed against it.
"""

import json
from fractions import Fraction


def main() -> None:
    acc = {}
    for i in range(1, 6000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 - 6, i % 29 + 1)
    json.dumps({f"{a},{b}": str(v) for (a, b), v in sorted(acc.items())})


if __name__ == "__main__":
    main()
