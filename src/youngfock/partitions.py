"""Young diagrams and half-integer particle coordinates.

A partition corresponds to a particle configuration on the half-integer
line via ``x_i = parts[i] - i - 1/2`` (0-indexed): particles at those
positions, holes elsewhere, with the vacuum occupying every negative
half-integer.  Adding a connected r-box rim hook (border strip) to the
diagram is the same thing as one particle jumping r steps to the right;
those jumps are enumerated once, by :func:`youngfock.fock.boson_moves`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, List, Tuple

from .rings import parse_rational


@total_ordering
class HalfInt:
    """A half-integer, stored as its (odd) double.

    Total ordering and exact integer arithmetic, no fractional types in
    the combinatorial core.
    """

    __slots__ = ("doubled",)

    def __init__(self, doubled: int):
        if doubled % 2 == 0:
            raise ValueError(f"half-integer double must be odd, got {doubled}")
        object.__setattr__(self, "doubled", doubled)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("HalfInt is immutable")

    def __add__(self, k: int) -> "HalfInt":
        return HalfInt(self.doubled + 2 * k)

    def __sub__(self, k: int) -> "HalfInt":
        return HalfInt(self.doubled - 2 * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfInt) and self.doubled == other.doubled

    def __lt__(self, other: "HalfInt") -> bool:
        return self.doubled < other.doubled

    def __hash__(self):
        return hash(("HalfInt", self.doubled))

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def __str__(self) -> str:
        return f"{self.doubled}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.doubled})"

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        q = parse_rational(text)
        if q.denominator != 2:
            raise ValueError(f"not a half-integer: {text!r}")
        return cls(q.numerator)


class Partition:
    """Weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        for i, p in enumerate(ps):
            if p < 1:
                raise ValueError(f"parts must be positive, got {ps}")
            if i and ps[i - 1] < p:
                raise ValueError(f"parts must weakly decrease, got {ps}")
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, i: int) -> int:
        """Row length at 1-based index i, zero past the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def to_json(self) -> list:
        return list(self.parts)


EMPTY = Partition()


@lru_cache(maxsize=None)
def partitions_of(n: int) -> Tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    if n == 0:
        return (EMPTY,)
    out = []
    current = [n]
    while True:
        out.append(Partition(current))
        # find rightmost part > 1
        i = len(current) - 1
        while i >= 0 and current[i] == 1:
            i -= 1
        if i < 0:
            break
        rem = len(current) - i - 1 + 1  # the ones, plus one from current[i]
        val = current[i] - 1
        current = current[:i] + [val]
        while rem > 0:
            take = min(val, rem)
            current.append(take)
            rem -= take
    return tuple(out)


def partitions_up_to(n: int) -> List[Partition]:
    """All partitions of size <= n, by degree then reverse-lex."""
    out: List[Partition] = []
    for d in range(n + 1):
        out.extend(partitions_of(d))
    return out
