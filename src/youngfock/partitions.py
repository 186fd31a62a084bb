"""Young diagrams, half-integer particle coordinates and rim hooks.

A partition corresponds to a particle configuration on the half-integer
line via ``x_i = parts[i] - i - 1/2`` (0-indexed): particles at those
positions, holes elsewhere, with the vacuum occupying every negative
half-integer.  Adding a connected r-box rim hook (border strip) to the
diagram is the same thing as one particle jumping r steps to the right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator, List, Sequence, Tuple

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


@dataclass(frozen=True)
class RimHookMove:
    """One rim-hook addition or removal, recorded as a particle jump.

    ``start`` is the jumping particle's coordinate before the move;
    additions land at start + length, removals at start - length.
    ``leftmost_content`` is the content of the leftmost box of the hook.
    """

    result: Partition
    height: int
    leftmost_content: int
    start: HalfInt
    length: int

    def __post_init__(self):
        if not 1 <= self.height <= self.length:
            raise ValueError("hook height must lie in [1, length]")


def conf(lam: Partition, cutoff: int) -> List[HalfInt]:
    """First ``cutoff`` particle coordinates of the configuration of lam.

    Positions below the cutoff continue -i + 1/2 forever; the cutoff must
    cover every row of the diagram or particles above vacuum level would
    be silently lost.
    """
    if cutoff < len(lam):
        raise ValueError(
            f"cutoff {cutoff} smaller than number of parts {len(lam)}"
        )
    return [HalfInt(2 * (lam.part(i) - i) + 1) for i in range(1, cutoff + 1)]


def partition_from_conf(positions: Sequence[HalfInt], charge: int) -> Partition:
    """Inverse of :func:`conf` on a finite prefix.

    The prefix lists the topmost particles; below it the configuration is
    the vacuum tail for its length.  Only the charge-0 sector corresponds
    to partitions.
    """
    if charge != 0:
        raise ValueError(f"no partition in charge sector {charge}")
    parts = []
    prev = None
    for i, x in enumerate(positions, start=1):
        if prev is not None and x.doubled >= prev:
            raise ValueError("positions must be strictly decreasing")
        prev = x.doubled
        doubled_part = x.doubled + 2 * i - 1
        if doubled_part % 2 != 0:  # pragma: no cover - parity is automatic
            raise ValueError("bad half-integer parity")
        p = doubled_part // 2
        if p < 0:
            raise ValueError(
                f"position {x} at index {i} lies below the vacuum tail"
            )
        parts.append(p)
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(parts)


def contains_particle(lam: Partition, x: HalfInt) -> bool:
    """Whether the configuration of lam occupies position x."""
    if any(2 * (p - i) + 1 == x.doubled for i, p in enumerate(lam.parts, 1)):
        return True
    # vacuum tail below the listed rows
    return x.doubled <= -2 * len(lam) - 1


@lru_cache(maxsize=None)
def _rim_hooks(parts: Tuple[int, ...], r: int, remove: bool) -> Tuple[RimHookMove, ...]:
    lam = Partition(parts)
    cutoff = len(parts) + r
    positions = conf(lam, cutoff)
    occupied = {x.doubled for x in positions}
    lowest = positions[-1].doubled if positions else None
    moves = []
    for idx, x in enumerate(positions):
        target = x.doubled - 2 * r if remove else x.doubled + 2 * r
        if target in occupied:
            continue
        if lowest is not None and target < lowest:
            continue  # inside the untouched vacuum tail, always occupied
        lo, hi = min(x.doubled, target), max(x.doubled, target)
        height = 1 + sum(1 for y in positions if lo < y.doubled < hi)
        new_positions = sorted(
            (occupied - {x.doubled}) | {target}, reverse=True
        )
        result = partition_from_conf([HalfInt(d) for d in new_positions], 0)
        leftmost = (min(x.doubled, target) + 1) // 2
        moves.append(
            RimHookMove(
                result=result,
                height=height,
                leftmost_content=leftmost,
                start=x,
                length=r,
            )
        )
    return tuple(moves)


def rim_hooks_addable(lam: Partition, r: int) -> List[RimHookMove]:
    """All ways to add a connected r-box rim hook, as particle jumps.

    One move per particle that can jump r steps right into a hole; the
    height counts the particles strictly inside the jump interval plus
    the jumping one.
    """
    if r < 1:
        raise ValueError("hook length must be positive")
    return list(_rim_hooks(lam.parts, r, remove=False))


def rim_hooks_removable(lam: Partition, r: int) -> List[RimHookMove]:
    """All ways to remove a connected r-box rim hook, as particle jumps."""
    if r < 1:
        raise ValueError("hook length must be positive")
    return list(_rim_hooks(lam.parts, r, remove=True))


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
