"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own data structures and
algorithms: partition counts come from the pentagonal-number
recurrence, border strips from explicit cell geometry, wedge signs
from a literal prefix-list model of the semi-infinite wedge, and
determinants and ranks from the Leibniz formula over all minors.  The
box helpers describe single-box moves for the tests of the box ladder.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from youngfock.partitions import Partition


@lru_cache(maxsize=None)
def pentagonal_count(n: int) -> int:
    """Partition numbers via Euler's pentagonal recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * pentagonal_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_count(n - g2)
        k += 1
    return total


def cells(parts) -> set:
    return {(i, j) for i, p in enumerate(parts, 1) for j in range(1, p + 1)}


def contains(inner, outer) -> bool:
    return cells(inner) <= cells(outer)


def is_border_strip(inner, outer, length: int) -> bool:
    """outer/inner is a connected edge-path of `length` cells with no 2x2
    block: the direct geometric definition."""
    skew = cells(outer) - cells(inner)
    if len(skew) != length or not cells(inner) <= cells(outer):
        return False
    for (i, j) in skew:
        if {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew:
            return False
    seen = set()
    stack = [next(iter(skew))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in skew and nb not in seen:
                stack.append(nb)
    return seen == skew


# -- literal prefix-list model of the wedge ---------------------------------
#
# A state is a strictly decreasing tuple of doubled half-integer
# coordinates: the first len(prefix) particles, an implicit vacuum tail
# below.  Insertions scan for the slot, so the sign is literally the
# number of transpositions.

def prefix_of_partition(parts, depth: int):
    parts = tuple(parts)
    out = []
    for i in range(1, depth + 1):
        p = parts[i - 1] if i <= len(parts) else 0
        out.append(2 * (p - i) + 1)
    return tuple(out)


def naive_insert(prefix, d):
    if d in prefix:
        return None
    if prefix and d < prefix[-1]:
        raise ValueError("insertion below the tracked window")
    pos = sum(1 for e in prefix if e > d)
    sign = -1 if pos % 2 else 1
    return sign, prefix[:pos] + (d,) + prefix[pos:]


def naive_remove(prefix, d):
    if d not in prefix:
        if prefix and d < prefix[-1]:
            raise ValueError("removal below the tracked window")
        return None
    pos = prefix.index(d)
    sign = -1 if pos % 2 else 1
    return sign, prefix[:pos] + prefix[pos + 1:]


def naive_boson(k, prefix):
    """a_k on a prefix state: all jumps d -> d - 2k inside the window."""
    out = {}
    for d in prefix:
        target = d - 2 * k
        if target in prefix:
            continue
        if target < prefix[-1]:
            continue  # leaves the window: treat as vacuum-blocked
        s1, mid = naive_remove(prefix, d)
        s2, new = naive_insert(mid, target)
        out[new] = out.get(new, 0) + s1 * s2
    return {s: c for s, c in out.items() if c}


# -- boxes of a diagram ------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """A box of a diagram with its content col - row."""

    row: int
    col: int

    def __post_init__(self):
        if self.row < 1 or self.col < 1:
            raise ValueError("box coordinates are positive")

    @property
    def content(self) -> int:
        return self.col - self.row


def addable_boxes(lam: Partition) -> list:
    """Corner boxes whose addition yields a partition, content descending."""
    out = [Box(1, lam.part(1) + 1)]
    for i in range(2, len(lam) + 2):
        if lam.part(i) < lam.part(i - 1):
            out.append(Box(i, lam.part(i) + 1))
    return out


def removable_boxes(lam: Partition) -> list:
    """Corner boxes whose removal yields a partition, content descending."""
    out = []
    for i in range(1, len(lam) + 1):
        if lam.part(i) > lam.part(i + 1):
            out.append(Box(i, lam.part(i)))
    return out


def transpose(lam: Partition) -> Partition:
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def boson_zero_eigenvalue(alpha, v):
    """The central zero mode: scalar multiplication by alpha."""
    return v.scale(alpha)


# -- determinants and ranks by brute force -----------------------------------

def leibniz_determinant(matrix):
    """Sum over permutations of the signed products; 1 for the empty matrix."""
    n = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term
    return total


def minor_rank(matrix):
    """Size of the largest square submatrix with nonzero Leibniz determinant."""
    n_rows, n_cols = len(matrix), len(matrix[0]) if matrix else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                if leibniz_determinant([[matrix[r][c] for c in cols] for r in rows]) != 0:
                    return k
    return 0
