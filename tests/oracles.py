"""Independent brute-force oracles used only by the tests.

These deliberately avoid the library's own data structures and
algorithms: partition counts come from the pentagonal-number
recurrence, border strips from explicit cell geometry, wedge signs
from a literal prefix-list model of the semi-infinite wedge, and
determinants and ranks from the Leibniz formula over all minors, and
the conversion rows, their inversion and the closed A/B formulas from
explicit sums over all 2^(N-1) jump compositions.  The truncated
exponential is summed power by power, and a bracket identity, an
equivalence pair and the psi brackets of prop52 and prop62 checked basis
vector by basis vector, through ``op.apply``; so are the earlier matrix
assembly, kernel and highest-weight check of ``repstructure``.  The dense
Bareiss loop, the recursive M-fold tuple enumeration, the M-fold tuple
sum evaluated tuple by tuple at fixed parameters and the Fraction
evaluation of a bilinear's weight (Horner's rule per jump, power sums on
the diagonal) are the library's earlier forms, kept as the references
for the sparse elimination, the iterative enumeration, the per-j sums
evaluated at (alpha + charge, gamma) and the cleared integer
numerators, and the all-Fraction polynomial arithmetic on coefficient
tuples is ``Poly``'s earlier form, the reference for its int
coefficients.  The box helpers describe single-box moves for the
tests of the box ladder; the rim-hook moves, read off the particle
configuration of a diagram, and the earlier jump through
``MayaState.remove`` then ``insert`` are the references for the jump
kernel ``fock.boson_moves``.  The annihilator ``psi_star`` is only a partner
to test ``fock.psi`` against.  The z-measure weight, a product over the
boxes of their contents and hook lengths, and its normalizer summed as a
rising factorial are the closed form of the virasoro table at one Miwa
variable per side.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Dict, List, Sequence, Tuple

from youngfock.fock import FockVector, MayaState, basis_index, boson_moves, psi, vacuum
from youngfock.operators import (
    KerovParams,
    Operator,
    _descending_tuples,
    boson_op,
    exp_raising,
    kerov_d,
    kerov_l,
    m_virasoro_op,
    virasoro_op,
)
from youngfock.partitions import HalfInt, Partition, partitions_of
from youngfock.rings import Poly, Scalar, divexact, is_zero, series_exp


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


# -- rim hooks as particle jumps on the configuration ------------------------

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
        raise ValueError(f"cutoff {cutoff} smaller than number of parts {len(lam)}")
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
        p = (x.doubled + 2 * i - 1) // 2
        if p < 0:
            raise ValueError(f"position {x} at index {i} lies below the vacuum tail")
        parts.append(p)
    while parts and parts[-1] == 0:
        parts.pop()
    return Partition(parts)


@lru_cache(maxsize=None)
def _rim_hooks(parts: Tuple[int, ...], r: int, remove: bool) -> Tuple[RimHookMove, ...]:
    positions = conf(Partition(parts), len(parts) + r)
    occupied = {x.doubled for x in positions}
    lowest = positions[-1].doubled if positions else None
    moves = []
    for x in positions:
        target = x.doubled - 2 * r if remove else x.doubled + 2 * r
        if target in occupied:
            continue
        if lowest is not None and target < lowest:
            continue  # inside the untouched vacuum tail, always occupied
        lo, hi = min(x.doubled, target), max(x.doubled, target)
        height = 1 + sum(1 for y in positions if lo < y.doubled < hi)
        new_positions = sorted((occupied - {x.doubled}) | {target}, reverse=True)
        result = partition_from_conf([HalfInt(d) for d in new_positions], 0)
        moves.append(RimHookMove(result=result, height=height,
                                 leftmost_content=(lo + 1) // 2, start=x, length=r))
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


def inner(u, v):
    """Pairing of two Fock vectors in which the Maya basis is orthonormal."""
    cu, cv = u.charge, v.charge
    if cu is not None and cv is not None and cu != cv:
        raise ValueError(f"charge mismatch: {cu} vs {cv}")
    return sum((c * v.coefficient(s) for s, c in u.terms()), Fraction(0))


def psi_star(x: HalfInt, v: FockVector) -> FockVector:
    """Annihilate the particle at x; the adjoint of ``fock.psi``."""
    def act(state):
        res = state.remove(x)
        return [(res[1], Fraction(res[0]))] if res else []
    return v.linear_apply(act)


def bilinear_action(op, state) -> FockVector:
    """A ``Bilinear`` on one basis state, read off its weight as given: per
    jump from d, f(x) by Horner's rule at the Fraction x = d/2; at k = 0,
    offset + sum_i weight[i] * (the sum of (d/2)**i over occupied positive
    d - the same over vacated negative d).  The library's earlier form,
    the reference for ``Bilinear.numerators``."""
    w = op.weight
    if op.k == 0:
        val = op.offset + w[0] * (len(state.above) - len(state.below))
        for i in range(1, len(w)):
            sums = sum(d ** i for d in state.above) - sum(d ** i for d in state.below)
            val = val + w[i] * Fraction(sums, 1 << i)
        return FockVector({state: val})
    out = {}
    for new, sign, d in boson_moves(op.k, state):
        f = w[-1]
        for c in w[-2::-1]:
            f = f * Fraction(d, 2) + c
        out[new] = f * sign
    return FockVector(out)


def commutator_by_vectors(a, b, expected, degree):
    """The (lam, [a, b]v - expected(v)) pairs, v = |lam>, over every
    basis vector up to degree whose delta is nonzero, summed as
    ``FockVector``s through ``op.apply``: the library's earlier form, the
    reference for ``operators.commutator_check``."""
    found = []
    for d in range(degree + 1):
        for lam in partitions_of(d):
            v = FockVector.from_partition(lam)
            lhs = a.apply(b.apply(v)) - b.apply(a.apply(v))
            rhs = FockVector.zero()
            for coeff, op in expected:
                if is_zero(coeff):
                    continue
                rhs = rhs + (op.apply(v) if op is not None else v).scale(coeff)
            delta = lhs - rhs
            if delta:
                found.append((lam, delta))
    return found


def disagree_by_vectors(pairs, max_degree):
    """The diagrams up to max_degree, as JSON, on which some pair
    ((c, op), (e, op')) differs, compared as ``FockVector``s through
    ``op.apply`` and ``scale``: the library's earlier form, the reference
    for ``suites._disagree``."""
    out = []
    for d in range(max_degree + 1):
        for lam in partitions_of(d):
            v = FockVector.from_partition(lam)
            if any(f.apply(v).scale(c) != g.apply(v).scale(e) for (c, f), (e, g) in pairs):
                out.append(lam.to_json())
    return out


def truncate(v, max_degree):
    """The components of v of degree at most max_degree."""
    return FockVector({s: c for s, c in v.terms() if s.degree <= max_degree})


def as_partition_dict(v):
    """A charge-0 vector as {partition: coefficient}."""
    return {s.to_partition(): c for s, c in v.terms()}


def image_rows_by_vectors(op: Operator, vectors: List[FockVector], n: int) -> List[List[Scalar]]:
    """The images op(v) as coefficient rows in the degree-n basis
    ``partitions_of(n)``.  This and the three below are the library's
    earlier ``repstructure`` forms, through ``op.apply`` and
    ``FockVector``: the references for the integer rows."""
    index = basis_index(n)
    rows = []
    for vec in vectors:
        row: List[Scalar] = [Fraction(0)] * len(index)
        for state, coeff in op.apply(vec).terms():
            row[index[state]] = coeff
        rows.append(row)
    return rows


def matrix_of_by_vectors(op: Operator, n: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """Exact matrix of the operator restricted to degree n: one row per
    partition of the target degree, one column per ``partitions_of(n)``."""
    target = n + op.degree_shift
    if target < 0:
        return ()
    basis = [FockVector.basis(st) for st in basis_index(n)]
    return tuple(zip(*image_rows_by_vectors(op, basis, target)))


def kernel_basis_by_vectors(op: Operator, n: int) -> List[FockVector]:
    """Exact kernel of the graded matrix at degree n, as vectors."""
    states = basis_index(n)
    return [FockVector(zip(states, vec))
            for vec in dense_nullspace(matrix_of_by_vectors(op, n), len(states))]


def highest_weight_check_by_vectors(n: int, z: Scalar, w: Scalar) -> Tuple[List[FockVector], bool, bool]:
    """Kernel vectors of the removal operator at degree n; whether it
    kills every one (applied once per vector); and whether every one
    carries the diagonal eigenvalue z*w + 2n."""
    p = KerovParams(z=z, w=w)
    d_op, l_op = kerov_d(p), kerov_l(p)
    kernel = kernel_basis_by_vectors(d_op, n)
    killed = all(d_op.apply(vec).is_zero() for vec in kernel)
    eigen = all(l_op.apply(vec) == vec.scale(z * w + 2 * n) for vec in kernel)
    return kernel, killed, eigen


def prop52_verdicts_by_vectors(p, k, max_degree):
    """Per (x, state): whether the verified, printed and index-corrected
    forms of [psi_x, L_(-k)] fail there, compared as ``FockVector``s
    through ``fock.psi`` and ``op.apply``: the library's earlier bracket
    loop, the reference for ``suites._prop52_verdicts``."""
    xs = [HalfInt(d) for d in range(-7, 8, 2)]
    states = charged_states(max_degree)
    l_raise, a_lower, a_raise = virasoro_op(-k, p), boson_op(k), boson_op(-k)
    out = []
    for x in xs:
        coeff = -(p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2))
        zk = p.alpha - p.gamma * k
        raw_coeff = zk + x.as_fraction() + Fraction(k, 2) - 1
        for state in states:
            v = FockVector.basis(state)
            shifted = psi(x, v)
            lhs = psi(x, l_raise.apply(v)) - l_raise.apply(shifted)
            bad = lhs != psi(x + k, v).scale(coeff)
            # printed form: a_k psi_x + (z + x + k/2 - 1) psi_(x+k)
            raw_bad = lhs != a_lower.apply(shifted) + psi(x + k, v).scale(raw_coeff)
            corrected_bad = lhs != a_raise.apply(shifted) + psi(x + k, v).scale(raw_coeff)
            out.append(((x, state), (bad, raw_bad, corrected_bad)))
    return out


def prop62_verdicts_by_vectors(p, k, max_degree):
    """Per (x, state): whether the order-2 bracket fails there, and
    whether the printed order-3 shape does (None where psi_x kills the
    state), as ``FockVector``s: the reference for
    ``suites._prop62_verdicts``."""
    xs = [HalfInt(d) for d in range(-5, 6, 2)]
    states = charged_states(max_degree)
    zk = p.alpha - p.gamma * k
    m1, m2, m3 = (m_virasoro_op(order, -k, p) for order in (1, 2, 3))
    out = []
    for x in xs:
        cx = -(p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2))
        raw_coeff = (zk + x.as_fraction() + Fraction(k, 2) - 1) ** 2
        for state in states:
            v = FockVector.basis(state)
            shifted = psi(x, v)
            lhs = psi(x, m2.apply(v)) - m2.apply(shifted)
            bad = lhs != psi(x + k, v).scale(cx)
            probe = None
            if shifted:
                lhs = psi(x, m3.apply(v)) - m3.apply(shifted)
                rhs = (m2.apply(shifted) + m1.apply(shifted)
                       + psi(x + k, v).scale(raw_coeff))
                probe = lhs != rhs
            out.append(((x, state), (bad, probe)))
    return out


def charged_states(max_degree, charges=(-1, 0, 1)):
    return [MayaState.from_partition(lam, charge=c)
            for c in charges for d in range(max_degree + 1) for lam in partitions_of(d)]


def exp_by_powers(terms, v, max_degree):
    """sum_m (1/m!) A**m v, A = sum_i c_i op_i, one power at a time
    through ``op.apply`` and ``truncate``, over any scalar ring.  Every
    operator must raise degree, so the sum stops."""
    result = power = truncate(v, max_degree)
    m = 0
    while power:
        m += 1
        step = FockVector.zero()
        for c, op in terms:
            step = step + op.apply(power).scale(c)
        power = truncate(step, max_degree).scale(Fraction(1, m))
        result = result + power
    return result


def exp_lowering_bra(terms, lam, max_degree=None):
    """<vac| exp(sum_i c_i * op_i) |lam> over lowering (c_i, op_i) pairs:
    the lam-coefficient of the raising exponential of the adjoints, cut at
    ``max_degree`` (default ``lam.size``)."""
    degree = lam.size if max_degree is None else max_degree
    ket = exp_raising([(c, op.adjoint()) for c, op in terms], vacuum(), degree)
    return ket.coefficient_of_partition(lam)


def sparse_rows(matrix):
    """Dense rows as the ``{column: entry}`` rows that ``rings`` eliminates."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


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


def boson_moves_by_remove_insert(k: int, state: MayaState) -> Tuple[Tuple[MayaState, int, int], ...]:
    """Every particle jump x -> x - k out of one basis state, as
    (state, sign, d) triples with d = 2x the doubled start: the single
    enumeration behind every fermion bilinear, the mode-k boson being the
    sum of the signs.

    Candidates outside the deviation window act trivially.
    """
    if k == 0:
        raise ValueError("use the zero-mode action for k = 0")
    candidates = set(state.above)
    candidates.update(b + 2 * k for b in state.below)
    if k < 0:
        candidates.update(range(-1, 2 * k, -2))  # sea positions within reach of 0
    out = []
    for d in sorted(candidates, reverse=True):
        if d % 2 == 0:
            continue
        if not state._occupied_d(d) or state._occupied_d(d - 2 * k):
            continue
        s1, mid = state.remove(HalfInt(d))
        s2, new = mid.insert(HalfInt(d - 2 * k))
        out.append((new, s1 * s2, d))
    return tuple(out)


def is_cleared_numerator(n, poly_ring: bool) -> bool:
    """Whether n is a numerator of the cleared per-state protocol: an int,
    or, under ``Poly`` parameters, also a ``Poly`` with int coefficients."""
    return type(n) is int or (poly_ring and type(n) is Poly
                              and all(type(c) is int for c in n.coeffs))


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


def z_measure_weight(lam: Partition, z: Scalar, w: Scalar, xi: Scalar) -> Scalar:
    """The z-measure weight xi**|lam| (z)_lam (w)_lam / H(lam)**2 (Borodin &
    Olshanski): (z)_lam is the product of z + content over the boxes of lam
    and H(lam) the product of their hook lengths."""
    cols = transpose(lam)
    zs: Scalar = Fraction(1)
    ws: Scalar = Fraction(1)
    hooks = 1
    for i in range(1, len(lam) + 1):
        for j in range(1, lam.part(i) + 1):
            zs, ws = zs * (z + (j - i)), ws * (w + (j - i))
            hooks *= (lam.part(i) - j) + (cols.part(j) - i) + 1
    return zs * ws * xi ** lam.size / (hooks * hooks)


def z_measure_normalizer(z: Scalar, w: Scalar, xi: Scalar, degree: int) -> Scalar:
    """sum_(n <= degree) (zw)_n xi**n / n!, with (zw)_n the rising factorial
    of z*w: the truncation of (1 - xi)**(-zw)."""
    total: Scalar = Fraction(0)
    term: Scalar = Fraction(1)
    for n in range(degree + 1):
        total = total + term
        term = term * (z * w + n) * xi / (n + 1)
    return total


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


# -- the dense Bareiss elimination ------------------------------------------
#
# The package's elimination before it kept its rows sparse, unchanged: the
# reference for rings.echelon and rings.nullspace, which must give the same
# rows, pivots, factor and kernel vectors.

def dense_echelon(matrix: Sequence[Sequence[Scalar]]) -> Tuple[List[list], List[int], Fraction]:
    """Row echelon form by Bareiss elimination.

    Rows of ints and Fractions are first cleared to integers by the lcm of
    their denominators, so the elimination runs in int arithmetic; Poly rows
    stay as they are.  Pivots are taken column by column from the first
    nonzero row.  Every division in the update is exact, so the entries stay
    in the ring, and after k pivots each entry is a k+1 minor of the scaled
    matrix.  Returns (rows, pivot columns, factor): det of the original
    square matrix is the last pivot times ``factor``, which undoes the row
    scalings and the sign of the row swaps.
    """
    rows: List[list] = []
    factor = Fraction(1)
    for row in matrix:
        if all(isinstance(v, (int, Fraction)) for v in row):
            scale = math.lcm(*(Fraction(v).denominator for v in row))
            rows.append([int(v * scale) for v in row])
            factor /= scale
        else:
            rows.append(list(row))
    n_cols = len(rows[0]) if rows else 0
    pivots: List[int] = []
    prev: Scalar = 1
    for col in range(n_cols):
        top = len(pivots)
        pivot_row = next((r for r in range(top, len(rows)) if not is_zero(rows[r][col])), None)
        if pivot_row is None:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            factor = -factor
        head = rows[top]
        pivot = head[col]
        for row in rows[top + 1:]:
            lead = row[col]
            for c in range(col + 1, n_cols):
                row[c] = divexact(row[c] * pivot - lead * head[c], prev)
            row[col] = 0
        prev = pivot
        pivots.append(col)
    return rows, pivots, factor


def dense_nullspace(matrix: Sequence[Sequence[Scalar]], n_cols: int) -> List[List[Fraction]]:
    """Kernel basis over the rationals, by back-substitution in the echelon
    form: one vector per free column in column order, 1 at that column and
    0 at the other free columns."""
    if any(len(row) != n_cols for row in matrix):
        raise ValueError("ragged matrix")
    if any(isinstance(v, Poly) for row in matrix for v in row):
        raise ValueError("nullspace is computed over Q; the matrix has Poly entries")
    rows, pivots, _ = dense_echelon(matrix)
    bottom_up = list(zip(rows, pivots))[::-1]
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for row, p in bottom_up:
            vec[p] = -sum(row[c] * vec[c] for c in range(p + 1, n_cols)) / Fraction(row[p])
        basis.append(vec)
    return basis


# -- the M-fold tuple enumeration, recursively -------------------------------

def recursive_descending_tuples(length: int, total: int, bound: int, pos_budget: int, cap: int):
    """Descending integer tuples in [-bound, cap] summing to total, with
    the positive entries summing to at most pos_budget."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in range(min(cap, bound), -bound - 1, -1):
        rest = total - head
        # remaining entries are each <= head and >= -bound
        if rest > head * (length - 1) or rest < -bound * (length - 1):
            continue
        budget = pos_budget - max(head, 0)
        if budget < 0:
            continue
        for tail in recursive_descending_tuples(length - 1, rest, bound, budget, head):
            yield (head,) + tail


def m_virasoro_state_by_tuples(order: int, k: int, alpha: Scalar, gamma: Scalar,
                               state: MayaState):
    """The M-fold mode on one basis state, as (state, coefficient) pairs,
    summed tuple by tuple at the given alpha and gamma: the library's
    earlier form, the reference for ``MVirasoro.numerators``."""
    d = state.degree
    a0 = alpha + state.charge
    acc: Dict[MayaState, Scalar] = {}
    if k != 0:
        for s1, sign, _ in boson_moves(k, state):
            acc[s1] = gamma * k * sign
    elif order == 2:
        # zero-mode constant shared with virasoro_op(0) so M = 2 matches exactly
        acc[state] = -(gamma * gamma) * Fraction(1, 2)
    bound = d + abs(k)
    for tup in _descending_tuples(order, k, bound, d, bound):
        weight = Fraction(1)
        run = 1
        for i in range(1, len(tup) + 1):
            if i < len(tup) and tup[i] == tup[i - 1]:
                run += 1
            else:
                weight /= math.factorial(run)
                run = 1
        coeff: Scalar = weight
        for _ in range(sum(1 for t in tup if t == 0)):
            coeff = coeff * a0
        indices = [t for t in tup if t != 0]
        # descending order puts annihilators (positive indices) first
        current: Dict[MayaState, int] = {state: 1}
        dead = False
        for idx in indices:
            nxt: Dict[MayaState, int] = {}
            for s, sgn in current.items():
                for s2, sgn2, _ in boson_moves(idx, s):
                    nxt[s2] = nxt.get(s2, 0) + sgn * sgn2
            current = {s: g for s, g in nxt.items() if g}
            if not current:
                dead = True
                break
        if dead:
            continue
        for s, g in current.items():
            acc[s] = acc.get(s, 0) + coeff * g
    return tuple((s, c) for s, c in acc.items() if c)


# -- conversion by sums over jump compositions -------------------------------

@dataclass(frozen=True)
class JumpComposition:
    """Ordered rightward jumps of one particle, with its starting point."""

    jumps: Tuple[int, ...]
    start: HalfInt = HalfInt(-1)

    def __post_init__(self):
        if any(j < 1 for j in self.jumps):
            raise ValueError("jumps must be positive")

    @property
    def total(self) -> int:
        return sum(self.jumps)


def path_polynomial(c: JumpComposition, z):
    """Product over jumps of (z + previous position + jump/2); the empty
    composition gives 1."""
    pos = c.start.as_fraction()
    out = Fraction(1)
    for j in c.jumps:
        out = out * (z + pos + Fraction(j, 2))
        pos += j
    return out


@lru_cache(maxsize=None)
def compositions_of(n: int):
    """All ordered tuples of positive integers summing to n."""
    if n < 0:
        raise ValueError("negative total")
    if n == 0:
        return ((),)
    return tuple((head,) + tail for head in range(1, n + 1) for tail in compositions_of(n - head))


def _live_compositions(n, x):
    """Compositions of n whose every part k has x_k nonzero, each with
    (prod x_k) / R! for R parts."""
    for jumps in compositions_of(n):
        if all(not is_zero(x.get(j, 0)) for j in jumps):
            coeff = Fraction(1, math.factorial(len(jumps)))
            for j in jumps:
                coeff = coeff * x[j]
            yield jumps, coeff


def vir_row(n, x, z):
    """Single-row coefficient at degree n: sum over live compositions of
    (prod x_k) * path_polynomial / R!; Fraction(0) when none is live."""
    total = Fraction(0)
    for jumps, coeff in _live_compositions(n, x):
        total = total + coeff * path_polynomial(JumpComposition(jumps), z)
    return total


def schur_params_by_substitution(x, z, n_max):
    """X_1..X_n by forward substitution: X_n = v_n - s_n(X_1..X_(n-1), 0),
    one series_exp per level."""
    xs = []
    for n in range(1, n_max + 1):
        a = [Fraction(0)] + xs + [Fraction(0)]
        xs.append(vir_row(n, x, z) - series_exp(a, n)[n])
    return xs


def a_coeff_by_compositions(n, x):
    """sum over live compositions of (prod x_k) k_2 (k_2+k_3) ... / R!."""
    total = Fraction(0)
    for jumps, coeff in _live_compositions(n, x):
        partial, weight = 0, 1
        for j in jumps[1:]:
            partial += j
            weight *= partial
        total = total + coeff * weight
    return total


def b_coeff_by_compositions(n, x):
    """sum over compositions of n into R pieces of (-1)^(R-1)/R prod v_l,
    with v_l the single-row values at z = 0."""
    v = {l: vir_row(l, x, Fraction(0)) for l in range(1, n + 1)}
    total = Fraction(0)
    for pieces in compositions_of(n):
        term = Fraction(-1 if (len(pieces) - 1) % 2 else 1, len(pieces))
        for l in pieces:
            term = term * v[l]
        total = total + term
    return total


def series_mul(a, b, order):
    """Truncated product of two series given as coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order - i + 1]):
            out[i + j] = out[i + j] + ai * bj
    return out


# -- the all-Fraction polynomial arithmetic ----------------------------------
#
# ``Poly``'s earlier form, on plain coefficient tuples, lowest degree first:
# every coefficient a Fraction, trailing zeros stripped.

def fraction_coeffs(coeffs) -> Tuple[Fraction, ...]:
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_poly_add(a, b) -> Tuple[Fraction, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return fraction_coeffs(out)


def fraction_poly_mul(a, b) -> Tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return fraction_coeffs(out)


def fraction_poly_divmod(num, den) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """(quotient, remainder) by long division; den must be nonzero."""
    r, d = list(num), den
    dd = len(d) - 1
    if len(r) <= dd:
        return (), fraction_coeffs(r)
    q = [Fraction(0)] * (len(r) - dd)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i] / d[-1]
        q[i - dd] = c
        for j in range(dd + 1):
            r[i - dd + j] -= c * d[j]
    return fraction_coeffs(q), fraction_coeffs(r)


def fraction_poly_eval(a, value: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * value + c
    return out
