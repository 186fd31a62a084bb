"""Exact linear-algebra diagnostics of the ladder-operator representation.

Graded matrices in the deterministic reverse-lex bases, fraction-free
ranks, kernels, highest-weight vectors, and the four-case decomposition
report over the (z, w) parameter plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .fock import FockVector
from .operators import KerovParams, Operator, kerov_d, kerov_l, kerov_u
from .partitions import Partition, partitions_of
from .rings import Scalar, divexact, is_zero, scalar_to_json


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of a graded operator from degree N to its target degree."""

    rows: Tuple[Partition, ...]
    cols: Tuple[Partition, ...]
    entries: Tuple[Tuple[Scalar, ...], ...]


def matrix_of(op: Operator, n: int) -> GradedMatrix:
    """Exact matrix of the operator restricted to degree n."""
    shift = op.degree_shift
    cols = partitions_of(n)
    target = n + shift
    rows = partitions_of(target) if target >= 0 else ()
    index = {lam: i for i, lam in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    trunc = n + abs(shift)
    for j, lam in enumerate(cols):
        image = op.apply(FockVector.from_partition(lam), trunc)
        for state, coeff in image.terms():
            entries[index[state.to_partition()]][j] = coeff
    return GradedMatrix(rows=tuple(rows), cols=tuple(cols),
                        entries=tuple(tuple(r) for r in entries))


# ---------------------------------------------------------------------------
# fraction-free elimination
# ---------------------------------------------------------------------------

def bareiss_rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Rank by fraction-free Gaussian elimination; every division in the
    update is exact in the entry ring, so this works over the
    polynomials as well as the rationals."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    prev: Scalar = Fraction(1)
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n_rows):
            if not is_zero(m[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for r in range(row + 1, n_rows):
            for c in range(col + 1, n_cols):
                m[r][c] = divexact(m[r][c] * pivot - m[r][col] * m[row][c], prev)
            m[r][col] = Fraction(0)
        prev = pivot
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def rref_nullspace(matrix: Sequence[Sequence[Scalar]], n_cols: int) -> List[List[Scalar]]:
    """Kernel basis over the rationals via reduced row echelon form.

    One basis vector per free column, in column order; deterministic.
    """
    m = [[Fraction(v) for v in row] for row in matrix]
    for row in m:
        if len(row) != n_cols:
            raise ValueError("ragged matrix")
    pivots: List[int] = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -m[r][f]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# named diagnostics
# ---------------------------------------------------------------------------

def rank_of_D(n: int, w: Scalar) -> int:
    """Exact rank of the box-removal operator on degree n."""
    op = kerov_d(KerovParams(z=Fraction(0), w=w))
    return bareiss_rank(matrix_of(op, n).entries)


def kernel_basis(op: Operator, n: int) -> List[FockVector]:
    """Exact kernel of the graded matrix at degree n, as vectors."""
    gm = matrix_of(op, n)
    vectors = rref_nullspace(gm.entries, len(gm.cols))
    out = []
    for vec in vectors:
        out.append(FockVector.from_partition_terms(
            {lam: c for lam, c in zip(gm.cols, vec) if c != 0}
        ))
    return out


def highest_weight_check(n: int, z: Scalar, w: Scalar) -> Tuple[List[FockVector], bool]:
    """Kernel vectors of the removal operator at degree n, and whether
    every one is killed by it and carries the diagonal eigenvalue
    z*w + 2n."""
    p = KerovParams(z=z, w=w)
    d_op, l_op = kerov_d(p), kerov_l(p)
    expected = z * w + 2 * n
    kernel = kernel_basis(d_op, n)
    ok = all(not d_op.apply(vec) and l_op.apply(vec) == vec.scale(expected)
             for vec in kernel)
    return kernel, ok


@dataclass
class DecompositionReport:
    """Case classification plus per-degree kernel/rank/weight data."""

    case: str
    z: Scalar
    w: Scalar
    relations: List[dict]
    per_degree: List[dict]
    notes: List[str]

    def to_json(self):
        return {
            "case": self.case,
            "z": scalar_to_json(self.z),
            "w": scalar_to_json(self.w),
            "relations": self.relations,
            "per_degree": self.per_degree,
            "notes": self.notes,
        }


def _case_tag(z: Scalar, w: Scalar) -> str:
    if is_zero(z) and is_zero(w):
        return "both-zero"
    if is_zero(z):
        return "z-zero"
    if is_zero(w):
        return "w-zero"
    return "both-nonzero"


def decomposition_report(z: Scalar, w: Scalar, n_max: int) -> DecompositionReport:
    """Verify the generator relations among the vacuum and the one-box
    diagram for the (z, w) case at hand, and aggregate exact rank /
    kernel / highest-weight data degree by degree."""
    p = KerovParams(z=z, w=w)
    case = _case_tag(z, w)
    vac = FockVector.from_partition(Partition())
    box = FockVector.from_partition(Partition((1,)))

    u_op, d_op = kerov_u(p), kerov_d(p)
    u_vac = u_op.apply(vac)
    d_box = d_op.apply(box)
    d_vac = d_op.apply(vac)

    relations = [
        {"relation": "U|vac> = z |box>", "holds": u_vac == box.scale(z),
         "zero": u_vac.is_zero()},
        {"relation": "D|box> = w |vac>", "holds": d_box == vac.scale(w),
         "zero": d_box.is_zero()},
        {"relation": "D|vac> = 0", "holds": d_vac.is_zero(), "zero": True},
    ]

    notes = []
    if case == "z-zero":
        notes.append(
            "the one-box diagram lowers to w times the vacuum; the stated "
            "relation normalizes that scalar to 1"
        )
    if case == "w-zero":
        notes.append(
            "the vacuum raises to z times the one-box diagram; the stated "
            "relation normalizes that scalar to 1"
        )
    if case == "both-zero":
        notes.append("the vacuum spans a one-dimensional invariant line")
    notes.append(
        "verma multiplicity at degree N is dim ker = p(N) - rank, the "
        "rank-nullity reading of the degree-N count"
    )

    per_degree = []
    for n in range(n_max + 1):
        p_n = len(partitions_of(n))
        rank = rank_of_D(n, w)
        kernel, hw_ok = highest_weight_check(n, z, w)
        ker_dim = len(kernel)
        # raising the kernel stays independent (first Verma level is free)
        u_images = [u_op.apply(vec) for vec in kernel]
        if u_images:
            basis = partitions_of(n + 1)
            index = {lam: i for i, lam in enumerate(basis)}
            rows = []
            for img in u_images:
                row = [Fraction(0)] * len(basis)
                for state, coeff in img.terms():
                    row[index[state.to_partition()]] = coeff
                rows.append(row)
            free_image = bareiss_rank(rows) == len(u_images)
        else:
            free_image = True
        per_degree.append({
            "degree": n,
            "dimension": p_n,
            "rank_D": rank,
            "kernel_dim": ker_dim,
            "rank_nullity_ok": rank + ker_dim == p_n,
            "hw_eigenvalue": scalar_to_json(z * w + 2 * n),
            "hw_ok": hw_ok,
            "verma_multiplicity": ker_dim if n >= 2 else None,
            "u_image_independent": free_image,
        })

    return DecompositionReport(case=case, z=z, w=w, relations=relations,
                               per_degree=per_degree, notes=notes)
