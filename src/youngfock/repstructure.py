"""Exact linear-algebra diagnostics of the ladder-operator representation.

Graded matrices in the deterministic reverse-lex bases; ranks and kernels
through the one fraction-free elimination, :func:`rings.echelon`;
highest-weight vectors; and the four-case decomposition report over the
(z, w) parameter plane.  The report builds and eliminates the removal
matrix once per degree: its rank is p(N) - dim ker, and applying the
operator once to every kernel vector certifies that kernel; the
rank-nullity and highest-weight verdicts both read that one image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .fock import FockVector
from .operators import KerovParams, Operator, kerov_d, kerov_l, kerov_u
from .partitions import Partition, partitions_of
from .rings import Scalar, echelon, is_zero, nullspace, scalar_to_json


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of a graded operator from degree N to its target degree."""

    rows: Tuple[Partition, ...]
    cols: Tuple[Partition, ...]
    entries: Tuple[Tuple[Scalar, ...], ...]


def matrix_of(op: Operator, n: int) -> GradedMatrix:
    """Exact matrix of the operator restricted to degree n."""
    cols = partitions_of(n)
    target = n + op.degree_shift
    rows = partitions_of(target) if target >= 0 else ()
    index = {lam: i for i, lam in enumerate(rows)}
    entries = [[Fraction(0)] * len(cols) for _ in rows]
    for j, lam in enumerate(cols):
        image = op.apply(FockVector.from_partition(lam))
        for state, coeff in image.terms():
            entries[index[state.to_partition()]][j] = coeff
    return GradedMatrix(rows=tuple(rows), cols=tuple(cols),
                        entries=tuple(tuple(r) for r in entries))


# ---------------------------------------------------------------------------
# named diagnostics
# ---------------------------------------------------------------------------

def rank_of_D(n: int, w: Scalar) -> int:
    """Exact rank of the box-removal operator on degree n."""
    op = kerov_d(KerovParams(z=Fraction(0), w=w))
    return len(echelon(matrix_of(op, n).entries)[1])


def kernel_basis(op: Operator, n: int) -> List[FockVector]:
    """Exact kernel of the graded matrix at degree n, as vectors."""
    gm = matrix_of(op, n)
    vectors = nullspace(gm.entries, len(gm.cols))
    out = []
    for vec in vectors:
        out.append(FockVector.from_partition_terms(
            {lam: c for lam, c in zip(gm.cols, vec) if c != 0}
        ))
    return out


def _kernel_checks(n: int, p: KerovParams) -> Tuple[List[FockVector], bool, bool]:
    """Kernel vectors of the removal operator at degree n; whether D kills
    every one (D applied once per vector); and whether every one carries
    the diagonal eigenvalue z*w + 2n."""
    d_op, l_op = kerov_d(p), kerov_l(p)
    expected = p.z * p.w + 2 * n
    kernel = kernel_basis(d_op, n)
    killed = all(d_op.apply(vec).is_zero() for vec in kernel)
    eigen = all(l_op.apply(vec) == vec.scale(expected) for vec in kernel)
    return kernel, killed, eigen


def highest_weight_check(n: int, z: Scalar, w: Scalar) -> Tuple[List[FockVector], bool]:
    """Kernel vectors of the removal operator at degree n, and whether
    every one is killed by it and carries the diagonal eigenvalue
    z*w + 2n."""
    kernel, killed, eigen = _kernel_checks(n, KerovParams(z=z, w=w))
    return kernel, killed and eigen


def image_rows(op: Operator, vectors: List[FockVector], n: int) -> List[List[Scalar]]:
    """The images op(v) as coefficient rows in the degree-n basis."""
    index = {lam: i for i, lam in enumerate(partitions_of(n))}
    rows = []
    for vec in vectors:
        row: List[Scalar] = [Fraction(0)] * len(index)
        for state, coeff in op.apply(vec).terms():
            row[index[state.to_partition()]] = coeff
        rows.append(row)
    return rows


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
        kernel, killed, eigen = _kernel_checks(n, p)
        ker_dim = len(kernel)
        # raising the kernel stays independent (first Verma level is free)
        u_rank = len(echelon(image_rows(u_op, kernel, n + 1))[1])
        per_degree.append({
            "degree": n,
            "dimension": p_n,
            "rank_D": p_n - ker_dim,
            "kernel_dim": ker_dim,
            "rank_nullity_ok": killed,
            "hw_eigenvalue": scalar_to_json(z * w + 2 * n),
            "hw_ok": killed and eigen,
            "verma_multiplicity": ker_dim if n >= 2 else None,
            "u_image_independent": u_rank == ker_dim,
        })

    return DecompositionReport(case=case, z=z, w=w, relations=relations,
                               per_degree=per_degree, notes=notes)
