"""Exact linear-algebra diagnostics of the ladder-operator representation.

One matrix assembly, :func:`image_rows`: the images of some vectors as
coefficient rows over the reverse-lex basis ``partitions_of(n)``, each
image state read off by its Maya state.  :func:`matrix_of` is its
transpose over the basis vectors of one degree.  Ranks and kernels go
through the one fraction-free elimination, :func:`rings.echelon`.
:func:`highest_weight_check` returns the kernel of the removal matrix at
one degree, whether the operator kills every kernel vector (applied once
per vector) and whether each carries the highest weight z*w + 2N; the
four-case decomposition report reads that triple, with rank p(N) - dim
ker, so it builds and eliminates the removal matrix once per degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .fock import FockVector, basis_index
from .operators import KerovParams, Operator, kerov_d, kerov_l, kerov_u
from .partitions import Partition, partitions_of
from .rings import Scalar, echelon, is_zero, nullspace, scalar_to_json


def image_rows(op: Operator, vectors: List[FockVector], n: int) -> List[List[Scalar]]:
    """The images op(v) as coefficient rows in the degree-n basis
    ``partitions_of(n)``."""
    index = basis_index(n)
    rows = []
    for vec in vectors:
        row: List[Scalar] = [Fraction(0)] * len(index)
        for state, coeff in op.apply(vec).terms():
            row[index[state]] = coeff
        rows.append(row)
    return rows


def matrix_of(op: Operator, n: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """Exact matrix of the operator restricted to degree n: one row per
    partition of the target degree, one column per ``partitions_of(n)``."""
    target = n + op.degree_shift
    if target < 0:
        return ()
    basis = [FockVector.basis(st) for st in basis_index(n)]
    return tuple(zip(*image_rows(op, basis, target)))


# ---------------------------------------------------------------------------
# named diagnostics
# ---------------------------------------------------------------------------

def rank_of_D(n: int, w: Scalar) -> int:
    """Exact rank of the box-removal operator on degree n."""
    op = kerov_d(KerovParams(z=Fraction(0), w=w))
    return len(echelon(matrix_of(op, n))[1])


def kernel_basis(op: Operator, n: int) -> List[FockVector]:
    """Exact kernel of the graded matrix at degree n, as vectors."""
    states = basis_index(n)
    return [FockVector(zip(states, vec)) for vec in nullspace(matrix_of(op, n), len(states))]


def highest_weight_check(n: int, z: Scalar, w: Scalar) -> Tuple[List[FockVector], bool, bool]:
    """Kernel vectors of the removal operator at degree n; whether it
    kills every one (applied once per vector); and whether every one
    carries the diagonal eigenvalue z*w + 2n."""
    p = KerovParams(z=z, w=w)
    d_op, l_op = kerov_d(p), kerov_l(p)
    kernel = kernel_basis(d_op, n)
    killed = all(d_op.apply(vec).is_zero() for vec in kernel)
    eigen = all(l_op.apply(vec) == vec.scale(z * w + 2 * n) for vec in kernel)
    return kernel, killed, eigen


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
        kernel, killed, eigen = highest_weight_check(n, z, w)
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
