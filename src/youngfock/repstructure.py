"""Exact linear-algebra diagnostics of the ladder-operator representation,
on integer rows.

An operator's matrix at degree n is assembled once from
``op.numerators``: sparse rows {column: numerator}, columns the
reverse-lex ``partitions_of(n)``, each image state read off by its Maya
state.  That is ``op.den`` times the matrix, with ``int`` entries
(``Poly`` under a ``Poly`` parameter).  A nonzero row scale changes
neither rank nor kernel, so ranks, kernels and the u-image rank
eliminate these rows directly (:func:`rings.rank`, :func:`rings.kernel`);
kernel vectors are primitive integer vectors {state: int}, one per free
column.  D*v and the u-image rows are each one :func:`operators.image`
of a kernel vector, and L is diagonal, so L*v = (z*w + 2N)v holds when
each support state's numerator is (z*w + 2N)*den.  A ``FockVector`` is
built only for the generator relations of :func:`decomposition_report`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .fock import FockVector, MayaState, basis_index
from .operators import KerovParams, Operator, clear, image, kerov_d, kerov_l, kerov_u
from .partitions import Partition, partitions_of
from .rings import Scalar, is_zero, kernel, rank, scalar_to_json

Vector = Dict[MayaState, Scalar]  # basis state -> integer (or Poly) entry


def image_rows(op: Operator, vectors: List[Vector], n: int) -> List[Dict[int, Scalar]]:
    """The images den * op(v) as sparse rows {column: numerator} over the
    degree-n basis ``partitions_of(n)``."""
    index, cleared = basis_index(n), clear([(1, op, None)])[1]
    return [{index[st]: c for st, c in image(cleared, vec).items()} for vec in vectors]


def _rows(op: Operator, n: int) -> List[Dict[int, Scalar]]:
    """den times the matrix of op at degree n: one sparse row per
    partition of the target degree, one column per ``partitions_of(n)``."""
    target = n + op.degree_shift
    if target < 0:
        return []
    index = basis_index(target)
    rows: List[Dict[int, Scalar]] = [{} for _ in index]
    for col, st in enumerate(basis_index(n)):
        for new, num in op.numerators(st):
            if num:
                rows[index[new]][col] = num
    return rows


# ---------------------------------------------------------------------------
# named diagnostics
# ---------------------------------------------------------------------------

def rank_of_D(n: int, w: Scalar) -> int:
    """Exact rank of the box-removal operator on degree n."""
    return rank(_rows(kerov_d(KerovParams(z=Fraction(0), w=w)), n))


def kernel_basis(op: Operator, n: int) -> List[Vector]:
    """Exact kernel of the operator at degree n: one primitive integer
    vector over states per free column of its integer rows."""
    states = list(basis_index(n))
    return [{states[c]: v for c, v in vec.items()}
            for vec in kernel(_rows(op, n), len(states))]


def highest_weight_check(n: int, z: Scalar, w: Scalar) -> Tuple[List[Vector], bool, bool]:
    """Kernel vectors of the removal operator at degree n; whether it
    kills every one; and whether every one carries the diagonal
    eigenvalue z*w + 2n."""
    p = KerovParams(z=z, w=w)
    d_op, l_op = kerov_d(p), kerov_l(p)
    vectors = kernel_basis(d_op, n)
    d_terms = clear([(1, d_op, None)])[1]
    killed = not any(image(d_terms, vec) for vec in vectors)
    weight = (z * w + 2 * n) * l_op.den
    eigen = all(num == weight for vec in vectors for st in vec
                for _, num in l_op.numerators(st))
    return vectors, killed, eigen


class DecompositionReport:
    """Case classification plus per-degree kernel/rank/weight data."""

    def __init__(self, case: str, z: Scalar, w: Scalar, relations: List[dict],
                 per_degree: List[dict], notes: List[str]):
        self.case, self.z, self.w = case, z, w
        self.relations, self.per_degree, self.notes = relations, per_degree, notes

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
        vectors, killed, eigen = highest_weight_check(n, z, w)
        ker_dim = len(vectors)
        # raising the kernel stays independent (first Verma level is free)
        u_rank = rank(image_rows(u_op, vectors, n + 1))
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
