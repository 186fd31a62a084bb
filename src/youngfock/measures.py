"""Weights of Schur / Virasoro / M-Virasoro measures and brute-force
correlation functions of the induced point process.

Every table is built one way, by :func:`weight_table`: the weight of lam
is <lam|exp(sum x_k M_-k)|vac> <vac|exp(sum y_k M_k)|lam>, one
:func:`~youngfock.operators.exp_raising` per side, with M_k the M-fold
mode at (M, gamma): (1, 0) gives the boson mode a_k of a Schur measure
(Okounkov's vertex-operator form), (2, 0) the oscillator mode L_k of a
Virasoro measure, and the m-virasoro kind takes both from its spec.
:func:`schur_polynomial` (Jacobi-Trudi) is the per-diagram route and the
oracle of the Schur table; over many diagrams, :func:`_jacobi_trudi`
reads one complete-homogeneous series.

Measure parameters are Miwa coordinates: ``x`` with generating function
exp(sum_k x_k t**k) for the complete-homogeneous sequence.  Weights are
ring elements, not probabilities; nothing here enforces positivity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .fock import MayaState, vacuum
from .operators import (
    KerovParams,
    Operator,
    VirasoroParams,
    exp_raising,
    m_virasoro_op,
)
from .partitions import HalfInt, Partition, partitions_up_to
from .rings import Scalar, det, divexact, is_zero, scalar_to_json, series_exp


class MiwaParams:
    """Finite maps k -> coefficient for the two parameter sets."""

    def __init__(self, x: Optional[Mapping[int, Scalar]] = None,
                 y: Optional[Mapping[int, Scalar]] = None):
        self.x = {int(k): v for k, v in (x or {}).items() if not is_zero(v)}
        self.y = {int(k): v for k, v in (y or {}).items() if not is_zero(v)}
        for k in list(self.x) + list(self.y):
            if k < 1:
                raise ValueError(f"Miwa index {k} must be >= 1")


# Every kind is the M-fold family at some (M, gamma): kind -> the (M, gamma)
# it fixes, or None where the spec gives them, and the settings among
# z, w, gamma and m that its table reads.  At (1, 0) the mode is the boson
# a_k, which reads no point; at (2, 0) it is the oscillator mode L_k, the
# parametrization in which the per-jump factor is uniformly
# z + position + k/2 across all mode lengths.
KINDS: Dict[str, Tuple[Optional[Tuple[int, Scalar]], Tuple[str, ...]]] = {
    "schur": ((1, Fraction(0)), ()),
    "virasoro": ((2, Fraction(0)), ("z", "w")),
    "m-virasoro": (None, ("z", "w", "gamma", "m")),
}


class MeasureSpec:
    """What to tabulate: the measure kind (a key of KINDS), its
    parameters, and the degree bound of the table.  ``m_order`` and
    ``gamma`` are the m-virasoro kind's M and gamma (default 2 and 0)."""

    def __init__(self, kind: str, params: MiwaParams, kerov: KerovParams = KerovParams(),
                 truncation: int = 0, m_order: Optional[int] = None, gamma: Optional[Scalar] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown measure kind {kind!r}")
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        if KINDS[kind][0] is None:
            m_order = 2 if m_order is None else m_order
            gamma = Fraction(0) if gamma is None else gamma
        elif m_order is not None or gamma is not None:
            raise ValueError(f"kind {kind!r} fixes (M, gamma); leave m_order and gamma unset")
        self.kind, self.params, self.kerov = kind, params, kerov
        self.truncation, self.m_order, self.gamma = truncation, m_order, gamma


class WeightTable:
    """Unnormalized weights of every diagram up to the degree bound."""

    def __init__(self, kind: str, degree: int, weights: Dict[Partition, Scalar], z_trunc: Scalar):
        self.kind, self.degree, self.weights, self.z_trunc = kind, degree, weights, z_trunc

    def normalized(self, lam: Partition) -> Scalar:
        return divexact(self.weights[lam], self.z_trunc)

    def partitions(self) -> List[Partition]:
        return partitions_up_to(self.degree)

    def to_json(self):
        rows = []
        for lam in self.partitions():
            w = self.weights[lam]
            rows.append({"partition": lam.to_json(), "weight": scalar_to_json(w),
                         "normalized": quotient_json(w, self.z_trunc)})
        return {"kind": self.kind, "degree": self.degree,
                "z_trunc": scalar_to_json(self.z_trunc), "weights": rows}

    def to_csv_rows(self) -> List[List[str]]:
        out = [["partition", "weight", "normalized"]]
        for row in self.to_json()["weights"]:
            norm = row["normalized"]
            out.append([
                str(row["partition"]),
                _flat(row["weight"]),
                _flat(norm) if norm is not None else "",
            ])
        return out


def quotient_json(a: Scalar, b: Scalar) -> Optional[object]:
    """a / b as JSON, or None where the quotient is undefined: b is zero,
    or b does not divide a in the polynomial ring."""
    try:
        return scalar_to_json(divexact(a, b))
    except (ValueError, ZeroDivisionError):
        return None


def _flat(value) -> str:
    if isinstance(value, dict):
        return "poly:" + ";".join(value["poly"])
    return str(value)


# ---------------------------------------------------------------------------
# Schur side
# ---------------------------------------------------------------------------

def complete_homogeneous(x: Mapping[int, Scalar], order: int) -> List[Scalar]:
    """Coefficients s_0..s_order of exp(sum_k x_k t**k)."""
    a: List[Scalar] = [Fraction(0)] * (order + 1)
    for k, c in x.items():
        if k <= order:
            a[k] = c
    return series_exp(a, order)


def _jacobi_trudi(lam: Partition, h: Sequence[Scalar]) -> Scalar:
    """det[h_(lam_i - i + j)] over a complete-homogeneous sequence h that
    reaches index lam_1 + len(lam) - 1 (|lam| always suffices)."""
    n = len(lam)
    return det([[h[lam.part(i) - i + j] if lam.part(i) - i + j >= 0 else Fraction(0)
                 for j in range(1, n + 1)] for i in range(1, n + 1)])


def schur_polynomial(lam: Partition, x: Mapping[int, Scalar]) -> Scalar:
    """s_lam in Miwa coordinates: the Jacobi-Trudi determinant
    det[h_(lam_i - i + j)] over the complete-homogeneous sequence h."""
    return _jacobi_trudi(lam, complete_homogeneous(x, max(lam.part(1) + len(lam) - 1, 0)))


def schur_weight(lam: Partition, p: MiwaParams) -> Scalar:
    """Unnormalized product weight s_lam(x) * s_lam(y)."""
    return schur_polynomial(lam, p.x) * schur_polynomial(lam, p.y)


def cauchy_normalizer(p: MiwaParams, degree: int) -> Scalar:
    """Truncation of exp(sum_k k*x_k*y_k): the closed-form normalizer.

    Computed as a power series graded by diagram size, then summed, so it
    agrees exactly with the truncated weight sum of the Schur table.
    """
    a: List[Scalar] = [Fraction(0)] * (degree + 1)
    for k, cx in p.x.items():
        if k <= degree and k in p.y:
            a[k] = k * cx * p.y[k]
    coeffs = series_exp(a, degree)
    total: Scalar = Fraction(0)
    for c in coeffs:
        total = total + c
    return total


# ---------------------------------------------------------------------------
# table builders
# ---------------------------------------------------------------------------

def weight_table(spec: MeasureSpec) -> WeightTable:
    """Weights <lam|exp(sum x_k M_{-k})|vac> <vac|exp(sum y_k M_k)|lam>,
    with M_k the M-fold mode at the kind's (M, gamma) (see :data:`KINDS`):
    the ket side runs at alpha = z, the bra side at alpha = w through the
    adjoint action."""
    order, gamma = KINDS[spec.kind][0] or (spec.m_order, spec.gamma)

    def mode(alpha: Scalar, k: int) -> Operator:
        return m_virasoro_op(order, k, VirasoroParams(alpha, gamma))

    degree = spec.truncation
    ket = exp_raising([(c, mode(spec.kerov.z, -k)) for k, c in spec.params.x.items()],
                      vacuum(), degree)
    bra = exp_raising([(c, mode(spec.kerov.w, k).adjoint()) for k, c in spec.params.y.items()],
                      vacuum(), degree)
    weights: Dict[Partition, Scalar] = {}
    total: Scalar = Fraction(0)
    for lam in partitions_up_to(degree):
        w = ket.coefficient_of_partition(lam) * bra.coefficient_of_partition(lam)
        weights[lam] = w
        total = total + w
    return WeightTable(kind=spec.kind, degree=degree, weights=weights, z_trunc=total)


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

def occupied_weight(points: Iterable[HalfInt], table: WeightTable) -> Scalar:
    """Sum of the unnormalized weights of the diagrams in the table that
    occupy every listed position."""
    pts = list(points)
    total: Scalar = Fraction(0)
    for lam in table.partitions():
        state = MayaState.from_partition(lam)
        if all(state.occupied(x) for x in pts):
            total = total + table.weights[lam]
    return total


def correlation(points: Iterable[HalfInt], table: WeightTable) -> Scalar:
    """Probability that every listed position is occupied, within the
    truncated table: sum of normalized weights over matching diagrams."""
    return divexact(occupied_weight(points, table), table.z_trunc)
