"""From operator-exponential weights back to Schur form.

Single-row coefficients of the raising exponential are sums of path
polynomials over jump compositions; triangular inversion of the
complete-homogeneous relation turns them into equivalent Schur
parameters X_N, which stay linear in z (and Y_N linear in w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Mapping, Tuple

from .partitions import HalfInt
from .rings import Poly, Scalar, is_zero, scalar_to_json, series_exp

DEFAULT_START = HalfInt(-1)


@dataclass(frozen=True)
class JumpComposition:
    """Ordered rightward jumps of one particle, with its starting point."""

    jumps: Tuple[int, ...]
    start: HalfInt = DEFAULT_START

    def __post_init__(self):
        if any(j < 1 for j in self.jumps):
            raise ValueError("jumps must be positive")

    @property
    def total(self) -> int:
        return sum(self.jumps)


@dataclass(frozen=True)
class LinearInZ:
    """An exact a*z + b decomposition."""

    a: Scalar
    b: Scalar

    def to_json(self):
        return {"A": scalar_to_json(self.a), "B": scalar_to_json(self.b)}


def path_polynomial(c: JumpComposition, z: Scalar) -> Scalar:
    """Product over jumps of (z + previous position + jump/2).

    The per-jump factor is the boxed single-jump weight of the raising
    modes; the empty composition gives 1.
    """
    pos = c.start.as_fraction()
    out: Scalar = Fraction(1)
    for j in c.jumps:
        out = out * (z + pos + Fraction(j, 2))
        pos += j
    return out


@lru_cache(maxsize=None)
def compositions_of(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All ordered tuples of positive integers summing to n."""
    if n < 0:
        raise ValueError("negative total")
    if n == 0:
        return ((),)
    out = []
    for head in range(1, n + 1):
        for tail in compositions_of(n - head):
            out.append((head,) + tail)
    return tuple(out)


def _live_compositions(n: int, x: Mapping[int, Scalar]) -> Iterator[Tuple[Tuple[int, ...], Scalar]]:
    """Compositions of n whose every part k has x_k nonzero, each with
    (prod x_k) / R! for R parts."""
    for jumps in compositions_of(n):
        if all(not is_zero(x.get(j, 0)) for j in jumps):
            coeff: Scalar = Fraction(1, math.factorial(len(jumps)))
            for j in jumps:
                coeff = coeff * x[j]
            yield jumps, coeff


def vir_row(n: int, x: Mapping[int, Scalar], z: Scalar) -> Scalar:
    """Single-row coefficient of the raising exponential at degree n:
    sum over jump compositions of (prod x_k) * path_polynomial / R!."""
    if n < 1:
        raise ValueError("row size must be positive")
    total: Scalar = Fraction(0)
    for jumps, coeff in _live_compositions(n, x):
        total = total + coeff * path_polynomial(JumpComposition(jumps), z)
    return total


def schur_params_from_vir(x: Mapping[int, Scalar], z: Scalar, n_max: int) -> List[Scalar]:
    """Unique X_1..X_n with s_N(X_1..X_N) = vir_row(N); the system is
    unitriangular in X_N, so plain forward substitution inverts it."""
    xs: List[Scalar] = []
    for n in range(1, n_max + 1):
        a: List[Scalar] = [Fraction(0)] * (n + 1)
        for i, val in enumerate(xs, start=1):
            a[i] = val
        lower = series_exp(a, n)[n]  # s_n with X_n set to zero
        xs.append(vir_row(n, x, z) - lower)
    return xs


def split_linear(xs: List[Scalar]) -> List[LinearInZ]:
    """Split each X_N of an inversion over the polynomial ring as
    A_N*z + B_N; a z-degree above 1 is a hard error naming the level."""
    out: List[LinearInZ] = []
    for n, val in enumerate(xs, start=1):
        poly = val if isinstance(val, Poly) else Poly((val,))
        if poly.degree > 1:
            raise ValueError(f"X_{n} has z-degree {poly.degree} > 1")
        out.append(LinearInZ(a=poly.coefficient(1), b=poly.coefficient(0)))
    return out


def z_linearity_witness(x: Mapping[int, Scalar], n_max: int) -> List[LinearInZ]:
    """Run the inversion over the polynomial ring and split each X_N as
    A_N*z + B_N."""
    return split_linear(schur_params_from_vir(x, Poly.gen(), n_max))


def a_coeff_closed(n: int, x: Mapping[int, Scalar]) -> Scalar:
    """Closed formula for the z-coefficient A_N: sum over compositions of
    (prod x_k) * k_2 (k_2+k_3) ... (k_2+...+k_R) / R!.

    This is the artifact's reading of the printed coefficient formula;
    the inversion route stays authoritative and the two are compared by
    the verification suite.
    """
    total: Scalar = Fraction(0)
    for jumps, coeff in _live_compositions(n, x):
        partial = 0
        weight = 1
        for j in jumps[1:]:
            partial += j
            weight *= partial
        total = total + coeff * weight
    return total


def b_coeff_closed(n: int, x: Mapping[int, Scalar]) -> Scalar:
    """Closed formula for the constant term B_N via the logarithm series
    of 1 + sum v_l u**l with v_l the single-row values at z = 0."""
    v: Dict[int, Scalar] = {l: vir_row(l, x, Fraction(0)) for l in range(1, n + 1)}
    total: Scalar = Fraction(0)
    for pieces in compositions_of(n):
        sign = -1 if (len(pieces) - 1) % 2 else 1
        term: Scalar = Fraction(sign, len(pieces))
        for l in pieces:
            term = term * v[l]
        total = total + term
    return total


def y_side_params(y: Mapping[int, Scalar], w: Scalar, n_max: int) -> Tuple[List[Scalar], List[LinearInZ]]:
    """Schur parameters for the bra side plus their w-linearity witnesses.

    Reversing a lowering path turns it into a raising path with the same
    per-jump factor in w, so the pipeline is the x-side one verbatim; one
    inversion over the polynomial ring gives both, Y_N = C_N*w + D_N.
    """
    witnesses = z_linearity_witness(y, n_max)
    return [wit.a * w + wit.b for wit in witnesses], witnesses
