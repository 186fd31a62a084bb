"""From operator-exponential weights back to Schur form.

The single-row coefficient v_N of the raising exponential is a sum over
jump paths of one particle.  :func:`vir_rows` gets all rows up to N from
one dynamic programme over (jump count, running total), in O(N^2 |x|)
ring operations.  The equivalent Schur parameters solve s_N(X) = v_N,
i.e. 1 + sum v_N u^N = exp(sum X_N u^N), so X is the series logarithm of
the rows (``rings.series_log``).  They stay linear in z (and Y_N linear
in w).  The closed formulas for A_N and B_N are evaluated by their own
dynamic programmes, independent of the logarithm route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Tuple

from .fock import _divided
from .operators import VirasoroParams, virasoro_op
from .rings import Frozen, Poly, Scalar, is_zero, series_log


class LinearInZ(Frozen):
    """An exact a*z + b decomposition."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Scalar, b: Scalar):
        self._set(a=a, b=b)


def _live_jumps(x: Mapping[int, Scalar], n_max: int) -> List[Tuple[int, Scalar]]:
    """(k, x_k) with x_k nonzero and 1 <= k <= n_max, k ascending."""
    return [(k, c) for k, c in sorted(x.items()) if 1 <= k <= n_max and not is_zero(c)]


def _path_sums(steps: Mapping[int, List[Tuple[int, Scalar]]]) -> Iterator[Tuple[int, Dict[int, Scalar]]]:
    """Yield (R, f_R) for R = 1, 2, ... while some total is reachable:
    f_R[s] sums, over the R-step paths from 0 to s, the product of the
    step weights, where steps[s0] lists the (target, weight) pairs out of
    s0.  Only reachable totals are keys, so a total with no path stays
    out of f_R instead of reading a zero of some ring."""
    layer: Dict[int, Scalar] = {0: Fraction(1)}
    r = 0
    while True:
        nxt: Dict[int, Scalar] = {}
        for s0, val in layer.items():
            for s, weight in steps.get(s0, ()):
                term = val * weight
                nxt[s] = nxt[s] + term if s in nxt else term
        if not nxt:
            return
        r += 1
        yield r, nxt
        layer = nxt


def vir_rows(x: Mapping[int, Scalar], z: Scalar, n_max: int) -> List[Scalar]:
    """[1, v_1, ..., v_n_max]: the single-row coefficients of the raising
    exponential.

    v_s sums (prod x_k) * (path product) / R! over the jump paths of R
    jumps and total s.  A jump of k from -1/2 + s0 weighs z + s0 + (k - 1)/2:
    the cleared weight of ``virasoro_op(-k)`` at alpha = z at the doubled
    start 2*s0 - 1, over its den.  So f[R][s], the sum of the
    weighted R-jump paths to s, is sum_k f[R-1][s-k] * x_k * (that weight),
    and v_s = sum_R f[R][s] / R!.  A row with no live path (every path
    uses some x_k = 0) stays Fraction(0).
    """
    if n_max < 0:
        raise ValueError("negative row count")
    ops = [(k, op, _divided(c, op.den)) for k, c in _live_jumps(x, n_max)
           for op in (virasoro_op(-k, VirasoroParams(alpha=z)),)]
    steps = {s0: [(s0 + k, op._g_at(2 * s0 - 1) * scale) for k, op, scale in ops if s0 + k <= n_max]
             for s0 in range(n_max)}
    rows: List[Scalar] = [Fraction(1)] + [Fraction(0)] * n_max
    for r, f in _path_sums(steps):
        inv = Fraction(1, math.factorial(r))
        for s, val in f.items():
            rows[s] = rows[s] + val * inv
    return rows


def schur_params_from_vir(x: Mapping[int, Scalar], z: Scalar, n_max: int) -> List[Scalar]:
    """Unique X_1..X_n with s_N(X_1..X_N) = v_N: the logarithm of the
    series of single-row values."""
    return series_log(vir_rows(x, z, n_max), n_max)[1:]


def split_linear(xs: List[Scalar], level: str = "X", var: str = "z") -> Iterator[LinearInZ]:
    """Split each X_N of an inversion over the polynomial ring as
    A_N*z + B_N, level by level; a z-degree above 1 is a hard error
    naming the level.  The bra side passes ``level="Y", var="w"``."""
    for n, val in enumerate(xs, start=1):
        poly = val if isinstance(val, Poly) else Poly((val,))
        if poly.degree > 1:
            raise ValueError(f"{level}_{n} has {var}-degree {poly.degree} > 1")
        yield LinearInZ(a=poly.coefficient(1), b=poly.coefficient(0))


def z_linearity_witness(x: Mapping[int, Scalar], n_max: int) -> List[LinearInZ]:
    """Run the inversion over the polynomial ring and split each X_N as
    A_N*z + B_N."""
    return list(split_linear(schur_params_from_vir(x, Poly.gen(), n_max)))


def a_coeff_closed(n: int, x: Mapping[int, Scalar]) -> Scalar:
    """Closed formula for the z-coefficient A_N: sum over compositions of
    (prod x_k) * k_2 (k_2+k_3) ... (k_2+...+k_R) / R!.

    Evaluated by a table g[r][t] over the r parts after the first, with
    total t: each new part multiplies by the partial sum t it reaches.
    Then A_N = sum_k1 x_k1 sum_r g[r][N-k1] / (r+1)!.

    This is the artifact's reading of the printed coefficient formula;
    the inversion route stays authoritative and the two are compared by
    the verification suite.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    jumps = _live_jumps(x, n)
    steps = {t0: [(t0 + k, c * (t0 + k)) for k, c in jumps if t0 + k < n] for t0 in range(n)}
    tail: List[Scalar] = [Fraction(1)] + [Fraction(0)] * (n - 1)  # sum_r g[r][t] / (r+1)!
    for r, g in _path_sums(steps):
        inv = Fraction(1, math.factorial(r + 1))
        for t, val in g.items():
            tail[t] = tail[t] + val * inv
    total: Scalar = Fraction(0)
    for k, c in jumps:
        total = total + c * tail[n - k]
    return total


def b_coeff_closed(n: int, x: Mapping[int, Scalar]) -> Scalar:
    """Closed formula for the constant term B_N via the logarithm series
    of 1 + sum v_l u**l with v_l the single-row values at z = 0:
    sum over compositions of N into R pieces of (-1)^(R-1)/R * prod v_l,
    evaluated by h[R][s] = sum_l h[R-1][s-l] * v_l."""
    if n < 1:
        raise ValueError("degree must be positive")
    v = vir_rows(x, Fraction(0), n)
    steps = {s0: [(s0 + l, v[l]) for l in range(1, n - s0 + 1) if not is_zero(v[l])]
             for s0 in range(n)}
    total: Scalar = Fraction(0)
    for r, h in _path_sums(steps):
        if n in h:
            total = total + Fraction((-1) ** (r - 1), r) * h[n]
    return total

