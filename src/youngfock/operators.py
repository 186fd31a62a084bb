"""Operators on the diagram Fock space: one fermion-bilinear type.

Every ladder-type operator here is a fermion bilinear on the
semi-infinite wedge,

    Bilinear(k, weight, offset) = sum_x f(x) :psi_(x-k) psi*_x:,
    f(x) = weight[0] + weight[1]*x + weight[2]*x**2 + ...

i.e. one particle jumps from x to x - k with a weight polynomial in its
start x, times the wedge sign (-1)**(height-1).  It lowers degree by k
(``degree_shift = -k``).  At k = 0 the normally ordered sum is
diagonal: ``offset + sum_i weight[i]*(sum of (d/2)**i over occupied
positions d/2 > 0 - the same over vacated positions < 0)``; for an
affine weight (c, s) this is ``offset + c*charge + s*(degree +
charge**2/2)``.  These bilinears span W_(1+infinity) (Kac & Radul).
The jumps come from :func:`youngfock.fock.boson_moves`, the only jump
enumeration.

Named constructors (z, w from :class:`KerovParams`; alpha, gamma from
:class:`VirasoroParams`):

====================  ======  ==================================  =========================
operator              k       weight (lowest degree first)        offset (k = 0 only)
====================  ======  ==================================  =========================
``boson_op(k)``       k != 0  (1,)
``virasoro_op(k)``    k       (alpha + gamma*k - k/2, 1)          (alpha**2 - gamma**2)/2
``kerov_u``           -1      (z + 1/2, 1)
``kerov_d``           1       (w - 1/2, 1)
``kerov_l``           0       (z + w, 2)                          z*w
``hook_raise(r)``     -r      (z + 1/2, 1/r)
``hook_lower(r)``     r       (w - 1/2, 1/r)
``hook_diagonal(r)``  0       (z + w, 2/r)                        sum_j (z + u_j)(w + u_j)
====================  ======  ==================================  =========================

The M-fold modes ``m_virasoro_op(M, k)`` are bilinears up to M = 3:

=====  ==================================================  ================
M      f(x)                                                offset (k = 0)
=====  ==================================================  ================
1      1 + gamma*k                                         alpha
2      ``virasoro_op(k)``: x + alpha + gamma*k - k/2       (alpha**2 - gamma**2)/2
3      (x + alpha - k/2)**2/2 + gamma*k + (1 - k**2)/24    alpha**3/6
=====  ==================================================  ================

M = 4 is not a bilinear (its k = 1 mode moves several particles at
once), so :class:`MVirasoro` keeps the M-fold tuple sum for M >= 4, as
a walk over the nonzero indices of the tuples, at most 2*degree + |k|
deep at any M.  It is also the one definitional form kept, as the
reference oracle of the three closed forms: at M = 2 it is the
quadratic boson sum gamma*k*a_k + 1/2 sum_j :a_j a_(k-j):, against
which ``virasoro_op``, the box ladder and the rim-hook ladders are
checked.

Every operator has one per-state action, ``op.numerators(state)``: the
(state, numerator) pairs of its image over one int denominator
``op.den``.  A bilinear clears its weight once, to f(x) = g(d)/den in the
doubled start d = 2x (an odd integer), with g's coefficients ints, or
``Poly`` over a ``Poly`` parameter; each jump gives sign*g(d), and the
diagonal is den*offset plus the sum of g(d) over occupied d > 0 minus
the same over vacated d < 0.  :class:`MVirasoro` clears its parameters
once in the same way, and :class:`fock.Psi` has ``den = 1``; each keeps
its numerators per state (:class:`fock.StateOperator`, where the
numerator protocol lives).  ``op.apply(v)`` extends numerator/den
linearly, exactly and with no truncation bound: it maps each basis state
of degree d into degree d - k.  :func:`commutator_check` is one
:func:`fock.failures` walk over the bracket and its expected terms.
:func:`exp_raising` clears its modes by :func:`fock.clear` and keeps its
own loop, which skips moves past its degree bound.

Adjoint rule, in the pairing where the Maya basis is orthonormal:
``Bilinear(k, f, o)* = Bilinear(-k, f(x + k), o)`` (the reversed jump
y -> y + k starts at y = x - k).

Frozen conventions, each pinned by a low-degree oracle and exercised by
the test suite:

* Parameter map between the box-weight and oscillator pictures:
  ``alpha = (z + w) / 2`` and ``gamma = (w - z) / 2``.  The sign of gamma
  is forced by requiring the k = 1 raising mode to act on the empty
  diagram with coefficient z (the opposite sign gives w).

* The mode-(-k) raising operator moves one particle k steps right with
  coefficient ``(alpha - gamma*k) + start + k/2``; the mode-(+k)
  lowering operator moves one particle k steps left with coefficient
  ``(alpha + gamma*k) + start - k/2``, times the wedge sign.

* Zero mode: ``virasoro_op(0)`` acts as ``(alpha_c**2 - gamma**2)/2 +
  degree`` where ``alpha_c = alpha + charge``.  The halved constant is
  the unique choice consistent with the bracket
  [L_1, L_-1] = 2 L_0 and with the box-weight diagonal z*w + 2|lam|.

* The zero boson mode inside quadratic operators acts as alpha plus the
  sector charge, which makes the jump coefficients charge-independent.

* Rim-hook ladder operators at length r match the oscillator modes with
  ``alpha = r(z+w)/2`` up to the overall scalar r:
  ``virasoro_op(-r) = r * hook_raise(r)`` and likewise for lowering.
  The hook diagonal equals [hook_lower(r), hook_raise(r)] in every
  charge sector: the bracket of two bilinears is the diagonal bilinear
  with weight f(x) - f(x - r), f(x) = (z + 1/2 + x/r)(w + 1/2 + x/r),
  which is z + w + 2x/r.  Its offset is the bracket's value on the
  vacuum; the naive per-particle sum over the infinite sea diverges and
  the commutator pins its finite part.  In charge c the length-1
  diagonal is (z + c)(w + c) + 2*degree.

* M-fold quadratic sums run over ordered index tuples weighted 1/M!
  (equivalently multisets weighted by inverse multiplicity factorials);
  this is the unique weighting that reproduces ``virasoro_op`` at M = 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .fock import (FockVector, MayaState, StateOperator, basis_index, boson_moves, clear,
                   failures)
from .partitions import Partition
from .rings import Frozen, Scalar, _cleared, _divided, denominator, is_zero, scalar_to_json


class KerovParams(Frozen):
    __slots__ = _fields = ("z", "w")

    def __init__(self, z: Scalar = Fraction(0), w: Scalar = Fraction(0)):
        self._set(z=z, w=w)


class VirasoroParams(Frozen):
    __slots__ = _fields = ("alpha", "gamma")

    def __init__(self, alpha: Scalar = Fraction(0), gamma: Scalar = Fraction(0)):
        self._set(alpha=alpha, gamma=gamma)


def virasoro_params_from_kerov(p: KerovParams) -> VirasoroParams:
    """alpha = (z+w)/2, gamma = (w-z)/2; gamma's sign frozen by the k=1 oracle."""
    half = Fraction(1, 2)
    return VirasoroParams(alpha=(p.z + p.w) * half, gamma=(p.w - p.z) * half)


def virasoro_params_for_rimhook(p: KerovParams, r: int) -> VirasoroParams:
    """Parameters matching length-r hook operators: alpha scales with r."""
    half = Fraction(1, 2)
    return VirasoroParams(alpha=(p.z + p.w) * Fraction(r, 2), gamma=(p.w - p.z) * half)


# ---------------------------------------------------------------------------
# the fermion bilinear
# ---------------------------------------------------------------------------

class Bilinear(StateOperator):
    """sum_x f(x) :psi_(x-k) psi*_x:, f = sum_i weight[i] x**i, plus
    ``offset`` at k = 0; both cleared once over ``den`` (module docstring).
    Equality, hash and repr read ``k``, ``weight`` and ``offset`` only."""

    # _g: the cleared weight, highest degree first; _offset: den * offset
    __slots__ = ("k", "weight", "offset", "den", "_g", "_offset")
    _fields = __slots__[:3]

    def __init__(self, k: int, weight: Tuple[Scalar, ...], offset: Scalar = Fraction(0)):
        if k != 0 and not is_zero(offset):
            raise ValueError("only the diagonal (k = 0) bilinear carries an offset")
        # weight[i] * x**i = (weight[i] / 2**i) * d**i
        scaled = [w * Fraction(1, 1 << i) for i, w in enumerate(weight)]
        den = denominator(*scaled, offset)
        self._set(k=k, weight=weight, offset=offset, den=den,
                  _g=tuple(_cleared(s, den) for s in reversed(scaled)), _offset=_cleared(offset, den),
                  _memo={})

    @property
    def degree_shift(self) -> int:
        return -self.k

    def adjoint(self) -> "Bilinear":
        """f(x) -> f(x + k): the Taylor shift of the weight."""
        w, k = self.weight, self.k
        shifted = tuple(sum(w[i] * (math.comb(i, j) * k ** (i - j)) for i in range(j, len(w)))
                        for j in range(len(w)))
        return Bilinear(-k, shifted, self.offset)

    def _g_at(self, d: int) -> Scalar:
        val = self._g[0]  # Horner's rule
        for c in self._g[1:]:
            val = val * d + c
        return val

    def _numerators(self, st: MayaState):
        """sign*g(d) per jump from d; at k = 0, den*offset plus g summed over
        occupied d > 0 minus g summed over vacated d < 0."""
        if self.k == 0:
            val = self._offset
            for d in st.above:
                val = val + self._g_at(d)
            for d in st.below:
                val = val - self._g_at(d)
            return ((st, val),)
        return [(new, sign * self._g_at(d)) for new, sign, d in boson_moves(self.k, st)]

    def to_json(self):
        return {"k": self.k, "weight": [scalar_to_json(c) for c in self.weight],
                "offset": scalar_to_json(self.offset)}


def boson_op(k: int) -> Bilinear:
    """Heisenberg mode a_k, k != 0."""
    if k == 0:
        raise ValueError("boson index must be nonzero")
    return Bilinear(k, (1,))


def virasoro_op(k: int, p: VirasoroParams) -> Bilinear:
    """Oscillator mode L_k: gamma*k*a_k plus half the normally ordered
    quadratic boson sum, in bilinear form (see the module docstring)."""
    if k == 0:
        return Bilinear(0, (p.alpha, Fraction(1)),
                        (p.alpha * p.alpha - p.gamma * p.gamma) * Fraction(1, 2))
    return Bilinear(k, (p.alpha + p.gamma * k - Fraction(k, 2), Fraction(1)))


def hook_raise(r: int, p: KerovParams) -> Bilinear:
    """Add a length-r rim hook: jump x -> x + r with weight z + x/r + 1/2."""
    if r < 1:
        raise ValueError("hook length must be positive")
    return Bilinear(-r, (p.z + Fraction(1, 2), Fraction(1, r)))


def hook_lower(r: int, p: KerovParams) -> Bilinear:
    """Remove a length-r rim hook: jump x -> x - r with weight w + x/r - 1/2."""
    if r < 1:
        raise ValueError("hook length must be positive")
    return Bilinear(r, (p.w - Fraction(1, 2), Fraction(1, r)))


def _diagonal_hook_constant(r: int, p: KerovParams) -> Scalar:
    # sum over the r vacuum jumps of (z + u)(w + u); pinned by requiring
    # [D_r, U_r] to equal the diagonal operator on the vacuum.
    total: Scalar = Fraction(0)
    for j in range(1, r + 1):
        u = Fraction(1, 2) + Fraction(1 - 2 * j, 2 * r)
        total = total + (p.z + u) * (p.w + u)
    return total


def hook_diagonal(r: int, p: KerovParams) -> Bilinear:
    """[hook_lower(r), hook_raise(r)]: 2|lam|/r plus a constant on diagrams."""
    if r < 1:
        raise ValueError("hook length must be positive")
    return Bilinear(0, (p.z + p.w, Fraction(2, r)), _diagonal_hook_constant(r, p))


# the box-weight sl2 triple is the length-1 hook triple
def kerov_u(p: KerovParams) -> Bilinear:
    """Add one box with weight z + content."""
    return hook_raise(1, p)


def kerov_d(p: KerovParams) -> Bilinear:
    """Remove one box with weight w + content."""
    return hook_lower(1, p)


def kerov_l(p: KerovParams) -> Bilinear:
    """Diagonal z*w + 2|lam| on diagrams; (z + c)(w + c) + 2*degree in charge c."""
    return hook_diagonal(1, p)


# ---------------------------------------------------------------------------
# the M-fold tuple sum: the M >= 4 modes and the reference oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _m_virasoro_state(order: int, k: int, state: MayaState):
    """The parameter-free part of the M-fold mode on one basis state: per
    target state, the sign of its parameter term (gamma*k*a_k at k != 0,
    -gamma**2/2 at k = 0 and order 2; 0 for none) and the (j, sum) pairs,
    the sum of weight*sign over the tuples with j zero indices that reach
    it, an int over M! (a tuple's weight 1/prod(run!) is M!/prod(run!)).
    A target whose sums all cancel and that has no parameter term is
    dropped, since its coefficient is zero at every parameter value.
    Otherwise a pair is kept even when its sum is zero, so that under a
    Poly a0 the coefficient is a Poly, as in the tuple-by-tuple sum.

    The tuples are walked by their nonzero indices alone, descending, so
    annihilators (positive indices) act first; each prefix carries its
    image, and one that sums to k is the tuple with j = M - (its length)
    zeros.  A positive index spends the state's degree and a negative one
    at most degree + |k|, so the walk is at most 2*degree + |k| deep at
    any order, and indices lie in [-(degree+|k|), degree]."""
    d = state.degree
    bound = d + abs(k)
    acc: Dict[MayaState, Tuple[int, Dict[int, int]]] = {}
    if k != 0:
        for s1, sign, _ in boson_moves(k, state):
            acc[s1] = (sign, {})
    elif order == 2:
        acc[state] = (1, {})

    def walk(image: Dict[MayaState, int], length: int, total: int, last: int, budget: int,
             weight: int, run: int):
        # weight: M! over the product of run! over the prefix's runs of equal
        # indices, run: the length of its last run; budget: the degree left
        if total == k:
            j = order - length
            w = weight // math.factorial(j)
            for s, g in image.items():
                sums = acc.setdefault(s, (0, {}))[1]
                sums[j] = sums.get(j, 0) + w * g
        left = order - length - 1  # slots after the next index
        if left < 0:
            return
        for e in range(min(last, budget), -bound - 1, -1):
            rest = k - total - e
            # the later indices lie in [-bound, e], at most left of them, so
            # they sum to at most max(e, 0)*left (a cap that only falls with e,
            # while rest only grows) and, after a negative e, to 0 or <= e
            if rest > max(e, 0) * left:
                break
            if e == 0 or rest < -bound * left or e < rest < 0:
                continue
            nxt: Dict[MayaState, int] = {}
            for s, sgn in image.items():
                for s2, sgn2, _ in boson_moves(e, s):
                    nxt[s2] = nxt.get(s2, 0) + sgn * sgn2
            nxt = {s: g for s, g in nxt.items() if g}
            if nxt:
                r = run + 1 if e == last else 1
                walk(nxt, length + 1, total + e, e, budget - max(e, 0), weight // r, r)

    walk({state: 1}, 0, 0, d + 1, d, math.factorial(order), 0)
    return tuple((s, sign, tuple(sums.items()))
                 for s, (sign, sums) in acc.items() if sign or any(sums.values()))


class MVirasoro(StateOperator):
    """M-fold mode: gamma*k*a_k plus the 1/M!-weighted normally ordered
    sum over index tuples with total k.  :func:`m_virasoro_op` uses it for
    M >= 4; at M <= 3 it is the reference oracle of the bilinear forms.

    Any tuple whose annihilating part exceeds the state's degree kills
    it, so the positive indices sum to at most the degree and the
    negative ones to at least -(degree+|k|); the grading argument makes
    this exact.  A tuple with j zero indices carries a0**j, a0 = alpha +
    charge, and nothing else in it depends on the parameters, so the
    tuple sum is walked once per (order, k, state) over the nonzero
    indices alone, as per-j sums (:func:`_m_virasoro_state`), and
    evaluated here at (alpha + charge, gamma).  It is cleared once, over
    den = lcm(M! q**M, the denominator of the parameter term), where q
    clears alpha.
    """

    # _lead: den * the parameter term; _a: q * alpha; _scales[j]: den/(M! q**j)
    __slots__ = ("order", "k", "alpha", "gamma", "den", "_lead", "_q", "_a", "_scales")
    _fields = __slots__[:4]

    def __init__(self, order: int, k: int, alpha: Scalar, gamma: Scalar):
        if order < 1:
            raise ValueError("order must be at least 1")
        # at k = 0 the zero-mode constant of virasoro_op(0), so M = 2 matches exactly
        lead = gamma * k if k else -(gamma * gamma) * Fraction(1, 2)
        q = denominator(alpha)
        full = math.factorial(order) * q ** order
        den = math.lcm(full, denominator(lead))
        self._set(order=order, k=k, alpha=alpha, gamma=gamma, den=den, _lead=_cleared(lead, den),
                  _q=q, _a=_cleared(alpha, q),
                  _scales=tuple(den // full * q ** (order - j) for j in range(order + 1)), _memo={})

    @property
    def degree_shift(self) -> int:
        return -self.k

    def adjoint(self) -> "MVirasoro":
        # a_k* = a_(-k) turns mode k into mode -k and flips gamma
        return MVirasoro(self.order, -self.k, self.alpha, -self.gamma)

    def _numerators(self, st: MayaState):
        """Per target, den * (its parameter term + sum_j (per-j sum) * a0**j)."""
        powers = [1, self._a + self._q * st.charge]  # (q*a0)**j, extended on demand
        scales, out = self._scales, []
        for new, sign, sums in _m_virasoro_state(self.order, self.k, st):
            val: Scalar = self._lead * sign if sign else 0
            for j, total in sums:
                while len(powers) <= j:
                    powers.append(powers[-1] * powers[1])
                val = val + total * scales[j] * powers[j]
            if val:
                out.append((new, val))
        return out

    def to_json(self):
        return {"order": self.order, "k": self.k, "alpha": scalar_to_json(self.alpha),
                "gamma": scalar_to_json(self.gamma)}


def m_virasoro_op(order: int, k: int, p: VirasoroParams) -> Operator:
    """M-fold mode: a bilinear for M <= 3 (see the module docstring), the
    tuple sum :class:`MVirasoro` for M >= 4."""
    a, g = p.alpha, p.gamma
    if order == 1:
        return Bilinear(k, (1 + g * k,), a if k == 0 else Fraction(0))
    if order == 2:
        return virasoro_op(k, p)
    if order == 3:
        shift = a - Fraction(k, 2)
        weight = (shift * shift * Fraction(1, 2) + g * k + Fraction(1 - k * k, 24),
                  shift, Fraction(1, 2))
        return Bilinear(k, weight, a * a * a * Fraction(1, 6) if k == 0 else Fraction(0))
    return MVirasoro(order, k, a, g)


Operator = Union[Bilinear, MVirasoro]
Combo = Sequence[Tuple[Scalar, Operator]]
ExpectedCombo = Sequence[Tuple[Scalar, Optional[Operator]]]


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------

def exp_raising(terms: Combo, v: FockVector, max_degree: int) -> FockVector:
    """sum_m (1/m!) (sum_i c_i * op_i)**m v over (c_i, op_i) pairs,
    truncated by degree.

    Every operator must strictly raise degree, so dropping components
    above the bound is exact and the sum terminates.  One loop serves
    every operator and scalar ring: the power A**m v / m! is a dict of
    numerators over one int denominator, den_m = den_(m-1) * L * m.  Each
    mode is read through ``op.numerators`` over ``op.den``, so c*op adds
    (c*L/op.den) * numerator per move, with L and the scales from
    :func:`clear`.  A power whose numerators are all ints (every scalar
    rational) is reduced by their gcd; they are ``Poly`` with ``Poly``
    input.  Moves that would pass the degree bound are skipped before
    they are enumerated, and one division per state ends the sum.
    """
    lcm, cleared = clear([(c, op, None) for c, op in terms])
    for _, op, _ in cleared:
        if op.degree_shift < 1:
            raise ValueError(f"non-raising operator {op.to_json()} in exponential")
    modes = [(op.k, scale, op) for scale, op, _ in cleared]
    start = [(st, c) for st, c in v.terms() if st.degree <= max_degree]
    den = denominator(*(c for _, c in start))
    current = {st: _cleared(c, den) for st, c in start}
    powers = [(current, den)]
    m = 0
    while current:
        m += 1
        nxt: Dict[MayaState, Scalar] = {}
        for st, num in current.items():
            for k, scale, op in modes:
                if st.degree - k > max_degree:
                    continue
                scaled = scale * num
                for new, n in op.numerators(st):
                    nxt[new] = nxt.get(new, 0) + n * scaled
        current = {st: n for st, n in nxt.items() if n}
        den *= lcm * m
        if all(type(n) is int for n in current.values()):
            common = math.gcd(den, *current.values())
            den //= common
            current = {st: n // common for st, n in current.items()}
        powers.append((current, den))
    total_den = math.lcm(*(dn for _, dn in powers))
    total: Dict[MayaState, Scalar] = {}
    for power, dn in powers:
        factor = total_den // dn
        for st, n in power.items():
            total[st] = total.get(st, 0) + n * factor
    return FockVector({st: _divided(n, total_den) for st, n in total.items() if n})


# ---------------------------------------------------------------------------
# the bracket check
# ---------------------------------------------------------------------------

def commutator_check(a: Operator, b: Operator, expected: ExpectedCombo,
                     degree: int) -> List[Tuple[Partition, FockVector]]:
    """The (lam, [a, b]v - expected(v)) pairs, v = |lam>, over every
    basis vector up to degree whose delta is nonzero.

    An empty list means the identity holds exactly there.  The bracket
    and each expected (c, op) pair, a ``None`` op being the identity, are
    one :func:`fock.failures` walk, so the delta of each basis state is
    one dict of numerators over one int denominator; a vector is built
    only for a nonzero delta.  As in one vector sum, a delta coefficient
    is a ``Poly`` when any numerator summed into it is, even a zero one or
    one that cancels against the other side of the bracket.
    """
    lcm, found = failures([(1, a, b), (-1, b, a)] + [(-c, op, None) for c, op in expected],
                          (st for d in range(degree + 1) for st in basis_index(d)))
    return [(st.to_partition(), FockVector({new: _divided(n, lcm) for new, n in delta.items()}))
            for st, delta in found]
