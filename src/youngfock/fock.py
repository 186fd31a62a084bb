"""Formal linear combinations over exact scalars; wedge-space operators.

States of the semi-infinite wedge are encoded canonically by their finite
deviation from the charge-0 vacuum: ``above`` holds occupied positive
positions, ``below`` holds vacated negative positions (both as doubled
odd integers, descending).  One rule moves a particle,
:meth:`MayaState._moved`: its sign is (-1) to the number of occupied
positions strictly between the two ends, a missing end lying above every
particle.  psi_x, psi*_x and every jump of :func:`boson_moves` use it, so
the Murnaghan-Nakayama sign rule downstream is a theorem to test, not an
input.

Every operator follows the numerator protocol of :class:`StateOperator`;
:func:`clear` and :func:`image` read it for sums of operator products,
and :func:`failures` is the one basis walk behind every identity check.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import neg
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .partitions import HalfInt, Partition, partitions_of
from .rings import Frozen, Scalar, _cleared, _divided, denominator, is_zero, scalar_to_json


class MayaState(Frozen):
    """Charge sector plus finite deviation from the vacuum.

    ``above``: occupied positions > 0, ``below``: vacated positions < 0,
    both tuples of doubled odd integers in descending order.  A dict key
    on every hot path, so the charge, the degree and the hash are
    computed once, and interned: ``MayaState(above, below)`` returns the
    one object built for that pair (:func:`_interned`), so a dict hit
    stops at the identity check.  Equality and the hash stay field-wise.
    """

    __slots__ = ("above", "below", "charge", "degree", "_hash")
    _fields = ("above", "below")

    def __new__(cls, above: Tuple[int, ...] = (), below: Tuple[int, ...] = ()):
        return _interned(above, below)

    def __eq__(self, other):
        if other.__class__ is not MayaState:
            return NotImplemented
        return self.above == other.above and self.below == other.below

    def __hash__(self):
        return self._hash

    def occupied(self, x: HalfInt) -> bool:
        return self._occupied_d(x.doubled)

    def _occupied_d(self, d: int) -> bool:
        return d in self.above if d > 0 else d not in self.below

    def insert(self, x: HalfInt) -> Optional[Tuple[int, "MayaState"]]:
        """Add a particle at x; None if occupied.  Returns (sign, state)."""
        return self._moved(None, x.doubled)

    def remove(self, x: HalfInt) -> Optional[Tuple[int, "MayaState"]]:
        """Remove the particle at x; None if vacant.  Returns (sign, state)."""
        return self._moved(x.doubled, None)

    def _moved(self, d: Optional[int], t: Optional[int]) -> Optional[Tuple[int, "MayaState"]]:
        """Move the particle at doubled position d to t: ``d=None`` adds one
        at t, ``t=None`` removes the one at d.  None where d is vacant or t
        is occupied; else (sign, state), the sign (-1)**(occupied positions
        strictly between d and t), a missing end lying above every particle."""
        if d is not None and not self._occupied_d(d) or t is not None and self._occupied_d(t):
            return None
        above, below = self.above, self.below
        if d is None or t is None:
            lo, hi = (t if d is None else d), math.inf
        else:
            lo, hi = (t, d) if t < d else (d, t)
        # both tuples descend, so each bisect runs over their negations
        between = bisect_left(above, -lo, key=neg) - bisect_right(above, -hi, key=neg)
        if lo < 0:  # sea positions in (lo, min(hi, 0)), less the vacated ones
            between += ((min(hi, 1) - lo) // 2 - 1 - bisect_left(below, -lo, key=neg)
                        + bisect_right(below, -hi, key=neg))
        if d is not None:
            i = bisect_left(above if d > 0 else below, -d, key=neg)
            if d > 0:
                above = above[:i] + above[i + 1:]
            else:
                below = below[:i] + (d,) + below[i:]
        if t is not None:
            i = bisect_left(above if t > 0 else below, -t, key=neg)
            if t > 0:
                above = above[:i] + (t,) + above[i:]
            else:
                below = below[:i] + below[i + 1:]
        return -1 if between % 2 else 1, _interned(above, below)

    def sort_key(self):
        return (self.charge, self.degree, self.above, self.below)

    def to_partition(self) -> Partition:
        if self.charge != 0:
            raise ValueError(f"charge {self.charge} state is not a partition")
        # row i sits at doubled position 2*(part_i - i) + 1; in charge 0 the
        # rows above the lowest hole are exactly the nonempty ones
        lowest = self.below[-1] if self.below else -1
        prefix = self.above + tuple(d for d in range(-1, lowest, -2) if d not in self.below)
        return Partition((d - 1) // 2 + i for i, d in enumerate(prefix, 1))

    @classmethod
    def from_partition(cls, lam: Partition, charge: int = 0) -> "MayaState":
        """State whose configuration is lam shifted into the given sector.

        Row i of the diagram sits at position lam_i - i + charge + 1/2;
        enough rows are listed that everything further down is a full sea.
        """
        rows = len(lam) + abs(charge) + 1
        pos = [2 * (lam.part(i) - i + charge) + 1 for i in range(1, rows + 1)]
        above = tuple(d for d in pos if d > 0)
        neg_occ = {d for d in pos if d < 0}
        lowest = pos[-1]
        below = tuple(d for d in range(-1, lowest, -2) if d not in neg_occ)
        return cls(above, below)

    def __str__(self):
        return f"Maya(charge={self.charge}, above={self.above}, below={self.below})"


@lru_cache(maxsize=None)
def _interned(above: Tuple[int, ...], below: Tuple[int, ...]) -> MayaState:
    """The one MayaState of a configuration, checked when first built
    (a call that raises caches nothing, so it raises on every call)."""
    for d in above:
        if d <= 0 or d % 2 == 0:
            raise ValueError(f"bad occupied position double {d}")
    for d in below:
        if d >= 0 or d % 2 == 0:
            raise ValueError(f"bad vacated position double {d}")
    if tuple(sorted(above, reverse=True)) != above:
        raise ValueError("above must be sorted descending")
    if tuple(sorted(below, reverse=True)) != below:
        raise ValueError("below must be sorted descending")
    state = object.__new__(MayaState)
    put = object.__setattr__
    put(state, "above", above)
    put(state, "below", below)
    charge = len(above) - len(below)
    put(state, "charge", charge)
    # energy above the vacuum of the state's own charge sector
    put(state, "degree", (sum(above) - sum(below) - charge * charge) // 2)
    put(state, "_hash", hash((above, below)))
    return state


VACUUM_STATE = MayaState()


class FockVector:
    """Finitely supported linear combination of Maya states.

    Zero coefficients are never stored; all keys share one charge.
    Immutable value semantics.  The constructor is the one merge: it sums
    the coefficients of each state, then drops the zero sums, so neither a
    coefficient nor its type depends on the order of the terms (a sum is a
    ``Poly`` when any of its terms is).  Sums and differences each hand it
    one stream of (state, scalar) pairs.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[MayaState, Scalar], Iterable[Tuple[MayaState, Scalar]], None] = None):
        data: Dict[MayaState, Scalar] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for state, coeff in items:
                acc = data.get(state)
                data[state] = coeff if acc is None else acc + coeff
            data = {s: c for s, c in data.items() if not is_zero(c)}
        if len(data) > 1:
            charges = {s.charge for s in data}
            if len(charges) > 1:
                raise ValueError(f"mixed charge sectors {sorted(charges)}")
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("FockVector is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def basis(cls, state: MayaState) -> "FockVector":
        return cls({state: Fraction(1)})

    @classmethod
    def from_partition(cls, lam: Partition, coeff: Scalar = Fraction(1)) -> "FockVector":
        return cls({MayaState.from_partition(lam): coeff})

    @classmethod
    def zero(cls) -> "FockVector":
        return cls()

    # -- inspection -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[Tuple[MayaState, Scalar]]:
        for state in sorted(self._terms, key=MayaState.sort_key):
            yield state, self._terms[state]

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def charge(self) -> Optional[int]:
        for s in self._terms:
            return s.charge
        return None

    def degree(self) -> int:
        """Largest degree among supported states; 0 for the zero vector."""
        return max((s.degree for s in self._terms), default=0)

    def coefficient(self, state: MayaState) -> Scalar:
        return self._terms.get(state, Fraction(0))

    def coefficient_of_partition(self, lam: Partition) -> Scalar:
        return self.coefficient(MayaState.from_partition(lam))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        return FockVector(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return FockVector(chain(self._terms.items(), ((s, -c) for s, c in other._terms.items())))

    def scale(self, coeff: Scalar) -> "FockVector":
        if is_zero(coeff):
            return FockVector()
        return FockVector({s: coeff * c for s, c in self._terms.items()})

    def __rmul__(self, coeff: Scalar) -> "FockVector":
        return self.scale(coeff)

    def __neg__(self) -> "FockVector":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockVector) and self._terms == other._terms

    def __repr__(self):
        inner = ", ".join(f"{s}: {c}" for s, c in self.terms())
        return f"FockVector({{{inner}}})"

    def to_json(self):
        charge = self.charge if self.charge is not None else 0
        entries = []
        for state, coeff in self.terms():
            if state.charge == 0:
                entries.append({"partition": state.to_partition().to_json(),
                                "coeff": scalar_to_json(coeff)})
            else:
                entries.append({"above": [f"{d}/2" for d in state.above],
                                "below": [f"{d}/2" for d in state.below],
                                "coeff": scalar_to_json(coeff)})
        return {"charge": charge, "terms": entries}


@lru_cache(maxsize=None)
def basis_index(n: int) -> Dict[MayaState, int]:
    """The charge-0 basis states of degree n, each mapped to the position
    of its diagram in ``partitions_of(n)`` (and iterated in that order)."""
    return {MayaState.from_partition(lam): i for i, lam in enumerate(partitions_of(n))}


def vacuum() -> FockVector:
    return FockVector.basis(VACUUM_STATE)


class StateOperator(Frozen):
    """An operator read one basis state at a time: ``numerators(state)`` is
    the state's image as (state, numerator) pairs over one int ``den``,
    evaluated by the subclass's ``_numerators`` once per state and kept in
    ``_memo`` for the life of the instance."""

    __slots__ = ("_memo",)

    def numerators(self, st: MayaState) -> Tuple[Tuple[MayaState, Scalar], ...]:
        got = self._memo.get(st)
        if got is None:
            got = self._memo[st] = tuple(self._numerators(st))
        return got

    def apply(self, v: FockVector) -> FockVector:
        """op(v), exactly: one :func:`image` of the term (1, op, None), which
        is cleared over den, on v cleared to integer entries over q."""
        q = denominator(*v._terms.values())
        vec = {st: _cleared(c, q) for st, c in v._terms.items()}
        den = self.den * q
        return FockVector({st: _divided(n, den) for st, n in image([(1, self, None)], vec).items()})


class Psi(StateOperator):
    """The creation operator psi_x: on a basis state, the one (state,
    sign) pair of :meth:`MayaState.insert`, the move of a new particle to
    x, over den 1, or nothing where x is occupied."""

    __slots__ = _fields = ("x",)
    den = 1

    def __init__(self, x: HalfInt):
        self._set(x=x, _memo={})

    def _numerators(self, st: MayaState):
        hit = st.insert(self.x)
        return ((hit[1], hit[0]),) if hit else ()


Term = Tuple[Scalar, Optional[StateOperator], Optional[StateOperator]]


def clear(terms: Sequence[Term]) -> Tuple[int, List[Term]]:
    """One int denominator L for (c, outer, inner) terms, each c*outer∘inner
    with ``None`` the identity, and the terms :func:`image` reads, each
    with its scale c*L/(outer.den*inner.den): L is the lcm of the
    denominators of every c/(outer.den*inner.den), a ``Poly``'s
    coefficients included, and each scale is an int, or a ``Poly`` under
    a ``Poly`` c.  Terms with a zero c are dropped."""
    active = []
    for c, outer, inner in terms:
        if not is_zero(c):
            den = (1 if outer is None else outer.den) * (1 if inner is None else inner.den)
            active.append((c if den == 1 else c * Fraction(1, den), outer, inner))
    lcm = denominator(*(r for r, _, _ in active))
    return lcm, [(_cleared(r, lcm), outer, inner) for r, outer, inner in active]


def image(cleared: Sequence[Term], vec: Mapping[MayaState, Scalar]) -> Dict[MayaState, Scalar]:
    """L * sum_t c_t * outer_t(inner_t(vec)) as numerators over the L of
    :func:`clear`, which gave the terms: the sum of scale * entry *
    n_inner * n_outer over every path, a ``None`` factor passing each
    state through with numerator 1, zero sums dropped.  An empty result
    means the terms sum to zero on vec.  No vector is built."""
    acc: Dict[MayaState, Scalar] = {}
    for st, entry in vec.items():
        for scale, outer, inner in cleared:
            scaled = scale * entry
            for mid, n in (((st, 1),) if inner is None else inner.numerators(st)):
                step = scaled * n
                for new, m in (((mid, 1),) if outer is None else outer.numerators(mid)):
                    acc[new] = acc.get(new, 0) + m * step
    return {st: n for st, n in acc.items() if n}


def failures(terms: Sequence[Term], states: Iterable[MayaState]
             ) -> Tuple[int, List[Tuple[MayaState, Dict[MayaState, Scalar]]]]:
    """Where the terms do not sum to zero: L of :func:`clear`, and the
    (state, image) pairs, in the order of ``states``, of every basis state
    whose :func:`image` is not empty.  An empty list means the identity
    the terms state holds on every one of them."""
    lcm, cleared = clear(terms)
    return lcm, [(st, got) for st in states if (got := image(cleared, {st: 1}))]


@lru_cache(maxsize=None)
def boson_moves(k: int, state: MayaState) -> Tuple[Tuple[MayaState, int, int], ...]:
    """Every particle jump x -> x - k out of one basis state, as
    (state, sign, d) triples with d = 2x the doubled start: the single
    enumeration behind every fermion bilinear, the mode-k boson being the
    sum of the signs.

    The jump d -> t = d - 2k is :meth:`MayaState._moved` (d, t), with the
    sign (-1)**(occupied positions strictly between t and d).  Candidates
    outside the deviation window act trivially.
    """
    if k == 0:
        raise ValueError("use the zero-mode action for k = 0")
    candidates = set(state.above)
    candidates.update(b + 2 * k for b in state.below)
    if k < 0:
        candidates.update(range(-1, 2 * k, -2))  # sea positions within reach of 0
    return tuple((hit[1], hit[0], d) for d in sorted(candidates, reverse=True)
                 if (hit := state._moved(d, d - 2 * k)))
