"""Exact scalar arithmetic: rationals and dense univariate polynomials.

Every coefficient in this package lives in one of two rings: plain
``fractions.Fraction`` or :class:`Poly`, dense univariate polynomials with
rational coefficients, each stored as an ``int`` when it is integral and
as a ``Fraction`` otherwise, so integer polynomials multiply in int
arithmetic.  ``Poly`` is used whenever a parameter has to stay
formal (degree-in-z bookkeeping, specialization checks); it interoperates
with ints and Fractions through the normal operator protocol, so generic
operator code never needs to know which ring it runs over.

:func:`_eliminate` is the package's one exact elimination: fraction-free
Bareiss on sparse rows that hold only their nonzero entries, in int
arithmetic once rational rows are cleared of denominators.  :func:`rank`
(its pivot count) and :func:`kernel` (over Q only) take sparse rows
{column: value}; :func:`det` takes a dense square matrix.  ``kernel``
back-substitutes in integers and gives primitive integer vectors.
Truncated power series are plain coefficient lists over either ring;
:func:`series_exp` and its inverse :func:`series_log` each cost
O(order^2) ring operations; ``series_log`` runs its recurrence on the
cleared integer terms and divides once per level.  No floating point
anywhere.
:class:`Frozen`, the base of the package's immutable value types, lives
here because every other module imports this one.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction, "Poly"]


def is_zero(a: Scalar) -> bool:
    return a == 0


class Frozen:
    """Base of the package's immutable value types.  A subclass lists its
    slots in ``__slots__`` and, in ``_fields``, those that equality, the
    hash and the repr read; its ``__init__`` sets them with ``_set``.  An
    instance equals only an instance of its own class."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"


class Poly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored lowest degree first with trailing zeros
    stripped; the zero polynomial has an empty coefficient tuple.  An
    integral coefficient is an ``int`` and any other a ``Fraction`` (kept
    as given), never a float or a bool; :meth:`coefficient` reads either
    as a ``Fraction``.  Immutable and hashable, so values can key caches.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Union[int, Fraction]] = ()):
        cs = [c if type(c) is int or (type(c) is Fraction and c.denominator != 1)
              else _canonical(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    @classmethod
    def gen(cls) -> "Poly":
        """The indeterminate itself."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return c if type(c) is Fraction else Fraction(c)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):  # a constant scales each coefficient
            return Poly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        """Division by a nonzero constant, or exact polynomial division."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of Poly by zero")
            return Poly(tuple(Fraction(c, other) if type(c) is int else c / other
                              for c in self.coeffs))
        if isinstance(other, Poly):
            q, r = _divmod_poly(self, other)
            if r:
                raise ValueError("inexact polynomial division")
            return q
        return NotImplemented

    def __call__(self, value):
        out = Fraction(0) if isinstance(value, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts)


def _canonical(c) -> Union[int, Fraction]:
    """A rational coefficient as an int when its denominator is 1."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _coerce(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return None


def _divmod_poly(num: Poly, den: Poly):
    if not den:
        raise ZeroDivisionError("division of Poly by zero polynomial")
    r = list(num.coeffs)
    d = den.coeffs
    dd = len(d) - 1
    lead = Fraction(d[-1])  # so no quotient is int / int, a float
    if len(r) <= dd:
        return Poly(), Poly(r)
    q = [0] * (len(r) - dd)
    for i in range(len(r) - 1, dd - 1, -1):
        c = r[i] / lead
        if c:
            q[i - dd] = c
            for j in range(dd + 1):
                r[i - dd + j] -= c * d[j]
    return Poly(q), Poly(r)


def divexact(a: Scalar, b: Scalar) -> Scalar:
    """Exact division in the scalar ring; raises if the quotient leaves it.
    Two ints that divide exactly give an int."""
    if isinstance(a, Poly) or isinstance(b, Poly):
        pa = a if isinstance(a, Poly) else Poly((a,))
        return pa / (b if isinstance(b, Poly) else Fraction(b))
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a) / Fraction(b)


def denominator(*scalars: Scalar) -> int:
    """The lcm of the denominators of every rational inside the scalars, a
    ``Poly``'s coefficients included: the least int that clears them all
    (1 for none)."""
    return math.lcm(*(q.denominator for s in scalars
                      for q in (s.coeffs if isinstance(s, Poly) else (s,))))


def _cleared(s: Scalar, den: int) -> Scalar:
    """s * den, an int when s is rational (den clears its denominator)."""
    s = s * den
    return s if isinstance(s, Poly) else int(s)


def _divided(n: Scalar, den: int) -> Scalar:
    """The numerator n over den: a Fraction for an int n, else n / den."""
    return Fraction(n, den) if type(n) is int else n / den


# -- fraction-free elimination -------------------------------------------------

def _eliminate(rows: Sequence[Mapping[int, Scalar]]) -> Tuple[List[dict], List[int], Fraction]:
    """Bareiss elimination on sparse rows, {column: value} of the nonzeros.

    Rows of ints and Fractions are first cleared to integers by the lcm of
    their denominators (int rows pass as they are), so the elimination
    runs in int arithmetic; Poly rows stay as they are.  Pivots are taken
    column by column from the first row below the last pivot row that has
    the column.  Every later row is multiplied by pivot/prev, and those
    with an entry in the pivot column also lose lead/prev times the pivot
    row.  Every division is exact, so the entries stay in the ring, and
    after k pivots each entry is a k+1 minor of the scaled matrix; zeros
    left by an update are dropped.  Returns (rows, pivot columns, factor),
    where ``factor`` undoes the row scalings and the sign of the row swaps.
    """
    out: List[dict] = []
    factor = Fraction(1)
    integral = True
    for row in rows:
        if all(isinstance(v, (int, Fraction)) for v in row.values()):
            scale = math.lcm(*(v.denominator for v in row.values()))
            out.append({c: v.numerator * (scale // v.denominator)
                        for c, v in row.items() if v})
            if scale != 1:  # never for an int row
                factor /= scale
        else:
            integral = False
            out.append({c: v for c, v in row.items() if not is_zero(v)})
    rows = out
    # the quotients are minors, so on int rows floor division is exact
    div = int.__floordiv__ if integral else divexact
    pivots: List[int] = []
    prev: Scalar = 1
    # an update only fills columns of the pivot row, so no column outside
    # the rows' own ever holds an entry
    for col in sorted(set().union(*rows)):
        top = len(pivots)
        pivot_row = next((r for r in range(top, len(rows)) if col in rows[r]), None)
        if pivot_row is None:
            continue
        if pivot_row != top:
            rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
            factor = -factor
        head = rows[top]
        pivot = head[col]
        rest = [(c, v) for c, v in head.items() if c != col]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            lead = row.pop(col, None)
            if lead is None:
                rows[r] = {c: div(v * pivot, prev) for c, v in row.items()}
                continue
            new = {c: v * pivot for c, v in row.items()}
            for c, v in rest:
                new[c] = new.get(c, 0) - lead * v
            rows[r] = {c: q for c, v in new.items() if (q := div(v, prev))}
        prev = pivot
        pivots.append(col)
    return rows, pivots, factor


def rank(rows: Sequence[Mapping[int, Scalar]]) -> int:
    """Rank of sparse rows {column: value}, the pivot count of
    :func:`_eliminate`."""
    return len(_eliminate(rows)[1])


def det(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square matrix; 1 for the empty one.  After
    :func:`_eliminate`, the last row is zero unless its entry in the last
    column is the last pivot, and that pivot times ``factor`` is det."""
    rows, _, factor = _eliminate([{c: v for c, v in enumerate(row) if not is_zero(v)}
                                  for row in matrix])
    return (rows[-1].get(len(matrix) - 1, 0) if rows else 1) * factor


def kernel(rows: Sequence[Mapping[int, Scalar]], n_cols: int) -> List[Dict[int, int]]:
    """Kernel basis of sparse rational rows {column: value} over n_cols
    columns, by back-substitution in their echelon form, in integers: one
    vector {column: entry} per free column f, in column order, zero at the
    other free columns.  Each vector is primitive (gcd 1) and positive at
    f, its largest column: every pivot column it solves for lies left of
    a column already in it."""
    if any(isinstance(v, Poly) for row in rows for v in row.values()):
        raise ValueError("nullspace is computed over Q; the matrix has Poly entries")
    echelon_rows, pivots, _ = _eliminate(rows)
    bottom_up = list(zip(echelon_rows, pivots))[::-1]
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivot_set):
        num = {f: 1}
        for row, p in bottom_up:
            # row . vec = 0 fixes vec[p] = -s / row[p]
            s = sum(v * num[c] for c, v in row.items() if c in num)
            if not s:
                continue
            g = math.gcd(s, row[p])
            s, a = s // g, row[p] // g
            if a != 1:
                for c in num:
                    num[c] *= a
            num[p] = -s
        g = math.gcd(*num.values()) * (1 if num[f] > 0 else -1)
        basis.append({c: v // g for c, v in num.items()})
    return basis


# -- truncated power series over an arbitrary scalar ring -------------------
#
# A series is a plain list of scalars [c0, c1, ..., cN] meaning
# sum(ci * u**i).  These run over whatever ring the entries live in.

def series_trim(a: list, order: int) -> list:
    out = list(a[: order + 1])
    out += [Fraction(0)] * (order + 1 - len(out))
    return out


def series_exp(a: Sequence[Scalar], order: int) -> list:
    """exp of a series with zero constant term, to the given order."""
    a = series_trim(list(a), order)
    if not is_zero(a[0]):
        raise ValueError("series_exp needs zero constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for n in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            if not is_zero(a[j]):
                acc = acc + j * a[j] * out[n - j]
        out[n] = acc * Fraction(1, n)
    return out


# the primes whose exponent _least_root splits; a larger prime is not found
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))


def _least_root(r: int, n: int) -> int:
    """The least g with r | g^n, on the primes below 100 of r: each enters
    at the ceiling of its exponent over n.  The part of r left by them
    enters whole, since splitting it would take factoring."""
    g = 1
    for p in _SMALL_PRIMES:
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        g *= p ** -(-e // n)
    return g * r


def series_log(v: Sequence[Scalar], order: int) -> list:
    """log of a series with constant term 1, to the given order, so
    ``series_exp(series_log(v, N), N) == v``.

    Read as an exponential generating function, 1 + sum n! v_n u^n/n! has
    the cumulants K_n = n! X_n, and K_n = w_n - sum_{j<n} C(n-1, j-1)
    K_j w_(n-j) with w_n = n! v_n.  Scaling u by an int c scales both
    sides' n-th terms by c^n.  So a first pass over all levels fixes c:
    each level multiplies it by the least g for which (c g)^n clears
    n! v_n, that is the least n-th root (:func:`_least_root`) of the part
    r of that denominator which c^n leaves.  Then every w_n = n! c^n v_n
    is an int (an int-coefficient ``Poly``), the recurrence runs in
    integers, and each level divides once: X_n = K_n / (n! c^n).  While
    the denominators have no prime of 100 or more, c is the least int
    that clears every level, so on ``conversion.vir_rows`` output it
    divides M.  A level is a ``Poly`` exactly when its row or a product
    of a nonzero earlier level with a row is one.  O(order^2) ring
    operations."""
    v = series_trim(list(v), order)
    if v[0] != 1:
        raise ValueError("series_log needs constant term 1")
    c = 1
    for n in range(1, order + 1):
        d = denominator(v[n])
        d //= math.gcd(d, math.factorial(n))  # the denominator of n! v_n
        c *= _least_root(d // math.gcd(d, pow(c, n, d)), n)  # now d divides c^n
    scales = [math.factorial(n) * c ** n for n in range(order + 1)]
    w = [_cleared(a, s) for a, s in zip(v, scales)]
    k = [0] * (order + 1)
    for n in range(1, order + 1):
        # skip on a zero K_j only: a zero Poly w_(n-j) still makes the level a Poly
        k[n] = w[n] - sum((math.comb(n - 1, j - 1) * k[j] * w[n - j]
                           for j in range(1, n) if k[j]), 0)
    return [Fraction(0)] + [_divided(a, s) for a, s in zip(k[1:], scales[1:])]


# -- parsing / formatting ----------------------------------------------------

_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse "[+-]p/q" or "[+-]n"; whitespace tolerated, nothing else
    (no decimals, exponents or underscores)."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational of the form p/q: {text!r}")
    den = int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(m.group(1)), den)


def rational_str(q: Union[int, Fraction]) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def scalar_to_json(a: Scalar):
    """Rationals as "p/q" strings, polynomials as {"poly": [...]}."""
    if isinstance(a, Poly):
        return {"poly": [rational_str(c) for c in a.coeffs]}
    return rational_str(a)


def random_rational(rng, nonzero: bool = False) -> Fraction:
    """Small random rational p/q, |p| <= 9 and 1 <= q <= 9, from a seeded rng; deterministic."""
    while True:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q != 0 or not nonzero:
            return q
