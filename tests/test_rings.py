import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from youngfock.rings import (
    Poly,
    det,
    _cleared,
    _eliminate,
    _least_root,
    denominator,
    divexact,
    kernel,
    parse_rational,
    random_rational,
    rank,
    rational_str,
    scalar_to_json,
    series_exp,
    series_log,
)

from .conftest import small_rationals
from .oracles import (dense_echelon, dense_nullspace, fraction_coeffs, fraction_poly_add,
                      fraction_poly_divmod, fraction_poly_eval, fraction_poly_mul,
                      leibniz_determinant, minor_rank, series_mul, sparse_rows)

coeff_lists = st.lists(small_rationals, min_size=0, max_size=5)


def test_poly_normalization_and_equality():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly(()) == 0
    assert Poly((Fraction(3, 2),)) == Fraction(3, 2)
    assert Poly((0, 1)) != 1
    assert hash(Poly((Fraction(5),))) == hash(Fraction(5))


def _assert_canonical(p):
    """Every coefficient an int, or a Fraction whose denominator is not 1;
    never a float or a bool, and no trailing zero."""
    for c in p.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(p)
    assert not p.coeffs or p.coeffs[-1] != 0


def test_poly_coefficients_are_canonical():
    half = Fraction(1, 2)
    p = Poly((1, Fraction(4, 2), True, half))
    assert [type(c) for c in p.coeffs] == [int, int, int, Fraction]
    assert p.coeffs == (1, 2, 1, half)
    assert p.coeffs[3] is half  # a non-integral Fraction is stored as given
    assert Poly((0.5, 2.0, False)).coeffs == (half, 2)
    for q in (p, Poly((0.5, 2.0, False)), p * p, p + p, -p, p / 3, p(half) * Poly.gen()):
        _assert_canonical(q)
    assert type(p.coefficient(1)) is Fraction and type(p.coefficient(7)) is Fraction
    assert p.coefficient(3) is half


int_or_rational = st.one_of(st.integers(min_value=-9, max_value=9), small_rationals)
mixed_coeff_lists = st.lists(int_or_rational, min_size=0, max_size=5)


@given(mixed_coeff_lists, mixed_coeff_lists, int_or_rational.filter(bool),
       st.integers(min_value=0, max_value=3))
def test_poly_arithmetic_matches_fraction_oracle(a, b, q, n):
    pa, pb = Poly(a), Poly(b)
    fa, fb = fraction_coeffs(a), fraction_coeffs(b)
    power = (Fraction(1),)
    for _ in range(n):
        power = fraction_poly_mul(power, fa)
    cases = [
        (pa + pb, fraction_poly_add(fa, fb)),
        (pa - pb, fraction_poly_add(fa, tuple(-c for c in fb))),
        (pa * pb, fraction_poly_mul(fa, fb)),
        (pa ** n, power),
        (pa / q, fraction_poly_mul(fa, (1 / Fraction(q),))),
        (pa * q, fraction_poly_mul(fa, (Fraction(q),))),
    ]
    if fb:
        product = pa * pb
        cases.append((divexact(product, pb), fraction_poly_divmod(fraction_poly_mul(fa, fb), fb)[0]))
        quotient, remainder = fraction_poly_divmod(fa, fb)
        if remainder:
            with pytest.raises(ValueError):
                pa / pb
        else:
            cases.append((pa / pb, quotient))
    for got, want in cases:
        assert got.coeffs == want
        _assert_canonical(got)
    value = pa(q)
    assert value == fraction_poly_eval(fa, Fraction(q)) and type(value) is Fraction


def test_poly_exact_division_of_int_coefficients():
    q = Poly((2, 3, 1)) / Poly((1, 1))
    assert q == Poly((2, 1)) and q.coeffs == (2, 1)
    _assert_canonical(q)
    # a non-integral quotient of int polynomials stays exact
    q = Poly((1, 5, 6)) / Poly((3, 9))
    assert q.coeffs == (Fraction(1, 3), Fraction(2, 3))
    q = Poly((4, 2)) / Poly((3,))
    assert q.coeffs == (Fraction(4, 3), Fraction(2, 3))
    assert divexact(Poly((2, 4)), 4).coeffs == (Fraction(1, 2), 1)


@given(coeff_lists, coeff_lists)
def test_poly_ring_axioms(a, b):
    pa, pb = Poly(a), Poly(b)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa - pa == 0
    assert pa * (pb + 1) == pa * pb + pa


@given(coeff_lists, small_rationals)
def test_poly_evaluation_is_ring_morphism(a, q):
    pa = Poly(a)
    t = Poly.gen()
    assert (pa * t + 1)(q) == pa(q) * q + 1


def test_poly_division():
    t = Poly.gen()
    p = (t + 1) * (2 * t - 3)
    assert p / (t + 1) == 2 * t - 3
    assert p / Fraction(2) == p * Fraction(1, 2)
    with pytest.raises(ValueError):
        (t * t + 1) / (t + 1)
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_poly_pow_and_str():
    t = Poly.gen()
    assert (t + 1) ** 3 == t ** 3 + 3 * t ** 2 + 3 * t + 1
    assert str(Poly((Fraction(1, 2), Fraction(3, 2)))) == "1/2 + 3/2*z"
    assert str(Poly(())) == "0"
    with pytest.raises(ValueError):
        t ** -1


def test_divexact_paths():
    assert divexact(Fraction(3), 2) == Fraction(3, 2)
    t = Poly.gen()
    assert divexact(t * t, t) == t
    assert divexact(Fraction(4), Poly((2,))) == 2
    assert divexact(6, -3) == -2 and type(divexact(6, -3)) is int
    assert divexact(3, 2) == Fraction(3, 2)


def test_denominator_clears_every_rational_inside():
    # the lcm over plain rationals and a Poly's coefficients; 1 for none
    assert denominator() == 1 and denominator(3, Poly((2, 5))) == 1
    assert denominator(Fraction(1, 6), Poly((Fraction(1, 4), 3)), 5) == 12
    den = denominator(Fraction(-5, 9), Poly((Fraction(2, 3), 0, Fraction(7, 6))))
    assert den == 18
    assert _cleared(Fraction(-5, 9), den) == -10 and type(_cleared(Fraction(-5, 9), den)) is int
    assert _cleared(Poly((Fraction(2, 3), 0, Fraction(7, 6))), den) == Poly((12, 0, 21))


def test_series_helpers():
    # exp(t) * exp(-t) = 1 through order 6
    a = [Fraction(0), Fraction(1)]
    b = [Fraction(0), Fraction(-1)]
    ea, eb = series_exp(a, 6), series_exp(b, 6)
    assert series_mul(ea, eb, 6) == [Fraction(1)] + [Fraction(0)] * 6
    with pytest.raises(ValueError):
        series_exp([Fraction(1)], 3)


@given(st.lists(small_rationals, min_size=0, max_size=6))
def test_series_log_inverts_series_exp(tail):
    v = [Fraction(1)] + tail
    order = len(tail)
    log_v = series_log(v, order)
    assert log_v[0] == 0
    assert series_exp(log_v, order) == v


def test_series_log_over_polynomials_and_bad_constant_term():
    t = Poly.gen()
    v = [Fraction(1), t, Fraction(0), t * t - Fraction(1, 3), Poly(), 2 * t + 1]
    log_v = series_log(v, 5)
    assert series_exp(log_v, 5) == v
    assert log_v[1] == t and log_v[2] == -t * t / 2
    # log(1/(1-u)) = sum u^n / n
    assert series_log([Fraction(1)] * 7, 6) == [0] + [Fraction(1, n) for n in range(1, 7)]
    for bad in ([Fraction(2), t], [Fraction(0)], [t + 1, t]):
        with pytest.raises(ValueError):
            series_log(bad, 1)


@given(st.lists(st.sampled_from([2, 3, 5, 7, 97, 101]), max_size=8), st.integers(1, 5))
def test_least_root_is_the_least_nth_root_on_the_primes_below_100(primes, n):
    # r | g^n, no prime below 100 can leave g, and 101 enters at its whole exponent
    r = math.prod(primes)
    g = _least_root(r, n)
    assert g ** n % r == 0
    assert all((g // p) ** n % r for p in (2, 3, 5, 7, 97) if g % p == 0)
    assert g % 101 ** primes.count(101) == 0 and (g // 101 ** primes.count(101)) % 101
    assert _least_root(27, 3) == 3 and _least_root(2 ** 5 * 9, 2) == 2 ** 3 * 3


@given(st.lists(small_rationals, min_size=1, max_size=4),
       st.lists(small_rationals, min_size=1, max_size=4))
def test_series_exp_is_multiplicative(a, b):
    a = [Fraction(0)] + a
    b = [Fraction(0)] + b
    order = 5
    both = [x + y for x, y in zip(a + [0] * order, b + [0] * order)][: order + 1]
    lhs = series_exp(both, order)
    rhs = series_mul(series_exp(a, order), series_exp(b, order), order)
    assert lhs == rhs


def test_parse_and_format():
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert rational_str(Fraction(5)) == "5"
    assert rational_str(Fraction(-1, 3)) == "-1/3"
    assert rational_str(-7) == "-7" and rational_str(0) == "0"
    assert rational_str(Fraction(-6, 4)) == "-3/2"
    assert scalar_to_json(Poly((Fraction(4, 2), -3, Fraction(-2, 6)))) == {"poly": ["2", "-3", "-1/3"]}
    assert scalar_to_json(Fraction(2, 7)) == "2/7"
    assert scalar_to_json(Poly((1, Fraction(1, 2)))) == {"poly": ["1", "1/2"]}


def test_random_rational_determinism():
    import random
    a = [random_rational(random.Random(5)) for _ in range(4)]
    b = [random_rational(random.Random(5)) for _ in range(4)]
    assert a == b
    assert random_rational(random.Random(0), nonzero=True) != 0


@pytest.mark.parametrize("text", ["0.5", "1e1000", "1_0", "1/0", "1/-2", "", "/3", "inf"])
def test_parse_rational_accepts_only_fractions(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_echelon_rank_small_cases():
    assert rank([]) == 0
    assert rank(sparse_rows([[Fraction(0), Fraction(0)]])) == 0
    assert rank(sparse_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])) == 1
    assert rank(sparse_rows([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])) == 2


def test_echelon_rank_over_polynomials():
    t = Poly.gen()
    # generic rank over the polynomial ring in w
    assert rank(sparse_rows([[t + 1, t - 1]])) == 1
    m = [[t, t * t], [Poly((1,)), t]]
    assert rank(sparse_rows(m)) == 1  # second row is the first divided by t
    assert det(m) == 0


def test_nullspace_example():
    basis = kernel(sparse_rows([[Fraction(3), Fraction(5)]]), 2)
    assert basis == [{0: -5, 1: 3}]
    assert dense_nullspace([[Fraction(3), Fraction(5)]], 2) == [[Fraction(-5, 3), Fraction(1)]]


def _random_matrix(kind, n_rows, n_cols, rng):
    def entry():
        if kind != "zero-corner" and rng.random() < 0.3:
            return Fraction(0)
        q = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4))
        if kind.startswith("poly") and rng.random() < 0.7:
            return Poly([q] + [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 2))])
        return q

    m = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    i, j = rng.randrange(n_rows), rng.randrange(n_rows)
    a, b = rng.randrange(n_cols), rng.randrange(n_cols)
    if kind == "zero-corner":  # forces a row swap at the first pivot
        m[0][0] = Fraction(0)
    elif kind == "zero-row":
        m[i] = [Fraction(0)] * n_cols
    elif kind in ("dup-row", "poly-dup-row"):
        m[j] = [v * Fraction(-2, 3) for v in m[i]]
    elif kind == "zero-col":
        for row in m:
            row[a] = Fraction(0)
    elif kind == "dup-col":
        for row in m:
            row[b] = row[a]
    return m


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 3), (5, 6)])
@pytest.mark.parametrize("kind", ["rational", "zero-corner", "zero-row", "dup-row",
                                  "zero-col", "dup-col", "poly", "poly-dup-row"])
def test_echelon_against_leibniz_and_minors(kind, shape):
    rng = random.Random(f"{kind}{shape}")
    n_rows, n_cols = shape
    m = _random_matrix(kind, n_rows, n_cols, rng)
    full = minor_rank(m)
    assert rank(sparse_rows(m)) == full
    if n_rows == n_cols:
        assert det(m) == leibniz_determinant(m)
        assert kind != "zero-corner" or n_rows == 1 or full == n_rows  # the swap is exercised
    if kind.startswith("poly"):
        return  # kernel runs over the rationals only
    basis = kernel(sparse_rows(m), n_cols)
    free = [c for c in range(n_cols) if c not in dense_echelon(m)[1]]
    assert len(basis) == n_cols - full == len(free)
    for f, vec in zip(free, basis):
        assert all(sum(row[c] * v for c, v in vec.items()) == 0 for row in m)
        assert max(vec) == f and not any(c in vec for c in free if c != f)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 3), (5, 6), (8, 8), (6, 11)])
@pytest.mark.parametrize("kind", ["rational", "zero-corner", "zero-row", "dup-row",
                                  "zero-col", "dup-col", "poly", "poly-dup-row"])
def test_sparse_elimination_matches_dense(kind, shape):
    for draw in range(3):
        rng = random.Random(f"sparse{kind}{shape}{draw}")
        m = _random_matrix(kind, *shape, rng)
        want_rows, pivots, factor = dense_echelon(m)
        rows, got_pivots, got_factor = _eliminate(sparse_rows(m))
        assert [[row.get(c, 0) for c in range(shape[1])] for row in rows] == want_rows
        assert (got_pivots, got_factor) == (pivots, factor)
        assert rank(sparse_rows(m)) == len(pivots)
        if shape[0] == shape[1]:
            assert det(m) == want_rows[-1][-1] * factor
        if not kind.startswith("poly"):
            basis = [[Fraction(vec.get(c, 0), vec[max(vec)]) for c in range(shape[1])]
                     for vec in kernel(sparse_rows(m), shape[1])]
            assert basis == dense_nullspace(m, shape[1])


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 5), (2, 4), (4, 3), (5, 6)])
@pytest.mark.parametrize("kind", ["rational", "zero-corner", "zero-row", "dup-row",
                                  "zero-col", "dup-col", "poly", "poly-dup-row"])
def test_sparse_rank_and_primitive_kernel(kind, shape):
    # rank and kernel on sparse rows: the dense pivot count, and primitive
    # integer vectors each a positive multiple of the dense nullspace's vector
    rng = random.Random(f"kernel{kind}{shape}")
    m = _random_matrix(kind, *shape, rng)
    rows = sparse_rows(m)
    assert rank(rows) == len(dense_echelon(m)[1]) == minor_rank(m)
    if any(isinstance(v, Poly) for row in m for v in row):
        with pytest.raises(ValueError, match="over Q"):
            kernel(rows, shape[1])
        return
    basis = dense_nullspace(m, shape[1])
    vectors = kernel(rows, shape[1])
    assert len(vectors) == len(basis)
    for vec, v in zip(vectors, basis):
        assert all(type(x) is int and x for x in vec.values())
        assert math.gcd(*vec.values()) == 1
        free = next(c for c, x in enumerate(v) if x == 1 and c in vec)
        assert vec[free] > 0
        assert [Fraction(vec.get(c, 0), vec[free]) for c in range(shape[1])] == v
