import itertools
import random
from fractions import Fraction

import pytest

from youngfock.conversion import (
    LinearInZ,
    a_coeff_closed,
    b_coeff_closed,
    schur_params_from_vir,
    split_linear,
    vir_rows,
    z_linearity_witness,
)
from youngfock.fock import vacuum
from youngfock.measures import schur_polynomial
from youngfock.operators import VirasoroParams, exp_raising, virasoro_op
from youngfock.partitions import HalfInt, Partition
from youngfock.rings import Poly, series_exp

from .conftest import rand_q
from .oracles import (
    JumpComposition,
    a_coeff_by_compositions,
    b_coeff_by_compositions,
    compositions_of,
    exp_lowering_bra,
    path_polynomial,
    schur_params_by_substitution,
    vir_row,
)


def P(*parts):
    return Partition(parts)


def modes(x, alpha, sign):
    """(x_k, L_(sign*k)) pairs at (alpha, gamma=0)."""
    return [(c, virasoro_op(sign * k, VirasoroParams(alpha=alpha))) for k, c in x.items()]


def test_path_polynomial_examples():
    z = Fraction(3, 7)
    assert path_polynomial(JumpComposition(()), z) == 1
    assert path_polynomial(JumpComposition((1, 1)), z) == z * (z + 1)
    assert path_polynomial(JumpComposition((2,)), z) == z + Fraction(1, 2)
    # custom start point
    assert path_polynomial(JumpComposition((1,), start=HalfInt(3)), z) == z + 2


def test_jump_composition_validation():
    with pytest.raises(ValueError):
        JumpComposition((1, 0))
    assert JumpComposition((2, 1)).total == 3


def test_compositions_of():
    assert compositions_of(0) == ((),)
    assert len(compositions_of(5)) == 16
    assert set(compositions_of(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}


def _same(a, b):
    """Equal values in the same ring: a dead row stays Fraction(0) and a
    cancelled polynomial stays Poly(), and they print differently."""
    return a == b and isinstance(a, Poly) == isinstance(b, Poly)


@pytest.mark.parametrize("ring", ["fraction", "poly"])
@pytest.mark.parametrize("shape", ["dense", "gap", "empty"])
def test_conversion_matches_composition_oracle(shape, ring):
    # the (jump count, total) DP, the series logarithm and the A/B tables
    # against their definitional sums over all jump compositions
    n_max = 10
    rng = random.Random(f"{shape}/{ring}")
    if shape == "dense":
        x = {k: rand_q(rng, nonzero=True) for k in (1, 2, 3)}
    elif shape == "gap":  # every odd row is dead
        x = {1: Fraction(0), 2: rand_q(rng, nonzero=True), 4: rand_q(rng, nonzero=True)}
    else:
        x = {}
    z = Poly.gen() if ring == "poly" else rand_q(rng, nonzero=True)
    rows = vir_rows(x, z, n_max)
    assert rows[0] == 1 and len(rows) == n_max + 1
    for n in range(1, n_max + 1):
        assert _same(rows[n], vir_row(n, x, z)), n
    xs = schur_params_from_vir(x, z, n_max)
    for n, (got, want) in enumerate(zip(xs, schur_params_by_substitution(x, z, n_max)), 1):
        assert _same(got, want), n
    for n in range(1, n_max + 1):
        assert a_coeff_closed(n, x) == a_coeff_by_compositions(n, x), n
        assert b_coeff_closed(n, x) == b_coeff_by_compositions(n, x), n


def test_vir_row_examples():
    z = Fraction(5, 9)
    x = {1: Fraction(2, 3), 2: Fraction(1, 4)}
    rows = vir_rows(x, z, 2)
    assert rows[0] == 1
    assert rows[1] == x[1] * z
    assert rows[2] == x[2] * (z + Fraction(1, 2)) + x[1] ** 2 / 2 * z * (z + 1)


def test_vir_row_matches_operator_exponential(rng):
    for i in range(4):
        z = rand_q(rng) if i < 3 else Poly.gen()
        x = {k: rand_q(rng) for k in (1, 2, 3)}
        ket = exp_raising(modes(x, z, -1), vacuum(), 6)
        rows = vir_rows(x, z, 6)
        for n in range(1, 7):
            assert rows[n] == ket.coefficient_of_partition(P(n)), n
            assert isinstance(rows[n], Poly) == isinstance(z, Poly), n


def test_bra_row_matches_vir_row(rng):
    # reversing a lowering path turns it into the raising composition sum
    for _ in range(3):
        w = rand_q(rng)
        y = {k: rand_q(rng) for k in (1, 2, 3)}
        rows = vir_rows(y, w, 5)
        for n in range(1, 6):
            assert exp_lowering_bra(modes(y, w, 1), P(n)) == rows[n], n


def test_schur_params_printed_values():
    z = Fraction(4, 11)
    x1, x2 = Fraction(1, 2), Fraction(5, 3)
    xs = schur_params_from_vir({1: x1, 2: x2}, z, 2)
    assert xs[0] == x1 * z
    assert xs[1] == (x1 * x1 / 2 + x2) * z + x2 / 2


def test_schur_params_zero_input():
    assert schur_params_from_vir({}, Fraction(1, 2), 5) == [0] * 5


def test_inversion_involution(rng):
    # s_N of the produced parameters reproduces the row values
    for _ in range(3):
        z = rand_q(rng)
        x = {k: rand_q(rng) for k in (1, 2, 3)}
        xs = schur_params_from_vir(x, z, 6)
        xm = {i + 1: v for i, v in enumerate(xs)}
        rows = vir_rows(x, z, 6)
        for n in range(1, 7):
            assert schur_polynomial(P(n), xm) == rows[n], n


def test_z_linearity_witness_values():
    wits = z_linearity_witness({1: Fraction(1), 2: Fraction(1)}, 2)
    assert wits[0] == LinearInZ(a=Fraction(1), b=Fraction(0))
    assert wits[1] == LinearInZ(a=Fraction(3, 2), b=Fraction(1, 2))


def test_z_linearity_symbolic_base_values_on_grid():
    for x1, x2 in itertools.product([Fraction(n) for n in (-2, -1, 0, 1, 2)], repeat=2):
        wits = z_linearity_witness({1: x1, 2: x2}, 2)
        assert wits[0].a == x1 and wits[0].b == 0
        assert wits[1].a == x1 * x1 / 2 + x2 and wits[1].b == x2 / 2


def test_z_linearity_holds_to_degree_six(rng):
    for _ in range(3):
        x = {k: rand_q(rng) for k in (1, 2, 3)}
        wits = z_linearity_witness(x, 6)
        assert len(wits) == 6
        # A_N carries no z; B_N reproduces the N-th value at z = 0
        xs0 = schur_params_from_vir(x, Fraction(0), 6)
        for n in range(1, 7):
            assert wits[n - 1].b == xs0[n - 1]


def test_closed_formulas_match_inversion(rng):
    for _ in range(3):
        x = {k: rand_q(rng) for k in (1, 2, 3)}
        wits = z_linearity_witness(x, 6)
        for n in range(1, 7):
            assert a_coeff_closed(n, x) == wits[n - 1].a, n
            assert b_coeff_closed(n, x) == wits[n - 1].b, n


def test_b_coeff_examples():
    x = {1: Fraction(1, 3), 2: Fraction(5, 7)}
    assert b_coeff_closed(1, x) == 0
    assert b_coeff_closed(2, x) == x[2] / 2


def test_a_coeff_examples():
    x = {1: Fraction(2), 2: Fraction(3), 3: Fraction(1, 2)}
    assert a_coeff_closed(1, x) == x[1]
    assert a_coeff_closed(2, x) == x[1] ** 2 / 2 + x[2]
    assert a_coeff_closed(3, x) == x[3] + Fraction(3, 2) * x[1] * x[2] + x[1] ** 3 / 3


def test_log_series_identity(rng):
    # 1 + sum v_N u^N = exp(sum B_n u^n) as truncated series
    for _ in range(3):
        x = {k: rand_q(rng) for k in (1, 2, 3)}
        wits = z_linearity_witness(x, 6)
        b = [Fraction(0)] + [wits[n - 1].b for n in range(1, 7)]
        assert series_exp(b, 6) == vir_rows(x, Fraction(0), 6)


def test_y_side_examples(rng):
    # the bra side runs the ket pipeline in (y, w)
    w = Fraction(2, 9)
    y1 = Fraction(7, 4)
    values = schur_params_from_vir({1: y1}, w, 3)
    assert values[0] == y1 * w
    assert schur_params_from_vir({}, w, 4) == [0] * 4
    for _ in range(2):
        y = {k: rand_q(rng) for k in (1, 2, 3)}
        wits = list(split_linear(schur_params_from_vir(y, Poly.gen(), 6), "Y", "w"))
        assert len(wits) == 6  # w-degree <= 1 enforced inside


def test_y_side_matches_bra_inversion(rng):
    # the produced Y_N satisfy s_N(Y) = bra-side single-row values
    w = rand_q(rng)
    y = {k: rand_q(rng) for k in (1, 2)}
    values = schur_params_from_vir(y, w, 5)
    ym = {i + 1: v for i, v in enumerate(values)}
    for n in range(1, 6):
        assert schur_polynomial(P(n), ym) == exp_lowering_bra(modes(y, w, 1), P(n)), n


def test_schur_reduction_holds_for_unit_jumps_only(rng):
    # with only x_1 switched on, every coefficient of the raising
    # exponential is the Schur value of the inverted parameters
    from youngfock.partitions import partitions_up_to

    for _ in range(2):
        z = rand_q(rng)
        x = {1: rand_q(rng, nonzero=True)}
        ket = exp_raising(modes(x, z, -1), vacuum(), 6)
        xs = schur_params_from_vir(x, z, 6)
        xm = {i + 1: v for i, v in enumerate(xs)}
        for lam in partitions_up_to(6):
            assert ket.coefficient_of_partition(lam) == schur_polynomial(lam, xm), lam


def test_schur_reduction_gap_is_exactly_x2_at_two_rows():
    # once x_2 enters, the two-row coefficient misses its Schur value by
    # the constant x_2: the jump weight depends on the particle position,
    # so the complete-homogeneous determinant does not transfer
    grid = [Fraction(n) for n in (-2, -1, 0, 1, 2)]
    for x1, x2, z in itertools.product(grid, repeat=3):
        x = {1: x1, 2: x2}
        ket = exp_raising(modes(x, z, -1), vacuum(), 2)
        xs = schur_params_from_vir(x, z, 2)
        s11 = schur_polynomial(P(1, 1), {1: xs[0], 2: xs[1]})
        assert s11 - ket.coefficient_of_partition(P(1, 1)) == -x2
