import itertools
import random
from fractions import Fraction

import pytest

from youngfock.fock import vacuum
from youngfock.measures import (
    KINDS,
    MeasureSpec,
    MiwaParams,
    _jacobi_trudi,
    cauchy_normalizer,
    complete_homogeneous,
    correlation,
    schur_polynomial,
    schur_weight,
    weight_table,
)
from youngfock.operators import KerovParams, VirasoroParams, exp_raising, virasoro_op
from youngfock.partitions import HalfInt, Partition, partitions_up_to
from youngfock.rings import Poly

from .conftest import rand_q
from .oracles import conf, z_measure_normalizer, z_measure_weight


def P(*parts):
    return Partition(parts)


GRID = [Fraction(n) for n in (-2, -1, 0, 1, 2)]


def test_schur_polynomial_printed_values_on_grid():
    # identities of low degree, checked on a full product grid: exact
    # multivariate interpolation makes this a proof, not a sample
    for x1, x2 in itertools.product(GRID, GRID):
        x = {1: x1, 2: x2}
        assert schur_polynomial(P(1), x) == x1
        assert schur_polynomial(P(2), x) == x1 * x1 / 2 + x2
        assert schur_polynomial(P(1, 1), x) == x1 * x1 / 2 - x2
    assert schur_polynomial(P(), {1: Fraction(7)}) == 1


def test_complete_homogeneous_matches_row_schur():
    x = {1: Fraction(2, 3), 2: Fraction(-1, 2), 3: Fraction(1, 5)}
    h = complete_homogeneous(x, 6)
    for n in range(1, 7):
        assert schur_polynomial(P(n), x) == h[n]


def test_jacobi_trudi_reads_one_long_series():
    # one series to degree 8 serves every diagram up to size 8, as the
    # per-diagram series of schur_polynomial does, over Q and over Poly
    for x in ({1: Fraction(2, 3), 2: Fraction(-1, 2), 3: Fraction(1, 5)},
              {1: Poly((1, 2)), 3: Fraction(-2, 7)}):
        h = complete_homogeneous(x, 8)
        for lam in partitions_up_to(8):
            assert _jacobi_trudi(lam, h) == schur_polynomial(lam, x), lam


def test_determinancy_builds_one_series_per_side_per_draw(monkeypatch):
    import youngfock.suites as suites

    calls = []

    def counted(x, order):
        calls.append(order)
        return complete_homogeneous(x, order)

    monkeypatch.setattr(suites, "complete_homogeneous", counted)
    rep = suites.suite_determinancy(seed=6)
    # two sides per draw, one for the x_1-only probe
    assert calls == [6] * (2 * 5 + 1)
    assert not rep["ok"]


def test_schur_weight_dual_route(rng):
    for _ in range(3):
        p = MiwaParams(
            x={k: rand_q(rng) for k in (1, 2, 3)},
            y={k: rand_q(rng) for k in (1, 2, 3)},
        )
        # the boson exponential (and its M = 1, gamma = 0 spelling) against
        # the per-diagram Jacobi-Trudi route
        schur = weight_table(MeasureSpec(kind="schur", params=p, truncation=6))
        m1 = weight_table(MeasureSpec(kind="m-virasoro", params=p, truncation=6, m_order=1))
        for lam in partitions_up_to(6):
            assert schur_weight(lam, p) == schur.weights[lam] == m1.weights[lam], lam


@pytest.mark.parametrize("kind,order", [("schur", 1), ("virasoro", 2)])
def test_kind_is_a_preset_of_the_m_fold_family(kind, order):
    # schur and virasoro fix (M, gamma): a spec that sets m_order or gamma
    # is rejected, and the table is the m-virasoro table at (order, 0)
    assert KINDS[kind][0] == (order, 0) and "gamma" not in KINDS[kind][1]
    p = MiwaParams(x={1: Fraction(1, 3), 2: Fraction(-1, 2)}, y={1: Fraction(2), 3: Fraction(1, 5)})
    kp = KerovParams(z=Fraction(1, 2), w=Fraction(-1, 3))
    for unread in ({"m_order": 4}, {"gamma": Fraction(1, 3)}, {"gamma": Fraction(0)},
                   {"m_order": order, "gamma": Fraction(1, 3)}):
        with pytest.raises(ValueError, match="fixes"):
            MeasureSpec(kind=kind, params=p, kerov=kp, truncation=5, **unread)
    got = weight_table(MeasureSpec(kind=kind, params=p, kerov=kp, truncation=5))
    want = weight_table(MeasureSpec(kind="m-virasoro", params=p, kerov=kp, truncation=5,
                                    m_order=order))
    assert (got.weights, got.z_trunc) == (want.weights, want.z_trunc)


def test_m_virasoro_spec_fills_in_its_defaults():
    spec = MeasureSpec(kind="m-virasoro", params=MiwaParams())
    assert (spec.m_order, spec.gamma) == (2, 0)


def test_schur_weight_trivial():
    assert schur_weight(P(), MiwaParams()) == 1
    p = MiwaParams(x={1: Fraction(2)}, y={1: Fraction(3)})
    assert schur_weight(P(1), p) == 6


def test_schur_positivity_at_nonnegative_specializations(rng):
    # Miwa coordinates of a genuine nonnegative variable specialization:
    # x_k = (sum_i a_i^k) / k with a_i >= 0
    for _ in range(3):
        avars = [abs(rand_q(rng)) for _ in range(3)]
        bvars = [abs(rand_q(rng)) for _ in range(2)]
        p = MiwaParams(
            x={k: sum(a ** k for a in avars) / k for k in range(1, 7)},
            y={k: sum(b ** k for b in bvars) / k for k in range(1, 7)},
        )
        for lam in partitions_up_to(6):
            assert schur_weight(lam, p) >= 0


def test_cauchy_normalizer_examples(rng):
    assert cauchy_normalizer(MiwaParams(), 6) == 1
    # single mode: truncated exp(x1 y1)
    a, b = Fraction(1, 2), Fraction(1, 3)
    p = MiwaParams(x={1: a}, y={1: b})
    expected = sum((a * b) ** m / __import__("math").factorial(m) for m in range(7))
    assert cauchy_normalizer(p, 6) == expected
    # matches the exhaustive weight sum through degree 6
    for _ in range(3):
        p = MiwaParams(
            x={k: rand_q(rng) for k in (1, 2, 3)},
            y={k: rand_q(rng) for k in (1, 2, 3)},
        )
        table = weight_table(MeasureSpec(kind="schur", params=p, truncation=6))
        assert cauchy_normalizer(p, 6) == table.z_trunc


def test_virasoro_table_empty_y_kills_everything():
    spec = MeasureSpec(kind="virasoro", params=MiwaParams(x={1: Fraction(1)}),
                       kerov=KerovParams(z=Fraction(1, 2), w=Fraction(1, 3)),
                       truncation=3)
    table = weight_table(spec)
    assert table.weights[P()] == 1
    assert all(table.weights[lam] == 0 for lam in table.partitions() if lam.size > 0)
    assert table.z_trunc == 1


def test_virasoro_table_row_two_value():
    z, w = Fraction(2, 5), Fraction(1, 7)
    x1, x2, y1 = Fraction(1, 2), Fraction(3), Fraction(1)
    spec = MeasureSpec(kind="virasoro",
                       params=MiwaParams(x={1: x1, 2: x2}, y={1: y1}),
                       kerov=KerovParams(z=z, w=w), truncation=2)
    table = weight_table(spec)
    ket = x2 * (z + Fraction(1, 2)) + x1 * x1 / 2 * z * (z + 1)
    bra = y1 * y1 / 2 * w * (w + 1)
    assert table.weights[P(2)] == ket * bra


def test_virasoro_table_polynomial_ring_degree_bound():
    t = Poly.gen()
    spec = MeasureSpec(kind="virasoro",
                       params=MiwaParams(x={1: Fraction(1), 2: Fraction(1, 2)},
                                         y={1: Fraction(1)}),
                       kerov=KerovParams(z=t, w=Fraction(1, 3)), truncation=4)
    table = weight_table(spec)
    raising = [(c, virasoro_op(-k, VirasoroParams(alpha=t))) for k, c in spec.params.x.items()]
    ket = exp_raising(raising, vacuum(), 4)
    for lam in table.partitions():
        coeff = ket.coefficient_of_partition(lam)
        deg = coeff.degree if isinstance(coeff, Poly) else 0
        assert deg <= lam.size


def test_table_polynomial_specialization_commutes(rng):
    x = {1: Fraction(1), 2: Fraction(-2, 3)}
    y = {1: Fraction(1, 2), 2: Fraction(1, 5)}
    w = Fraction(1, 3)
    t = Poly.gen()
    poly_table = weight_table(MeasureSpec(
        kind="virasoro", params=MiwaParams(x=x, y=y),
        kerov=KerovParams(z=t, w=w), truncation=4))
    for _ in range(3):
        q = rand_q(rng)
        num_table = weight_table(MeasureSpec(
            kind="virasoro", params=MiwaParams(x=x, y=y),
            kerov=KerovParams(z=q, w=w), truncation=4))
        for lam in poly_table.partitions():
            coeff = poly_table.weights[lam]
            value = coeff(q) if isinstance(coeff, Poly) else coeff
            assert value == num_table.weights[lam], lam


def test_m_virasoro_table_order2_equals_virasoro():
    x = {1: Fraction(1), 2: Fraction(1, 2)}
    y = {1: Fraction(2, 3), 2: Fraction(-1, 4)}
    kp = KerovParams(z=Fraction(1, 2), w=Fraction(2, 7))
    base = MeasureSpec(kind="virasoro", params=MiwaParams(x=x, y=y), kerov=kp, truncation=5)
    two = MeasureSpec(kind="m-virasoro", params=MiwaParams(x=x, y=y), kerov=kp,
                      truncation=5, m_order=2)
    t_v = weight_table(base)
    t_m = weight_table(two)
    assert t_v.weights == t_m.weights


def test_m_virasoro_table_order1_is_rescaled_schur():
    g = Fraction(1, 4)
    x = {1: Fraction(1), 2: Fraction(1, 3)}
    y = {1: Fraction(1, 2), 2: Fraction(2)}
    spec = MeasureSpec(kind="m-virasoro", params=MiwaParams(x=x, y=y),
                       kerov=KerovParams(z=Fraction(9, 5), w=Fraction(-1, 2)),
                       truncation=4, m_order=1, gamma=g)
    got = weight_table(spec)
    rescaled = MiwaParams(
        x={k: v * (1 - g * k) for k, v in x.items()},
        y={k: v * (1 + g * k) for k, v in y.items()},
    )
    # per diagram, so the check does not rest on the exponential
    assert got.weights == {lam: schur_weight(lam, rescaled) for lam in got.partitions()}


def test_m_virasoro_table_order3_runs_with_z_degree_bound():
    t = Poly.gen()
    spec = MeasureSpec(kind="m-virasoro",
                       params=MiwaParams(x={1: Fraction(1)}, y={1: Fraction(1)}),
                       kerov=KerovParams(z=t, w=Fraction(1, 2)),
                       truncation=4, m_order=3)
    table = weight_table(spec)
    for lam in table.partitions():
        coeff = table.weights[lam]
        deg = coeff.degree if isinstance(coeff, Poly) else 0
        assert deg <= 2 * lam.size


def test_weight_table_dispatch_and_validation():
    with pytest.raises(ValueError):
        MeasureSpec(kind="bogus", params=MiwaParams())
    p = MiwaParams(x={1: Fraction(1)}, y={1: Fraction(1)})
    assert weight_table(MeasureSpec(kind="schur", params=p, truncation=2)).kind == "schur"


def test_correlation_examples():
    trivial = weight_table(MeasureSpec(kind="schur", params=MiwaParams(), truncation=3))
    assert correlation([], trivial) == 1
    assert correlation([HalfInt(-1)], trivial) == 1
    assert correlation([HalfInt(1)], trivial) == 0


def test_correlation_against_independent_enumeration():
    a, b = Fraction(1, 2), Fraction(1, 3)
    p = MiwaParams(x={1: a}, y={1: b})
    table = weight_table(MeasureSpec(kind="schur", params=p, truncation=4))
    # independent route: Jacobi-Trudi weights and conf-prefix membership
    total = Fraction(0)
    norm = Fraction(0)
    for lam in partitions_up_to(4):
        wgt = schur_weight(lam, p)
        norm += wgt
        positions = {x.doubled for x in conf(lam, len(lam) + 2)}
        if 1 in positions:
            total += wgt
    assert correlation([HalfInt(1)], table) == total / norm


def test_correlation_counts_expected_particles():
    p = MiwaParams(x={1: Fraction(1, 2)}, y={1: Fraction(1, 2)})
    table = weight_table(MeasureSpec(kind="schur", params=p, truncation=4))
    window = [HalfInt(d) for d in range(-9, 10, 2)]
    by_points = sum((correlation([x], table) for x in window), Fraction(0))
    direct = Fraction(0)
    for lam in partitions_up_to(4):
        occ = {x.doubled for x in conf(lam, len(lam) + 5)}
        count = sum(1 for x in window if x.doubled in occ)
        direct += table.normalized(lam) * count
    assert by_points == direct


def test_weight_table_serialization():
    p = MiwaParams(x={1: Fraction(1)}, y={1: Fraction(1, 2)})
    table = weight_table(MeasureSpec(kind="schur", params=p, truncation=2))
    data = table.to_json()
    assert data["kind"] == "schur" and data["degree"] == 2
    assert data["weights"][0]["partition"] == []
    rows = table.to_csv_rows()
    assert rows[0] == ["partition", "weight", "normalized"]
    assert len(rows) == 1 + len(partitions_up_to(2))


def test_miwa_validation():
    with pytest.raises(ValueError):
        MiwaParams(x={0: Fraction(1)})
    p = MiwaParams(x={1: Fraction(0), 2: Fraction(1)})
    assert 1 not in p.x and 2 in p.x


def _z_measure_mismatches(a, b, z, w, degree, ket_shift=0):
    """The diagrams where the virasoro table at x = {1: a}, y = {1: b}
    differs from the z-measure weight at xi = ab, with the oracle's ket
    side at z + ket_shift, and whether the normalizers agree."""
    spec = MeasureSpec("virasoro", MiwaParams(x={1: a}, y={1: b}), KerovParams(z, w), degree)
    table = weight_table(spec)
    xi = a * b
    bad = [lam for lam in table.partitions()
           if table.weights[lam] != z_measure_weight(lam, z + ket_shift, w, xi)]
    return bad, table.z_trunc == z_measure_normalizer(z + ket_shift, w, xi, degree)


@pytest.mark.parametrize("seed", [1, 2])
def test_virasoro_table_is_the_z_measure(seed):
    # the paper's first result at one Miwa variable per side: weight
    # xi**|lam| (z)_lam (w)_lam / H(lam)**2 and normalizer
    # sum (zw)_n xi**n / n!, on every diagram of degree <= 8
    rng = random.Random(seed)
    a, b, z, w = (rand_q(rng, nonzero=True) for _ in range(4))
    assert _z_measure_mismatches(a, b, z, w, 8) == ([], True)
    # self-test: the ket side at z + 1 differs from degree 1 on
    bad, normalizer_equal = _z_measure_mismatches(a, b, z, w, 8, ket_shift=1)
    assert Partition((1,)) in bad and not normalizer_equal


def test_virasoro_table_is_the_z_measure_for_every_z_and_w():
    # Kronecker substitution (z, w) = (t, t**(N+1)): the ket weight of lam is
    # a polynomial in z of degree <= |lam| <= N and the bra weight one in w,
    # so the substitution is injective on their products, and this one run
    # proves the identity for every (z, w) up to degree N
    n = 7
    t = Poly.gen()
    a, b = Fraction(2, 3), Fraction(-5, 7)
    assert _z_measure_mismatches(a, b, t, t ** (n + 1), n) == ([], True)
    bad, normalizer_equal = _z_measure_mismatches(a, b, t, t ** (n + 1), n, ket_shift=1)
    assert len(bad) == len(partitions_up_to(n)) - 1 and not normalizer_equal
