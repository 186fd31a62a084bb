import math
from fractions import Fraction

import pytest

import youngfock.repstructure as rs
from youngfock.fock import VACUUM_STATE, FockVector, _divided, basis_index, clear, image
from youngfock.operators import (Bilinear, KerovParams, MVirasoro, hook_lower, hook_raise, kerov_d,
                                 kerov_l, kerov_u)
from youngfock.partitions import Partition, partitions_of
from youngfock.repstructure import (
    decomposition_report,
    highest_weight_check,
    image_rows,
    kernel_basis,
    rank_of_D,
)
from youngfock.rings import Poly, _eliminate, kernel, rank

from . import oracles
from .conftest import rand_q
from .oracles import (
    dense_echelon,
    dense_nullspace,
    highest_weight_check_by_vectors,
    image_rows_by_vectors,
    kernel_basis_by_vectors,
    matrix_of_by_vectors,
    pentagonal_count,
    sparse_rows,
)


def P(*parts):
    return Partition(parts)


KP = KerovParams(z=Fraction(2, 3), w=Fraction(5, 7))


def matrix_of(op, n):
    """The matrix of op at degree n: its integer rows over op.den, one
    row per partition of the target degree, columns ``partitions_of(n)``."""
    width = len(basis_index(n))
    return tuple(tuple(_divided(row[c], op.den) if c in row else Fraction(0)
                       for c in range(width)) for row in rs._rows(op, n))


def as_vector(vec):
    """An integer vector {state: int} as a FockVector of Fractions."""
    return FockVector({st: Fraction(c) for st, c in vec.items()})


def test_matrix_of_examples():
    # one row per partition of the target degree, columns partitions_of(n)
    assert partitions_of(2) == (P(2), P(1, 1)) and partitions_of(1) == (P(1),)
    assert matrix_of(kerov_d(KP), 2) == ((KP.w + 1, KP.w - 1),)
    assert matrix_of(kerov_u(KP), 0) == ((KP.z,),)
    assert matrix_of(kerov_d(KP), 0) == ()

    m = matrix_of(kerov_l(KP), 3)
    diag = KP.z * KP.w + 6
    assert m == tuple(tuple(diag if i == j else 0 for j in range(3)) for i in range(3))

    # the transpose of the oracle's image rows over the basis vectors of the degree
    for op, n in ((kerov_u(KP), 4), (kerov_d(KP), 5)):
        basis = [FockVector.from_partition(lam) for lam in partitions_of(n)]
        rows = image_rows_by_vectors(op, basis, n + op.degree_shift)
        assert matrix_of(op, n) == tuple(zip(*rows))


def test_image_rows_are_den_times_the_images():
    # integer vectors over states in, sparse numerator rows over op.den out
    op = kerov_u(KP)
    states = list(basis_index(3))
    vectors = [{states[0]: 2, states[2]: -3}, {states[1]: 1}, {}]
    rows = image_rows(op, vectors, 4)
    assert all(type(v) is int for row in rows for v in row.values()) and rows[2] == {}
    want = image_rows_by_vectors(op, [FockVector({st: Fraction(c) for st, c in vec.items()})
                                      for vec in vectors], 4)
    assert [[Fraction(row.get(c, 0), op.den) for c in range(5)] for row in rows] == want


def test_matrix_of_matches_the_vector_oracle():
    # exact values and scalar types, over rational and Poly parameters
    t = Poly.gen()
    for p in (KP, KerovParams(z=Fraction(-1, 3), w=t), KerovParams(z=t, w=Fraction(2, 5))):
        for op in (kerov_u(p), kerov_d(p), kerov_l(p), hook_raise(2, p), hook_lower(3, p)):
            for n in range(7):
                got, want = matrix_of(op, n), matrix_of_by_vectors(op, n)
                assert got == want, (op, n)
                assert [list(map(type, r)) for r in got] == [list(map(type, r)) for r in want]
    m3 = MVirasoro(3, 1, Fraction(1, 3), Fraction(-1, 2))
    for n in range(5):
        assert matrix_of(m3, n) == matrix_of_by_vectors(m3, n)


def test_rank_of_D_examples(rng):
    for _ in range(3):
        assert rank_of_D(2, rand_q(rng)) == 1
    assert rank_of_D(5, Fraction(3)) == pentagonal_count(4)
    assert rank_of_D(1, Fraction(0)) == 0
    assert rank_of_D(0, Fraction(4)) == 0


def test_rank_of_D_full_sweep(rng):
    for n in range(1, 9):
        ws = [rand_q(rng) for _ in range(3)] + [Fraction(i) for i in range(-n - 1, n + 2)]
        for w in ws:
            expected = 0 if (n == 1 and w == 0) else pentagonal_count(n - 1)
            assert rank_of_D(n, w) == expected, (n, w)


def test_rank_of_D_generic_over_polynomial_w(rng):
    # generic rank over the ring of polynomials in w, with specialization
    # spot checks at sampled rational points
    t = Poly.gen()
    for n in (1, 2, 3, 4, 5):
        assert rank_of_D(n, t) == pentagonal_count(n - 1)
        for _ in range(3):
            q = rand_q(rng)
            expected = 0 if (n == 1 and q == 0) else pentagonal_count(n - 1)
            assert rank_of_D(n, q) == expected


def test_removal_gram_identity_proves_full_rank_for_real_w():
    # D_n D_n^T - D_(n-1)^T D_(n-1) = den^2 (w^2 + 2(n - 1)) I over Poly w,
    # the sl2 bracket [D, U] = zw + 2 degree with D^T = U at z = w; so
    # D_n D_n^T is positive definite for real w at n >= 2, rank p(n - 1)
    t = Poly.gen()
    d_op = kerov_d(KerovParams(z=Fraction(0), w=t))

    def gram(rows, n_cols, transpose):
        cols = [{} for _ in range(n_cols)]
        for i, row in enumerate(rows):
            for c, v in row.items():
                cols[c][i] = v
        vecs = cols if transpose else rows
        return [[sum((v * b[k] for k, v in a.items() if k in b), Poly()) for b in vecs]
                for a in vecs]

    for n in range(2, 9):
        size = len(partitions_of(n - 1))
        outer = gram(rs._rows(d_op, n), len(partitions_of(n)), transpose=False)
        inner = gram(rs._rows(d_op, n - 1), size, transpose=True)
        shift = d_op.den ** 2 * (t * t + 2 * (n - 1))
        assert [[a - b for a, b in zip(r, s)] for r, s in zip(outer, inner)] == \
            [[shift if i == j else 0 for j in range(size)] for i in range(size)], n


def test_kernel_basis_examples(rng):
    z = rand_q(rng, nonzero=True)
    w = rand_q(rng)
    p = KerovParams(z=z, w=w)
    assert kernel_basis(kerov_u(p), 3) == []
    kern = kernel_basis(kerov_d(p), 2)
    assert len(kern) == 1
    v = as_vector(kern[0])
    # proportional to (w-1)|(2)> - (w+1)|(1,1)>
    c2 = v.coefficient_of_partition(P(2))
    c11 = v.coefficient_of_partition(P(1, 1))
    assert c2 * (-(w + 1)) == c11 * (w - 1)
    assert kerov_d(p).apply(v).is_zero()
    # z = 0 kernel at degree 0 spans the vacuum
    kern0 = kernel_basis(kerov_u(KerovParams(z=Fraction(0), w=w)), 0)
    assert kern0 == [{VACUUM_STATE: 1}]


def test_kernel_basis_rejects_polynomial_entries():
    # the kernel is computed over Q; a formal w must be refused up front,
    # not fail inside the back-substitution
    with pytest.raises(ValueError, match="over Q"):
        kernel_basis(kerov_d(KerovParams(z=1, w=Poly.gen())), 2)


def test_kernel_of_U_trivial_sweep(rng):
    for z in [rand_q(rng, nonzero=True) for _ in range(3)] + [Fraction(k) for k in range(-3, 4)]:
        p = KerovParams(z=z, w=rand_q(rng))
        for n in range(1, 8):
            assert kernel_basis(kerov_u(p), n) == [], (z, n)


def test_rank_nullity_per_degree(rng):
    w = rand_q(rng)
    p = KerovParams(z=Fraction(1), w=w)
    for n in range(0, 9):
        rank = rank_of_D(n, w)
        kern = kernel_basis(kerov_d(p), n)
        assert rank + len(kern) == pentagonal_count(n)


def test_highest_weight_check(rng):
    # (kernel, killed, eigen): both verdicts hold on the true kernel
    z, w = rand_q(rng), rand_q(rng)
    vectors, killed, eigen = highest_weight_check(2, z, w)
    assert killed and eigen and len(vectors) == 1
    v = as_vector(vectors[0])
    assert kerov_l(KerovParams(z=z, w=w)).apply(v) == v.scale(z * w + 4)
    vectors, killed, eigen = highest_weight_check(0, z, w)
    assert killed and eigen and [as_vector(v) for v in vectors] == [FockVector.from_partition(P())]
    for n in range(0, 7):
        got, killed, eigen = highest_weight_check(n, z, w)
        expected_count = pentagonal_count(n) - (pentagonal_count(n - 1) if n else 0)
        assert killed and eigen and len(got) == expected_count


def test_u_maps_kernel_to_independent_vectors(rng):
    z, w = rand_q(rng, nonzero=True), rand_q(rng, nonzero=True)
    p = KerovParams(z=z, w=w)
    for n in range(2, 7):
        kern = [as_vector(v) for v in kernel_basis(kerov_d(p), n)]
        images = [kerov_u(p).apply(v) for v in kern]
        basis = partitions_of(n + 1)
        index = {lam: i for i, lam in enumerate(basis)}
        rows = []
        for img in images:
            row = [Fraction(0)] * len(basis)
            for state, coeff in img.terms():
                row[index[state.to_partition()]] = coeff
            rows.append(row)
        assert len(dense_echelon(rows)[1]) == len(kern)


def test_decomposition_report_cases(rng):
    z, w = rand_q(rng, nonzero=True), rand_q(rng, nonzero=True)
    rep = decomposition_report(z, w, 4)
    assert rep.case == "both-nonzero"
    assert all(r["holds"] for r in rep.relations)
    for row in rep.per_degree:
        assert row["rank_nullity_ok"] and row["hw_ok"]
        if row["degree"] >= 2:
            assert row["verma_multiplicity"] == (
                pentagonal_count(row["degree"]) - pentagonal_count(row["degree"] - 1))

    rep = decomposition_report(Fraction(0), Fraction(0), 3)
    assert rep.case == "both-zero"
    assert all(r["holds"] for r in rep.relations)

    rep = decomposition_report(Fraction(0), Fraction(5), 3)
    assert rep.case == "z-zero"
    assert all(r["holds"] for r in rep.relations)
    # the lowering of the one-box diagram really is w times the vacuum
    assert any("normalizes that scalar" in n for n in rep.notes)

    rep = decomposition_report(Fraction(7), Fraction(0), 3)
    assert rep.case == "w-zero"
    assert all(r["holds"] for r in rep.relations)
    payload = rep.to_json()
    assert payload["case"] == "w-zero"
    assert len(payload["per_degree"]) == 4


@pytest.mark.parametrize("z,w", [(Fraction(2, 3), Fraction(-5, 7)), (Fraction(0), Fraction(3, 4)),
                                 (Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(0))],
                         ids=["both-nonzero", "z-zero", "w-zero", "both-zero"])
def test_sparse_elimination_matches_dense_on_ladder_matrices(z, w):
    p = KerovParams(z=z, w=w)
    d_op, u_op = kerov_d(p), kerov_u(p)

    def check_elimination(m, cols, where):
        want_rows, pivots, factor = dense_echelon(m)
        got_rows, got_pivots, got_factor = _eliminate(sparse_rows(m))
        assert [[row.get(c, 0) for c in range(cols)] for row in got_rows] == want_rows, where
        assert (got_pivots, got_factor) == (pivots, factor), where
        return pivots

    for n in range(10):
        for op in (d_op, u_op):
            m, cols = matrix_of(op, n), len(partitions_of(n))
            pivots = check_elimination(m, cols, (op, n))
            rows = rs._rows(op, n)
            assert rank(rows) == len(pivots), (op, n)
            # each kernel vector over its entry at its free column, its largest
            got = [[Fraction(vec.get(c, 0), vec[max(vec)]) for c in range(cols)]
                   for vec in kernel(rows, cols)]
            assert got == dense_nullspace(m, cols), (op, n)
        # the u-image rows of the decomposition report
        vectors = kernel_basis(d_op, n)
        want = image_rows_by_vectors(u_op, [as_vector(v) for v in vectors], n + 1)
        pivots = check_elimination(want, len(partitions_of(n + 1)), n)
        assert rank(image_rows(u_op, vectors, n + 1)) == len(pivots), n


CASES = [(Fraction(2, 3), Fraction(-5, 7)), (Fraction(0), Fraction(3, 4)),
         (Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(0))]
CASE_IDS = ["both-nonzero", "z-zero", "w-zero", "both-zero"]


def test_ranks_match_the_vector_oracle(rng):
    t = Poly.gen()
    ws = [rand_q(rng) for _ in range(3)] + [Fraction(i) for i in range(-3, 4)]
    for w, top in [(w, 9) for w in ws] + [(t, 7), (t * t - 1, 6)]:
        d_op = kerov_d(KerovParams(z=Fraction(0), w=w))
        for n in range(top):
            assert rank_of_D(n, w) == len(dense_echelon(matrix_of_by_vectors(d_op, n))[1]), (w, n)


@pytest.mark.parametrize("z,w", CASES, ids=CASE_IDS)
def test_u_image_rank_matches_the_vector_oracle(z, w):
    # rational z, and a Poly z whose u-image rows are Poly numerators
    for zz in (z, Poly((z, 1))):
        p = KerovParams(z=zz, w=w)
        u_op, d_op = kerov_u(p), kerov_d(p)
        for n in range(9):
            got = rank(image_rows(u_op, kernel_basis(d_op, n), n + 1))
            want = image_rows_by_vectors(u_op, kernel_basis_by_vectors(d_op, n), n + 1)
            assert got == len(dense_echelon(want)[1]), (zz, n)


@pytest.mark.parametrize("z,w", CASES, ids=CASE_IDS)
def test_kernel_vectors_are_multiples_of_the_oracle(z, w):
    p = KerovParams(z=z, w=w)
    for op in (kerov_d(p), kerov_u(p)):
        for n in range(10):
            got, want = kernel_basis(op, n), kernel_basis_by_vectors(op, n)
            assert len(got) == len(want), (op, n)
            for g, v in zip(got, want):
                # primitive integer vectors
                assert all(type(c) is int for c in g.values())
                assert math.gcd(*g.values()) == 1
                state, c0 = next(v.terms())
                ratio = g.get(state, 0) / c0
                assert ratio != 0 and as_vector(g) == v.scale(ratio), (op, n)


@pytest.mark.parametrize("z,w", CASES + [(Fraction(-3, 4), Fraction(5, 6))],
                         ids=CASE_IDS + ["both-nonzero-2"])
def test_highest_weight_verdicts_match_the_vector_oracle(z, w, monkeypatch):
    d_off = kerov_d(KerovParams(z=z, w=w + 1))
    flagged = 0
    for n in range(8):
        got, killed, eigen = highest_weight_check(n, z, w)
        want, killed0, eigen0 = highest_weight_check_by_vectors(n, z, w)
        assert (killed, eigen) == (killed0, eigen0) == (True, True), n
        # negative control: a D built at w + 1 in the kill check
        d_terms = clear([(1, d_off, None)])[1]
        off = [bool(image(d_terms, vec)) for vec in got]
        assert off == [not d_off.apply(as_vector(v)).is_zero() for v in got], n
        flagged += sum(off)
    assert flagged
    # negative control: a diagonal shifted by one misses z*w + 2N
    shifted = lambda p: Bilinear(0, (p.z + p.w, 2), p.z * p.w + 1)  # noqa: E731
    monkeypatch.setattr(rs, "kerov_l", shifted)
    monkeypatch.setattr(oracles, "kerov_l", shifted)
    for n in range(6):
        got, want = highest_weight_check(n, z, w), highest_weight_check_by_vectors(n, z, w)
        # an empty kernel (degree 1 unless w = 0) carries every weight
        assert got[1:] == want[1:] == (True, not got[0]), n
