from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
import hypothesis.strategies as st

from youngfock.fock import (
    FockVector,
    MayaState,
    Psi,
    VACUUM_STATE,
    StateOperator,
    boson_moves,
    vacuum,
)
from youngfock.operators import boson_op
from youngfock.partitions import HalfInt, Partition, partitions_of, partitions_up_to
from youngfock.rings import Poly, scalar_to_json

from .conftest import partitions, small_rationals
from .oracles import (
    boson_moves_by_remove_insert,
    boson_zero_eigenvalue,
    charged_states,
    inner,
    naive_boson,
    naive_insert,
    naive_move,
    naive_remove,
    prefix_of_partition,
    psi,
    psi_star,
    rim_hooks_addable,
    state_of_prefix,
)


def h(d):
    return HalfInt(d)


def P(*parts):
    return Partition(parts)


def ket(*parts):
    return FockVector.from_partition(Partition(parts))


def test_maya_roundtrip_charge0():
    for n in range(7):
        for lam in partitions_of(n):
            state = MayaState.from_partition(lam)
            assert state.charge == 0
            assert state.degree == lam.size
            assert state.to_partition() == lam


@given(partitions(max_size=8), st.integers(min_value=-2, max_value=2))
def test_maya_charge_sectors(lam, c):
    state = MayaState.from_partition(lam, charge=c)
    assert state.charge == c
    assert state.degree == lam.size


def test_inner_examples():
    assert inner(vacuum(), vacuum()) == 1
    assert inner(ket(1), ket(2)) == 0
    u = ket() .scale(2) + ket(1).scale(3)
    assert inner(u, u) == 13


def test_inner_charge_mismatch():
    with pytest.raises(ValueError):
        inner(vacuum(), Psi(h(1)).apply(vacuum()))


def test_psi_examples():
    v = Psi(h(1)).apply(vacuum())
    assert len(v) == 1 and v.charge == 1
    state, coeff = next(v.terms())
    assert coeff == 1 and state.above == (1,)
    assert Psi(h(1)).apply(v).is_zero()
    # annihilating an absent particle
    assert psi_star(h(3), vacuum()).is_zero()


def _by_prefix_model(hit):
    """A (sign, prefix) result of the prefix model as (sign, state)."""
    return None if hit is None else (hit[0], state_of_prefix(hit[1]))


@given(partitions(max_size=6), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-2, max_value=2))
def test_psi_signs_against_prefix_model(lam, pos_index, charge):
    d = 2 * pos_index + 1
    depth = len(lam) + 7
    prefix = prefix_of_partition(lam.parts, depth, charge)
    state = MayaState.from_partition(lam, charge)
    assert state_of_prefix(prefix) == state
    assert state.insert(h(d)) == _by_prefix_model(naive_insert(prefix, d))
    assert state.remove(h(d)) == _by_prefix_model(naive_remove(prefix, d))


@pytest.mark.parametrize("charge", range(-2, 3))
def test_moves_against_prefix_model(charge):
    # every move between positions -11/2..11/2, or to or from outside the
    # state, on every state of degree <= 5 in the sector
    ends = [None] + list(range(-11, 12, 2))
    for n in range(6):
        for lam in partitions_of(n):
            prefix = prefix_of_partition(lam.parts, len(lam) + 9, charge)
            state = MayaState.from_partition(lam, charge)
            for d in ends:
                for t in ends if d is not None else ends[1:]:
                    want = _by_prefix_model(naive_move(prefix, d, t))
                    assert state._moved(d, t) == want, (lam, charge, d, t)


def test_car_relations():
    # anticommutators on every basis state of degree <= 6, |x|,|y| <= 13/2
    coords = [h(d) for d in range(-13, 14, 2)]
    states = [FockVector.from_partition(lam) for lam in partitions_up_to(6)]
    for x in coords:
        for y in coords:
            for v in states:
                acc = Psi(x).apply(Psi(y).apply(v)) + Psi(y).apply(Psi(x).apply(v))
                assert acc.is_zero(), (x, y)
                mixed = Psi(x).apply(psi_star(y, v)) + psi_star(y, Psi(x).apply(v))
                if x == y:
                    assert mixed == v, (x, y)
                else:
                    assert mixed.is_zero(), (x, y)


def test_psi_adjointness_random(rng):
    coords = [h(d) for d in range(-9, 10, 2)]
    pool = partitions_up_to(5)
    for _ in range(20):
        u = FockVector({
            MayaState.from_partition(pool[rng.randrange(len(pool))]):
                Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for _ in range(3)
        })
        v_charged = psi(coords[rng.randrange(len(coords))], FockVector.from_partition(
            pool[rng.randrange(len(pool))]))
        if v_charged.is_zero():
            continue
        x = coords[rng.randrange(len(coords))]
        assert inner(Psi(x).apply(u), v_charged) == inner(u, psi_star(x, v_charged))


def test_boson_examples():
    assert boson_op(-1).apply(vacuum()) == ket(1)
    assert boson_op(1).apply(vacuum()).is_zero()
    assert boson_op(-3).apply(vacuum()) == ket(3) - ket(2, 1) + ket(1, 1, 1)


def test_boson_zero_index_error():
    with pytest.raises(ValueError):
        boson_op(0).apply(vacuum())


def test_boson_zero_examples():
    assert boson_zero_eigenvalue(Fraction(0), ket(2, 1)).is_zero()
    assert boson_zero_eigenvalue(Fraction(3, 2), vacuum()) == vacuum().scale(Fraction(3, 2))
    # centrality against every mode on degree <= 5
    alpha = Fraction(2, 7)
    for lam in partitions_up_to(5):
        v = FockVector.from_partition(lam)
        for k in range(-3, 4):
            if k == 0:
                continue
            left = boson_zero_eigenvalue(alpha, boson_op(k).apply(v))
            right = boson_op(k).apply(boson_zero_eigenvalue(alpha, v))
            assert left == right


def test_boson_against_prefix_model():
    for charge in range(-2, 3):
        for n in range(7):
            for lam in partitions_of(n):
                state = MayaState.from_partition(lam, charge)
                for k in list(range(-5, 0)) + list(range(1, 6)):
                    depth = len(lam) + abs(k) + 2
                    prefix = prefix_of_partition(lam.parts, depth, charge)
                    want = {state_of_prefix(new_prefix): coeff
                            for new_prefix, coeff in naive_boson(k, prefix).items()}
                    got = dict(boson_op(k).apply(FockVector.basis(state)).terms())
                    assert got == want, (lam, charge, k)


@pytest.mark.parametrize("k", [k for k in range(-6, 7) if k])
def test_direct_jumps_match_remove_then_insert(k):
    # charges -2..2, degree <= 8: targets, signs, starts and their order
    states = charged_states(8, charges=range(-2, 3))
    assert len(states) == 5 * 67
    signs = set()
    for st in states:
        got = boson_moves(k, st)
        assert got == boson_moves_by_remove_insert(k, st), (st, k)
        signs.update(sign for _, sign, _ in got)
    # a one-step jump passes no particle; every longer one passes some
    assert signs == ({1} if abs(k) == 1 else {-1, 1})


def test_boson_matches_signed_hook_sum():
    # wedge definition vs combinatorial rule, degree <= 8, hooks <= 6
    for n in range(0, 9):
        for lam in partitions_of(n):
            v = FockVector.from_partition(lam)
            for k in range(1, 7):
                expected = FockVector.zero()
                for mv in rim_hooks_addable(lam, k):
                    sign = Fraction(-1 if (mv.height - 1) % 2 else 1)
                    expected = expected + FockVector.from_partition(mv.result, sign)
                assert boson_op(-k).apply(v) == expected, (lam, k)


def test_heisenberg_relations():
    for n in range(-4, 5):
        for m in range(-4, 5):
            if n == 0 or m == 0:
                continue
            for d in range(0, 7):
                for lam in partitions_of(d):
                    v = FockVector.from_partition(lam)
                    a_n, a_m = boson_op(n), boson_op(m)
                    got = a_n.apply(a_m.apply(v)) - a_m.apply(a_n.apply(v))
                    want = v.scale(Fraction(n)) if n + m == 0 else FockVector.zero()
                    assert got == want, (n, m, lam)


@given(partitions(max_size=6), st.integers(min_value=-4, max_value=4))
def test_boson_degree_grading(lam, k):
    if k == 0:
        return
    v = FockVector.from_partition(lam)
    image = boson_op(k).apply(v)
    if image:
        assert image.degree() == lam.size - k
        assert image.charge == 0


def test_fockvector_drops_zeros_and_checks_charge():
    v = FockVector({VACUUM_STATE: Fraction(0)})
    assert v.is_zero()
    with pytest.raises(ValueError):
        FockVector({
            VACUUM_STATE: Fraction(1),
            MayaState.from_partition(Partition(), charge=1): Fraction(1),
        })


def test_fockvector_json_shape():
    v = ket(2, 1).scale(Fraction(3, 4)) + vacuum()
    data = v.to_json()
    assert data["charge"] == 0
    assert data["terms"][0] == {"partition": [], "coeff": "1"}
    assert data["terms"][1] == {"partition": [2, 1], "coeff": "3/4"}


# -- the one merge: sums, differences and apply against a plain dict --

_POOL = [MayaState.from_partition(lam) for lam in partitions_up_to(3)]  # the vacuum first
_coeffs = st.one_of(small_rationals, small_rationals.map(lambda q: Poly((q,))),
                    st.lists(small_rationals, max_size=3).map(Poly))
_pairs = st.lists(st.tuples(st.sampled_from(_POOL), _coeffs), max_size=8)


class _Table(StateOperator):
    """The operator whose numerators on _POOL[i] are images[i], over den 1."""

    __slots__ = ("images",)
    den = 1

    def __init__(self, images):
        self._set(images=images, _memo={})

    def _numerators(self, st):
        return self.images[_POOL.index(st)]


def _dict_sum(pairs):
    """Sum per state in a plain dict, then drop the zero sums."""
    out = {}
    for state, c in pairs:
        out[state] = out[state] + c if state in out else c
    return {s: c for s, c in out.items() if c != 0}


def _json(sums):
    # the shape of FockVector.to_json for charge-0 terms, built without a
    # FockVector, so a fault in the constructor shows on one side only
    terms = [{"partition": s.to_partition().to_json(), "coeff": scalar_to_json(c)}
             for s, c in sorted(sums.items(), key=lambda item: item[0].sort_key())]
    return {"charge": 0, "terms": terms}


# no explain phase: on a failure it takes minutes over these nested lists,
# and the shrunk example already names the terms at fault
@settings(phases=[p for p in Phase if p is not Phase.explain])
# a sum is a Poly when any of its terms is, whatever their order: a zero
# Poly term first, or a Poly term that cancels before the last one
@example([(VACUUM_STATE, Poly(())), (VACUUM_STATE, Fraction(1))], [], [], [[]] * len(_POOL))
@example([(VACUUM_STATE, Fraction(1))], [], [],
         [[(VACUUM_STATE, Fraction(1)), (VACUUM_STATE, Poly((-1,))), (VACUUM_STATE, Fraction(2))]]
         + [[]] * (len(_POOL) - 1))
@given(_pairs, _pairs, st.lists(st.booleans(), max_size=8),
       st.lists(_pairs, min_size=len(_POOL), max_size=len(_POOL)))
def test_vector_sums_match_a_plain_dict_sum(pa, pb, cancel, images):
    a = FockVector(pa)
    assert a.to_json() == _json(_dict_sum(pa))
    # b repeats some of a's terms with the opposite sign, so sums cancel
    # exactly, down to the empty vector when every term is repeated
    terms_a = list(a.terms())
    b = FockVector(pb + [(s, -c) for (s, c), neg in zip(terms_a, cancel) if neg])
    terms_b = list(b.terms())
    assert (a + b).to_json() == _json(_dict_sum(terms_a + terms_b))
    assert (a - b).to_json() == _json(_dict_sum(terms_a + [(s, -c) for s, c in terms_b]))
    assert (a - a).to_json() == {"charge": 0, "terms": []}

    table = _Table(images)
    want = _dict_sum((new, c * x) for s, c in terms_a for new, x in table.numerators(s))
    assert table.apply(a).to_json() == _json(want)


def test_psi_numerators_are_the_insert_sign():
    # psi_x as an operator: den 1, and on every basis state the one
    # (state, sign) pair of MayaState.insert, or nothing
    states = charged_states(4)
    for x in (HalfInt(d) for d in range(-11, 12, 2)):
        op = Psi(x)
        assert op.den == 1 and op == Psi(x) and hash(op) == hash(Psi(x))
        for st in states:
            hit = st.insert(x)
            got = op.numerators(st)
            assert got == (((hit[1], hit[0]),) if hit else ()), (x, st)
            assert all(type(n) is int for _, n in got) and op.numerators(st) is got
            v = FockVector.basis(st)
            assert op.apply(v) == psi(x, v), (x, st)
    assert Psi(HalfInt(1)) != Psi(HalfInt(-1))
