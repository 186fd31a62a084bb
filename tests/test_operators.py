import math
import random
from fractions import Fraction

import pytest

from youngfock.fock import (VACUUM_STATE, FockVector, MayaState, Psi, _divided, boson_moves, clear,
                           failures, image, vacuum)
from youngfock.operators import (
    Bilinear,
    KerovParams,
    MVirasoro,
    VirasoroParams,
    boson_op,
    commutator_check,
    exp_raising,
    hook_diagonal,
    hook_lower,
    hook_raise,
    kerov_d,
    kerov_l,
    kerov_u,
    m_virasoro_op,
    virasoro_op,
    virasoro_params_for_rimhook,
    virasoro_params_from_kerov,
)
from youngfock.partitions import HalfInt, Partition, partitions_of, partitions_up_to
from youngfock.rings import Poly, random_rational
from youngfock.suites import run_suite

from .oracles import (addable_boxes, apply_by_numerators, as_partition_dict, bilinear_action,
                      commutator_by_vectors, exp_by_powers, exp_lowering_bra, inner,
                      is_cleared_numerator,
                      m_virasoro_state_by_tuples,
                      removable_boxes, rim_hooks_addable, rim_hooks_removable)


def P(*parts):
    return Partition(parts)


def ket(*parts):
    return FockVector.from_partition(Partition(parts))


def charged_states(max_degree, charges=(-1, 0, 1)):
    return [MayaState.from_partition(lam, charge=c)
            for c in charges for lam in partitions_up_to(max_degree)]


Z, W = Fraction(5, 7), Fraction(-3, 4)
KP = KerovParams(z=Z, w=W)
VP = virasoro_params_from_kerov(KP)


def test_kerov_examples():
    assert kerov_u(KP).apply(vacuum()) == ket(1).scale(Z)
    assert kerov_u(KP).apply(ket(1)) == ket(2).scale(Z + 1) + ket(1, 1).scale(Z - 1)
    assert kerov_l(KP).apply(vacuum()) == vacuum().scale(Z * W)
    assert kerov_d(KP).apply(ket(1)) == vacuum().scale(W)
    assert kerov_d(KP).apply(vacuum()).is_zero()


def test_rimhook_kerov_examples():
    assert hook_raise(1, KP).apply(vacuum()) == ket(1).scale(Z)
    for r in range(1, 5):
        assert hook_lower(r, KP).apply(vacuum()).is_zero()
    got = as_partition_dict(hook_raise(3, KP).apply(vacuum()))
    want = {}
    for mv in rim_hooks_addable(P(), 3):
        sign = Fraction(-1 if (mv.height - 1) % 2 else 1)
        want[mv.result] = sign * (Z + Fraction(mv.leftmost_content, 3) + Fraction(1, 3))
    assert got == want
    with pytest.raises(ValueError):
        hook_raise(0, KP)


def test_rimhook_unit_hooks_match_boxes():
    # the bilinear kernel against the box rule read off the diagram
    for n in range(6):
        for lam in partitions_of(n):
            v = FockVector.from_partition(lam)
            added = FockVector.zero()
            for b in addable_boxes(lam):
                parts = list(lam.parts) + [0]
                parts[b.row - 1] += 1
                added = added + ket(*[q for q in parts if q]).scale(Z + b.content)
            removed = FockVector.zero()
            for b in removable_boxes(lam):
                parts = list(lam.parts)
                parts[b.row - 1] -= 1
                removed = removed + ket(*[q for q in parts if q]).scale(W + b.content)
            assert hook_raise(1, KP).apply(v) == added, lam
            assert hook_lower(1, KP).apply(v) == removed, lam
            assert kerov_l(KP).apply(v) == v.scale(Z * W + 2 * n)


def test_rimhook_triple_closes():
    # [D_r, U_r] = H_r, [H_r, U_r] = 2 U_r, [H_r, D_r] = -2 D_r in charges -1, 0, 1
    for r in (1, 2, 3):
        up, down, diag = hook_raise(r, KP), hook_lower(r, KP), hook_diagonal(r, KP)
        for state in charged_states(4):
            v = FockVector.basis(state)
            assert down.apply(up.apply(v)) - up.apply(down.apply(v)) == diag.apply(v), (r, state)
            assert diag.apply(up.apply(v)) - up.apply(diag.apply(v)) == up.apply(v).scale(2)
            assert diag.apply(down.apply(v)) - down.apply(diag.apply(v)) == down.apply(v).scale(-2)


def test_virasoro_vacuum_examples():
    a, g = VP.alpha, VP.gamma
    assert virasoro_op(-1, VP).apply(vacuum()) == ket(1).scale(a - g)
    got = virasoro_op(-2, VP).apply(vacuum())
    want = ket(2).scale(a - 2 * g + Fraction(1, 2)) - ket(1, 1).scale(a - 2 * g - Fraction(1, 2))
    assert got == want


def test_virasoro_bracket_on_vacuum():
    up, down = virasoro_op(-1, VP), virasoro_op(1, VP)
    lhs = down.apply(up.apply(vacuum())) - up.apply(down.apply(vacuum()))
    assert lhs == virasoro_op(0, VP).apply(vacuum()).scale(2)


def test_virasoro_closed_hook_form():
    # the kernel against the signed hook sum built from the rim-hook oracle
    for k in range(1, 5):
        z_k = VP.alpha - VP.gamma * k
        w_k = VP.alpha + VP.gamma * k
        for n in range(0, 7 - k):
            for lam in partitions_of(n):
                v = FockVector.from_partition(lam)
                raised = FockVector.zero()
                for mv in rim_hooks_addable(lam, k):
                    sign = Fraction(-1 if (mv.height - 1) % 2 else 1)
                    coeff = z_k + mv.start.as_fraction() + Fraction(k, 2)
                    raised = raised + FockVector.from_partition(mv.result, sign * coeff)
                assert virasoro_op(-k, VP).apply(v) == raised, ("raise", k, lam)
                lowered = FockVector.zero()
                for mv in rim_hooks_removable(lam, k):
                    sign = Fraction(-1 if (mv.height - 1) % 2 else 1)
                    coeff = w_k + mv.start.as_fraction() - Fraction(k, 2)
                    lowered = lowered + FockVector.from_partition(mv.result, sign * coeff)
                assert virasoro_op(k, VP).apply(v) == lowered, ("lower", k, lam)


def test_kerov_virasoro_equivalence():
    # box ladder (kernel) against the quadratic boson sum (oracle)
    m_u, m_d, m_l = (MVirasoro(2, k, VP.alpha, VP.gamma) for k in (-1, 1, 0))
    for n in range(0, 8):
        for lam in partitions_of(n):
            v = FockVector.from_partition(lam)
            assert m_u.apply(v) == kerov_u(KP).apply(v)
            assert m_d.apply(v) == kerov_d(KP).apply(v)
            assert m_l.apply(v).scale(2) == kerov_l(KP).apply(v)
    # the diagonal off the diagrams: L = 2 L_0 = (z + c)(w + c) + 2*degree in charge c
    for state in charged_states(5, (-2, -1, 1, 2)):
        v, c = FockVector.basis(state), state.charge
        assert m_l.apply(v).scale(2) == kerov_l(KP).apply(v), state
        assert kerov_l(KP).apply(v) == v.scale((Z + c) * (W + c) + 2 * state.degree)


def test_rimhook_virasoro_scale():
    # hook ladder (kernel) against the quadratic boson sum (oracle)
    for r in range(1, 5):
        vpr = virasoro_params_for_rimhook(KP, r)
        m_up, m_down = (MVirasoro(2, k, vpr.alpha, vpr.gamma) for k in (-r, r))
        for n in range(0, 7):
            for lam in partitions_of(n):
                v = FockVector.from_partition(lam)
                assert m_up.apply(v) == hook_raise(r, KP).apply(v).scale(r)
                assert m_down.apply(v) == hook_lower(r, KP).apply(v).scale(r)


def test_m_virasoro_reduces_to_virasoro_at_order2():
    p = VirasoroParams(alpha=Fraction(1, 3), gamma=Fraction(2, 5))
    for k in range(-4, 5):
        for n in range(0, 6):
            for lam in partitions_of(n):
                v = FockVector.from_partition(lam)
                want = virasoro_op(k, p).apply(v)
                assert MVirasoro(2, k, p.alpha, p.gamma).apply(v) == want, (k, lam)


def test_m_virasoro_order1():
    p = VirasoroParams(alpha=Fraction(1, 3), gamma=Fraction(2, 5))
    for k in (1, 2, 3):
        got = m_virasoro_op(1, -k, p).apply(vacuum())
        want = boson_op(-k).apply(vacuum()).scale(1 - p.gamma * k)
        assert got == want


def test_boson_and_virasoro_modes_are_m_fold_modes_at_gamma_zero():
    # the schur and virasoro measure kinds are the M-fold family at
    # (M, gamma) = (1, 0) and (2, 0)
    for alpha in (Fraction(0), Fraction(-2, 3), Poly.gen()):
        p = VirasoroParams(alpha=alpha, gamma=Fraction(0))
        for k in range(-3, 4):
            if k:
                assert m_virasoro_op(1, k, p) == boson_op(k)
            assert m_virasoro_op(2, k, p) == virasoro_op(k, p)


def test_m_virasoro_order3_support_and_probe():
    p = VirasoroParams(alpha=Fraction(1, 2), gamma=Fraction(0))
    # support inside single k-hook additions
    for k in (1, 2, 3):
        for n in range(0, 6):
            for lam in partitions_of(n):
                img = m_virasoro_op(3, -k, p).apply(FockVector.from_partition(lam))
                allowed = {mv.result for mv in rim_hooks_addable(lam, k)}
                assert set(as_partition_dict(img)) <= allowed, (k, lam)
    # the plain power form overshoots: vacuum coefficient is alpha^2/2, not alpha^2
    img = m_virasoro_op(3, -1, p).apply(vacuum())
    assert img == FockVector.from_partition(P(1), p.alpha * p.alpha * Fraction(1, 2))


def test_m_virasoro_order_error():
    with pytest.raises(ValueError):
        m_virasoro_op(0, 1, VirasoroParams())


def test_bilinear_offset_only_on_the_diagonal():
    with pytest.raises(ValueError):
        Bilinear(1, (Fraction(1), Fraction(0)), Fraction(1))
    with pytest.raises(ValueError):
        boson_op(0)


def _numerator_cases(t):
    """Every bilinear constructor for k in -3..3, with t as the first
    parameter: the Virasoro modes and their adjoints, the box and hook
    ladders for r <= 4, the M = 1, 2, 3 modes, and a direct cubic weight
    with an offset on the diagonal."""
    kp, vp = KerovParams(z=t, w=Fraction(-3, 4)), VirasoroParams(alpha=t, gamma=Fraction(2, 3))
    ks = range(-3, 4)
    ops = [boson_op(k) for k in ks if k]
    ops += [virasoro_op(k, vp) for k in ks] + [virasoro_op(k, vp).adjoint() for k in ks]
    ops += [kerov_u(kp), kerov_d(kp), kerov_l(kp)]
    for r in range(1, 5):
        ops += [hook_raise(r, kp), hook_lower(r, kp), hook_diagonal(r, kp)]
    ops += [m_virasoro_op(order, k, vp) for order in (1, 2, 3) for k in ks]
    cubic = (Fraction(1, 3), t, Fraction(3, 7), Fraction(5, 6))
    ops += [Bilinear(k, cubic, Fraction(2, 9) if k == 0 else Fraction(0)) for k in ks]
    return ops


@pytest.mark.parametrize("t", [Fraction(5, 7), Poly.gen()], ids=["fraction", "poly"])
def test_numerators_over_den_match_the_fraction_weight(t):
    # the cleared integer form against the weight evaluated as given, on
    # every state of charge -2..2 up to degree 5; apply is also compared in
    # JSON, which tells a Fraction from a constant Poly where == does not
    states = charged_states(5, range(-2, 3))
    cubic_poly_diagonal = Bilinear(0, (Fraction(1, 3), t, Fraction(3, 7), Fraction(5, 6)),
                                   Fraction(2, 9))
    for op in _numerator_cases(t):
        assert isinstance(op, Bilinear)
        for st in states:
            assert all(is_cleared_numerator(n, isinstance(t, Poly)) for _, n in op.numerators(st))
            want = bilinear_action(op, st)
            got = FockVector((new, Fraction(n, op.den) if type(n) is int else n / op.den)
                             for new, n in op.numerators(st))
            assert got == want, (op, st)
            applied = op.apply(FockVector.basis(st)).to_json()
            if isinstance(t, Poly) and op == cubic_poly_diagonal and st == VACUUM_STATE:
                # the one known difference: on the charge-0 vacuum no position
                # is summed, so apply keeps the rational offset as a Fraction
                # where the oracle has added the Poly weight times 0
                assert applied["terms"] == [{"partition": [], "coeff": "2/9"}]
                assert want.to_json()["terms"] == [{"partition": [],
                                                    "coeff": {"poly": ["2/9"]}}]
            else:
                assert applied == want.to_json(), (op, st)


def _typed(pairs):
    return [(st, type(n), n) for st, n in pairs]


@pytest.mark.parametrize("t", [Fraction(5, 7), Poly.gen()], ids=["fraction", "poly"])
def test_numerators_memo_matches_a_fresh_operator(t):
    # every state of charge -1..1 up to degree 6: the second read of a
    # state comes from the operator's memo, and equals (in value and type)
    # the first read by an equal operator built afresh
    states = charged_states(6)
    moved = 0
    for op, twin, other in zip(_numerator_cases(t), _numerator_cases(t), _numerator_cases(t + 1)):
        assert op == twin and op is not twin
        first = [op.numerators(st) for st in states]
        again = [op.numerators(st) for st in states]
        assert all(type(got) is tuple for got in again)
        assert [_typed(g) for g in again] == [_typed(twin.numerators(st)) for st in states], op
        # the same operator at another parameter: read after op has filled
        # its memo, and checked against the weight evaluated as given
        for st, mine in zip(states, again):
            theirs = other.numerators(st)
            want = bilinear_action(other, st)
            assert FockVector((new, Fraction(n, other.den) if type(n) is int else n / other.den)
                              for new, n in theirs) == want, (other, st)
            moved += _typed(theirs) != _typed(mine)
    assert moved


def test_virasoro_cc_evaluates_each_jump_weight_once(monkeypatch):
    # count g(d) per (operator instance, state, jump start); instances are
    # kept alive so that no id is reused
    numerators, g_at = Bilinear.numerators, Bilinear._g_at
    reading, live, seen = [], {}, {}

    def counted_numerators(self, st):
        reading.append(st)
        try:
            return numerators(self, st)
        finally:
            reading.pop()

    def counted_g_at(self, d):
        live[id(self)] = self
        key = (id(self), reading[-1], d)
        seen[key] = seen.get(key, 0) + 1
        return g_at(self, d)

    monkeypatch.setattr(Bilinear, "numerators", counted_numerators)
    monkeypatch.setattr(Bilinear, "_g_at", counted_g_at)
    assert run_suite("virasoro-cc", seed=0)["ok"]
    assert seen and max(seen.values()) == 1


def test_exp_raising_boson_example():
    x1 = Fraction(3, 2)
    got = exp_raising([(x1, boson_op(-1))], vacuum(), 2)
    want = (vacuum() + ket(1).scale(x1)
            + (ket(2) + ket(1, 1)).scale(x1 * x1 / 2))
    assert got == want
    assert exp_raising([], vacuum(), 5) == vacuum()


def test_exp_raising_rejects_non_raising():
    with pytest.raises(ValueError):
        exp_raising([(Fraction(1), boson_op(1))], vacuum(), 3)
    with pytest.raises(ValueError):
        exp_raising([(Fraction(1), kerov_l(KP))], vacuum(), 3)


def test_exp_raising_virasoro_row_values():
    z = Fraction(4, 5)
    vp = VirasoroParams(alpha=z, gamma=Fraction(0))
    x1, x2 = Fraction(2, 3), Fraction(-1, 2)
    got = exp_raising([(x1, virasoro_op(-1, vp)), (x2, virasoro_op(-2, vp))], vacuum(), 2)
    assert got.coefficient_of_partition(P(2)) == x2 * (z + Fraction(1, 2)) + x1 * x1 / 2 * z * (z + 1)
    assert got.coefficient_of_partition(P(1, 1)) == -x2 * (z - Fraction(1, 2)) + x1 * x1 / 2 * z * (z - 1)


def test_exp_raising_grading_depends_on_low_modes_only():
    low = [(Fraction(1), boson_op(-1)), (Fraction(1, 3), boson_op(-2))]
    full = exp_raising(low + [(Fraction(7), boson_op(-5))], vacuum(), 3)
    assert full == exp_raising(low, vacuum(), 3)  # x_5 cannot reach degree <= 3


def _raising_family(name, k, alpha):
    kp = KerovParams(z=alpha, w=Fraction(2, 5))
    vp = VirasoroParams(alpha=alpha, gamma=Fraction(-1, 3))
    if name == "boson":
        return boson_op(-k)
    if name == "virasoro":
        return virasoro_op(-k, vp)
    if name == "virasoro-adjoint":
        return virasoro_op(k, vp).adjoint()
    if name == "kerov":
        return kerov_u(kp)
    if name == "hook":
        return hook_raise(k, kp)
    if name == "m3-adjoint":
        return m_virasoro_op(3, k, vp).adjoint()
    return m_virasoro_op(int(name[1]), -k, vp)  # "m1", "m2", "m3"


def _exp_cases():
    rng = random.Random(8)
    coeffs = (Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))
    x = Poly.gen()
    starts = (
        ("vacuum", vacuum()),
        ("charge+1", FockVector.basis(MayaState.from_partition(P(2, 1), charge=1))),
        ("charge-1", FockVector.basis(MayaState.from_partition(P(1), charge=-1))),
        ("two-term", ket(1).scale(Fraction(2, 3)) + ket(2).scale(Fraction(-5, 7))),
    )
    families = ("boson", "virasoro", "virasoro-adjoint", "kerov", "hook", "m1", "m2", "m3",
                "m3-adjoint")
    cases = []
    for i in range(27):
        family = families[i % len(families)]
        start_name, start = starts[i % len(starts)]
        max_degree = i % 10
        # modes up to k = 5, which cannot fire below degree 5
        ks = [1] if family == "kerov" else rng.sample(range(1, 6), 3)
        terms = [(rng.choice(coeffs), _raising_family(family, k, Fraction(1, 2))) for k in ks]
        if i % 5 == 0:
            terms[-1] = (Fraction(0), terms[-1][1])
        cases.append((f"{family}-{start_name}-d{max_degree}", terms, start, max_degree))
    # Poly numerators (Poly coefficients, a Poly weight, a Poly start) and
    # the M = 4 tuple sum, over its own den (M! q**M), alone and beside a bilinear
    cases.append(("poly-coefficient", [(x, boson_op(-1)), (Fraction(1, 3), virasoro_op(
        -2, VirasoroParams(Fraction(1, 5))))], vacuum(), 5))
    cases.append(("poly-alpha", [(Fraction(2, 3), _raising_family("m3", k, x)) for k in (1, 2)],
                  starts[3][1], 5))
    cases.append(("m4", [(Fraction(1, 3), MVirasoro(4, -1, Fraction(1, 2), Fraction(1, 5))),
                         (Fraction(-2, 7), MVirasoro(4, -2, Fraction(1, 2), Fraction(1, 5)))],
                  vacuum(), 4))
    cases.append(("m4-poly-alpha", [(Fraction(1, 3), MVirasoro(4, -1, x, Fraction(1, 5))),
                                    (Fraction(-2, 7), MVirasoro(4, -2, x, Fraction(-1, 3)))],
                  vacuum(), 4))
    cases.append(("poly-start", [(Fraction(1, 3), virasoro_op(-1, VirasoroParams(
        Fraction(1, 5), Fraction(-1, 3)))), (Fraction(-2, 5), boson_op(-2))],
        ket(1).scale(x * Fraction(2, 3)) + ket(2).scale(Fraction(-5, 7)), 6))
    cases.append(("bilinear-and-m4", [(Fraction(2, 3), virasoro_op(-1, VirasoroParams(
        Fraction(1, 5), Fraction(-1, 3)))), (Fraction(-1, 7), MVirasoro(
            4, -2, Fraction(1, 2), Fraction(1, 5)))], starts[3][1], 5))
    return cases


EXP_CASES = _exp_cases()


@pytest.mark.parametrize("terms,start,max_degree",
                         [c[1:] for c in EXP_CASES], ids=[c[0] for c in EXP_CASES])
def test_exp_raising_matches_power_oracle(terms, start, max_degree):
    # the one numerator loop must equal the power-by-power sum through
    # op.apply over every scalar ring, scalar types included
    got = exp_raising(terms, start, max_degree)
    want = exp_by_powers(terms, start, max_degree)
    assert got == want
    assert all(type(c) is type(want.coefficient(s)) for s, c in got.terms())


@pytest.mark.parametrize("max_degree", range(8))
@pytest.mark.parametrize("ring", ["rational", "poly"])
def test_exp_raising_from_a_start_over_several_degrees(ring, max_degree):
    # a start over degrees 0, 2 and 3 must equal the power sum at bounds
    # below, between and above its degrees, scalar types included
    x = Poly.gen() if ring == "poly" else Fraction(3, 4)
    start = (vacuum().scale(Fraction(2, 3)) + ket(2).scale(x * Fraction(-5, 7))
             + ket(2, 1).scale(Fraction(1, 4)) + ket(1, 1, 1).scale(Fraction(-1, 6)))
    vp = VirasoroParams(x * Fraction(1, 5), Fraction(-1, 3))
    terms = [(Fraction(1, 3), virasoro_op(-1, vp)), (Fraction(-2, 5), boson_op(-2)),
             (Fraction(3, 7), hook_raise(3, KerovParams(z=Fraction(1, 2), w=x)))]
    got = exp_raising(terms, start, max_degree)
    want = exp_by_powers(terms, start, max_degree)
    assert got == want
    assert all(type(c) is type(want.coefficient(s)) for s, c in got.terms())
    assert got.degree() == (max_degree if max_degree else 0)


def test_exp_lowering_bra_examples():
    assert exp_lowering_bra([(Fraction(1), boson_op(1))], P(), 4) == 1
    y1 = Fraction(5, 3)
    assert exp_lowering_bra([(y1, boson_op(1))], P(1), 4) == y1
    w = Fraction(2, 7)
    lower = virasoro_op(1, VirasoroParams(alpha=w, gamma=Fraction(0)))
    assert exp_lowering_bra([(y1, lower)], P(1), 4) == y1 * w


def test_exp_lowering_bra_equals_direct_lowering():
    # adjoint route against literally applying the lowering exponential
    p = VirasoroParams(alpha=Fraction(3, 5), gamma=Fraction(1, 4))
    terms = [(Fraction(1, 2), virasoro_op(1, p)), (Fraction(2, 3), virasoro_op(2, p)),
             (Fraction(-1, 5), virasoro_op(3, p))]
    for lam in partitions_up_to(5):
        v = FockVector.from_partition(lam)
        total = v
        current = v
        m = 0
        while current:
            m += 1
            step = FockVector.zero()
            for c, op in terms:
                step = step + op.apply(current).scale(c)
            current = step.scale(Fraction(1, m))
            total = total + current
        direct = total.coefficient_of_partition(P())
        assert exp_lowering_bra(terms, lam, lam.size) == direct, lam


def test_exp_lowering_bra_degree_error():
    # the lowering modes themselves are refused, and a bound below |lam|
    # truncates the diagram away
    with pytest.raises(ValueError):
        exp_raising([(Fraction(1), boson_op(1))], vacuum(), 5)
    assert exp_lowering_bra([(Fraction(1), boson_op(1))], P(3, 2), 5) != 0
    assert exp_lowering_bra([(Fraction(1), boson_op(1))], P(3, 2), 2) == 0


def _adjoint_cases():
    rng = random.Random(20261018)
    cases = [(f"boson-k={k}", boson_op(k)) for k in (-3, -1, 1, 2)]
    for t in range(2):
        p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
        cases += [(f"virasoro-draw{t}-k={k}", virasoro_op(k, p)) for k in range(-3, 4)]
    kp = KerovParams(z=random_rational(rng), w=random_rational(rng))
    cases += [("kerov-u", kerov_u(kp)), ("kerov-d", kerov_d(kp)), ("kerov-l", kerov_l(kp))]
    for r in (1, 2, 3):
        cases += [(f"hook-raise-r={r}", hook_raise(r, kp)), (f"hook-lower-r={r}", hook_lower(r, kp)),
                  (f"hook-diagonal-r={r}", hook_diagonal(r, kp))]
    p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
    for order in (1, 2, 3):
        cases += [(f"m-virasoro-M={order}-k={k}", m_virasoro_op(order, k, p)) for k in (-2, 0, 1)]
    return cases


ADJOINT_CASES = _adjoint_cases()


@pytest.mark.parametrize("op", [op for _, op in ADJOINT_CASES],
                         ids=[name for name, _ in ADJOINT_CASES])
def test_adjoint_pairing(op):
    """<op u, v> = <u, op* v> on every basis pair up to degree 5, in
    charge sectors -1, 0 and 1."""
    assert op.adjoint().adjoint() == op
    for charge in (-1, 0, 1):
        basis = [FockVector.basis(s) for s in charged_states(5, (charge,))]
        images = [op.apply(u) for u in basis]
        adjoint_images = [op.adjoint().apply(v) for v in basis]
        for u, image in zip(basis, images):
            for v, adjoint_image in zip(basis, adjoint_images):
                assert inner(image, v) == inner(u, adjoint_image)


def test_commutator_check_examples():
    u_op, d_op, l_op = kerov_u(KP), kerov_d(KP), kerov_l(KP)
    assert commutator_check(d_op, u_op, [(Fraction(1), l_op)], 6) == []
    assert commutator_check(boson_op(1), boson_op(-1), [(Fraction(1), None)], 6) == []
    # a falsified identity surfaces (partition, delta) discrepancies
    found = commutator_check(d_op, u_op, [(Fraction(2), l_op)], 2)
    assert found
    lam, delta = found[0]
    assert lam == P()
    assert delta == l_op.apply(vacuum()).scale(-1)


def _commutator_cases():
    x = Poly.gen()
    cases = []
    # boson pairs with the identity term, true and off by one
    for n, m in ((1, -1), (3, -3), (-2, 2), (2, -1), (-3, 1)):
        c = Fraction(n if n + m == 0 else 0)
        cases.append((f"boson-{n},{m}", boson_op(n), boson_op(m), [(c, None)], 5))
        cases.append((f"boson-{n},{m}-off", boson_op(n), boson_op(m), [(c + 1, None)], 4))
    # the box triple: [D, U] = L holds, [D, U] = 2L leaves nonzero deltas
    u_op, d_op, l_op = kerov_u(KP), kerov_d(KP), kerov_l(KP)
    cases.append(("box-true", d_op, u_op, [(Fraction(1), l_op)], 5))
    cases.append(("box-doubled", d_op, u_op, [(Fraction(2), l_op)], 5))
    cases.append(("box-lu", l_op, u_op, [(Fraction(2), u_op)], 5))
    # Virasoro modes with the central term, at a Fraction and a Poly alpha
    # (and a Poly gamma, so the central coefficient is a Poly too)
    for name, p in (("fraction", VirasoroParams(Fraction(2, 5), Fraction(-1, 3))),
                    ("poly-alpha", VirasoroParams(x, Fraction(1, 4))),
                    ("poly-gamma", VirasoroParams(Fraction(1, 3), x))):
        central = 1 - 12 * p.gamma * p.gamma
        for m, n in ((2, -2), (1, -2), (-1, 3), (3, -3)):
            expected = [(Fraction(m - n), virasoro_op(m + n, p))]
            if m + n == 0:
                expected.append((Fraction(m ** 3 - m, 12) * central, None))
            cases.append((f"virasoro-{name}-{m},{n}", virasoro_op(m, p), virasoro_op(n, p),
                          expected, 4))
        cases.append((f"virasoro-{name}-no-central", virasoro_op(2, p), virasoro_op(-2, p),
                      [(Fraction(4), virasoro_op(0, p))], 4))
    # the length-3 hook triple, true and with the diagonal halved
    kp = KerovParams(z=Fraction(1, 3), w=Fraction(-2, 5))
    up, down, diag = hook_raise(3, kp), hook_lower(3, kp), hook_diagonal(3, kp)
    cases.append(("hook-3", down, up, [(Fraction(1), diag)], 5))
    cases.append(("hook-3-halved", down, up, [(Fraction(1, 2), diag)], 5))
    # the M = 4 tuple sum, over its own den, against a bilinear
    vp = VirasoroParams(Fraction(1, 2), Fraction(1, 5))
    cases.append(("m4-bilinear", MVirasoro(4, 1, vp.alpha, vp.gamma), virasoro_op(-1, vp),
                  [(Fraction(2, 3), MVirasoro(4, 0, vp.alpha, vp.gamma)), (Fraction(1), None)], 3))
    cases.append(("bilinear-m4", boson_op(2), MVirasoro(4, -1, vp.alpha, vp.gamma),
                  [(Fraction(-1, 3), virasoro_op(1, vp))], 3))
    # a zero expected coefficient is skipped, in a true and a false identity
    cases.append(("zero-coefficient", d_op, u_op, [(Fraction(1), l_op), (Fraction(0), u_op)], 4))
    cases.append(("zero-coefficient-off", boson_op(2), boson_op(-2),
                  [(Fraction(0), l_op), (Fraction(3), None)], 4))
    # a 1/7 coprime to both operators' dens (2 and 6 here)
    kp7 = KerovParams(z=Fraction(5, 3), w=Fraction(1, 2))
    cases.append(("coprime-seventh", kerov_d(kp7), kerov_u(kp7),
                  [(Fraction(1, 7), kerov_l(kp7)), (Fraction(3, 7), None)], 4))
    return cases


COMMUTATOR_CASES = _commutator_cases()


@pytest.mark.parametrize("a,b,fraction_at", [
    # x*charge + 2*degree is diagonal, so it commutes with L and its Poly
    # terms cancel; on the vacuum its numerator is the int offset 0
    (Bilinear(0, (Poly.gen(), 1)), kerov_l(KP), [[]]),
    # a Poly weight that vanishes on the vacuum's one jump (x = -1/2)
    (Bilinear(-1, (Poly.gen() * Fraction(1, 2), Poly.gen())), boson_op(1), []),
])
def test_commutator_delta_is_poly_when_a_poly_term_is_summed(a, b, fraction_at):
    # the delta is one sum, so a Poly term makes it a Poly even where the
    # Poly part is zero; the vector oracle drops zero partial sums between
    # its vector operations and returns a Fraction there, of equal value
    got = commutator_check(a, b, [(Fraction(1), None)], 2)
    want = commutator_by_vectors(a, b, [(Fraction(1), None)], 2)
    assert got == want
    assert [d.to_json() for _, d in got] != [d.to_json() for _, d in want]
    for lam, delta in got:
        kind = Fraction if lam.to_json() in fraction_at else Poly
        assert all(type(c) is kind for _, c in delta.terms()), lam


def test_commutator_check_builds_no_vector_for_a_zero_delta(monkeypatch):
    # a true identity leaves every delta zero, so no vector is built
    import youngfock.operators as ops

    def no_vector(*args):
        raise AssertionError("a FockVector was built")

    monkeypatch.setattr(ops, "FockVector", no_vector)
    assert commutator_check(kerov_d(KP), kerov_u(KP), [(Fraction(1), kerov_l(KP))], 5) == []
    vp = VirasoroParams(Fraction(2, 5), Fraction(-1, 3))
    assert commutator_check(virasoro_op(2, vp), virasoro_op(-2, vp),
                            [(Fraction(4), virasoro_op(0, vp)),
                             (Fraction(1, 2) * (1 - 12 * vp.gamma ** 2), None)], 4) == []


@pytest.mark.parametrize("a,b,expected,degree", [c[1:] for c in COMMUTATOR_CASES],
                         ids=[c[0] for c in COMMUTATOR_CASES])
def test_commutator_check_matches_the_vector_oracle(a, b, expected, degree):
    # the cleared-numerator harness against the FockVector sums, JSON
    # included, so a Poly delta cannot come back as a Fraction or back
    got = commutator_check(a, b, expected, degree)
    want = commutator_by_vectors(a, b, expected, degree)
    assert ([(lam.to_json(), delta.to_json()) for lam, delta in got]
            == [(lam.to_json(), delta.to_json()) for lam, delta in want])


def _apply(op, v):
    """op(v) as a FockVector, ``None`` the identity, through the vector
    oracle rather than ``op.apply``, which is itself one ``image``."""
    return v if op is None else apply_by_numerators(op, v)


def _image_cases():
    """Seeded (terms, vector) draws: each term list keeps the charge (no
    psi factor) or raises it by one (one psi factor per term), and mixes
    bilinears, an M = 4 mode and the identity, over rational or Poly
    parameters and coefficients; integer vectors of charge -1, 0 or 1."""
    rng = random.Random(20261019)
    for draw in range(16):
        poly = draw % 2 == 1

        def scalar():
            q = random_rational(rng)
            return Poly((q, random_rational(rng))) if poly and rng.random() < 0.5 else q

        vp = VirasoroParams(alpha=scalar(), gamma=random_rational(rng))
        ops = [virasoro_op(rng.randint(-2, 2), vp), kerov_u(KerovParams(z=scalar())),
               hook_lower(2, KerovParams(w=scalar())),
               MVirasoro(4, rng.randint(-2, 2), vp.alpha, vp.gamma), None]
        psi_x = Psi(HalfInt(rng.randrange(-5, 6, 2)))
        terms = []
        for _ in range(rng.randint(2, 5)):
            outer, inner = rng.choice(ops), rng.choice(ops)
            if draw % 4 >= 2:  # one psi factor, outside or inside
                outer, inner = (psi_x, inner) if rng.random() < 0.5 else (outer, psi_x)
            terms.append((scalar() * rng.choice([1, -1, 2]), outer, inner))
        charge = rng.choice([-1, 0, 1])
        states = [MayaState.from_partition(lam, charge=charge) for lam in partitions_up_to(3)]
        vec = {st: rng.choice([-3, -2, -1, 1, 2, 3]) for st in rng.sample(states, 3)}
        yield terms, vec


@pytest.mark.parametrize("terms,vec", list(_image_cases()))
def test_image_matches_the_vector_sum(terms, vec):
    # image over L equals sum_t c_t outer_t(inner_t(v)) summed as vectors
    lcm, cleared = clear(terms)
    got = FockVector({st: _divided(n, lcm) for st, n in image(cleared, vec).items()})
    v = FockVector({st: Fraction(c) for st, c in vec.items()})
    want = FockVector.zero()
    for c, outer, inner in terms:
        want = want + _apply(outer, _apply(inner, v)).scale(c)
    assert got == want
    # the sum must see every term: a term list and its negation cancel
    assert not image(clear([(-c, o, i) for c, o, i in terms] + terms)[1], vec)


def test_image_cases_are_not_vacuous():
    assert sum(bool(image(clear(terms)[1], vec)) for terms, vec in _image_cases()) >= 12


# basis states of charge -1, 0 and 1 up to degree 3, so that each walk meets
# states its terms kill, states they do not, and states of every charge
WALK_STATES = charged_states(3)


@pytest.mark.parametrize("terms", [terms for terms, _ in _image_cases()])
def test_failures_flags_exactly_the_nonzero_vector_sums(terms):
    # per state, the FockVector sum of c * outer(inner(|state>)) over the
    # terms; failures flags the state exactly when that sum is nonzero, and
    # gives its image over L
    lcm, found = failures(terms, WALK_STATES)
    want = []
    for st in WALK_STATES:
        v = FockVector.basis(st)
        total = FockVector.zero()
        for c, outer, inner in terms:
            total = total + _apply(outer, _apply(inner, v)).scale(c)
        if total:
            want.append((st, total))
    assert [st for st, _ in found] == [st for st, _ in want]
    for (_, got), (_, total) in zip(found, want):
        assert FockVector({st: _divided(n, lcm) for st, n in got.items()}) == total
    assert lcm == clear(terms)[0]
    # a true identity: the terms less themselves flag nothing
    assert failures(terms + [(-c, o, i) for c, o, i in terms], WALK_STATES)[1] == []


def test_failures_cases_are_not_vacuous():
    flagged = [len(failures(terms, WALK_STATES)[1]) for terms, _ in _image_cases()]
    assert sum(flagged) >= 100 and any(0 < n < len(WALK_STATES) for n in flagged)


def test_operator_degree_shift_and_json():
    spec = m_virasoro_op(3, -2, VirasoroParams(alpha=Fraction(1), gamma=Fraction(0)))
    assert spec.degree_shift == 2
    # f(x) = (x + 2)**2/2 - 1/8 = 15/8 + 2x + x**2/2
    assert spec.to_json() == {"k": -2, "weight": ["15/8", "2", "1/2"], "offset": "0"}
    assert m_virasoro_op(4, -2, VirasoroParams()).to_json()["order"] == 4
    assert hook_lower(3, KP).degree_shift == -3
    assert kerov_l(KP).degree_shift == 0
    # adjoint rule: Bilinear(k, f, o)* = Bilinear(-k, f(x + k), o)
    assert hook_lower(2, KP).adjoint() == Bilinear(-2, (W + Fraction(1, 2), Fraction(1, 2)))
    assert Bilinear(2, (0, 0, 1)).adjoint() == Bilinear(-2, (4, 4, 1))
    assert virasoro_op(2, VP).adjoint() == virasoro_op(-2, VirasoroParams(VP.alpha, -VP.gamma))
    assert kerov_u(KP).adjoint() == kerov_d(KerovParams(z=W, w=Z))


def test_virasoro_over_polynomial_ring():
    t = Poly.gen()
    vp = VirasoroParams(alpha=t, gamma=Fraction(0))
    got = virasoro_op(-2, vp).apply(vacuum())
    c2 = got.coefficient_of_partition(P(2))
    c11 = got.coefficient_of_partition(P(1, 1))
    assert c2 == t + Fraction(1, 2)
    assert c11 == -(t - Fraction(1, 2))


def _brute_quadratic_mode(k, p, state, pad):
    """Mode action summed over a window wider than the implementation's:
    validates both coefficients and the window-sufficiency argument."""
    d = state.degree
    a0 = p.alpha + state.charge
    acc = {}

    def add(s, c):
        acc[s] = acc.get(s, Fraction(0)) + c

    if k == 0:
        add(state, (a0 * a0 - p.gamma * p.gamma) * Fraction(1, 2))
        for j in range(1, d + pad + 1):
            for s1, g1, _ in boson_moves(j, state):
                for s2, g2, _ in boson_moves(-j, s1):
                    add(s2, Fraction(g1 * g2))
    else:
        for s1, g, _ in boson_moves(k, state):
            add(s1, (p.gamma * k + a0) * g)
        for j in range(k - d - pad, d + pad + 1):
            m = k - j
            if j == 0 or m == 0:
                continue
            first, second = (m, j) if (j < 0 < m) else (j, m)
            for s1, g1, _ in boson_moves(first, state):
                for s2, g2, _ in boson_moves(second, s1):
                    add(s2, Fraction(1, 2) * g1 * g2)
    return FockVector({s: c for s, c in acc.items() if c != 0})


def test_virasoro_window_sufficiency_incl_charged_states():
    # kernel and M = 2 tuple-sum oracle against the wide-window brute sum,
    # including the diagonal k = 0 in charged sectors
    rng = random.Random(5)
    draws = [VirasoroParams(alpha=Fraction(2, 3), gamma=Fraction(-1, 5))]
    draws += [VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
              for _ in range(2)]
    states = charged_states(5)
    for p in draws:
        for k in range(-4, 5):
            op, oracle = virasoro_op(k, p), MVirasoro(2, k, p.alpha, p.gamma)
            for state in states:
                v = FockVector.basis(state)
                want = _brute_quadratic_mode(k, p, state, pad=2)
                assert op.apply(v) == want, (p, k, state)
                assert oracle.apply(v) == want, (p, k, state)


def _brute_m_mode(order, k, p, state, pad):
    """Plain ordered-tuple sum with 1/order! weights: an independent
    route with no multiset grouping and no pruning."""
    import itertools
    import math as _math

    d = state.degree
    a0 = p.alpha + state.charge
    bound = d + abs(k) + pad
    acc = {}

    def add(s, c):
        acc[s] = acc.get(s, Fraction(0)) + c

    if k != 0:
        for s1, g, _ in boson_moves(k, state):
            add(s1, p.gamma * k * g)
    weight = Fraction(1, _math.factorial(order))
    for tup in itertools.product(range(-bound, bound + 1), repeat=order):
        if sum(tup) != k:
            continue
        coeff = weight
        current = {state: Fraction(1)}
        # normal order: annihilators act first, largest application order
        # irrelevant within same-signed groups
        for idx in sorted(tup, reverse=True):
            if idx == 0:
                coeff = coeff * a0
                continue
            nxt = {}
            for s, c in current.items():
                for s2, g, _ in boson_moves(idx, s):
                    nxt[s2] = nxt.get(s2, Fraction(0)) + c * g
            current = {s: c for s, c in nxt.items() if c != 0}
            if not current:
                break
        for s, c in current.items():
            add(s, coeff * c)
    return FockVector({s: c for s, c in acc.items() if c != 0})


def test_m_virasoro_matches_plain_tuple_sum():
    p = VirasoroParams(alpha=Fraction(1, 2), gamma=Fraction(1, 3))
    for order in (1, 2, 3):
        for k in (-2, -1, 1, 2):
            for lam in partitions_up_to(2):
                v = FockVector.from_partition(lam)
                got = m_virasoro_op(order, k, p).apply(v)
                want = _brute_m_mode(order, k, p, MayaState.from_partition(lam), pad=2)
                assert got == want, (order, k, lam)


@pytest.mark.parametrize("alpha", [Fraction(-2, 3), Poly.gen()], ids=["fraction", "poly"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_m_virasoro_bilinear_matches_tuple_sum(order, alpha):
    """The closed bilinear forms at M = 1, 2, 3 against the M-fold tuple
    sum, and their adjoints against the oracle's, in charges -2..2."""
    p = VirasoroParams(alpha=alpha, gamma=Fraction(3, 7))
    states = charged_states(5, charges=(-2, -1, 0, 1, 2))
    for k in range(-3, 4):
        op, oracle = m_virasoro_op(order, k, p), MVirasoro(order, k, p.alpha, p.gamma)
        assert isinstance(op, Bilinear)
        for st in states:
            v = FockVector.basis(st)
            assert op.apply(v) == oracle.apply(v), (k, st)
            assert op.adjoint().apply(v) == oracle.adjoint().apply(v), (k, st)


@pytest.mark.parametrize("alpha,gamma,max_degree", [
    (Fraction(2, 3), Fraction(-1, 5), 4),
    (Poly.gen(), Fraction(1, 3), 3),
    (Fraction(-1, 2), Poly.gen(), 3),
], ids=["fraction", "poly-alpha", "poly-gamma"])
def test_m_virasoro_numerators_match_the_tuple_sum_oracle(alpha, gamma, max_degree):
    """The per-j sums evaluated at (alpha + charge, gamma), as int (or int
    Poly) numerators read over op.den, against the tuple sum evaluated tuple
    by tuple, orders 1-5, k in -4..4, charges -2..2.
    Compared as JSON, so the order of the image states and the scalar type
    of every coefficient are pinned too: a coefficient is a Poly whenever a
    Poly term is summed into it, a zero-valued one included."""
    states = charged_states(max_degree, charges=(-2, -1, 0, 1, 2))
    poly_ring = isinstance(alpha, Poly) or isinstance(gamma, Poly)
    polys = 0
    for order in range(1, 6):
        for k in range(-4, 5):
            op = MVirasoro(order, k, alpha, gamma)
            for st in states:
                nums = op.numerators(st)
                assert all(is_cleared_numerator(n, poly_ring) for _, n in nums), (order, k, st)
                assert op.numerators(st) is nums  # kept per state
                got = FockVector((new, _divided(n, op.den)) for new, n in nums).to_json()
                want = m_virasoro_state_by_tuples(order, k, alpha, gamma, st)
                assert got == FockVector(want).to_json(), (order, k, st)
                polys += sum(isinstance(c, Poly) for _, c in want)
    assert polys if poly_ring else not polys


def test_m_virasoro_order4_stays_a_tuple_sum():
    # M = 4 is no bilinear: its k = 1 mode moves more than one particle
    op = m_virasoro_op(4, 1, VirasoroParams(alpha=Fraction(1, 2), gamma=Fraction(1, 3)))
    assert isinstance(op, MVirasoro)
    multi = [(st, new) for st in charged_states(5, charges=(0,))
             for new, _ in op.apply(FockVector.basis(st)).terms()
             if new not in {s for s, _, _ in boson_moves(1, st)}]
    assert multi


def test_m_virasoro_walk_depth_does_not_grow_with_the_order():
    # far above the recursion limit: on the vacuum the one tuple that
    # reaches k = -1 is (0, ..., 0, -1), weight 1/1499! with a0**1499
    alpha, gamma = Fraction(3, 2), Fraction(-2, 7)
    got = MVirasoro(1500, -1, alpha, gamma).apply(vacuum())
    assert got == FockVector.from_partition(P(1), -gamma + alpha ** 1499 / math.factorial(1499))


@pytest.mark.parametrize("order", [2, 3])
def test_poly_numerators_have_int_coefficients(order):
    # a Poly alpha with non-integral coefficients: each weight cleared over
    # op.den is an integer polynomial, and so is every numerator built from it
    p = VirasoroParams(alpha=Poly((Fraction(1, 3), Fraction(-2, 5))), gamma=Fraction(3, 7))
    for k in range(-3, 4):
        op = virasoro_op(k, p) if order == 2 else m_virasoro_op(3, k, p)
        for st in charged_states(6, charges=(0,)):
            for _, n in op.numerators(st):
                assert type(n) is Poly and all(type(c) is int for c in n.coeffs), (k, st, n)
