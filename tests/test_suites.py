import inspect
import json
import random
from fractions import Fraction

import pytest

from youngfock.fock import FockVector, MayaState, Psi, failures
from youngfock.operators import (KerovParams, MVirasoro, VirasoroParams, hook_lower, hook_raise,
                                 m_virasoro_op, virasoro_op, virasoro_params_for_rimhook,
                                 virasoro_params_from_kerov)
from youngfock.partitions import HalfInt, partitions_up_to
from youngfock.rings import Poly, random_rational
from youngfock.suites import (SUITES, _power_form, _prop52_forms, _prop62_forms, _psi_bracket,
                              run_suite)

from .oracles import (charged_states, disagree_by_vectors, power_form_deltas_by_vectors,
                      prop52_verdicts_by_vectors, prop62_verdicts_by_vectors, psi)


def test_suite_registry_complete():
    assert set(SUITES) == {
        "heisenberg", "sl2", "virasoro-cc", "kerov-equiv", "rimhook-equiv",
        "determinancy", "z-linearity", "rank", "kernels", "m-virasoro",
        "prop52", "prop62",
    }


def test_every_suite_takes_only_a_seed_and_a_degree():
    # draw counts and mode or hook bounds are registry constants: they
    # print in params but no caller can pass them
    for name, fn in SUITES.items():
        assert list(inspect.signature(fn).parameters) == ["seed", "max_degree"], name


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


@pytest.mark.parametrize("name", ["sl2", "kerov-equiv", "z-linearity", "prop52", "prop62"])
def test_suites_pass_and_serialize(name):
    rep = run_suite(name, seed=5, max_degree=4)
    assert rep["ok"], rep
    json.dumps(rep)  # JSON-clean
    assert rep["identity"]
    assert all("name" in c and "ok" in c for c in rep["checks"])


def test_probe_reports_never_fail_a_suite():
    rep = run_suite("prop62", seed=5, max_degree=3)
    assert rep["ok"]
    assert any(not p.get("holds", True) for p in rep["probes"])


def test_determinancy_reports_the_falsified_identity():
    rep = run_suite("determinancy", seed=5, max_degree=4)
    assert not rep["ok"]
    assert any(c["ok"] for c in rep["checks"])  # single-row checks hold
    failed = [c for c in rep["checks"] if not c["ok"]]
    assert failed and "mismatches" in failed[0]["detail"]
    probes = {p["name"]: p for p in rep["probes"]}
    assert probes["reduction holds when only x_1 is nonzero"]["holds"]


def test_failed_and_disagree_helpers():
    from youngfock.operators import boson_op
    from youngfock.suites import _disagree, _failed

    assert _failed("c", 0) == {"name": "c", "ok": True}
    assert _failed("c", [], "basis") == {"name": "c", "ok": True}
    assert _failed("c", 2, of=5) == {"name": "c", "ok": False,
                                     "detail": {"failures": 2, "of": 5}}
    a1 = boson_op(1)
    assert _disagree([((1, a1), (1, a1))], 3) == []
    # a_1 removes a box: it differs from twice itself on every diagram but
    # the empty one
    twice = [((1, a1), (1, a1)), ((1, a1), (2, a1))]
    assert _disagree(twice, 2) == [[1], [2], [1, 1]]


def _equivalence_pairs():
    """Pairs as the equivalence suites pass them, true and false: the hook
    ladder at its scalar r and at r + 1, and the order-2 tuple sum against
    virasoro_op at its gamma and at a wrong one, in both scalar rings."""
    cases = []
    for z in (Fraction(2, 3), Poly.gen()):
        p = KerovParams(z=z, w=Fraction(-1, 4))
        for r in (1, 2, 3):
            vp = virasoro_params_for_rimhook(p, r)
            m_up = MVirasoro(2, -r, vp.alpha, vp.gamma)
            m_down = MVirasoro(2, r, vp.alpha, vp.gamma)
            cases.append((f"hooks r={r} {z}", True,
                          [((1, m_up), (r, hook_raise(r, p))), ((1, m_down), (r, hook_lower(r, p)))]))
            cases.append((f"hooks r+1={r + 1} {z}", False,
                          [((1, m_up), (r + 1, hook_raise(r, p)))]))
        vp = virasoro_params_from_kerov(p)
        wrong = VirasoroParams(alpha=vp.alpha, gamma=vp.gamma + Fraction(1, 3))
        for k in (-2, 0, 1):
            m = MVirasoro(2, k, vp.alpha, vp.gamma)
            cases.append((f"virasoro k={k} {z}", True, [((1, m), (1, virasoro_op(k, vp)))]))
            cases.append((f"wrong gamma k={k} {z}", False, [((1, m), (1, virasoro_op(k, wrong)))]))
    return cases


@pytest.mark.parametrize("name,holds,pairs", _equivalence_pairs(),
                         ids=[c[0] for c in _equivalence_pairs()])
def test_disagree_matches_the_vector_oracle(name, holds, pairs):
    from youngfock.suites import _disagree

    got = _disagree(pairs, 4)
    assert got == disagree_by_vectors(pairs, 4)
    assert (got == []) == holds
    if not holds:
        # each false pair differs by a nonzero multiple of a hook raise, a
        # boson mode or a scalar, so every diagram is flagged but the empty
        # one, which a_1 kills
        everything = [lam.to_json() for lam in partitions_up_to(4)]
        assert got == (everything[1:] if name.startswith("wrong gamma k=1") else everything)


def test_a_failing_suite_reports_a_json_detail(monkeypatch):
    # a_k doubled: [a_n, a_-n] = 4n, so every n + m = 0 bracket fails
    import youngfock.suites as suites
    from youngfock.operators import Bilinear

    monkeypatch.setattr(suites, "boson_op", lambda k: Bilinear(k, (2,)))
    rep = run_suite("heisenberg", max_degree=2)
    bad = [c for c in rep["checks"] if not c["ok"]]
    assert not rep["ok"] and len(bad) == 8
    assert all(c["detail"] == {"failures": 4} for c in bad)
    json.dumps(rep)


def _suite_params(seed):
    # the draw that suite_prop52 and suite_prop62 make
    rng = random.Random(seed)
    return VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))


def _flagged(forms, states_at):
    """Per form i: the (x, state) pairs :func:`fock.failures` flags over
    the states ``states_at(i, x)``, at every x."""
    rows = list(forms)
    return [{(x, st) for x, row in rows for st, _ in failures(row[i], states_at(i, x))[1]}
            for i in range(len(rows[0][1]))]


def _oracle_flagged(verdicts, width):
    """The same sets from the vector oracle's per-(x, state) verdicts."""
    return [{key for key, v in verdicts if v[i]} for i in range(width)]


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_psi_bracket_verdicts_match_the_vector_oracle(seed):
    p = _suite_params(seed)
    for k in (1, 2, 3):
        states = charged_states(4)
        psis = {HalfInt(d): Psi(HalfInt(d)) for d in range(-7, 8 + 2 * k, 2)}
        got = _flagged(_prop52_forms(p, k, psis), lambda i, x: states)
        assert got == _oracle_flagged(prop52_verdicts_by_vectors(p, k, 4), 3), k
        # the verified form holds everywhere; the printed forms fail somewhere
        assert not got[0] and got[1] and got[2]
    for k in (1, 2):
        states = charged_states(3)
        psis = {HalfInt(d): Psi(HalfInt(d)) for d in range(-5, 6 + 2 * k, 2)}
        # the order-3 shape is checked where psi_x does not kill the state,
        # which is where the oracle's verdict is not None
        live = {x: [st for st in states if st.insert(x) is not None] for x in psis}
        verdicts = prop62_verdicts_by_vectors(p, k, 3)
        assert {key for key, v in verdicts if v[1] is not None} == {
            (x, st) for x, _ in _prop62_forms(p, k, psis) for st in live[x]}
        got = _flagged(_prop62_forms(p, k, psis), lambda i, x: live[x] if i else states)
        assert got == _oracle_flagged(verdicts, 2), k
        assert not got[0] and got[1]


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_psi_bracket_flags_a_coefficient_off_by_one(seed):
    # -((alpha - gamma k) + x + k/2) + 1 in place of the verified coefficient,
    # for L_(-k) and for the order-2 mode: flagged exactly where the vector
    # form flags it, which is wherever psi_(x+k) does not kill the state
    p = _suite_params(seed)
    states = charged_states(3)
    for k in (1, 2):
        for op in (virasoro_op(-k, p), m_virasoro_op(2, -k, p)):
            flagged = 0
            for x in (HalfInt(d) for d in range(-5, 6, 2)):
                c = 1 - (p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2))
                terms = _psi_bracket(op, {y: Psi(y) for y in (x, x + k)}, x, k, c)
                found = {st for st, _ in failures(terms, states)[1]}
                for state in states:
                    v = FockVector.basis(state)
                    lhs = psi(x, op.apply(v)) - op.apply(psi(x, v))
                    got = state in found
                    assert got == (lhs != psi(x + k, v).scale(c)), (k, x, state)
                    assert got == (state.insert(x + k) is not None)
                flagged += len(found)
            assert flagged


@pytest.mark.parametrize("seed", range(5))
def test_power_form_probe_counts_as_the_vector_sums(seed):
    # the probe's failures walk against the earlier claimed-minus-actual
    # FockVectors: the same deltas state by state, and a delta_count that
    # is the support of them all
    p = _suite_params(seed)
    want = power_form_deltas_by_vectors(p)
    states = [MayaState.from_partition(lam) for lam in partitions_up_to(3)]
    got = []
    for k in range(1, 4):
        lcm, found = failures(_power_form(p, k), states)
        got += [(k, st, FockVector({new: Fraction(n) / lcm for new, n in delta.items()}))
                for st, delta in found]
    assert got == want and want
    probe = next(q for q in run_suite("m-virasoro", seed=seed, max_degree=2)["probes"]
                 if q["name"] == "claimed power-form action at order 3")
    assert probe["delta_count"] == sum(len(delta) for _, _, delta in want)
    assert probe["holds"] is False
