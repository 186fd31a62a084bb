"""Named verification suites behind the command-line ``verify`` command.

Each suite returns a JSON-ready report: a header naming the identity it
exercises, the parameters used, per-check results, and non-failing
probe deltas for the open variants.  A suite is ``ok`` when every hard
check passed; probes never fail a suite.

An operator identity is one list of (c, outer, inner) terms, psi_x among
them as :class:`fock.Psi`, and fails on each basis state that the
:func:`fock.failures` walk flags, where their image is not empty.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional

from .conversion import (
    a_coeff_closed,
    b_coeff_closed,
    schur_params_from_vir,
    vir_rows,
    y_side_params,
    z_linearity_witness,
)
from .fock import MayaState, Psi, basis_index, boson_moves, failures, vacuum
from .measures import (
    MeasureSpec,
    MiwaParams,
    _jacobi_trudi,
    complete_homogeneous,
    schur_polynomial,
    schur_weight,
    weight_table,
)
from .operators import (
    Bilinear,
    KerovParams,
    MVirasoro,
    Operator,
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
from .partitions import HalfInt, Partition, partitions_of, partitions_up_to
from .rings import Scalar, random_rational, rational_str, scalar_to_json, series_exp


def _check(name: str, ok: bool, detail=None) -> dict:
    out = {"name": name, "ok": bool(ok)}
    if detail is not None:
        out["detail"] = detail
    return out


def _report(suite: str, identity: str, params: dict, checks: List[dict],
            probes: Optional[List[dict]] = None) -> dict:
    return {
        "suite": suite,
        "identity": identity,
        "params": params,
        "checks": checks,
        "probes": probes or [],
        "ok": all(c["ok"] for c in checks),
    }


def _failed(name: str, bad, key: str = "failures", **extra) -> dict:
    """A check that holds when ``bad`` (a count or a list) is empty, and
    otherwise carries it under ``key``, with ``extra``, as its detail."""
    return _check(name, not bad, {key: bad, **extra} if bad else None)


def _disagree(pairs, max_degree: int) -> List[list]:
    """The diagrams up to max_degree, as JSON, on which some pair
    ((c, op), (e, op')) differs: c*op|lam> != e*op'|lam>, where
    :func:`fock.failures` flags the terms c*op and -e*op'."""
    states = [st for d in range(max_degree + 1) for st in basis_index(d)]
    bad = {st for (c, op), (e, other) in pairs
           for st, _ in failures([(c, op, None), (-e, other, None)], states)[1]}
    return [st.to_partition().to_json() for st in states if st in bad]


# ---------------------------------------------------------------------------

def suite_heisenberg(seed: int = 0, max_degree: int = 6, mode_bound: int = 4) -> dict:
    checks = []
    ops = {n: boson_op(n) for n in range(-mode_bound, mode_bound + 1) if n}  # one memo per mode
    for n in ops:
        for m in ops:
            expected = [(Fraction(n), None)] if n + m == 0 else []
            bad = len(commutator_check(ops[n], ops[m], expected, max_degree))
            checks.append(_failed(f"[a_{n}, a_{m}] = {n if n + m == 0 else 0}", bad))
    return _report(
        "heisenberg",
        "oscillator bracket [a_n, a_m] = n delta(n+m) on the wedge space",
        {"max_degree": max_degree, "mode_bound": mode_bound},
        checks,
    )


def suite_sl2(seed: int = 0, max_degree: int = 6, draws: int = 5) -> dict:
    rng = random.Random(seed)
    checks = []
    for t in range(draws):
        p = KerovParams(z=random_rational(rng), w=random_rational(rng))
        u_op, l_op, d_op = kerov_u(p), kerov_l(p), kerov_d(p)
        tag = f"draw {t} (z={rational_str(p.z)}, w={rational_str(p.w)})"
        for name, a, b, c, rhs in (("[D,U] = L", d_op, u_op, 1, l_op),
                                   ("[L,U] = 2U", l_op, u_op, 2, u_op),
                                   ("[L,D] = -2D", l_op, d_op, -2, d_op)):
            bad = len(commutator_check(a, b, [(Fraction(c), rhs)], max_degree))
            checks.append(_failed(f"{name}, {tag}", bad))
    return _report(
        "sl2",
        "box ladder operators close into an sl2 triple",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
    )


def suite_virasoro_cc(seed: int = 0, max_degree: int = 5, mode_bound: int = 3,
                      draws: int = 3) -> dict:
    rng = random.Random(seed)
    checks = []
    for t in range(draws):
        p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
        central = Fraction(1) - 12 * p.gamma * p.gamma
        bad_pairs = []
        # one operator, and so one numerator memo, per mode of the draw
        ops = {k: virasoro_op(k, p) for k in range(-2 * mode_bound, 2 * mode_bound + 1)}
        for m in range(-mode_bound, mode_bound + 1):
            for n in range(-mode_bound, mode_bound + 1):
                expected = [(Fraction(m - n), ops[m + n])]
                if m + n == 0:
                    expected.append((Fraction(m ** 3 - m, 12) * central, None))
                if commutator_check(ops[m], ops[n], expected, max_degree):
                    bad_pairs.append([m, n])
        tag = f"draw {t} (alpha={rational_str(p.alpha)}, gamma={rational_str(p.gamma)})"
        checks.append(_failed(
            f"[L_m, L_n] = (m-n) L_(m+n) + delta(m+n) (m^3-m)/12 (1 - 12 gamma^2), {tag}",
            bad_pairs, "pairs"))
    return _report(
        "virasoro-cc",
        "oscillator quadratic modes close with central charge 1 - 12 gamma^2",
        {"max_degree": max_degree, "mode_bound": mode_bound, "draws": draws, "seed": seed},
        checks,
    )


def suite_kerov_equiv(seed: int = 0, max_degree: int = 7, draws: int = 5) -> dict:
    rng = random.Random(seed)
    checks = []
    for t in range(draws):
        p = KerovParams(z=random_rational(rng), w=random_rational(rng))
        vp = virasoro_params_from_kerov(p)
        u_op, d_op, l_op = kerov_u(p), kerov_d(p), kerov_l(p)
        m_u, m_d, m_l = (MVirasoro(2, k, vp.alpha, vp.gamma) for k in (-1, 1, 0))
        bad = _disagree([((1, m_u), (1, u_op)), ((1, m_d), (1, d_op)),
                         ((2, m_l), (1, l_op))], max_degree)
        tag = f"draw {t} (z={rational_str(p.z)}, w={rational_str(p.w)})"
        checks.append(_failed(
            f"mode -1/0/+1 match box raise / half-diagonal / box lower, {tag}", bad, "basis"))
    return _report(
        "kerov-equiv",
        "box ladder triple equals oscillator modes -1, 0, +1 at "
        "alpha=(z+w)/2, gamma=(w-z)/2, with 2 L_0 the diagonal",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
    )


def suite_rimhook_equiv(seed: int = 0, max_degree: int = 6, hook_bound: int = 4,
                        draws: int = 3) -> dict:
    rng = random.Random(seed)
    checks = []
    for t in range(draws):
        p = KerovParams(z=random_rational(rng), w=random_rational(rng))
        for r in range(1, hook_bound + 1):
            vp = virasoro_params_for_rimhook(p, r)
            up, down, diag = hook_raise(r, p), hook_lower(r, p), hook_diagonal(r, p)
            m_up, m_down = (MVirasoro(2, k, vp.alpha, vp.gamma) for k in (-r, r))
            bad = _disagree([((1, m_up), (r, up)), ((1, m_down), (r, down))], max_degree)
            # sl2 closure of the hook triple itself
            diag_ok = not commutator_check(down, up, [(Fraction(1), diag)], max(max_degree - r, 0))
            checks.append(_failed(
                f"hook length {r}: modes -+r equal {r} x hook ladder, draw {t}", bad, "basis"))
            checks.append(_check(
                f"hook length {r}: [lower, raise] = diagonal, draw {t}", diag_ok))
    return _report(
        "rimhook-equiv",
        "hook ladder operators match oscillator modes -+r at alpha=r(z+w)/2 "
        "up to the frozen scalar r",
        {"max_degree": max_degree, "hook_bound": hook_bound, "draws": draws, "seed": seed},
        checks,
    )


def suite_determinancy(seed: int = 0, max_degree: int = 6, draws: int = 5) -> dict:
    """Reduction of exponential weights to Schur form.

    The single-row identities hold and are asserted.  The all-diagram
    product identity is asserted as stated and is expected to be
    falsified: the one-particle jump weight (z + position + k/2) depends
    on the position, so the complete-homogeneous determinant does not
    transfer beyond single rows once any x_k, k >= 2 is switched on.
    The report carries the exact discrepancy pattern.
    """
    rng = random.Random(seed)
    checks = []
    probes = []
    for t in range(draws):
        z, w = random_rational(rng), random_rational(rng)
        x = {k: random_rational(rng) for k in (1, 2, 3)}
        y = {k: random_rational(rng) for k in (1, 2, 3)}
        spec = MeasureSpec(kind="virasoro", params=MiwaParams(x=x, y=y),
                           kerov=KerovParams(z=z, w=w), truncation=max_degree)
        table = weight_table(spec)
        xs = schur_params_from_vir(x, z, max_degree)
        ys, _ = y_side_params(y, w, max_degree)
        # one complete-homogeneous series per side reaches every |lam| <= max_degree
        hx = complete_homogeneous({i + 1: v for i, v in enumerate(xs)}, max_degree)
        hy = complete_homogeneous({i + 1: v for i, v in enumerate(ys)}, max_degree)

        if max_degree >= 1:  # rows 1..max_degree
            vx, vy = vir_rows(x, z, max_degree), vir_rows(y, w, max_degree)
            row_ok = all(
                vx[n] == _jacobi_trudi(Partition((n,)), hx)
                and vy[n] == _jacobi_trudi(Partition((n,)), hy)
                for n in range(1, max_degree + 1)
            )
            checks.append(_check(f"single-row weights equal their Schur values, draw {t}", row_ok))

        mism = []
        for lam in table.partitions():
            expect = _jacobi_trudi(lam, hx) * _jacobi_trudi(lam, hy)
            got = table.weights[lam]
            if got != expect:
                mism.append({"partition": lam.to_json(),
                             "weight": scalar_to_json(got),
                             "schur_form": scalar_to_json(expect)})
        checks.append(_check(
            f"all weights equal s(X) s(Y) up to degree {max_degree}, draw {t}",
            not mism, None if not mism else {"mismatches": mism[:6], "count": len(mism)}))

    # the special case that does hold: single-jump parameters only
    z = random_rational(rng)
    x1 = {1: random_rational(rng, nonzero=True)}
    ket = exp_raising([(x1[1], virasoro_op(-1, VirasoroParams(alpha=z)))], vacuum(), max_degree)
    xs = schur_params_from_vir(x1, z, max_degree)
    hx = complete_homogeneous({i + 1: v for i, v in enumerate(xs)}, max_degree)
    ok1 = all(ket.coefficient_of_partition(lam) == _jacobi_trudi(lam, hx)
              for lam in partitions_up_to(max_degree))
    probes.append({"name": "reduction holds when only x_1 is nonzero", "holds": ok1})
    # the two-row gap pattern, recomputed here: s_(1,1)(X) - ket(1,1) = -x_2
    gap_ok = True
    for _ in range(3):
        z2 = random_rational(rng)
        x2 = {1: random_rational(rng), 2: random_rational(rng, nonzero=True)}
        vp2 = VirasoroParams(alpha=z2)
        ket2 = exp_raising([(c, virasoro_op(-k, vp2)) for k, c in x2.items()], vacuum(), 2)
        xs2 = schur_params_from_vir(x2, z2, 2)
        s11 = schur_polynomial(Partition((1, 1)), {1: xs2[0], 2: xs2[1]})
        if s11 - ket2.coefficient_of_partition(Partition((1, 1))) != -x2[2]:
            gap_ok = False
    probes.append({
        "name": "two-row gap is exactly -x_2 on the ket side, independent of z",
        "holds": gap_ok,
    })
    return _report(
        "determinancy",
        "exponential-weight measure reduced to Schur form via triangular "
        "inversion of the single-row values",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
        probes,
    )


def suite_z_linearity(seed: int = 0, max_degree: int = 6, draws: int = 3) -> dict:
    rng = random.Random(seed)
    checks = []
    probes = []
    # every check below covers X_1..X_N, so degree 0 leaves none
    for t in range(draws if max_degree >= 1 else 0):
        x = {k: random_rational(rng) for k in (1, 2, 3)}
        try:
            wit = z_linearity_witness(x, max_degree)
            checks.append(_check(f"z-degree of every X_N at most 1, draw {t}", True))
        except ValueError as exc:
            checks.append(_check(f"z-degree of every X_N at most 1, draw {t}", False,
                                 {"error": str(exc)}))
            continue
        a_ok = all(a_coeff_closed(n, x) == wit[n - 1].a for n in range(1, max_degree + 1))
        b_ok = all(b_coeff_closed(n, x) == wit[n - 1].b for n in range(1, max_degree + 1))
        probes.append({"name": f"closed slope formula matches inversion, draw {t}", "holds": a_ok})
        probes.append({"name": f"closed constant-term formula matches inversion, draw {t}", "holds": b_ok})
        # exp/log series identity between row values at z=0 and constants
        lhs = vir_rows(x, Fraction(0), max_degree)
        b_series = [Fraction(0)] + [wit[n - 1].b for n in range(1, max_degree + 1)]
        rhs = series_exp(b_series, max_degree)
        checks.append(_check(
            f"1 + sum v_N u^N = exp(sum B_n u^n) truncated, draw {t}", lhs == rhs))
        # printed base values, once both levels are in range
        if max_degree >= 2:
            x1, x2 = x.get(1, Fraction(0)), x.get(2, Fraction(0))
            base_ok = (wit[0].a == x1 and wit[0].b == 0 and
                       wit[1].a == x1 * x1 / 2 + x2 and wit[1].b == x2 / 2)
            checks.append(_check(f"X_1 = x_1 z and X_2 = (x_1^2/2 + x_2) z + x_2/2, draw {t}",
                                 base_ok))
        # w-side mirror
        yw = {k: random_rational(rng) for k in (1, 2)}
        try:
            _, wit_y = y_side_params(yw, random_rational(rng), max_degree)
            checks.append(_check(f"w-degree of every Y_N at most 1, draw {t}",
                                 len(wit_y) == max_degree))
        except ValueError as exc:
            checks.append(_check(f"w-degree of every Y_N at most 1, draw {t}", False,
                                 {"error": str(exc)}))
    return _report(
        "z-linearity",
        "equivalent Schur parameters stay linear in z (and in w on the "
        "lowering side)",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
        probes,
    )


def suite_rank(seed: int = 0, max_degree: int = 8, draws: int = 5) -> dict:
    from .repstructure import rank_of_D
    rng = random.Random(seed)
    checks = []
    for n in range(1, max_degree + 1):
        ws = [random_rational(rng) for _ in range(draws)]
        ws += [Fraction(i) for i in range(-n - 1, n + 2)]
        bad = []
        for w in ws:
            expected = 0 if (n == 1 and w == 0) else len(partitions_of(n - 1))
            got = rank_of_D(n, w)
            if got != expected:
                bad.append({"w": rational_str(w), "got": got, "expected": expected})
        checks.append(_check(
            f"rank of the removal matrix at degree {n} is p({n - 1}) "
            "(degenerate cell (1, w=0) drops to 0)",
            not bad, None if not bad else bad))
    return _report(
        "rank",
        "removal operator has full rank p(N-1) on every degree, for all "
        "rational w including the integer window",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
    )


def suite_kernels(seed: int = 0, max_degree: int = 8, draws: int = 5) -> dict:
    from .repstructure import decomposition_report, highest_weight_check, kernel_basis
    rng = random.Random(seed)
    checks = []
    # raising operator injectivity
    zs = [random_rational(rng, nonzero=True) for _ in range(draws)]
    zs += [Fraction(i) for i in range(-4, 5)]
    for z in zs:
        u_op = kerov_u(KerovParams(z=z, w=random_rational(rng)))
        if max_degree >= 1:  # degrees 1..max_degree
            checks.append(_failed(
                f"raising kernel trivial in degrees 1..{max_degree} at z={rational_str(z)}",
                [n for n in range(1, max_degree + 1) if kernel_basis(u_op, n)], "degrees"))
    # highest-weight structure for a generic draw
    z = random_rational(rng, nonzero=True)
    w = random_rational(rng, nonzero=True)
    hw_ok = True
    mult_ok = True
    for n in range(0, min(max_degree, 6) + 1):
        vectors, killed, eigen = highest_weight_check(n, z, w)
        hw_ok = hw_ok and killed and eigen
        p_n = len(partitions_of(n))
        p_prev = len(partitions_of(n - 1)) if n >= 1 else 0
        if len(vectors) != p_n - p_prev:
            mult_ok = False
    checks.append(_check("kernel vectors carry eigenvalue z*w + 2N", hw_ok))
    checks.append(_check(
        "kernel dimension at degree N is p(N) - p(N-1), the rank-nullity count",
        mult_ok))
    # the four parameter cases and their generator relations
    cases = [
        ("both-nonzero", z, w),
        ("both-zero", Fraction(0), Fraction(0)),
        ("z-zero", Fraction(0), random_rational(rng, nonzero=True)),
        ("w-zero", random_rational(rng, nonzero=True), Fraction(0)),
    ]
    for name, zc, wc in cases:
        rep = decomposition_report(zc, wc, min(max_degree, 5))
        rel_ok = all(r["holds"] for r in rep.relations)
        deg_ok = all(row["rank_nullity_ok"] and row["hw_ok"] for row in rep.per_degree)
        # raising the kernel is free except at the vacuum when z = 0,
        # where the invariant line / quotient relations take over
        free_ok = all(row["u_image_independent"]
                      for row in rep.per_degree
                      if not (zc == 0 and row["degree"] == 0))
        checks.append(_check(
            f"case {name}: generator relations and graded data",
            rep.case == name and rel_ok and deg_ok and free_ok))
    return _report(
        "kernels",
        "kernel structure of the ladder pair: trivial raising kernel, "
        "rank-nullity kernel counts, highest weights z*w + 2N, and the "
        "four boundary cases",
        {"max_degree": max_degree, "draws": draws, "seed": seed},
        checks,
    )


def _power_form(p: VirasoroParams, k: int):
    """The terms of the claimed order-3 raising action less the M = 3
    mode: a jump from x adds a k-hook with sign (-1)**(height - 1) and
    weight (a + x)**2, a = alpha - gamma k + k/2."""
    a = p.alpha - p.gamma * k + Fraction(k, 2)
    return [(1, Bilinear(-k, (a * a, 2 * a, 1)), None), (-1, m_virasoro_op(3, -k, p), None)]


def suite_m_virasoro(seed: int = 0, max_degree: int = 5) -> dict:
    rng = random.Random(seed)
    checks = []
    probes = []
    p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
    # M = 2 collapses to the quadratic modes
    bad = [[k, lam] for k in range(-3, 4) for lam in _disagree(
        [((1, MVirasoro(2, k, p.alpha, p.gamma)), (1, virasoro_op(k, p)))], max_degree)]
    checks.append(_failed("order 2 equals the quadratic modes, |k| <= 3", bad[:5]))
    # M = 1 measure table is a rescaled product table
    g = Fraction(1, 3)
    x = {k: random_rational(rng) for k in (1, 2)}
    y = {k: random_rational(rng) for k in (1, 2)}
    z, w = random_rational(rng), random_rational(rng)
    spec1 = MeasureSpec(kind="m-virasoro", params=MiwaParams(x=x, y=y),
                        kerov=KerovParams(z=z, w=w), truncation=4, m_order=1, gamma=g)
    t1 = weight_table(spec1)
    # per diagram by Jacobi-Trudi, so the check does not rest on the
    # exponential that built both tables
    rescaled = MiwaParams(x={k: v * (1 - g * k) for k, v in x.items()},
                          y={k: v * (1 + g * k) for k, v in y.items()})
    checks.append(_check(
        "order 1 table equals the product table at x_k (1 - gamma k), y_k (1 + gamma k)",
        all(t1.weights[lam] == schur_weight(lam, rescaled) for lam in t1.partitions())))
    # single-trajectory support at M = 3, on the M-fold sum
    bad_support = []
    for k in range(1, 4):
        m3 = MVirasoro(3, -k, p.alpha, p.gamma)
        for lam in partitions_up_to(max_degree):
            st = MayaState.from_partition(lam)
            allowed = {new for new, _, _ in boson_moves(-k, st)}
            support = {s for s, _ in m3.numerators(st)}
            if not support <= allowed:
                bad_support.append([k, lam.to_json()])
    checks.append(_failed(
        "order 3 raising support lies inside single k-hook additions, k <= 3", bad_support[:5]))
    # probe: claimed power-form coefficients at M = 3, counted as the
    # support of every nonzero delta on the diagrams up to degree 3
    states = [MayaState.from_partition(lam) for lam in partitions_up_to(3)]
    deltas = sum(len(delta) for k in range(1, 4) for _, delta in failures(_power_form(p, k), states)[1])
    probes.append({
        "name": "claimed power-form action at order 3",
        "holds": not deltas,
        "delta_count": deltas,
        "note": "combinatorial weights differ from the plain (M-1)-th power",
    })
    return _report(
        "m-virasoro",
        "M-fold generalization: collapse at order 2, rescaled product "
        "table at order 1, single-trajectory support at order 3",
        {"max_degree": max_degree, "seed": seed},
        checks,
        probes,
    )


def _charged_states(max_degree: int):
    return [MayaState.from_partition(lam, c) for c in (-1, 0, 1) for lam in partitions_up_to(max_degree)]


def _psi_bracket(op: Operator, psis: Dict[HalfInt, Psi], x: HalfInt, k: int, c: Scalar, after=()):
    """The terms of [psi_x, op] - c psi_(x+k) - sum of o psi_x over o in
    ``after``, each psi_y the one ``psis[y]``: the identity fails on a
    basis state where their image is not empty."""
    psi_x = psis[x]
    return ([(1, psi_x, op), (-1, op, psi_x), (-c, psis[x + k], None)]
            + [(-1, o, psi_x) for o in after])


def _prop52_forms(p: VirasoroParams, k: int, psis: Dict[HalfInt, Psi]):
    """Per x: the terms of the verified, printed and index-corrected
    forms of [psi_x, L_(-k)]."""
    l_raise, a_lower, a_raise = virasoro_op(-k, p), boson_op(k), boson_op(-k)
    for x in (HalfInt(d) for d in range(-7, 8, 2)):
        coeff = -(p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2))
        raw_coeff = p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2) - 1
        # printed form: a_k psi_x + (z + x + k/2 - 1) psi_(x+k)
        yield x, (_psi_bracket(l_raise, psis, x, k, coeff),
                  _psi_bracket(l_raise, psis, x, k, raw_coeff, [a_lower]),
                  _psi_bracket(l_raise, psis, x, k, raw_coeff, [a_raise]))


def _prop62_forms(p: VirasoroParams, k: int, psis: Dict[HalfInt, Psi]):
    """Per x: the terms of the order-2 bracket and of the printed order-3
    shape, which the suite probes only where psi_x does not kill the state."""
    m1, m2, m3 = (m_virasoro_op(order, -k, p) for order in (1, 2, 3))
    for x in (HalfInt(d) for d in range(-5, 6, 2)):
        cx = -(p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2))
        raw_coeff = (p.alpha - p.gamma * k + x.as_fraction() + Fraction(k, 2) - 1) ** 2
        yield x, (_psi_bracket(m2, psis, x, k, cx), _psi_bracket(m3, psis, x, k, raw_coeff, [m2, m1]))


def suite_prop52(seed: int = 0, max_degree: int = 4, mode_bound: int = 3) -> dict:
    """Bracket of a creation operator with a raising mode.

    The verified identity under this package's conventions is
    [psi_x, L_(-k)] = -((alpha - gamma k) + x + k/2) psi_(x+k): the zero
    mode follows the sector charge, so the jump coefficients are
    charge-independent and the oscillator term cancels outright.  The
    printed variant with a boson term is probed and its discrepancy
    pattern reported.
    """
    rng = random.Random(seed)
    p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
    checks = []
    probes = []
    states = _charged_states(max_degree)
    # one Psi, and so one numerator memo, per position, shared by every form and k
    psis = {HalfInt(d): Psi(HalfInt(d)) for d in range(-7, 8 + 2 * mode_bound, 2)}
    for k in range(1, mode_bound + 1):
        found = [[len(failures(terms, states)[1]) for terms in forms]
                 for _, forms in _prop52_forms(p, k, psis)]
        bad, raw_bad, corrected_bad = map(sum, zip(*found))
        total = len(found) * len(states)
        checks.append(_failed(
            f"[psi_x, L_(-{k})] = -((alpha - gamma k) + x + k/2) psi_(x+k)", bad, of=total))
        probes.append({"name": f"printed form with lowering boson term, k={k}",
                       "holds": raw_bad == 0, "failures": raw_bad, "of": total})
        probes.append({"name": f"index-corrected form with raising boson term, k={k}",
                       "holds": corrected_bad == 0, "failures": corrected_bad, "of": total})
    return _report(
        "prop52",
        "creation operator bracket with raising modes: verified variant "
        "asserted, printed variant probed",
        {"max_degree": max_degree, "mode_bound": mode_bound, "seed": seed},
        checks,
        probes,
    )


def suite_prop62(seed: int = 0, max_degree: int = 3, mode_bound: int = 2) -> dict:
    rng = random.Random(seed)
    p = VirasoroParams(alpha=random_rational(rng), gamma=random_rational(rng))
    # base case M = 2: must agree with the quadratic-mode bracket; and
    # the printed order-3 shape, probed
    states = _charged_states(max_degree)
    psis = {HalfInt(d): Psi(HalfInt(d)) for d in range(-5, 6 + 2 * mode_bound, 2)}
    bad = deltas = total = 0
    for k in range(1, mode_bound + 1):
        for x, (order2, order3) in _prop62_forms(p, k, psis):
            live = [st for st in states if psis[x].numerators(st)]
            bad += len(failures(order2, states)[1])
            deltas += len(failures(order3, live)[1])
            total += len(live)
    checks = [_failed("order 2 bracket matches the verified quadratic-mode identity", bad)]
    probes = [{"name": "printed order-3 bracket shape", "holds": deltas == 0,
               "failures": deltas, "of": total}]
    return _report(
        "prop62",
        "creation operator bracket with M-fold raising modes: order-2 base "
        "case asserted, printed order-3 shape probed",
        {"max_degree": max_degree, "mode_bound": mode_bound, "seed": seed},
        checks,
        probes,
    )


SUITES = {
    "heisenberg": suite_heisenberg,
    "sl2": suite_sl2,
    "virasoro-cc": suite_virasoro_cc,
    "kerov-equiv": suite_kerov_equiv,
    "rimhook-equiv": suite_rimhook_equiv,
    "determinancy": suite_determinancy,
    "z-linearity": suite_z_linearity,
    "rank": suite_rank,
    "kernels": suite_kernels,
    "m-virasoro": suite_m_virasoro,
    "prop52": suite_prop52,
    "prop62": suite_prop62,
}


def run_suite(name: str, seed: int = 0, max_degree: Optional[int] = None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    fn = SUITES[name]
    if max_degree is None:
        return fn(seed=seed)
    return fn(seed=seed, max_degree=max_degree)
