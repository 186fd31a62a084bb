"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Everything is exact arithmetic; the stated time
budgets are asserted where given.

Criterion 7 (the all-diagram reduction of exponential weights to Schur
form) is implemented faithfully and is expected to fail: the one-particle
jump weight depends on the particle's position, so the single-row
inversion cannot reproduce multi-row weights once any x_k with k >= 2 is
nonzero.  See README "Acceptance status" for the analysis; the criterion
is kept red on purpose rather than weakened.
"""

import random
import time
from fractions import Fraction

from youngfock.cli import main as cli_main
from youngfock.conversion import schur_params_from_vir, split_linear, vir_rows, z_linearity_witness
from youngfock.fock import FockVector
from youngfock.measures import (
    MeasureSpec,
    MiwaParams,
    cauchy_normalizer,
    schur_polynomial,
    weight_table,
)
from youngfock.operators import KerovParams, boson_op
from youngfock.partitions import partitions_of
from youngfock.rings import Poly, random_rational, series_exp
from youngfock.suites import run_suite

from .oracles import rim_hooks_addable

# c07 is a falsified identity that stays red with its body exactly as
# written; it builds its virasoro table under this name
virasoro_weight_table = weight_table


def y_side_params(y, w, n_max):
    """The bra side's Schur parameters at w and their w-linearity
    witnesses, as c07 and c08 read them: one inversion over the
    polynomial ring in w, split as Y_N = C_N*w + D_N."""
    witnesses = list(split_linear(schur_params_from_vir(y, Poly.gen(), n_max), "Y", "w"))
    return [wit.a * w + wit.b for wit in witnesses], witnesses


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number: int, label: str, elapsed: float, budget=None):
    extra = f" (budget {budget:.0f}s)" if budget else ""
    print(f"PASS criterion {number}: {label} [{elapsed:.2f}s{extra}]")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_c01_heisenberg_relations():
    with Timer() as t:
        rep = run_suite("heisenberg", seed=1)
    assert rep["ok"], rep
    report(1, "oscillator bracket exact on degree <= 6, modes <= 4", t.elapsed, 10)


def test_c02_sl2_triple():
    with Timer() as t:
        rep = run_suite("sl2", seed=2)
    assert rep["ok"], rep
    report(2, "box-ladder sl2 triple on degree <= 6, 5 draws", t.elapsed, 10)


def test_c03_virasoro_central_charge():
    with Timer() as t:
        rep = run_suite("virasoro-cc", seed=3)
    assert rep["ok"], rep
    report(3, "quadratic-mode bracket with central term, degree <= 5", t.elapsed, 30)


def test_c04_ladder_equals_modes_one():
    with Timer() as t:
        rep = run_suite("kerov-equiv", seed=4)
    assert rep["ok"], rep
    report(4, "box ladder = modes -+1 and 2 L_0 = diagonal, degree <= 7", t.elapsed)


def test_c05_hook_ladder_equals_modes_r():
    with Timer() as t:
        rep = run_suite("rimhook-equiv", seed=5)
    assert rep["ok"], rep
    report(5, "hook ladder = modes -+r up to the frozen scalar r, r <= 4", t.elapsed)


def test_c06_signed_hook_sum_consistency():
    with Timer() as t:
        for n in range(0, 9):
            for lam in partitions_of(n):
                v = FockVector.from_partition(lam)
                for k in range(1, 7):
                    expected = FockVector.zero()
                    for mv in rim_hooks_addable(lam, k):
                        sign = Fraction(-1 if (mv.height - 1) % 2 else 1)
                        expected = expected + FockVector.from_partition(mv.result, sign)
                    assert boson_op(-k).apply(v) == expected, (lam, k)
    report(6, "wedge bosons equal signed hook sums, k <= 6, size <= 8", t.elapsed)


def test_c07_weights_reduce_to_schur_form():
    rng = random.Random(7)
    failures = []
    with Timer() as t:
        for draw in range(5):
            z, w = random_rational(rng), random_rational(rng)
            x = {k: random_rational(rng) for k in (1, 2, 3)}
            y = {k: random_rational(rng) for k in (1, 2, 3)}
            table = virasoro_weight_table(MeasureSpec(
                kind="virasoro", params=MiwaParams(x=x, y=y),
                kerov=KerovParams(z=z, w=w), truncation=6))
            xs = schur_params_from_vir(x, z, 6)
            ys, _ = y_side_params(y, w, 6)
            xm = {i + 1: v for i, v in enumerate(xs)}
            ym = {i + 1: v for i, v in enumerate(ys)}
            for lam in table.partitions():
                want = schur_polynomial(lam, xm) * schur_polynomial(lam, ym)
                if table.weights[lam] != want:
                    failures.append((draw, lam.parts))
    assert t.elapsed < 60
    assert not failures, (
        "all-diagram reduction to Schur form is falsified "
        f"({len(failures)} weight mismatches, first at draw {failures[0][0]} "
        f"partition {failures[0][1]}); the single-row inversion cannot carry "
        "position-dependent jump weights to multi-row diagrams -- see README"
    )
    report(7, "weights equal s(X) s(Y) through degree 6", t.elapsed, 60)


def test_c08_parameters_linear_in_z_and_w():
    with Timer() as t:
        rng = random.Random(8)
        for _ in range(3):
            x = {k: random_rational(rng) for k in (1, 2, 3)}
            wits = z_linearity_witness(x, 6)  # raises above degree 1
            assert len(wits) == 6
            y = {k: random_rational(rng) for k in (1, 2, 3)}
            _, wit_y = y_side_params(y, random_rational(rng), 6)
            assert len(wit_y) == 6
        # printed base values, symbolically over a grid
        for x1n in range(-2, 3):
            for x2n in range(-2, 3):
                wits = z_linearity_witness({1: Fraction(x1n), 2: Fraction(x2n)}, 2)
                assert wits[0].a == x1n and wits[0].b == 0
                assert wits[1].a == Fraction(x1n) ** 2 / 2 + x2n
                assert wits[1].b == Fraction(x2n, 2)
    report(8, "X_N linear in z and Y_N linear in w through N = 6", t.elapsed)


def test_c09_log_series_identity():
    with Timer() as t:
        rng = random.Random(9)
        for _ in range(3):
            x = {k: random_rational(rng) for k in (1, 2, 3)}
            wits = z_linearity_witness(x, 6)
            b = [Fraction(0)] + [w.b for w in wits]
            assert series_exp(b, 6) == vir_rows(x, Fraction(0), 6)
    report(9, "1 + sum v_N u^N = exp(sum B_n u^n) truncated at 6", t.elapsed)


def test_c10_removal_rank_sweep():
    with Timer() as t:
        rep = run_suite("rank", seed=10)
    assert rep["ok"], rep
    report(10, "removal rank p(N-1) for N <= 8 over the full w sweep", t.elapsed, 60)


def test_c11_kernels_and_boundary_cases():
    with Timer() as t:
        rep = run_suite("kernels", seed=11)
    assert rep["ok"], rep
    report(11, "trivial raising kernel, case relations, weights z*w + 2N", t.elapsed)


def test_c12_m_virasoro_block():
    with Timer() as t:
        rep = run_suite("m-virasoro", seed=12)
    assert rep["ok"], rep
    probes = {p["name"]: p for p in rep["probes"]}
    assert "claimed power-form action at order 3" in probes  # delta reported, not asserted
    report(12, "order-2 collapse, order-1 rescale, order-3 support", t.elapsed)


def test_c13_cauchy_normalizer():
    with Timer() as t:
        rng = random.Random(13)
        for _ in range(3):
            p = MiwaParams(
                x={k: random_rational(rng) for k in (1, 2, 3)},
                y={k: random_rational(rng) for k in (1, 2, 3)},
            )
            table = weight_table(MeasureSpec(kind="schur", params=p, truncation=6))
            assert cauchy_normalizer(p, 6) == table.z_trunc
    report(13, "truncated exp(sum k x_k y_k) equals the weight sum", t.elapsed)


def test_c14_cli_determinism(capsys):
    with Timer() as t:
        for argv in (
            ["measure", "--kind", "virasoro", "--z", "1/2", "--w", "1/3",
             "--x", "1=1,2=1/2", "--y", "1=1", "--max-degree", "4"],
            ["verify", "--suite", "rank", "--seed", "14", "--max-degree", "6"],
            ["convert", "--x", "1=1,2=1", "--max-degree", "4", "--ring", "poly-z"],
        ):
            cli_main(argv)
            first = capsys.readouterr().out
            cli_main(argv)
            second = capsys.readouterr().out
            assert first == second and first
    report(14, "identical seed and config give byte-identical output", t.elapsed)
