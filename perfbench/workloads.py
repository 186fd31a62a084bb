"""Seeded job lists for the four benchmark workloads.

A job is one ``python -m youngfock <argv>`` invocation plus what its
checker needs to know about it.  Every input is drawn from
``random.Random(seed)``, so one seed always gives the same job list.

Generator rules (each one avoids a known CLI trap):
- rationals are always passed as ``--opt=value``: a bare ``--w -2/5``
  is parsed as a flag and exits 2;
- ``--max-degree=0`` is never passed: ``verify`` silently ignores it;
- every drawn parameter is nonzero unless a zero is the point of the
  job (the decompose cases), so the amount of work does not depend on
  the seed through which terms vanish.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

SUITES = ("heisenberg", "sl2", "virasoro-cc", "kerov-equiv", "rimhook-equiv",
          "determinancy", "z-linearity", "rank", "kernels", "m-virasoro",
          "prop52", "prop62")
DENOMINATORS = (3, 5, 7)


def rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _rat(rng: random.Random, den: int = None) -> str:
    """Nonzero rational: numerator +-1 or +-2 over 3, 5 or 7 (never reduces)."""
    den = den or rng.choice(DENOMINATORS)
    return rat_str(Fraction(rng.choice((-2, -1, 1, 2)), den))


def _miwa(rng: random.Random) -> Dict[str, str]:
    """x_1..x_3 over a shuffled 3, 5, 7: every draw has the same denominators,
    so the size of the exact arithmetic, and with it the run time, depends
    little on the seed."""
    dens = rng.sample(DENOMINATORS, 3)
    return {str(k): _rat(rng, d) for k, d in zip((1, 2, 3), dens)}


def _miwa_arg(m: Dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in m.items())


def _job(jid: str, check: str, argv: List[str], rung, low: bool = False,
         expect_rc: int = 0, ref: str = None, **params) -> dict:
    return {"id": jid, "check": check, "argv": argv, "rung": rung, "low": low,
            "expect_rc": expect_rc, "ref": ref, "params": params}


def _measure_spec(rng: random.Random, kind: str, degree: int, ring: str = "rational") -> dict:
    spec = {"kind": kind, "degree": degree, "ring": ring, "x": _miwa(rng), "y": _miwa(rng)}
    if kind != "schur":
        spec["z"], spec["w"] = _rat(rng), _rat(rng)
    if kind == "m-virasoro":
        spec["m"], spec["gamma"] = 3, _rat(rng)
    return spec


def _spec_argv(spec: dict) -> List[str]:
    argv = [f"--kind={spec['kind']}", f"--x={_miwa_arg(spec['x'])}",
            f"--y={_miwa_arg(spec['y'])}", f"--max-degree={spec['degree']}"]
    if "m" in spec:
        argv += [f"--m={spec['m']}", f"--gamma={spec['gamma']}"]
    if spec["ring"] == "poly-z":
        argv += ["--ring=poly-z", f"--w={spec['w']}"]
    elif "z" in spec:
        argv += [f"--z={spec['z']}", f"--w={spec['w']}"]
    return argv


def tables(rng: random.Random) -> List[dict]:
    jobs = []
    ladders = (("schur", (2, 6, 9, 11), 6), ("virasoro", (2, 6, 9, 10), 6),
               ("m-virasoro", (2, 5, 7), 5))
    for kind, degrees, corr_degree in ladders:
        for d in degrees:
            spec = _measure_spec(rng, kind, d)
            mid = f"measure-{kind}-d{d}"
            jobs.append(_job(mid, "measure", ["measure"] + _spec_argv(spec), d,
                             low=d == degrees[0], **spec))
            if d == corr_degree:
                points = sorted(rng.sample(("5/2", "3/2", "1/2", "-1/2", "-3/2"),
                                           rng.randint(1, 2)),
                                key=Fraction, reverse=True)
                pts = "[" + ",".join(f'"{p}"' for p in points) + "]"
                jobs.append(_job(f"correlations-{kind}-d{d}", "correlations",
                                 ["correlations"] + _spec_argv(spec) + [f"--points={pts}"],
                                 d, ref=mid, points=points, **spec))
    spec = _measure_spec(rng, "virasoro", 8, ring="poly-z")
    jobs.append(_job("measure-virasoro-polyz-d8", "measure",
                     ["measure"] + _spec_argv(spec), 8, **spec))
    return jobs


def convert(rng: random.Random) -> List[dict]:
    jobs = []
    for n in (3, 8, 9, 10):
        x, y, z, w = _miwa(rng), _miwa(rng), _rat(rng), _rat(rng)
        common = [f"--x={_miwa_arg(x)}", f"--y={_miwa_arg(y)}", f"--max-degree={n}"]
        rid = f"convert-rational-N{n}"
        jobs.append(_job(rid, "convert", ["convert"] + common + [f"--z={z}", f"--w={w}"],
                         n, low=n == 3, ring="rational", degree=n, x=x, y=y, z=z, w=w))
        if n <= 9:
            jobs.append(_job(f"convert-polyz-N{n}", "convert",
                             ["convert"] + common + ["--ring=poly-z"], n, low=n == 3,
                             ref=rid, ring="poly-z", degree=n, x=x, y=y))
    return jobs


def rank(rng: random.Random) -> List[dict]:
    jobs = []
    cases = (("both-nonzero", True, True, (2, 8, 10)), ("z-zero", False, True, (2, 8)),
             ("w-zero", True, False, (2, 8, 10)), ("both-zero", False, False, (2, 8)))
    for case, z_on, w_on, degrees in cases:
        for d in degrees:
            z = _rat(rng) if z_on else "0"
            w = _rat(rng) if w_on else "0"
            jobs.append(_job(f"decompose-{case}-d{d}", "decompose",
                             ["decompose", f"--z={z}", f"--w={w}", f"--max-degree={d}"],
                             d, low=d == 2, case=case, z=z, w=w, degree=d))
    for suite, degrees in (("rank", (6, 8)), ("kernels", (5, 8))):
        for d in degrees:
            seed = rng.randrange(1_000_000)
            jobs.append(_job(f"verify-{suite}-d{d}", "verify",
                             ["verify", f"--suite={suite}", f"--seed={seed}", f"--max-degree={d}"],
                             d, suite=suite, seed=seed, degree=d))
    return jobs


def verify(rng: random.Random) -> List[dict]:
    jobs = []
    for suite in ("heisenberg", "sl2", "kerov-equiv", "z-linearity"):
        seed = rng.randrange(1_000_000)
        jobs.append(_job(f"verify-{suite}-d2", "verify",
                         ["verify", f"--suite={suite}", f"--seed={seed}", "--max-degree=2"],
                         2, low=True, suite=suite, seed=seed, degree=2))
    for suite in SUITES:
        seed = rng.randrange(1_000_000)
        jobs.append(_job(f"verify-{suite}", "verify",
                         ["verify", f"--suite={suite}", f"--seed={seed}"], None,
                         expect_rc=1 if suite == "determinancy" else 0,
                         suite=suite, seed=seed, degree=None))
    return jobs


WORKLOADS = {"tables": tables, "convert": convert, "rank": rank, "verify": verify}


def jobs_for(workload: str, seed: int) -> List[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
