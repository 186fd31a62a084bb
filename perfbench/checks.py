"""Exactness checks of one job's output, and the corruptions that prove
each check can fail.

A checker takes the job, its exit code, stdout and stderr, plus
``done``, which maps the id of every job already run to that job and
its stdout (for jobs checked against a partner),
and returns ``(ok, cases, why)``: ``cases`` is how many facts it
compared, so a check over zero cases shows.  The arithmetic here is the
benchmark's own (``Fraction`` and coefficient lists); it imports nothing
from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Dict, List, Tuple

Result = Tuple[bool, int, str]


def partition_counts(n: int) -> List[int]:
    """p(0..n) by the coin-change recurrence."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p


# -- exact scalars: a rational is a constant polynomial ----------------------

def poly(value) -> Tuple[Fraction, ...]:
    coeffs = [Fraction(c) for c in value["poly"]] if isinstance(value, dict) else [Fraction(value)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def padd(a, b) -> Tuple[Fraction, ...]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def peval(a, t: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * t + c
    return out


def _lines(out: str) -> List[dict]:
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def contains(parts: List[int], doubled: int) -> bool:
    """Whether the Maya diagram of the partition occupies doubled/2: its
    particles sit at lam_i - i + 1/2 for i >= 1 (lam_i = 0 past the rows)."""
    if any(2 * (p - i) + 1 == doubled for i, p in enumerate(parts, 1)):
        return True
    return doubled <= -2 * len(parts) - 1


def exp_series(a: List[Fraction], n: int) -> List[Fraction]:
    """Coefficients 0..n of exp(sum_k a[k] t^k), a[0] = 0."""
    out = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        out[m] = sum((j * a[j] * out[m - j] for j in range(1, min(m, len(a) - 1) + 1)),
                     Fraction(0)) / m
    return out


def miwa(spec_side: Dict[str, str]) -> Dict[int, Fraction]:
    return {int(k): Fraction(v) for k, v in spec_side.items()}


def row_value(n: int, x: Dict[int, Fraction], z: Fraction) -> Fraction:
    """Single-row coefficient of exp(sum_k x_k L_(-k)) on the vacuum: the
    sum over compositions (k_1..k_R) of n of prod x_(k_i) / R! times
    prod (z + p_i + k_i/2), where the jumping particle starts at p = -1/2.
    Computed by a DP over (partial sum, number of jumps)."""
    f = {(0, 0): Fraction(1)}
    for s in range(n):
        for r in range(s + 1):
            v = f.get((s, r))
            if not v:
                continue
            for k, c in x.items():
                if s + k <= n:
                    f[s + k, r + 1] = f.get((s + k, r + 1), Fraction(0)) \
                        + v * c * (z + Fraction(2 * s - 1, 2) + Fraction(k, 2))
    return sum((f.get((n, r), Fraction(0)) / math.factorial(r) for r in range(1, n + 1)),
               Fraction(0))


# -- per-command checkers ----------------------------------------------------

def check_measure(job, out, done) -> Result:
    spec = job["params"]
    lines = _lines(out)
    summary, rows = lines[-1], lines[:-1]
    d = spec["degree"]
    if summary.get("command") != "measure" or summary.get("ok") is not True \
            or summary.get("degree") != d or summary.get("kind") != spec["kind"]:
        return False, 0, f"bad summary {summary}"
    expect_rows = sum(partition_counts(d))
    if len(rows) != expect_rows:
        return False, 0, f"{len(rows)} rows, expected sum p(n<={d}) = {expect_rows}"
    seen = set()
    total: Tuple[Fraction, ...] = ()
    for row in rows:
        parts = tuple(row["partition"])
        if parts in seen or sum(parts) > d or any(p < 1 for p in parts) \
                or list(parts) != sorted(parts, reverse=True):
            return False, 0, f"bad or repeated partition {list(parts)}"
        seen.add(parts)
        total = padd(total, poly(row["weight"]))
    z_trunc = poly(summary["z_trunc"])
    if total != z_trunc:
        return False, len(rows), "weights do not sum to z_trunc"
    cases = len(rows) + 1
    if spec["kind"] == "schur":
        if poly(summary["cauchy_normalizer"]) != z_trunc:
            return False, cases, "schur z_trunc differs from cauchy_normalizer"
        cases += 1
    # single rows (and, for schur, single columns) against the benchmark's own
    # values; a poly-z weight has degree <= n in z, so n + 1 points decide it
    x, y = miwa(spec["x"]), miwa(spec["y"])
    zs = [Fraction(t) for t in range(d + 1)] if spec["ring"] == "poly-z" \
        else [Fraction(spec.get("z", 0))]
    expect = {}
    if spec["kind"] == "schur":
        hx, hy = (exp_series([m.get(k, Fraction(0)) for k in range(d + 1)], d) for m in (x, y))
        ex, ey = (exp_series([(-1) ** (k + 1) * m.get(k, Fraction(0)) for k in range(d + 1)], d)
                  for m in (x, y))
        expect = {(n,): [hx[n] * hy[n]] * len(zs) for n in range(1, d + 1)}
        expect.update({(1,) * n: [ex[n] * ey[n]] * len(zs) for n in range(2, d + 1)})
    elif spec["kind"] == "virasoro":
        w = Fraction(spec["w"])
        expect = {(n,): [row_value(n, x, t) * row_value(n, y, w) for t in zs]
                  for n in range(1, d + 1)}
    for row in rows:
        want = expect.get(tuple(row["partition"]))
        if want is None:
            continue
        if [peval(poly(row["weight"]), t) for t in zs] != want:
            return False, cases, f"weight of {row['partition']} differs from its closed form"
        cases += 1
    if spec["ring"] == "rational" and z_trunc:
        for row in rows:
            if row["normalized"] is None or \
                    Fraction(row["normalized"]) != Fraction(row["weight"]) / z_trunc[0]:
                return False, cases, f"normalized weight of {row['partition']} is not weight / z_trunc"
            cases += 1
    return True, cases, ""


def check_correlations(job, out, done) -> Result:
    lines = _lines(out)
    value, summary = lines[0], lines[-1]
    if summary.get("command") != "correlations" or summary.get("ok") is not True:
        return False, 0, f"bad summary {summary}"
    if value["points"] != job["params"]["points"]:
        return False, 0, "points echoed wrongly"
    table = _lines(done[job["ref"]][1])
    doubled = [int(2 * Fraction(p)) for p in job["params"]["points"]]
    hit = sum((Fraction(row["weight"]) for row in table[:-1]
               if all(contains(row["partition"], x) for x in doubled)), Fraction(0))
    expect = hit / Fraction(table[-1]["z_trunc"])
    if Fraction(value["probability"]) != expect:
        return False, 1, f"probability {value['probability']} != {expect}"
    return True, len(table) - 1, ""


def _convert_sides(lines, n) -> Tuple[List[dict], List[dict]]:
    xs = [r for r in lines if "X" in r]
    ys = [r for r in lines if "Y" in r]
    if [r["N"] for r in xs] != list(range(1, n + 1)) or [r["N"] for r in ys] != list(range(1, n + 1)):
        raise ValueError("X or Y rows missing")
    return xs, ys


def check_convert(job, out, done) -> Result:
    spec = job["params"]
    n = spec["degree"]
    lines = _lines(out)
    summary = lines[-1]
    if summary != {"command": "convert", "max_degree": n, "ok": True}:
        return False, 0, f"bad summary {summary}"
    try:
        xs, ys = _convert_sides(lines[:-1], n)
    except ValueError as exc:
        return False, 0, str(exc)
    cases = 0
    if spec["ring"] == "rational":
        # defining property: h_N(X_1..X_N) is the single-row value at degree N
        for side, rows, v, t in (("x", xs, "X", spec["z"]), ("y", ys, "Y", spec["w"])):
            h = exp_series([Fraction(0)] + [Fraction(r[v]) for r in rows], n)
            for m in range(1, n + 1):
                if h[m] != row_value(m, miwa(spec[side]), Fraction(t)):
                    return False, cases, f"h_{m}({v}) differs from the single-row value"
                cases += 1
    for side, rows, (a, b, v), t in (("x", xs, "ABX", spec.get("z")), ("y", ys, "CDY", spec.get("w"))):
        m1, m2 = miwa(spec[side])[1], miwa(spec[side])[2]
        # closed forms of the first two levels: A_1 = x_1, B_1 = 0,
        # A_2 = x_1^2/2 + x_2, B_2 = x_2/2 (and the same on the w side)
        base = [(m1, Fraction(0)), (m1 * m1 / 2 + m2, m2 / 2)]
        for row in rows:
            slope, const = Fraction(row[a]), Fraction(row[b])
            if spec["ring"] == "rational":
                ok = Fraction(row[v]) == slope * Fraction(t) + const
            else:
                ok = poly(row[v]) == poly({"poly": [const, slope]})
            if not ok:
                return False, cases, f"{v}_{row['N']} != {a} * t + {b}"
            if row["N"] <= 2 and (slope, const) != base[row["N"] - 1]:
                return False, cases, f"{a}_{row['N']}, {b}_{row['N']} differ from the closed form"
            cases += 1
    if job["ref"]:
        ref_job, ref_out = done[job["ref"]]
        rx, ry = _convert_sides(_lines(ref_out)[:-1], n)
        for rows, rrows, v, t in ((xs, rx, "X", ref_job["params"]["z"]),
                                  (ys, ry, "Y", ref_job["params"]["w"])):
            for row, rrow in zip(rows, rrows):
                if {k: r for k, r in row.items() if k != v} != {k: r for k, r in rrow.items() if k != v} \
                        or peval(poly(row[v]), Fraction(t)) != Fraction(rrow[v]):
                    return False, cases, f"poly-z {v}_{row['N']} at {t} differs from the rational ring"
                cases += 1
    return True, cases, ""


def check_decompose(job, out, done) -> Result:
    spec = job["params"]
    lines = _lines(out)
    if len(lines) != 1:
        return False, 0, "expected one report line"
    rep = lines[0]
    z, w, d = Fraction(spec["z"]), Fraction(spec["w"]), spec["degree"]
    if rep["case"] != spec["case"] or Fraction(rep["z"]) != z or Fraction(rep["w"]) != w:
        return False, 0, "case or parameters echoed wrongly"
    if not rep["relations"] or not all(r["holds"] for r in rep["relations"]):
        return False, 0, "a generator relation does not hold"
    p = partition_counts(d)
    rows = rep["per_degree"]
    if [r["degree"] for r in rows] != list(range(d + 1)):
        return False, 0, "per-degree rows missing"
    for r in rows:
        n = r["degree"]
        expect_rank = 0 if n == 0 or (n == 1 and w == 0) else p[n - 1]
        flags = [v for k, v in r.items() if k.endswith("_ok")]
        if r["dimension"] != p[n] or r["rank_D"] != expect_rank \
                or r["kernel_dim"] != p[n] - expect_rank \
                or Fraction(r["hw_eigenvalue"]) != z * w + 2 * n \
                or len(flags) < 2 or not all(v is True for v in flags):
            return False, n, f"degree {n}: {r}"
    return True, len(rows) + len(rep["relations"]), ""


RED_CHECK = "all weights equal s(X) s(Y)"


def check_verify(job, out, done) -> Result:
    spec = job["params"]
    lines = _lines(out)
    summary = lines[-1]
    checks = [r for r in lines if "check" in r]
    if summary.get("command") != "verify" or summary.get("suite") != spec["suite"]:
        return False, 0, f"bad summary {summary}"
    if spec["degree"] is not None and summary["params"].get("max_degree") != spec["degree"]:
        return False, 0, f"suite ran at degree {summary['params'].get('max_degree')}"
    if not checks:
        return False, 0, "suite reported no checks"
    if spec["suite"] == "determinancy":
        # c07 is red on purpose: exactly the all-diagram checks fail
        red = [c for c in checks if c["check"].startswith(RED_CHECK)]
        green = [c for c in checks if not c["check"].startswith(RED_CHECK)]
        ok = red and green and not any(c["ok"] for c in red) and all(c["ok"] for c in green) \
            and summary["ok"] is False
    else:
        ok = all(c["ok"] is True for c in checks) and summary["ok"] is True
    return (True, len(checks), "") if ok else (False, len(checks), "unexpected check verdicts")


CHECKERS = {"measure": check_measure, "correlations": check_correlations,
            "convert": check_convert, "decompose": check_decompose, "verify": check_verify}


def check(job: dict, rc: int, out: str, err: str, done: Dict[str, Tuple[dict, str]]) -> Result:
    """Full verdict on one job run: exit code, stderr, then the output."""
    if rc != job["expect_rc"]:
        return False, 0, f"exit code {rc}, expected {job['expect_rc']}: {err.strip()[-200:]}"
    if "Traceback" in err:
        return False, 0, "traceback on stderr"
    try:
        return CHECKERS[job["check"]](job, out, done)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return False, 0, f"unreadable output: {exc!r}"


# -- golden digests ----------------------------------------------------------

def _canon(value):
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canon(v) for v in value]
    if isinstance(value, str):
        try:
            return rat(Fraction(value))
        except (ValueError, ZeroDivisionError):
            return value
    return value


def content_digest(out: str) -> str:
    """Digest of the mathematical content: values, not formatting."""
    canon = [_canon(r) for r in _lines(out)]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


# -- corruptions for the self-test -------------------------------------------

def _bump(value):
    """The scalar plus one, in the JSON shape it came in."""
    if isinstance(value, dict):
        c = list(value["poly"]) or ["0"]
        c[0] = rat(Fraction(c[0]) + 1)
        return {"poly": c}
    return rat(Fraction(value) + 1)


def _dump_lines(lines: List[dict]) -> str:
    return "\n".join(json.dumps(r, separators=(",", ":")) for r in lines) + "\n"


def corrupt(job: dict, rc: int, out: str) -> List[Tuple[str, int, str]]:
    """Wrong outputs a correct checker must flag: (what, rc, stdout)."""
    lines = _lines(out)
    kind = job["check"]
    found = []

    def variant(what, index, key, fn, code=rc):
        bad = [dict(r) for r in lines]
        bad[index][key] = fn(bad[index][key])
        found.append((what, code, _dump_lines(bad)))

    if kind == "measure":
        variant("one weight changed", len(lines) // 2, "weight", _bump)
        if job["params"]["kind"] in ("schur", "virasoro"):
            # the sum still matches: only the closed-form rows can catch this
            bad = [dict(r) for r in lines]
            top = next(i for i, r in enumerate(bad) if r.get("partition") == [job["params"]["degree"]])
            bad[top]["weight"] = _bump(bad[top]["weight"])
            bad[-1]["z_trunc"] = _bump(bad[-1]["z_trunc"])
            if "cauchy_normalizer" in bad[-1]:
                bad[-1]["cauchy_normalizer"] = _bump(bad[-1]["cauchy_normalizer"])
            for r in bad[:-1]:
                r["normalized"] = None if r["normalized"] is None else \
                    rat(Fraction(r["weight"]) / Fraction(bad[-1]["z_trunc"]))
            found.append(("top single-row weight and z_trunc changed together", rc, _dump_lines(bad)))
        found.append(("last row dropped", rc, _dump_lines(lines[:-2] + lines[-1:])))
    elif kind == "correlations":
        variant("probability changed", 0, "probability", _bump)
    elif kind == "convert":
        variant("X_1 changed", 0, "X", _bump)
        variant("Y_N changed", len(lines) - 2, "Y", _bump)
        if job["params"]["ring"] == "rational":
            # X = A z + B still holds: only the single-row values can catch this
            bad = [dict(r) for r in lines]
            top = max(i for i, r in enumerate(bad) if "X" in r)
            bad[top]["X"], bad[top]["B"] = _bump(bad[top]["X"]), _bump(bad[top]["B"])
            found.append(("top X_N and B_N changed together", rc, _dump_lines(bad)))
    elif kind == "decompose":
        rep = lines[0]
        top = dict(rep["per_degree"][-1], rank_D=rep["per_degree"][-1]["rank_D"] + 1)
        found.append(("top rank off by one", rc,
                      _dump_lines([dict(rep, per_degree=rep["per_degree"][:-1] + [top])])))
    elif kind == "verify":
        first = next(i for i, r in enumerate(lines) if "check" in r)
        variant("first check verdict flipped", first, "ok", lambda v: not v)
        found.append(("exit code flipped", 1 - rc, out))
    return found
