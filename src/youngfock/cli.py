"""Batch command-line interface.

Commands: ``measure`` (weight tables), ``convert`` (equivalent Schur
parameters), ``correlations`` (brute-force point correlations),
``verify`` (named identity suites), ``decompose`` (parameter-plane
structure report).  Everything is exact: parameters are "p/q" strings,
never floats.  Reports stream as JSON lines with a summary object last;
identical configuration and seed give byte-identical output.

Exit codes: 0 success, 1 falsified identity, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .conversion import schur_params_from_vir, split_linear
from .measures import (
    MeasureSpec,
    MiwaParams,
    cauchy_normalizer,
    occupied_weight,
    quotient_json,
    weight_table,
)
from .operators import KerovParams
from .partitions import HalfInt
from .repstructure import decomposition_report
from .rings import Poly, Scalar, parse_rational, rational_str, scalar_to_json
from .suites import SUITES, run_suite

OUT_DIR_ENV = "YOUNGFOCK_OUT_DIR"


@dataclass
class RunConfig:
    command: str
    params: Dict[str, Fraction] = field(default_factory=dict)
    x: Dict[int, Fraction] = field(default_factory=dict)
    y: Dict[int, Fraction] = field(default_factory=dict)
    max_degree: Optional[int] = None
    ring: str = "rational"
    output: str = "json"
    seed: int = 0
    kind: str = "schur"
    m_order: int = 2
    points: List[HalfInt] = field(default_factory=list)
    suite: str = ""
    out: Optional[str] = None

    def __post_init__(self):
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max-degree must be >= 0")


class _CliError(Exception):
    pass


_MIWA_INDEX = re.compile(r"\s*[0-9]+\s*")


def _parse_miwa(text: Optional[str]) -> Dict[int, Fraction]:
    if not text:
        return {}
    out: Dict[int, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise _CliError(f"bad parameter entry {piece!r}; expected k=p/q")
        key, _, value = piece.partition("=")
        if _MIWA_INDEX.fullmatch(key) is None:
            raise _CliError(f"bad parameter index {key!r}; expected ASCII digits")
        k = int(key)
        if k < 1:
            raise _CliError(f"parameter index {k} must be >= 1")
        if k in out:
            raise _CliError(f"parameter index {k} given twice")
        out[k] = parse_rational(value)
    return out


def _parse_points(text: Optional[str]) -> List[HalfInt]:
    if not text:
        return []
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _CliError(f"points must be a JSON list of half-integer strings: {exc}")
    if not isinstance(entries, list):
        raise _CliError("points must be a JSON list")
    return [HalfInt.parse(str(e)) for e in entries]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngfock",
        description="exact measure tables, Schur conversions and identity "
        "verification on the diagram Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-degree", type=int, default=4)
        p.add_argument("--ring", choices=["rational", "poly-z"], default="rational")
        p.add_argument("--out", default=None, help="write to this file instead of stdout")

    m = sub.add_parser("measure", help="tabulate unnormalized and normalized weights")
    m.add_argument("--kind", choices=["schur", "virasoro", "m-virasoro"], required=True)
    m.add_argument("--m", type=int, default=2, help="order for the m-virasoro kind")
    m.add_argument("--z")
    m.add_argument("--w")
    m.add_argument("--gamma", default="0")
    m.add_argument("--x", default="")
    m.add_argument("--y", default="")
    m.add_argument("--output", choices=["json", "csv"], default="json")
    common(m)

    c = sub.add_parser("convert", help="equivalent Schur parameters X_N (and Y_N)")
    c.add_argument("--x", default="")
    c.add_argument("--y", default="")
    c.add_argument("--z")
    c.add_argument("--w")
    common(c)

    r = sub.add_parser("correlations", help="brute-force correlation of a point set")
    r.add_argument("--kind", choices=["schur", "virasoro", "m-virasoro"], required=True)
    r.add_argument("--m", type=int, default=2)
    r.add_argument("--z")
    r.add_argument("--w")
    r.add_argument("--gamma", default="0")
    r.add_argument("--x", default="")
    r.add_argument("--y", default="")
    r.add_argument("--points", required=True,
                   help='JSON list of half-integers, e.g. \'["1/2","-3/2"]\'')
    common(r)

    v = sub.add_parser("verify", help="run a named identity suite")
    v.add_argument("--suite", choices=sorted(SUITES), required=True)
    v.add_argument("--max-degree", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)

    d = sub.add_parser("decompose", help="parameter-plane structure report")
    d.add_argument("--z", required=True)
    d.add_argument("--w", required=True)
    d.add_argument("--max-degree", type=int, default=6)
    d.add_argument("--out", default=None)

    return parser


def _resolve_out(path: Optional[str]):
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(lines: List[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    target = _resolve_out(out)
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


# the points --ring=poly-z keeps as polynomial variables, per command:
# measure and correlations tabulate over z, convert prints both sides
_FORMAL_UNDER_POLY = {"measure": ("z",), "correlations": ("z",), "convert": ("z", "w")}


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(
        command=args.command,
        max_degree=getattr(args, "max_degree", None),
        ring=getattr(args, "ring", "rational"),
        output=getattr(args, "output", "json"),
        seed=getattr(args, "seed", 0) or 0,
        kind=getattr(args, "kind", "schur"),
        m_order=getattr(args, "m", 2),
        suite=getattr(args, "suite", "") or "",
        out=getattr(args, "out", None),
    )
    for name in ("z", "w", "gamma"):
        raw = getattr(args, name, None)
        if raw is not None:
            cfg.params[name] = parse_rational(raw)
    if cfg.ring == "poly-z":
        given = [f"--{name}" for name in _FORMAL_UNDER_POLY.get(cfg.command, ())
                 if name in cfg.params]
        if given:
            raise _CliError(f"{' and '.join(given)} cannot be used with --ring=poly-z, "
                            "which keeps the point formal")
    cfg.x = _parse_miwa(getattr(args, "x", None))
    cfg.y = _parse_miwa(getattr(args, "y", None))
    cfg.points = _parse_points(getattr(args, "points", None))
    return cfg


def _measure_spec(cfg: RunConfig) -> MeasureSpec:
    z: Scalar = cfg.params.get("z", Fraction(0))
    if cfg.ring == "poly-z":
        z = Poly.gen()
    return MeasureSpec(
        kind=cfg.kind,
        params=MiwaParams(x=dict(cfg.x), y=dict(cfg.y)),
        kerov=KerovParams(z=z, w=cfg.params.get("w", Fraction(0))),
        truncation=cfg.max_degree,
        m_order=cfg.m_order,
        gamma=cfg.params.get("gamma", Fraction(0)),
    )


def _run_measure(cfg: RunConfig) -> int:
    spec = _measure_spec(cfg)
    table = weight_table(spec)
    payload = table.to_json()
    summary = {
        "command": "measure",
        "kind": spec.kind,
        "degree": table.degree,
        "params": {
            "z": scalar_to_json(spec.kerov.z),
            "w": scalar_to_json(spec.kerov.w),
            "x": {str(k): rational_str(v) for k, v in sorted(cfg.x.items())},
            "y": {str(k): rational_str(v) for k, v in sorted(cfg.y.items())},
        },
        "z_trunc": payload["z_trunc"],
        "ok": True,
    }
    if spec.kind == "m-virasoro":
        summary["m"] = spec.m_order
        summary["params"]["gamma"] = rational_str(cfg.params.get("gamma", Fraction(0)))
    if spec.kind == "schur":
        summary["cauchy_normalizer"] = scalar_to_json(
            cauchy_normalizer(spec.params, table.degree))
    if cfg.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in table.to_csv_rows():
            writer.writerow(row)
        _emit([buf.getvalue().rstrip("\n")], cfg.out)
        return 0
    lines = [_dump(r) for r in payload["weights"]]
    lines.append(_dump(summary))
    _emit(lines, cfg.out)
    return 0


def _run_convert(cfg: RunConfig) -> int:
    """One inversion over the polynomial ring per side: its values under
    poly-z, else A_N*z + B_N (C_N*w + D_N) at the given point.  A level of
    z-degree above 1 falsifies the linearity: the rows before it are
    printed, then a verdict with ok false, and the exit code is 1."""
    lines = []
    n_max = cfg.max_degree
    verdict = {"command": "convert", "max_degree": n_max, "ok": True}
    sides = ((cfg.x, "z", ("A", "B", "X")), (cfg.y, "w", ("C", "D", "Y")))
    for params, var, (a_key, b_key, value_key) in sides:
        if not params:
            continue
        point = cfg.params.get(var, Fraction(0))
        xs = schur_params_from_vir(params, Poly.gen(), n_max)
        try:
            for n, (val, wit) in enumerate(zip(xs, split_linear(xs, value_key, var)), start=1):
                if cfg.ring != "poly-z":
                    val = wit.a * point + wit.b
                lines.append(_dump({"N": n, a_key: scalar_to_json(wit.a),
                                    b_key: scalar_to_json(wit.b), value_key: scalar_to_json(val)}))
        except ValueError as exc:
            verdict.update(ok=False, error=str(exc))
            break
    lines.append(_dump(verdict))
    _emit(lines, cfg.out)
    return 0 if verdict["ok"] else 1


def _run_correlations(cfg: RunConfig) -> int:
    spec = _measure_spec(cfg)
    table = weight_table(spec)
    # null where the probability is undefined, as measure's "normalized"
    prob = quotient_json(occupied_weight(cfg.points, table), table.z_trunc)
    lines = [
        _dump({"points": [str(x) for x in cfg.points], "probability": prob}),
        _dump({"command": "correlations", "kind": spec.kind,
               "degree": table.degree, "ok": True}),
    ]
    _emit(lines, cfg.out)
    return 0


def _run_verify(cfg: RunConfig) -> int:
    report = run_suite(cfg.suite, seed=cfg.seed, max_degree=cfg.max_degree)
    if not report["checks"]:
        raise _CliError(f"suite {cfg.suite!r} ran no checks at max-degree {cfg.max_degree}")
    lines = [_dump({"check": c["name"], "ok": c["ok"],
                    **({"detail": c["detail"]} if "detail" in c else {})})
             for c in report["checks"]]
    lines += [_dump({"probe": p["name"],
                     **{k: v for k, v in p.items() if k != "name"}})
              for p in report["probes"]]
    lines.append(_dump({
        "command": "verify",
        "suite": report["suite"],
        "identity": report["identity"],
        "params": report["params"],
        "ok": report["ok"],
    }))
    _emit(lines, cfg.out)
    return 0 if report["ok"] else 1


def _run_decompose(cfg: RunConfig) -> int:
    rep = decomposition_report(cfg.params["z"], cfg.params["w"], cfg.max_degree)
    _emit([_dump(rep.to_json())], cfg.out)
    return 0


def run(config: RunConfig) -> int:
    """Execute one parsed configuration; returns the process exit code."""
    if config.command == "measure":
        return _run_measure(config)
    if config.command == "convert":
        return _run_convert(config)
    if config.command == "correlations":
        return _run_correlations(config)
    if config.command == "verify":
        return _run_verify(config)
    if config.command == "decompose":
        return _run_decompose(config)
    raise _CliError(f"unknown command {config.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (_CliError, ValueError, KeyError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write("run with --help for usage\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
