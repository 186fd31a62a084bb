"""Batch command-line interface.

Commands: ``measure`` (weight tables), ``convert`` (equivalent Schur
parameters), ``correlations`` (brute-force point correlations),
``verify`` (named identity suites), ``decompose`` (parameter-plane
structure report).  Everything is exact: parameters are "p/q" strings,
never floats.  Reports stream as JSON lines with a summary object last;
identical configuration and seed give byte-identical output.

Exit codes: 0 success, 1 falsified identity, 2 usage or parse error, or
a report that cannot be written.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from .measures import (
    KINDS,
    MeasureSpec,
    MiwaParams,
    cauchy_normalizer,
    occupied_weight,
    quotient_json,
    weight_table,
)
from .operators import KerovParams
from .partitions import HalfInt
from .rings import Poly, parse_rational, rational_str, scalar_to_json

OUT_DIR_ENV = "YOUNGFOCK_OUT_DIR"


class _CliError(Exception):
    pass


class _OutputError(_CliError):
    """The report could not be written: exit 2, with no usage hint."""


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
    points = [HalfInt.parse(str(e)) for e in entries]
    for i, x in enumerate(points):
        if x in points[:i]:
            raise _CliError(f"point {x} given twice")
    return points


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
    try:
        if target is None:
            sys.stdout.write(text)
            sys.stdout.flush()  # so a full or closed stdout fails here, not at exit
        else:
            with open(target, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if target is None:  # the text stays buffered and is flushed again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        where = "stdout" if target is None else repr(target)
        raise _OutputError(f"cannot write {where}: {exc.strerror}")


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def _rational(text: Optional[str]) -> Fraction:
    return Fraction(0) if text is None else parse_rational(text)


def _reject_unread(args, reads: Sequence[str], formal: Sequence[str]) -> None:
    """Exit 2 on an explicit --z, --w, --gamma or --m that the run would not
    read: a point in ``formal`` under --ring=poly-z (checked first), or a
    setting outside ``reads``.  --ring=poly-z makes z the variable, so it
    is a setting of z: a run that reads no z rejects it too."""
    given = [name for name in ("z", "w", "gamma", "m") if getattr(args, name, None) is not None]
    kept = [f"--{name}" for name in given if name in formal and args.ring == "poly-z"]
    if kept:
        raise _CliError(f"{' and '.join(kept)} cannot be used with --ring=poly-z, "
                        "which keeps the point formal")
    unread = [f"--{name}" for name in given if name not in reads]
    if args.ring == "poly-z" and "z" not in reads:
        unread.append("--ring=poly-z")
    if unread:
        raise _CliError(f"--kind={args.kind} does not read {', '.join(unread)}")


def _spec(args, x: Dict[int, Fraction], y: Dict[int, Fraction]) -> MeasureSpec:
    """The table a measure or correlations run asks for; under poly-z, z is
    the polynomial variable."""
    _reject_unread(args, KINDS[args.kind][1], formal=("z",))
    return MeasureSpec(
        kind=args.kind,
        params=MiwaParams(x=x, y=y),
        kerov=KerovParams(z=Poly.gen() if args.ring == "poly-z" else _rational(args.z),
                          w=_rational(args.w)),
        truncation=args.max_degree,
        m_order=args.m,
        gamma=None if args.gamma is None else parse_rational(args.gamma),
    )


def _run_measure(args) -> int:
    x, y = _parse_miwa(args.x), _parse_miwa(args.y)
    spec = _spec(args, x, y)
    table = weight_table(spec)
    payload = table.to_json()
    summary = {
        "command": "measure",
        "kind": spec.kind,
        "degree": table.degree,
        "params": {
            "z": scalar_to_json(spec.kerov.z),
            "w": scalar_to_json(spec.kerov.w),
            "x": {str(k): rational_str(v) for k, v in sorted(x.items())},
            "y": {str(k): rational_str(v) for k, v in sorted(y.items())},
        },
        "z_trunc": payload["z_trunc"],
        "ok": True,
    }
    if spec.kind == "m-virasoro":
        summary["m"] = spec.m_order
        summary["params"]["gamma"] = rational_str(spec.gamma)
    if spec.kind == "schur":
        summary["cauchy_normalizer"] = scalar_to_json(
            cauchy_normalizer(spec.params, table.degree))
    if args.output == "csv":
        import csv  # only --output=csv reads it, so other runs skip the import

        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in table.to_csv_rows():
            writer.writerow(row)
        _emit([buf.getvalue().rstrip("\n")], args.out)
        return 0
    lines = [_dump(r) for r in payload["weights"]]
    lines.append(_dump(summary))
    _emit(lines, args.out)
    return 0


def _run_convert(args) -> int:
    """One inversion over the polynomial ring per side: its values under
    poly-z, else A_N*z + B_N (C_N*w + D_N) at the given point.  A level of
    z-degree above 1 falsifies the linearity: the rows before it are
    printed, then a verdict with ok false, and the exit code is 1.  A run
    that would print no level (no side, or max-degree 0) or would not
    read a point (--z without --x, --w without --y) exits 2."""
    from .conversion import schur_params_from_vir, split_linear

    _reject_unread(args, ("z", "w"), formal=("z", "w"))
    sides = ((_parse_miwa(args.x), "z", ("A", "B", "X")),
             (_parse_miwa(args.y), "w", ("C", "D", "Y")))
    if not any(params for params, _, _ in sides):
        raise _CliError("convert needs --x or --y")
    for params, var, keys in sides:
        if getattr(args, var) is not None and not params:
            raise _CliError(f"--{var} is read only with --{keys[2].lower()}")
    n_max = args.max_degree
    if n_max < 1:
        raise _CliError("convert prints no level at max-degree 0")
    lines = []
    verdict = {"command": "convert", "max_degree": n_max, "ok": True}
    for params, var, (a_key, b_key, value_key) in sides:
        if not params:
            continue
        point = _rational(getattr(args, var))
        xs = schur_params_from_vir(params, Poly.gen(), n_max)
        try:
            for n, (val, wit) in enumerate(zip(xs, split_linear(xs, value_key, var)), start=1):
                if args.ring != "poly-z":
                    val = wit.a * point + wit.b
                lines.append(_dump({"N": n, a_key: scalar_to_json(wit.a),
                                    b_key: scalar_to_json(wit.b), value_key: scalar_to_json(val)}))
        except ValueError as exc:
            verdict.update(ok=False, error=str(exc))
            break
    lines.append(_dump(verdict))
    _emit(lines, args.out)
    return 0 if verdict["ok"] else 1


def _run_correlations(args) -> int:
    spec = _spec(args, _parse_miwa(args.x), _parse_miwa(args.y))
    points = _parse_points(args.points)  # a usage error exits before the table is built
    table = weight_table(spec)
    # null where the probability is undefined, as measure's "normalized"
    prob = quotient_json(occupied_weight(points, table), table.z_trunc)
    lines = [
        _dump({"points": [str(x) for x in points], "probability": prob}),
        _dump({"command": "correlations", "kind": table.kind,
               "degree": table.degree, "ok": True}),
    ]
    _emit(lines, args.out)
    return 0


def _run_verify(args) -> int:
    from .suites import run_suite

    report = run_suite(args.suite, seed=args.seed, max_degree=args.max_degree)
    if not report["checks"]:
        raise _CliError(f"suite {args.suite!r} ran no checks at max-degree {args.max_degree}")
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
    _emit(lines, args.out)
    return 0 if report["ok"] else 1


def _run_decompose(args) -> int:
    from .repstructure import decomposition_report

    rep = decomposition_report(parse_rational(args.z), parse_rational(args.w), args.max_degree)
    _emit([_dump(rep.to_json())], args.out)
    return 0


_COMMANDS = {
    "measure": (_run_measure, "tabulate unnormalized and normalized weights"),
    "convert": (_run_convert, "equivalent Schur parameters X_N (and Y_N)"),
    "correlations": (_run_correlations, "brute-force correlation of a point set"),
    "verify": (_run_verify, "run a named identity suite"),
    "decompose": (_run_decompose, "parameter-plane structure report"),
}


def _opt(flag, type=None, choices=None, default=None, required=False, help=None):
    return flag, type, choices, default, required, help


def _options(command: str) -> list:
    """(flag, type, choices, default, required, help) of each option of
    ``command``, in the order its help lists them.  Both readers of the
    command line, ``_read`` and ``_build_parser``, take the options from
    here; only ``verify`` imports ``suites``, for its suite names."""
    out = _opt("--out", help="write to this file instead of stdout")
    if command == "verify":
        from .suites import SUITES

        return [_opt("--max-degree", int), out,
                _opt("--suite", choices=sorted(SUITES), required=True),
                _opt("--seed", int, default=0)]
    if command == "decompose":
        return [_opt("--max-degree", int, default=6), out,
                _opt("--z", required=True), _opt("--w", required=True)]
    rows = [_opt("--max-degree", int, default=4),
            _opt("--ring", choices=["rational", "poly-z"], default="rational"), out]
    if command == "convert":
        return rows + [_opt(flag) for flag in ("--x", "--y", "--z", "--w")]
    rows.append(_opt("--kind", choices=list(KINDS), required=True))
    rows.append(_opt("--m", int, help="order for the m-virasoro kind (default 2)"))
    rows += [_opt(flag) for flag in ("--z", "--w", "--gamma", "--x", "--y")]
    if command == "measure":
        return rows + [_opt("--output", choices=["json", "csv"], default="json")]
    return rows + [_opt("--points", required=True,
                        help='JSON list of half-integers, e.g. \'["1/2","-3/2"]\'')]


def _read(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace the parser gives for a canonical command line, read
    without argparse, or None for any other line.  A canonical line is a
    command, then options of that command, each at most once, as
    --name=value or as --name value with a value that does not start with
    "-"; every value passes its type and choices, and every required
    option is given.  Help, abbreviations, repeats, a separate value
    that starts with "-" and every usage error are left to the parser."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = {flag: row for flag, *row in _options(argv[0])}
    given: Dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")
        if flag not in rows or flag in given or (not eq and value.startswith("-")):
            return None
        given[flag] = value
    args = {"command": argv[0], "run": _COMMANDS[argv[0]][0]}
    for flag, (type_, choices, default, required, _) in rows.items():
        if flag in given:
            try:
                value = given[flag] if type_ is None else type_(given[flag])
            except ValueError:
                return None
            if choices is not None and value not in choices:
                return None
        elif required:
            return None
        else:
            value = default
        args[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(**args)


def _build_parser(argv: Sequence[str]):
    """The argparse parser, with a subparser for the command that
    ``argv[0]`` names, or for all five when it names none.  ``main`` builds
    it only for a line that ``_read`` leaves to it: help, a usage error or
    a form other than the canonical one.  The top-level parser has no
    option but -h, so every run that reaches a command names it first, and
    help and the top-level usage errors see all five.  A lone subparser
    takes the metavar of all five, so the usage line stays whole; it is
    not set otherwise, since errors about the command would then name it
    by the metavar instead of by "command"."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="youngfock",
        description="exact measure tables, Schur conversions and identity "
        "verification on the diagram Fock space",
    )
    wanted = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    lone = "{" + ",".join(_COMMANDS) + "}" if len(wanted) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=lone)
    for name in wanted:
        run, help = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag, type_, choices, default, required, text in _options(name):
            p.add_argument(flag, type=type_, choices=choices, default=default,
                           required=required, help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        if (args.max_degree or 0) < 0:
            raise _CliError("max-degree must be >= 0")
        return args.run(args)
    except (_CliError, ValueError, KeyError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if not isinstance(exc, _OutputError):
            sys.stderr.write("run with --help for usage\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
