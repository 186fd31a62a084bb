import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from youngfock import cli, conversion
from youngfock.cli import main
from youngfock.measures import KINDS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert_printed_values(capsys):
    code, out, _ = run_cli(
        ["convert", "--x", "1=1,2=1", "--max-degree", "2", "--ring", "poly-z"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0] == {"N": 1, "A": "1", "B": "0", "X": {"poly": ["0", "1"]}}
    assert lines[1] == {"N": 2, "A": "3/2", "B": "1/2", "X": {"poly": ["1/2", "3/2"]}}
    assert lines[-1]["command"] == "convert" and lines[-1]["ok"]


def test_convert_rational_ring_and_y_side(capsys):
    code, out, _ = run_cli(
        ["convert", "--x", "1=1", "--y", "1=2", "--z", "1/2", "--w", "1/3",
         "--max-degree", "2"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0]["X"] == "1/2"
    ys = [l for l in lines if "Y" in l]
    assert ys[0]["Y"] == "2/3"


@pytest.mark.parametrize("ring", [[], ["--ring=poly-z"]])
def test_convert_reports_a_nonlinear_level(ring, monkeypatch, capsys):
    # a z^2 term in row 3 makes X_3 quadratic in z: the rows before it are
    # printed, then a false verdict naming the level, and the exit code is 1
    real = conversion.vir_rows

    def bent(x, z, n_max):
        rows = real(x, z, n_max)
        rows[3] = rows[3] + z * z
        return rows

    monkeypatch.setattr(conversion, "vir_rows", bent)
    code, out, err = run_cli(["convert", "--x=1=1,2=1", "--y=1=2", "--max-degree=4"] + ring, capsys)
    assert (code, err) == (1, "")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["N"] for l in lines[:-1]] == [1, 2]
    assert lines[-1] == {"command": "convert", "max_degree": 4, "ok": False,
                         "error": "X_3 has z-degree 2 > 1"}


@pytest.mark.parametrize("ring", [[], ["--ring=poly-z"]])
def test_convert_reports_a_nonlinear_bra_level(ring, monkeypatch, capsys):
    # with only the bra side set, a w^2 term in row 2 is reported in the
    # bra side's own names
    real = conversion.vir_rows

    def bent(x, z, n_max):
        rows = real(x, z, n_max)
        rows[2] = rows[2] + z * z
        return rows

    monkeypatch.setattr(conversion, "vir_rows", bent)
    code, out, err = run_cli(["convert", "--y=1=2,2=1/3", "--max-degree=3"] + ring, capsys)
    assert (code, err) == (1, "")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["N"] for l in lines[:-1]] == [1]
    assert set(lines[0]) == {"N", "C", "D", "Y"}
    assert lines[-1] == {"command": "convert", "max_degree": 3, "ok": False,
                         "error": "Y_2 has w-degree 2 > 1"}


def test_measure_csv(capsys):
    code, out, _ = run_cli(
        ["measure", "--kind", "virasoro", "--z", "1/2", "--w", "1/3",
         "--x", "1=1,2=1/2", "--y", "1=1", "--max-degree", "2",
         "--output", "csv"], capsys)
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "partition,weight,normalized"
    assert len(rows) == 1 + 4  # partitions of 0, 1, 2


def test_measure_json_summary(capsys):
    code, out, _ = run_cli(
        ["measure", "--kind", "schur", "--x", "1=1", "--y", "1=1",
         "--max-degree", "3"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["command"] == "measure"
    assert summary["cauchy_normalizer"] == summary["z_trunc"]


def test_measure_poly_ring(capsys):
    code, out, _ = run_cli(
        ["measure", "--kind", "virasoro", "--w", "1/3", "--x", "1=1",
         "--y", "1=1", "--max-degree", "2", "--ring", "poly-z"], capsys)
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    row1 = next(l for l in lines if l.get("partition") == [1])
    assert row1["weight"] == {"poly": ["0", "1/3"]}  # x1*z times y1*w
    assert row1["normalized"] is None  # not a ring element over poly z
    summary = lines[-1]
    assert summary["params"]["z"] == {"poly": ["0", "1"]}


def test_measure_m_virasoro(capsys):
    code, out, _ = run_cli(
        ["measure", "--kind", "m-virasoro", "--m", "1", "--gamma", "1/4",
         "--z", "1", "--w", "1", "--x", "1=1", "--y", "1=1",
         "--max-degree", "2"], capsys)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["m"] == 1 and summary["params"]["gamma"] == "1/4"


def test_correlations_vacuum_point(capsys):
    code, out, _ = run_cli(
        ["correlations", "--kind", "schur", "--points", '["-1/2"]',
         "--max-degree", "2"], capsys)
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert first == {"points": ["-1/2"], "probability": "1"}


@pytest.mark.parametrize("table", [
    # the truncated normalizer 1 + x_1*y_1 is zero
    ["--kind=schur", "--x=1=1", "--y=1=-1", "--max-degree=1"],
    # over the polynomial ring the normalizer does not divide the weights
    ["--kind=virasoro", "--x=1=1/3", "--y=1=1/5", "--w=1/2", "--max-degree=3",
     "--ring=poly-z"],
])
def test_undefined_normalization_prints_null(table, capsys):
    # measure and correlations report an undefined quotient the same way
    code, out, err = run_cli(["measure"] + table, capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(l) for l in out.strip().splitlines()[:-1]]
    assert any(r["normalized"] is None for r in rows)
    code, out, err = run_cli(["correlations"] + table + ['--points=["1/2"]'], capsys)
    assert (code, err) == (0, "")
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines[0] == {"points": ["1/2"], "probability": None}
    assert lines[-1]["command"] == "correlations" and lines[-1]["ok"] is True


def test_verify_ok_and_exit_codes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "sl2", "--seed", "7"], capsys)
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["ok"] is True and summary["suite"] == "sl2"


def test_verify_falsified_identity_exits_one(capsys):
    # the all-diagram Schur-reduction identity is honestly falsified
    code, out, _ = run_cli(
        ["verify", "--suite", "determinancy", "--seed", "7", "--max-degree", "4"],
        capsys)
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["ok"] is False


def test_parse_error_exits_two(capsys):
    code, _, err = run_cli(
        ["measure", "--kind", "schur", "--x", "0=1", "--max-degree", "2"], capsys)
    assert code == 2
    assert "error" in err


def test_usage_error_exits_two(capsys):
    assert main(["measure", "--kind", "nonsense"]) == 2
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("argv", [
    ["measure", "--kind=schur", "--seed=1"],
    ["convert", "--x=1=1", "--seed=1"],
    ["correlations", "--kind=schur", '--points=["1/2"]', "--seed=1"],
    ["convert", "--x=1=1", "--output=csv"],
    ["correlations", "--kind=schur", '--points=["1/2"]', "--output=csv"],
    ["verify", "--suite=heisenberg", "--max-degree=1", "--output=csv"],
    ["decompose", "--z=1", "--w=1", "--output=csv"],
])
def test_flags_a_command_does_not_read_exit_two(argv, capsys):
    # --seed only drives verify and --output only formats measure
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "usage:" in err and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["measure", "--kind=schur", "--x=1=1,1=2", "--max-degree=2"],
    ["measure", "--kind=virasoro", "--x=1=1", "--y=2=1,02=1/3", "--max-degree=2"],
    ["convert", "--x=2=1,1=1/2,2=1", "--max-degree=2"],
    ["convert", "--x=1=1", "--y=1=1/2,1=1/2", "--max-degree=2"],
])
def test_repeated_miwa_index_exits_two(argv, capsys):
    # a second value for the same x_k or y_k is an error, not an overwrite
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "given twice" in err


@pytest.mark.parametrize("points", ['["1/2","1/2"]', '["-3/2","1/2","-3/2"]', '["1/2","2/4"]'])
def test_repeated_point_exits_two(points, capsys):
    # a point set names each point once; a repeat is a usage error, not a
    # second factor of the same occupation event
    code, out, err = run_cli(["correlations", "--kind=schur", "--x=1=1", "--y=1=1",
                              f"--points={points}", "--max-degree=2"], capsys)
    assert code == 2 and out == ""
    repeated = "-3/2" if "-3/2" in points else "1/2"
    assert err.splitlines()[0] == f"error: point {repeated} given twice"


@pytest.mark.parametrize("points,message", [
    ('["1/2","1/2"]', "point 1/2 given twice"),
    ('["-3/2","1/2","2/4"]', "point 1/2 given twice"),
    ("nope", "points must be a JSON list of half-integer strings: "
             "Expecting value: line 1 column 1 (char 0)"),
    ('{"1/2": 1}', "points must be a JSON list"),
    ('["0.5"]', "not a rational of the form p/q: '0.5'"),
])
def test_points_are_parsed_before_the_table(points, message, monkeypatch, capsys):
    # a usage error in --points exits 2 before any weight is computed
    def no_table(spec):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "weight_table", no_table)
    code, out, err = run_cli(["correlations", "--kind=virasoro", "--z=1/2", "--w=1/3",
                              "--x=1=1", "--y=1=1/3", f"--points={points}",
                              "--max-degree=20"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: {message}"
    # the flag rule still comes first
    code, _, err = run_cli(["correlations", "--kind=schur", "--z=1/2", "--x=1=1", "--y=1=1",
                            f"--points={points}", "--max-degree=20"], capsys)
    assert (code, err.splitlines()[0]) == (2, "error: --kind=schur does not read --z")


@pytest.mark.parametrize("argv", [
    ["measure", "--kind=virasoro", "--z=1/2", "--w=1/3"],
    ["measure", "--kind=schur", "--z=0"],
    ["correlations", "--kind=virasoro", "--z=1/2", '--points=["1/2"]'],
    ["convert", "--z=1/2"],
    ["convert", "--w=1/3"],
    ["convert", "--z=0", "--w=0"],
])
def test_poly_ring_rejects_a_point_it_keeps_formal(argv, capsys):
    # poly-z keeps z formal in the tables and both points formal in convert,
    # so an explicit value there, even the default 0, would go unread
    code, out, err = run_cli(argv + ["--x=1=1", "--y=1=1", "--max-degree=2",
                                     "--ring=poly-z"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--ring=poly-z" in err
    # the same command with the point left out runs
    point_free = [a for a in argv if not a.startswith(("--z=", "--w="))]
    code, _, err = run_cli(point_free + ["--x=1=1", "--y=1=1", "--max-degree=2",
                                         "--ring=poly-z"], capsys)
    assert (code, err) == (0, "")


# a non-default value for each table flag that a kind may read
TABLE_FLAGS = {"--z": "2/5", "--w": "-3/7", "--gamma": "1/6", "--m": "3"}


@pytest.mark.parametrize("flag", sorted(TABLE_FLAGS))
@pytest.mark.parametrize("kind", list(KINDS))
def test_every_table_flag_is_read_or_rejected(kind, flag, capsys):
    # no table flag can be ignored silently: it changes stdout when the
    # kind reads it and exits 2, printing nothing, when it does not
    argv = ["measure", f"--kind={kind}", "--x=1=1/3,2=-1/2", "--y=1=1,2=2/7", "--max-degree=3"]
    code, base, _ = run_cli(argv, capsys)
    assert code == 0
    code, out, err = run_cli(argv + [f"{flag}={TABLE_FLAGS[flag]}"], capsys)
    if flag[2:] in KINDS[kind][1]:
        assert (code, err) == (0, "") and out != base
    else:
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"--kind={kind} does not read {flag}" in err


@pytest.mark.parametrize("argv,digest", [
    (["measure", "--kind=schur", "--z=1/2", "--w=1/3", "--gamma=5", "--x=1=1", "--y=1=1",
      "--max-degree=1"], "30ae5b09aafa3cfd433f11c646707ec83f208d6f9170bcd5c6c979c8c80817c7"),
    (["measure", "--kind=virasoro", "--gamma=5", "--m=7", "--x=1=1", "--y=1=1",
      "--max-degree=1"], "f91140192a913cdbfdfec0724a83f87c317d011ccf353b2cce68b64574a64615"),
    (["correlations", "--kind=virasoro", "--z=1/2", "--w=1/3", "--gamma=5", "--x=1=1,2=1/2",
      "--y=1=1", '--points=["1/2"]', "--max-degree=3"],
     "ac0c67608d5eebda9074b683ab2496857dfd8a9a760431c175c61cb769394891"),
])
def test_a_flag_the_kind_does_not_read_exits_two(argv, digest, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "does not read" in err
    # without the unread flags the run prints what it printed before the rule
    kind = argv[1].partition("=")[2]
    read = [a for a in argv if not a.startswith(("--z=", "--w=", "--gamma=", "--m="))
            or a.partition("=")[0][2:] in KINDS[kind][1]]
    code, out, err = run_cli(read, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["convert", "--max-degree=2"], "convert needs --x or --y"),
    (["convert", "--x=1=1", "--max-degree=0"], "no level at max-degree 0"),
    (["convert", "--x=1=1", "--w=1/3", "--max-degree=2"], "--w is read only with --y"),
    (["convert", "--y=1=1", "--z=1/3", "--max-degree=2"], "--z is read only with --x"),
    # the poly-z rule is checked first
    (["convert", "--x=1=1", "--w=1/3", "--max-degree=2", "--ring=poly-z"],
     "--w cannot be used with --ring=poly-z"),
], ids=["no-side", "max-degree-0", "w-without-y", "z-without-x", "poly-z-first"])
def test_convert_with_no_level_or_an_unread_point_exits_two(argv, message, capsys):
    # no side, no level, or a point whose side is not given: an ok verdict
    # there would cover nothing or ignore a setting
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("target", ["missing/result.jsonl", "."])
def test_unopenable_out_exits_two(target, tmp_path, capsys):
    # a missing directory, or a directory in place of a file
    code, out, err = run_cli(["convert", "--x=1=1", "--max-degree=1",
                              "--out", str(tmp_path / target)], capsys)
    assert code == 2 and out == ""
    # the fault is the output, not the command line: one line, no usage hint
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_determinism_byte_identical(capsys):
    argv = ["measure", "--kind", "virasoro", "--z", "2/3", "--w", "-1/5",
            "--x", "1=1,2=1/3", "--y", "1=1/2", "--max-degree", "4"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    argv = ["verify", "--suite", "kernels", "--seed", "11"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2
    for argv in (
        ["decompose", "--z", "1/2", "--w", "0", "--max-degree", "4"],
        ["correlations", "--kind", "schur", "--x", "1=1", "--y", "1=1/3",
         "--points", '["1/2"]', "--max-degree", "4"],
    ):
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2 and out1


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("YOUNGFOCK_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(
        ["convert", "--x", "1=1", "--max-degree", "1", "--out", "result.jsonl"],
        capsys)
    assert code == 0 and out == ""
    content = (tmp_path / "result.jsonl").read_text()
    assert json.loads(content.splitlines()[0])["N"] == 1


def test_decompose_command(capsys):
    code, out, _ = run_cli(["decompose", "--z", "0", "--w", "5",
                            "--max-degree", "3"], capsys)
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["case"] == "z-zero"
    assert len(rep["per_degree"]) == 4
    assert all(r["holds"] for r in rep["relations"])


# sha256 of stdout for a fixed set of cheap commands: every command, all
# three measure kinds, the polynomial ring, csv output and the suites at
# small degree.  Any change to these bytes is a behaviour change.
GOLDEN_STDOUT = [
    (0, "788b22b88b6fed63b1291a4c696e1960ab9d69141d8c9ffe33448e1c1e33d14d",
     ["measure", "--kind=schur", "--x=1=1,2=1/3", "--y=1=1/2,3=2", "--max-degree=4"]),
    (0, "67871c33d9269a8c4da5dca3345d75b11bd1de7b06f0a9e7539075765d79acac",
     ["measure", "--kind=virasoro", "--z=1/2", "--w=1/3", "--x=1=1,2=1/2",
      "--y=1=1,2=-2/3", "--max-degree=4"]),
    (0, "1c42d4c0d23aeae01d74520f90e7f69c5ff653163db03c3f1fe8081d3160688c",
     ["measure", "--kind=m-virasoro", "--m=3", "--gamma=1/4", "--z=1", "--w=2/3",
      "--x=1=1,2=1/2", "--y=1=1", "--max-degree=3"]),
    (0, "a47f0f7af99aef5e00019853f0962742ccd3364c2a32196af4a68b276a8804c9",
     ["measure", "--kind=virasoro", "--ring=poly-z", "--w=1/3", "--x=1=1,2=1/2",
      "--y=1=1", "--max-degree=3"]),
    (0, "e86d68c8d5c47f684d59d1f40d7bbca1ab6657b917f6d377b822d27cdb20eb11",
     ["measure", "--kind=virasoro", "--z=2/3", "--w=-1/5", "--x=1=1,2=1/3",
      "--y=1=1/2", "--max-degree=3", "--output=csv"]),
    (0, "ec11a904142fc072e4eea479498420a8a71816d63e2c4d924805d4112f0b4420",
     ["convert", "--x=1=1,2=1,3=-1/2", "--y=1=2,2=1/3", "--z=1/2", "--w=1/3",
      "--max-degree=4"]),
    (0, "cae072f6a6cc20ad34d95e793abb6a626a72686b525b75f8ec0474a06dcf7881",
     ["convert", "--x=1=1,2=1", "--y=1=2", "--max-degree=3", "--ring=poly-z"]),
    (0, "a89a551479a6619c4f7e73399ce3d64362ae9b9b32e50e2ca49b3556032e984e",
     ["correlations", "--kind=virasoro", "--z=1/2", "--w=1/3", "--x=1=1",
      "--y=1=1/3", '--points=["1/2","-3/2"]', "--max-degree=4"]),
    (0, "1ab0f803f992492f8b27563a7393bf724c76cecef2f851b0ea23016ce5205199",
     ["decompose", "--z=1/2", "--w=0", "--max-degree=4"]),
    (0, "a6828fb81e92adc466b1cf54ec92dcbda4a4b1e129db46565f2a8d24996ea964",
     ["verify", "--suite=heisenberg", "--seed=3", "--max-degree=2"]),
    (0, "4e23bc2b7a03a84dd736d2ca26c55c6a252f35fbc9efb0f1946d80fa3aa3c345",
     ["verify", "--suite=sl2", "--seed=3", "--max-degree=3"]),
    (0, "5a63e05befde5c38304e0d08529c42aa2703c15e6bed2f20489a8f9f23bb782a",
     ["verify", "--suite=virasoro-cc", "--seed=3", "--max-degree=2"]),
    (0, "fa26aa945d28b3d85e990fa16982b0eb6fb1186cdce5c4d9b83db1727408da1f",
     ["verify", "--suite=kerov-equiv", "--seed=3", "--max-degree=3"]),
    (0, "c03b71813ebe01173159299fcac327c3c28c2b28d917c2e95a873d3c4eb62818",
     ["verify", "--suite=rimhook-equiv", "--seed=3", "--max-degree=3"]),
    (0, "bd29599a3f63ab9ec0b1241f55077d1b77a5ee7a5933f7aeec9fe46ef14e0d0e",
     ["verify", "--suite=m-virasoro", "--seed=3", "--max-degree=2"]),
    (0, "5bd09dc9d6b7dcc6f234717ff03d77b7e21b639a49892433d49b8a56a71bdd37",
     ["verify", "--suite=prop52", "--seed=3", "--max-degree=2"]),
    (0, "666408a37f46fbf432e4585b58581933e05a54ddb10c4d36c2ba8fc9936ae707",
     ["verify", "--suite=prop62", "--seed=3", "--max-degree=2"]),
    (0, "66eb7452c7cfd40f8659082161d2543c0689ac698d7a10cd2ebf589e6da999fd",
     ["verify", "--suite=kernels", "--seed=3", "--max-degree=3"]),
    (1, "8703e70a8e938fdb30f54cefd5a060186b763fc053a1ca458d911837588ca9a5",
     ["verify", "--suite=determinancy", "--seed=3", "--max-degree=3"]),
    # exact elimination (ranks, kernels, Jacobi-Trudi determinants up to
    # 8x8) and the polynomial inversion of convert, whose dead levels print
    # X as "0" at some N and as {"poly": []} at others
    (0, "5fd7d40ee037e4734c903506aa86da499960fe9ddaa0115a8df55c2b04d510b9",
     ["verify", "--suite=rank", "--max-degree=5"]),
    (0, "d3eb082d065e402900f171e1247deeb9bc03a515aae9bc1bd63f120f90992ef8",
     ["verify", "--suite=z-linearity", "--max-degree=4"]),
    (0, "d576ba20274cc680cc3b88238f7183535b29392746f4e55bd00f33290aa17546",
     ["decompose", "--z=3/2", "--w=-2/3", "--max-degree=6"]),
    (0, "f390a93b516bb1791561ff3a40ae68b7970c31b95fd81b5b5906ab71d1dd43b3",
     ["decompose", "--z=0", "--w=3/2", "--max-degree=5"]),
    (0, "c83cd56ed30532127540dd3dab6aed9adfe8c2d5e7542dedd65b369c5890dab9",
     ["measure", "--max-degree=8", "--kind=schur", "--x=1=1,2=1/3", "--y=1=1/2,3=2"]),
    (0, "60b3a6b7af23419d612563d42bdfb3a938ca40383e7ca4c12841f967bb02936a",
     ["convert", "--ring=poly-z", "--x=2=1,3=1/2", "--y=3=1", "--max-degree=6"]),
    # the conversion rows, their inversion and the closed A/B formulas at
    # larger N; the second x has a gap, so every odd y-row is dead
    (0, "fa651adbe4269591a0053c508d73085ca2f623c6ccc3efe26e94b362f06dbfa3",
     ["convert", "--max-degree=12", "--ring=poly-z", "--x=1=1/3,2=1/5,3=-1/7",
      "--y=1=-2/5,2=2/7,3=-1/3"]),
    (0, "b24de560e0bfa317f5d5434761ee7f5e5e87ccc1011314413941c694dd8f1488",
     ["convert", "--x=1=1,4=-1/3", "--y=2=1/5", "--z=1/2", "--w=-1/3", "--max-degree=9"]),
    (0, "9083f51ab4999882a678cdf8a38d1a9e454b5aaf7aa569e2e80b4239b740c1a0",
     ["verify", "--max-degree=8", "--suite=z-linearity"]),
    # the M = 1, 2, 3 modes as polynomial-weight bilinears: Poly weights in
    # the ket kernel, charged sectors in the prop62 brackets, and the M = 4
    # tuple sum that stays
    (0, "3248426034de5810956cc8d3e8995c2cecf4a39a253d2341fcb49c146a3a8c54",
     ["measure", "--ring=poly-z", "--kind=m-virasoro", "--m=3", "--gamma=1/4", "--w=2/3",
      "--x=1=1,2=1/2", "--y=1=1,3=-1/3", "--max-degree=5"]),
    (0, "f816ae201f3ad758b6caea986eb29c66da8b0bd5de81aba2ae1cd449b6c2da9e",
     ["verify", "--seed=5", "--suite=prop62", "--max-degree=3"]),
    (0, "a827cae5ac4e1d202b2648b0a42e1a089b7b57408ab5768fe30890f5dd7387ee",
     ["measure", "--m=4", "--kind=m-virasoro", "--gamma=1/3", "--z=1/2", "--w=-1/3",
      "--x=1=1,2=1/2", "--y=1=1,2=1/3", "--max-degree=3"]),
    # the M = 2 oracle behind the two equivalence suites at their default
    # degree, and the particle lookup behind correlations
    (0, "3833da4b5ead1e1dddb1f4f0ae0833afd1312e09f27b02e366217abe8dbfc906",
     ["verify", "--suite=kerov-equiv"]),
    (0, "474404f7c7e7e41e3487468bc446e62acdc6f02fc3b38111ccc9a019b11d7d8d",
     ["verify", "--suite=rimhook-equiv"]),
    (0, "1d20c0e9111d9dcd87591b3a503aeb18126367048c0a9c2a571351ed02944854",
     ["correlations", "--kind=schur", "--x=1=1,2=1/3", "--y=1=1/2,3=2",
      '--points=["1/2","-1/2"]', "--max-degree=5"]),
    (0, "6f9b7ef0b0b123922426f337e5a6c02f1b3c45429bdf04fe60394618eace256f",
     ["correlations", "--kind=m-virasoro", "--m=3", "--gamma=1/4", "--z=1/2", "--w=-1/3",
      "--x=1=1,2=1/2", "--y=1=1,2=1/3", '--points=["1/2","-3/2"]', "--max-degree=4"]),
    # the integer-numerator exponential on modes 1-3 over denominators 3, 5
    # and 7 (virasoro at degree 12, M = 3 with gamma set) and the
    # per-table complete-homogeneous series of the Schur side
    (0, "637d9ff4b8ccb4f69bd1435bcfc1eb317b33d9fae092b6092af09941febe690a",
     ["measure", "--z=1/2", "--kind=virasoro", "--w=-2/3", "--x=1=1/3,2=-2/5,3=1/7",
      "--y=1=-1/5,2=2/7,3=1/3", "--max-degree=12"]),
    (0, "49f19bc9765a4d2fa3d74d565707f267f86cba073cc3b54573374575db2745ec",
     ["measure", "--gamma=-1/5", "--kind=m-virasoro", "--m=3", "--z=2/3", "--w=1/2",
      "--x=1=1/3,2=1/5,3=-1/7", "--y=1=-2/7,3=1/3", "--max-degree=8"]),
    (0, "241e170255985f5fdc3c3824d8752909485bbcd6acdbfbfb3521a5a004993cb0",
     ["measure", "--x=1=1/3,2=-1/2,4=2/5", "--kind=schur", "--y=1=1/2,3=-1/7",
      "--max-degree=12"]),
    (0, "4e081f8da913f5d9b819c2eb439bd99896fe0889a5dfd8345ab7f430085b6bd3",
     ["correlations", "--max-degree=8", "--kind=virasoro", "--z=-1/3", "--w=2/5",
      "--x=1=1/3,2=-1/5,3=2/7", "--y=1=1/5,2=1/3", '--points=["1/2","-3/2"]']),
    # the M = 4 tuple sum over the polynomial ring, and the M = 1 boson
    # modes with a gamma rescale
    (0, "8922a8682ba6fea5f2ca93f06bc12a07ec9ff32036a50ac8217a0425b7ed7905",
     ["measure", "--gamma=1/3", "--kind=m-virasoro", "--m=4", "--ring=poly-z", "--w=-1/3",
      "--x=1=1,2=1/2", "--y=1=1,2=1/3", "--max-degree=4"]),
    (0, "fcd26304933575eea4b8215f30f8b65c62a55a6e04fdb617645195bda45c8c78",
     ["measure", "--m=1", "--kind=m-virasoro", "--gamma=1/4", "--z=1/2", "--w=-1/3",
      "--x=1=1/3,2=-1/2,3=1/5", "--y=1=1,3=2/7", "--max-degree=6"]),
    # the elimination at a degree where its rows are sparse: the removal
    # matrix, its kernel and the u-image rank up to p(12) = 77 columns
    (0, "b3026fb2997e4b8f3e7b82ed8feb5ded60c6e721aff21bcb698963d5fb9acfad",
     ["decompose", "--z=1/3", "--w=-2/5", "--max-degree=12"]),
    (0, "fe45cc471855aa8dbce68169b263fb51363e22423dcc7bbbda6ec0e3d93802ad",
     ["decompose", "--z=2/7", "--w=0", "--max-degree=12"]),
    # the k = 0 bilinear action: the L_0 diagonal of every central-charge
    # bracket to degree 4, and the kerov_l diagonal of the sl2 triple
    (0, "49b1d7a97b90d3bb334533671b7ef78ed8a7b7d9152b6f60622417b0e05a3eac",
     ["verify", "--seed=7", "--suite=virasoro-cc", "--max-degree=4"]),
    (0, "a320d856f7b612dd1ddd24de8029a907ba574d86a89841ca6a9b9376b17fd22b",
     ["verify", "--suite=sl2", "--seed=7"]),
    # vector sums and matrix assembly at the default degrees: kernel vectors,
    # u-images and highest weights to degree 8, the charge +-1 psi brackets
    # to degree 4, and the removal matrix up to p(8) = 22 columns
    (0, "da6e61295e416281bd6735e287dadc0e32f146b3a644e21e235ac4a07cae46cf",
     ["verify", "--suite=kernels", "--seed=11"]),
    (0, "8d19e09c2d5f6fb489b5ddd5ef4e06b69c69e7b2dee170fbd28bf0b7abe14bae",
     ["verify", "--suite=prop52", "--seed=5"]),
    (0, "551ea0d50574e6c297af8a76c0e74e1d62bad0711c2889ece43f7d1cd8becddd",
     ["verify", "--suite=rank", "--seed=2"]),
    # the commutator harness at the default degrees: every [a_n, a_m] with
    # |n|, |m| <= 4 to degree 6, and every [L_m, L_n] with |m|, |n| <= 3
    # and its central term to degree 5
    (0, "ae3eef4bb7f2fc0b49909d285c36a5d86d8700c2dd80ff0dced5cf927541da59",
     ["verify", "--suite=heisenberg", "--seed=4"]),
    (0, "b158e065bb8113ca7e74b8294730047ebe49d7b22f405ed57fc3cf4ffbca0cef",
     ["verify", "--suite=virasoro-cc", "--seed=4"]),
    # the M-fold tuple sum: the order-2 oracle and the order-3 support at
    # the default degree 5, and an M = 5 table to degree 6 on both sides
    (0, "f77dfec533f7afb5bb647c2b36a589692047d5952a884b738cdd41fc91fbc2a5",
     ["verify", "--suite=m-virasoro", "--seed=9"]),
    (0, "d4e9df5c3b2437562e96faad60c0b4f7cdaebaece6b9bb0fd887dbad05837a11",
     ["measure", "--m=5", "--kind=m-virasoro", "--gamma=1/5", "--z=1/2", "--w=-1/3",
      "--x=1=1/3,2=-2/5", "--y=1=2/5,2=1/7", "--max-degree=6"]),
    # the integer removal rows at larger degree: kernel vectors and the
    # u-image rank up to p(15) = 176 columns, the both-zero case, where
    # every box weight vanishes at the vacuum, and the determinancy suite
    # at its default degree (exit 1: c07's falsified identity)
    (0, "9ebb3c6fb4fcbfefd79bc5247b11ef06c11c7d2fd3c0ef26d17d5c2de3724d5c",
     ["decompose", "--z=-1/2", "--w=2/7", "--max-degree=14"]),
    (0, "0c2d23add1205a2f9b745165e5ffd31c953a866d1071da149f0a98be1534c051",
     ["decompose", "--max-degree=10", "--z=0", "--w=0"]),
    (1, "ebef35134c03d91e9142b3d280ed78818e6bdaffb25deeadcf6b97f41daca800",
     ["verify", "--suite=determinancy", "--seed=6"]),
    # the poly-z exponential on modes 1-3 over denominators 3, 5 and 7,
    # whose cleared numerators are integer polynomials in z: virasoro at
    # degree 10 and M = 3 with gamma set at degree 7
    (0, "41f08dcf74fb1dac337ea076b0606ac0f5037cdc1e570d44202d3fd6f23c2f2c",
     ["measure", "--w=1/3", "--kind=virasoro", "--ring=poly-z", "--x=1=1/3,2=-2/5,3=1/7",
      "--y=1=1/5,2=-2/3,3=-2/7", "--max-degree=10"]),
    (0, "e1f501593ade3afd7917408ae37eb757f278e2405552b4182fcf88037ba45141",
     ["measure", "--w=1/2", "--kind=m-virasoro", "--m=3", "--gamma=-1/5", "--ring=poly-z",
      "--x=1=1/3,2=1/5,3=-1/7", "--y=1=-2/7,3=1/3", "--max-degree=7"]),
]


def _golden_id(argv):
    # the first two words name a case; a run without --max-degree is marked,
    # so the default-degree suites keep ids apart from their small-degree ones
    default = not any(a.startswith("--max-degree") for a in argv)
    return " ".join(argv[:2]) + (" default-degree" if default else "")


@pytest.mark.parametrize("code,digest,argv", GOLDEN_STDOUT,
                         ids=[_golden_id(g[2]) for g in GOLDEN_STDOUT])
def test_golden_stdout_digest(code, digest, argv, capsys):
    got_code, out, err = run_cli(argv, capsys)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_max_degree_zero_is_honoured(capsys):
    code, out, _ = run_cli(["verify", "--suite=sl2", "--seed=1", "--max-degree=0"], capsys)
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["params"]["max_degree"] == 0


def test_verify_with_no_checks_is_a_usage_error(capsys):
    # the rank suite covers degrees 1..N, so N = 0 leaves nothing to check
    code, out, err = run_cli(["verify", "--suite=rank", "--max-degree=0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no checks" in err


def test_z_linearity_at_degrees_zero_and_one(capsys):
    # degree 0 covers no level, so no check; degree 1 has no X_2 to check
    code, out, err = run_cli(["verify", "--suite=z-linearity", "--max-degree=0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no checks" in err
    code, out, err = run_cli(["verify", "--suite=z-linearity", "--max-degree=1"], capsys)
    assert (code, err) == (0, "")
    checks = [json.loads(l)["check"] for l in out.splitlines() if '"check"' in l]
    assert len(checks) == 9 and not any(c.startswith("X_1 = ") for c in checks)


@pytest.mark.parametrize("suite,dropped", [
    ("determinancy", "single-row weights"),
    ("kernels", "raising kernel trivial"),
])
def test_max_degree_zero_drops_checks_over_no_cases(suite, dropped, capsys):
    code, out, err = run_cli(["verify", f"--suite={suite}", "--max-degree=0"], capsys)
    assert (code, err) == (0, "")
    checks = [json.loads(l)["check"] for l in out.splitlines() if '"check"' in l]
    assert checks and not any(c.startswith(dropped) for c in checks)
    code, out, _ = run_cli(["verify", f"--suite={suite}", "--max-degree=1"], capsys)
    assert any(json.loads(l).get("check", "").startswith(dropped) for l in out.splitlines())


@pytest.mark.parametrize("argv", [
    ["measure", "--kind=virasoro", "--z=0.5", "--max-degree=2"],
    ["measure", "--kind=schur", "--x=1=1e1000", "--max-degree=2"],
    ["convert", "--x=1=1_0", "--max-degree=2"],
    ["decompose", "--z=1/0", "--w=1"],
    ["correlations", "--kind=schur", '--points=["0.5"]', "--max-degree=2"],
    ["correlations", "--kind=schur", '--points=["1e1000"]', "--max-degree=2"],
    ["measure", "--kind=schur", "--x=1_0=1", "--max-degree=2"],
    ["measure", "--kind=schur", "--x=+1=1", "--max-degree=2"],
    ["measure", "--kind=schur", "--x=\u0661=1", "--max-degree=2"],  # Arabic-Indic one
])
def test_non_fraction_numbers_exit_two(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_half_integer_point_in_fraction_form(capsys):
    code, out, _ = run_cli(["correlations", "--kind=schur", "--x=1=1", "--y=1=1",
                            '--points=[" 1/2 ", "-1/2"]', "--max-degree=2"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["points"] == ["1/2", "-1/2"]


def test_kernels_reports_a_wrong_highest_weight(monkeypatch, capsys):
    # shift the diagonal by one: every kernel vector now misses z*w + 2N
    import youngfock.repstructure as rs
    from youngfock.operators import Bilinear

    monkeypatch.setattr(rs, "kerov_l", lambda p: Bilinear(0, (p.z + p.w, 2), p.z * p.w + 1))
    code, out, err = run_cli(["verify", "--suite=kernels", "--seed=3", "--max-degree=3"], capsys)
    assert code == 1 and err == ""
    lines = [json.loads(l) for l in out.strip().splitlines()]
    checks = {l["check"]: l["ok"] for l in lines if "check" in l}
    assert checks["kernel vectors carry eigenvalue z*w + 2N"] is False
    assert lines[-1]["ok"] is False


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def test_m_fold_mode_of_high_order_runs_clean():
    # the M-fold tuple enumeration is iterative: a tuple of 1500 entries
    # must not exhaust the interpreter's recursion limit
    proc = subprocess.run([sys.executable, "-m", "youngfock", "measure", "--kind=m-virasoro",
                           "--m=1500", "--x=1=1", "--y=1=1", "--max-degree=2"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "Traceback" not in proc.stdout and proc.stdout


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every command is a fresh process, so the import is paid on each run;
    # -S keeps site hooks from loading the modules themselves
    code = "import sys, youngfock.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_cli_import_leaves_csv_unloaded():
    # only --output=csv reads csv, so a plain run does not import it
    code = "import sys, youngfock.cli; print('csv' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["verify", "--suite=sl2", "--max-degree=1"],
    ["measure", "--kind=schur", "--x=1=1/2", "--y=1=1/3", "--max-degree=2"],
], ids=["verify", "measure"])
def test_a_failed_stdout_write_exits_two(argv):
    # exit 1 means a falsified identity; a stdout that cannot take the
    # report is an error of the run, reported once, with no traceback
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)  # the exit-time flush only fails on a buffered stdout
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "youngfock", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert "run with --help" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--suite=sl2", "--max-degree=-1"],
    ["measure", "--kind=schur", "--x=1=1,1=2", "--max-degree=2"],
], ids=["negative-degree", "repeated-index"])
def test_a_usage_fault_keeps_the_usage_hint(argv, capsys):
    # a fault of the command line: the error line, then the usage hint
    code, out, err = run_cli(argv, capsys)
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert len(lines) == 2 and lines[0].startswith("error: ")
    assert lines[1] == "run with --help for usage"
