import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_measure_demo_runs_clean():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "measure_demo.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_numbers():
    base = [3.0, 3.2, 3.4, 3.1, 3.3]
    change = [2.4, 2.5, 3.4, 2.3, 3.5]
    runs = [{"pair": i, "seed": 0, "side": side, "metrics": {"tables.wall_s": v,
                                                            "tables.suites.checks": v}}
            for i, (b, c) in enumerate(zip(base, change)) for side, v in (("base", b), ("change", c))]
    runs.append({"pair": 5, "seed": 0, "side": "base", "metrics": {"tables.wall_s": 9.0}})
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower", "suites.checks": "higher"})
    wall = summary["tables.wall_s"]
    # the unpaired sixth run is left out; the tie at 3.4 counts for neither side
    assert wall["pairs"] == 5 and (wall["wins"], wall["losses"]) == (3, 1)
    assert wall["base"] == {"median": 3.2, "q1": 3.1, "q3": 3.3, "iqr": pytest.approx(0.2)}
    assert wall["change"]["median"] == 2.5
    assert (wall["change"]["q1"], wall["change"]["q3"]) == (2.4, 3.4)
    checks = summary["tables.suites.checks"]
    assert checks["better"] == "higher" and (checks["wins"], checks["losses"]) == (1, 3)


def _fake_bench(module, monkeypatch, results):
    """Run ``main`` with the git calls and the perfbench runs replaced:
    results[i] is (correct, failed) of the i-th run, in run order."""
    it = iter(results)

    def run(tree, workload, seed):
        correct, failed = next(it)
        return {"correct": correct, "attempted": 4, "failed": failed,
                "metrics": {"rank.wall_s": 2.0}}

    monkeypatch.setattr(module, "_run", run)
    monkeypatch.setattr(module, "_git",
                        lambda *args: "" if args[0] in ("status", "worktree") else "0123abc")


def test_bench_pairs_exits_1_and_names_the_runs_at_fault(tmp_path, monkeypatch, capsys):
    module = _bench_pairs()
    # pairs 0 and 2 run change first, pair 1 base first: the third run is
    # pair 1's base side and the fourth its change side
    _fake_bench(module, monkeypatch, [(True, 0), (True, 0), (False, 0), (True, 2),
                                      (True, 0), (True, 0)])
    out = tmp_path / "record.json"
    code = module.main(["--base", "HEAD~1", "--workload", "rank", "--seed-pairs", "0:2",
                        "--seed-pairs", "3:1", "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 1
    assert (record["incorrect_runs"], record["failed_jobs"]) == (1, 2)
    assert len(record["runs"]) == 6
    faults = [l for l in capsys.readouterr().err.splitlines() if l.startswith("at fault")]
    assert faults == ["at fault: pair 1 side base seed 0: correct=False failed=0",
                      "at fault: pair 1 side change seed 0: correct=True failed=2"]

    _fake_bench(module, monkeypatch, [(True, 0)] * 2)
    code = module.main(["--base", "HEAD~1", "--workload", "rank", "--seed-pairs", "0:1",
                        "--out", str(out)])
    record = json.loads(out.read_text())
    assert code == 0 and (record["incorrect_runs"], record["failed_jobs"]) == (0, 0)
    assert "at fault" not in capsys.readouterr().err
