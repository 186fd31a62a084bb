import json

import pytest

from youngfock.suites import SUITES, run_suite


def test_suite_registry_complete():
    assert set(SUITES) == {
        "heisenberg", "sl2", "virasoro-cc", "kerov-equiv", "rimhook-equiv",
        "determinancy", "z-linearity", "rank", "kernels", "m-virasoro",
        "prop52", "prop62",
    }


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
    a1 = boson_op(1).apply
    assert _disagree([(a1, a1)], 3) == []
    # a_1 removes a box: it differs from twice itself on every diagram but
    # the empty one
    twice = [(a1, a1), (a1, lambda v: a1(v).scale(2))]
    assert _disagree(twice, 2) == [[1], [2], [1, 1]]


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
