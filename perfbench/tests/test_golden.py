"""The golden check catches a flipped verdict and an altered normal form.

    python3 -m pytest perfbench/tests

Each test runs one fast corpus op through germnf.cli and compares its
report, unchanged and then altered, with the op's stored golden.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import golden  # noqa: E402

sys.path.insert(0, str(golden.ROOT / "src"))

from germnf.cli import run  # noqa: E402


def _fastest(workload: str, command: str):
    """(report, golden) of the fastest op of a command that has a golden."""
    manifest, goldens = golden.load(workload)
    ops = [op for op in manifest["ops"] if op["command"] == command and goldens.get(op["id"])]
    op = min(ops, key=lambda o: goldens[o["id"]]["seconds"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(golden.argv_of(op))
    assert code == goldens[op["id"]]["exit"]
    return json.loads(out.getvalue()), goldens[op["id"]]


def _problems(expected, report):
    return golden.check(expected, expected["exit"], json.dumps(report))[0]


def test_reports_match_their_goldens():
    for workload, command in (("eigen", "analyze"), ("normalize", "normalize")):
        report, expected = _fastest(workload, command)
        assert _problems(expected, report) == []


def test_flipped_verdict_is_caught():
    report, expected = _fastest("eigen", "analyze")
    key, field = next((k, v) for k, v in report["payload"].items()
                      if isinstance(v, dict) and v.get("verdict") in ("yes", "no"))
    field["verdict"] = "no" if field["verdict"] == "yes" else "yes"
    assert any(key in p for p in _problems(expected, report))


def test_definite_verdict_becoming_indeterminate_is_caught():
    report, expected = _fastest("eigen", "analyze")
    key, field = next((k, v) for k, v in report["payload"].items()
                      if isinstance(v, dict) and v.get("verdict") in ("yes", "no"))
    field["verdict"] = "indeterminate"
    assert any(key in p for p in _problems(expected, report))


def test_indeterminate_verdict_may_become_definite():
    report, expected = _fastest("eigen", "analyze")
    key = next(k for k, v in expected["fields"].items() if "verdict" in v)
    loosened = copy.deepcopy(expected)
    loosened["fields"][key]["verdict"] = "indeterminate"
    assert _problems(loosened, report) == []


def test_altered_normal_form_is_caught():
    report, expected = _fastest("normalize", "normalize")
    term = report["payload"]["normalized"]["maps"][0]["terms"][0]
    term["coeff"] = "7/11" if term["coeff"] != "7/11" else "5/11"
    assert any("normalized" in p for p in _problems(expected, report))


def test_failing_exit_code_is_caught():
    report, expected = _fastest("eigen", "analyze")
    assert golden.check(expected, 1, json.dumps(report))[0] == ["exit code 1"]
