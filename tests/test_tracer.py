"""The benchmark's outside-in tracer (perfbench/tracer.py) still finds every
function it wraps, so `perfbench/run.py --trace 1` keeps working when code is
deleted or renamed.

The tracer rebinds names inside the germnf modules, so it runs in a child
process and the rebinding cannot leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys
root, path = sys.argv[1:]
sys.path[:0] = [root + "/perfbench", root + "/src"]
import germnf.cli
from tracer import FUNCTIONS, Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = germnf.cli.run(["normalize", path])
calls = {name: counts[0] for name, counts in tracer.take()["functions"].items()}
print(json.dumps({"code": code, "wrapped": len(FUNCTIONS), "calls": calls}))
"""

NORMALIZABLE = {
    "schema": 1,
    "n": 2,
    "p": 1,
    "degree": 4,
    "maps": [
        {"linear_diag": ["2", "3"], "terms": [{"component": 1, "exponents": [0, 2], "coeff": "1"}]}
    ],
}


def test_tracer_installs_and_traces_normalize(tmp_path):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(NORMALIZABLE))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["wrapped"] == len(result["calls"]) == 37
    for name in (
        "cli.run",
        "germ.family_from_json",
        "normalform.poincare_dulac_normalize",
        "germ.compose_germ",
        "series.mul",
    ):
        assert result["calls"][name] > 0, name
