"""The benchmark's outside-in tracer (perfbench/tracer.py) still finds every
function it wraps, so `perfbench/run.py --trace 1` keeps working when code is
deleted or renamed.

The tracer rebinds names inside the germnf modules, so it runs in a child
process and the rebinding cannot leak into other tests.  `germnf.cli` loads
`classify` and `normalform` on first use; the tracer's lookup loads them, and
`analyze` shows that the wrappers reach the module `cli` calls.  The
normalizer's steps compose no germ and invert no linear part, so `normalize`
reaches neither `germ.compose_germ` nor `linalg.field_inverse`; `realcase`
reaches `compose_germ` from `normalform`, which imports it by name.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EIGEN = ROOT / "perfbench" / "corpus" / "eigen" / "small_p2-3.json"
REAL = ROOT / "perfbench" / "corpus" / "normalize" / "real_block-0.json"

CHILD = """
import contextlib, io, json, sys
root, path, eigen_path, real_path = sys.argv[1:]
sys.path[:0] = [root + "/perfbench", root + "/src"]
import germnf.cli
from tracer import FUNCTIONS, Tracer

tracer = Tracer()
tracer.install()
out = {"wrapped": len(FUNCTIONS)}
for command, file in (("normalize", path), ("analyze", eigen_path), ("realcase", real_path)):
    with contextlib.redirect_stdout(io.StringIO()):
        code = germnf.cli.run([command, file])
    calls = {name: counts[0] for name, counts in tracer.take()["functions"].items()}
    out[command] = {"code": code, "calls": calls}
print(json.dumps(out))
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
        [sys.executable, "-c", CHILD, str(ROOT), str(path), str(EIGEN), str(REAL)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    normalize, analyze, realcase = result["normalize"], result["analyze"], result["realcase"]
    assert normalize["code"] == analyze["code"] == realcase["code"] == 0
    assert result["wrapped"] == len(normalize["calls"]) == 37
    for name in (
        "cli.run",
        "germ.family_from_json",
        "normalform.poincare_dulac_normalize",
        "series.mul",
    ):
        assert normalize["calls"][name] > 0, name
    assert normalize["calls"]["linalg.field_inverse"] == 0
    for name in ("normalform.complexify_real_family", "germ.compose_germ", "normalform.realify_normal_form"):
        assert realcase["calls"][name] > 0, name
    for name in ("cli.run", "classify.is_hyperbolic", "classify.normal_form_hypothesis"):
        assert analyze["calls"][name] > 0, name
