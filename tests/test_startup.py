"""Start-up: a `germnf` process compiles only the modules its command runs.

`germnf.cli` puts `classify` and `normalform` in sys.modules unloaded; each
runs on its first attribute access.  The checks run in child processes, so
the import state they see is not the one pytest has built up.  A module's
state is read through `object.__getattribute__`, which does not load it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EIGEN = ROOT / "perfbench" / "corpus" / "eigen" / "small_p2-3.json"
FAMILY = ROOT / "perfbench" / "corpus" / "normalize" / "conj_p2-0.json"

PRELUDE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def ran(name):
    # a function the module defines, present only once the module has run
    marker = {"classify": "normal_form_hypothesis", "normalform": "poincare_dulac_normalize"}[name]
    return marker in object.__getattribute__(sys.modules["germnf." + name], "__dict__")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return germnf.cli.run(list(argv))
"""

BY_COMMAND = PRELUDE + """
import germnf.cli
state = {"dataclasses": "dataclasses" in sys.modules,
         "import": [ran("classify"), ran("normalform")]}
state["lattice"] = [run("lattice", sys.argv[2]), ran("classify"), ran("normalform")]
state["normalize"] = [run("normalize", sys.argv[3]), ran("classify"), ran("normalform")]
state["analyze"] = [run("analyze", sys.argv[2]), ran("classify"), ran("normalform")]
print(json.dumps(state))
"""

IMPORTED_FIRST = PRELUDE + """
import germnf.classify, germnf.normalform
first = [sys.modules["germnf.classify"], sys.modules["germnf.normalform"]]
import germnf.cli
now = [germnf.cli.classify, germnf.cli.normalform, sys.modules["germnf.classify"], sys.modules["germnf.normalform"]]
print(json.dumps([m is first[i % 2] for i, m in enumerate(now)]
                 + [run("analyze", sys.argv[2]), run("normalize", sys.argv[3])]))
"""


def _child(script: str):
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src"), str(EIGEN), str(FAMILY)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_command_loads_only_what_it_runs():
    state = _child(BY_COMMAND)
    assert state["dataclasses"] is False
    assert state["import"] == [False, False]
    assert state["lattice"] == [0, False, False]
    assert state["normalize"] == [0, False, True]
    assert state["analyze"] == [0, True, True]


def test_modules_imported_before_the_cli_are_the_ones_it_uses():
    assert _child(IMPORTED_FIRST) == [True, True, True, True, 0, 0]
