"""Golden results: what each corpus op must keep returning.

    python3 perfbench/golden.py

runs every op of every workload once, with a generous CPU limit
(CPU_LIMIT_S) and the benchmark's own memory cap (worker.MEMORY_MIB), and
writes `corpus/<workload>.golden.json`.  An op's golden keeps, for each
top-level field of the report's payload, either its verdict or the SHA-256
of its canonical JSON.  Verdicts are compared asymmetrically: a definite verdict
(yes or no) must stay the same, while an indeterminate one may become
definite.  Witness details, `timing_seconds` and the report's config are
not compared.  An op that did not finish at the seed has no golden.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"
WORKLOADS = ("normalize", "integrals", "eigen")
INDETERMINATE = "indeterminate"
# CPU seconds per op while recording, far above the run's limits (run.py).
CPU_LIMIT_S = 120


def _verdict_of(key: str, value):
    """The verdict a payload field states, or None for plain content."""
    if isinstance(value, dict) and "verdict" in value:
        return value["verdict"]
    if key == "infinitesimal_generators":
        if INDETERMINATE in value:
            return INDETERMINATE
        return "no" if value.get("found") is None else "yes"
    return None


def fields(report: dict) -> dict:
    """{payload field: {"verdict": v} or {"sha256": digest of canonical JSON}}."""
    out = {}
    for key, value in report["payload"].items():
        verdict = _verdict_of(key, value)
        if verdict is not None:
            out[key] = {"verdict": verdict}
        else:
            text = json.dumps(value, sort_keys=True, separators=(",", ":"))
            out[key] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    return out


def verdict_counts(found: dict) -> tuple[int, int]:
    """(indeterminate verdict fields, all verdict fields)."""
    verdicts = [f["verdict"] for f in found.values() if "verdict" in f]
    return sum(v == INDETERMINATE for v in verdicts), len(verdicts)


def compare(expected: dict, found: dict) -> list[str]:
    """Problems that make an op's result differ from its golden."""
    problems = []
    for key in sorted(set(expected) | set(found)):
        want, got = expected.get(key), found.get(key)
        if want is None or got is None:
            problems.append(f"field {key} {'added' if want is None else 'missing'}")
        elif "verdict" in want:
            old, new = want["verdict"], got.get("verdict")
            if old != INDETERMINATE and new != old:
                problems.append(f"verdict {key}: {old} -> {new}")
        elif want != got:
            problems.append(f"content {key} differs")
    return problems


def check(golden: dict | None, exit_code, report_text: str) -> tuple[list[str], dict | None]:
    """(problems, payload fields) for one finished op.  Without a golden only
    the exit code and the report's shape are checked."""
    if exit_code not in (0, 2):
        return [f"exit code {exit_code}"], None
    try:
        found = fields(json.loads(report_text))
    except (ValueError, KeyError, TypeError, AttributeError):
        return ["report is not a JSON report with a payload"], None
    if golden is None:
        return [], found
    return compare(golden["fields"], found), found


def load(workload: str) -> tuple[dict, dict]:
    """(manifest, goldens by op id) of a workload."""
    manifest = json.loads((CORPUS / f"{workload}.json").read_text())
    golden_path = CORPUS / f"{workload}.golden.json"
    goldens = json.loads(golden_path.read_text())["ops"] if golden_path.exists() else {}
    return manifest, goldens


def argv_of(op: dict) -> list[str]:
    return [op["command"], str(HERE / op["input"]), *op["args"]]


def write() -> None:
    from worker import MEMORY_MIB, Worker

    for workload in WORKLOADS:
        manifest, _ = load(workload)
        goldens = {}
        worker = Worker(ROOT, False)
        for index, op in enumerate(manifest["ops"]):
            reply = worker.run(index, argv_of(op), CPU_LIMIT_S)
            if reply is None or reply["error"]:
                reason = reply["error"] if reply else f"over {CPU_LIMIT_S} s CPU"
                goldens[op["id"]] = None
                print(f"{workload} {op['id']}: no golden ({reason.strip()})", flush=True)
                if reply is None or reply["error"] == "MemoryError":
                    worker.kill()
                    worker = Worker(ROOT, False)
                continue
            problems, found = check(None, reply["exit"], reply["report"])
            if problems:
                sys.exit(f"{op['id']}: {problems}")
            goldens[op["id"]] = {"exit": reply["exit"], "seconds": round(reply["wall_s"], 3),
                                 "fields": found}
            print(f"{workload} {op['id']}: exit {reply['exit']} {reply['wall_s']:.3f} s", flush=True)
        worker.close()
        out = {
            "note": "generated by perfbench/golden.py; seconds are one run, for sizing only",
            "cpu_limit_s": CPU_LIMIT_S,
            "memory_mib": MEMORY_MIB,
            "generated": time.strftime("%Y-%m-%d"),
            "ops": goldens,
        }
        (CORPUS / f"{workload}.golden.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write()
