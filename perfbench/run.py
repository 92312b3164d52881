"""Benchmark runner for germnf: golden-checked CLI ops in a closed loop.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 35 --trace 0

One client runs the workload's ops one after another through
`germnf.cli.run`, in a single worker process at a time (see worker.py).  A
pass runs every op of the workload's corpus once, in an order drawn from
--seed, in a fresh worker, so nothing cached carries over from one pass to
the next.  After one whole pass, passes go on until --seconds is used up;
the last one stops before an op that would not end in time.  An op that
went over a limit is not run again in later passes: its time is the limit
either way.  Every report is checked against its golden result (see
golden.py).  The result line counts corpus ops, not op runs: `attempted` is
the number of distinct ops run and `failed` the number of those with a run
that failed, so that both depend on the corpus alone and not on how many
passes fit in --seconds.

Op times are the worker's CPU seconds per op, as a median over repeats for
short ops and over passes, each op run scaled to a nominal machine speed
with a reference load timed right before and after it (see
REFERENCE_UNIT_S); an op that failed counts at its CPU limit, unscaled.  The lines before the last print
every metric by name with its unit, and the raw figures beside the scaled
ones; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 its metrics
are the end-to-end ones.  With --trace 1 the runner runs one untraced pass
and then whole traced passes while the next is expected to end within
--seconds, and its metrics are the per-layer ones from tracer.py, averaged
per traced pass, together with the tracing overhead; spans are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import golden
from tracer import FUNCTIONS, MODULES
from worker import MEMORY_MIB, Worker, WorkerError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The two commands of each workload, reported as cmd1_geomean_s and cmd2_geomean_s.
COMMANDS = {
    "normalize": ("normalize", "realcase"),
    "integrals": ("first-integrals", "verify"),
    "eigen": ("lattice", "analyze"),
}
# CPU seconds per op, each at least three times the slowest op of that
# command that finishes at the seed (see "seconds" in corpus/*.golden.json).
# An op past its limit is killed, counted as failed and timed at the limit.
CPU_LIMIT_S = {
    "normalize": 20,
    "realcase": 15,
    "first-integrals": 15,
    "verify": 5,
    "lattice": 5,
    "analyze": 6,
}
SETUP_STARTS = 11
# An op that took under REPEAT_TO_S at the seed (its golden's "seconds") is
# run back to back in the same worker until it has had about that long (at
# most MAX_REPEATS runs), and its time is the median of those runs: on a
# shared 2-vCPU virtual machine single short runs vary by 10-30%.  Traced
# passes run each op once.
REPEAT_TO_S = 0.5
MAX_REPEATS = 30
# A shared machine's speed changes by tens of percent, in spells of seconds
# to minutes, so op times are scaled to a nominal speed: right before and
# right after each op run the runner times a fixed pure-Python reference load
# for about REFERENCE_SHARE / 2 of the op run's CPU time (expected from its
# golden before, as spent after), and the op run's time is multiplied by
# REFERENCE_UNIT_S over the CPU time of one reference unit in those two.
REFERENCE_SHARE = 0.15
REFERENCE_UNIT_S = 0.012
# Each set-up start is scaled the same way, by the reference units timed
# between starts.
SETUP_REFERENCE_UNITS = 4


def reference(units: int) -> float:
    """CPU seconds this process takes for `units` units of a fixed load of
    exact arithmetic in dicts, like germnf's hot loops but not germnf's code."""
    started = _cpu_seconds()
    for unit in range(units):
        coeffs = {(i, j): Fraction((i * 7 + j * 3 + unit) % 19 - 9, 1 + (i + 2 * j) % 8)
                  for i in range(12) for j in range(12 - i)}
        product: dict = {}
        for (i, j), x in coeffs.items():
            for (k, m), y in coeffs.items():
                if i + j + k + m <= 14:
                    key = (i + k, j + m)
                    product[key] = product.get(key, 0) + x * y
    return _cpu_seconds() - started


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "germnf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.manifest, self.goldens = golden.load(workload)
        self.ops = self.manifest["ops"]
        self.rng = random.Random(seed)
        self.setup_cpus: list[float] = []
        self.setup_units: list[float] = []  # reference unit around each start
        self.reference = [0.0, 0]
        self.peak_rss_kib = 0
        self.results: list[dict] = []  # one per op run, every pass
        self.passes: list[bool] = []  # traced or not, per whole pass
        self.expected: dict[str, float] = {}  # op id -> wall seconds of its first run
        self.over_limit: set[str] = set()  # op ids not run again

    @staticmethod
    def _calibrate(into: list, cpu_s: float) -> tuple[float, int]:
        """Time REFERENCE_SHARE / 2 of `cpu_s` in reference units, at least
        one, add them to `into` and return their CPU seconds and count."""
        units = max(1, round(REFERENCE_SHARE / 2 * cpu_s / REFERENCE_UNIT_S))
        seconds = reference(units)
        into[0] += seconds
        into[1] += units
        return seconds, units

    def setup(self) -> None:
        before = reference(SETUP_REFERENCE_UNITS)
        for _ in range(SETUP_STARTS):
            worker = Worker(ROOT, False)
            self.setup_cpus.append(worker.setup_cpu_s)
            worker.close()
            after = reference(SETUP_REFERENCE_UNITS)
            self.setup_units.append((before + after) / (2 * SETUP_REFERENCE_UNITS))
            before = after

    def _repeats(self, op: dict, trace: bool) -> int:
        found = self.goldens.get(op["id"])
        if trace or not found:
            return 1
        return max(1, min(MAX_REPEATS, math.ceil(REPEAT_TO_S / max(found["seconds"], 1e-3))))

    def _run_op(self, worker: Worker, op: dict, trace: bool) -> tuple[dict, Worker]:
        """One op run: the op once, or repeated (see REPEAT_TO_S).  Returns
        its result and the worker to go on with, a new one if the op ended it."""
        seq = len(self.results)
        limit = CPU_LIMIT_S[op["command"]]
        result = {"seq": seq, "op": op, "traced": trace, "status": "ok", "detail": None,
                  "trace": None, "fields": None, "cpus": []}
        for _ in range(self._repeats(op, trace)):
            reply = worker.run(seq, golden.argv_of(op), limit)
            if reply is None:
                result["status"], result["detail"] = "over_limit", f"killed past {limit} s CPU"
                return result, Worker(ROOT, trace)
            if reply["error"] == "MemoryError":
                result["status"], result["detail"] = "over_limit", f"over the {MEMORY_MIB} MiB memory cap"
                worker.close()
                return result, Worker(ROOT, trace)
            # Only ops that finished: a run cut at its limit has no peak of its own.
            self.peak_rss_kib = max(self.peak_rss_kib, reply["rss_kib"])
            result["trace"] = reply.get("trace")
            if reply["error"]:
                result["status"], result["detail"] = "raised", reply["error"].strip().splitlines()[-1]
                return result, worker
            problems, result["fields"] = golden.check(self.goldens.get(op["id"]), reply["exit"], reply["report"])
            if problems:
                detail = [*problems, reply["stderr"].strip()]
                result["status"], result["detail"] = "differs", "; ".join(filter(None, detail))
                return result, worker
            if not self.goldens.get(op["id"]):
                result["status"] = "unchecked"
            result["cpus"].append(reply["cpu_s"])
        return result, worker

    def run_pass(self, trace: bool, deadline: float | None = None) -> bool:
        """Run every op once, in an order drawn from the seed, in a fresh
        worker.  With a deadline, stop before an op whose first run would not
        have ended by then; return whether the pass ran to the end."""
        order = self.rng.sample(self.ops, len(self.ops))
        worker = Worker(ROOT, trace)
        complete = True
        for op in order:
            if op["id"] in self.over_limit:
                continue
            op_started = time.perf_counter()
            if deadline is not None and op_started + self.expected[op["id"]] > deadline:
                complete = False
                break
            if not trace:
                found = self.goldens.get(op["id"])
                expected = found["seconds"] * self._repeats(op, trace) if found else 0
                before = self._calibrate(self.reference, expected)
            result, worker = self._run_op(worker, op, trace)
            spent = sum(result["cpus"]) if result["cpus"] else CPU_LIMIT_S[op["command"]]
            if not trace:
                after = self._calibrate(self.reference, spent)
                result["unit"] = (before[0] + after[0]) / (before[1] + after[1])
            self.results.append(result)
            if result["status"] == "over_limit":
                self.over_limit.add(op["id"])
            self.expected.setdefault(op["id"], time.perf_counter() - op_started)
        if complete:
            self.passes.append(trace)
        worker.close()
        return complete

    # -- metrics -------------------------------------------------------------

    def per_op(self, traced: bool, scaled: bool = False) -> dict[str, float]:
        """Op id -> median over its op runs that finished of their CPU
        seconds, where an op run's CPU seconds are the median of its repeats,
        scaled by the reference unit timed around it if `scaled`."""
        runs: dict[str, list[float]] = {}
        for r in self.results:
            if r["traced"] == traced and r["status"] in ("ok", "unchecked"):
                factor = REFERENCE_UNIT_S / r["unit"] if scaled else 1.0
                runs.setdefault(r["op"]["id"], []).append(statistics.median(r["cpus"]) * factor)
        return {op_id: statistics.median(values) for op_id, values in runs.items()}

    def end_to_end(self) -> tuple[dict, list[str]]:
        untraced = [r for r in self.results if not r["traced"]]
        unit = self.reference[0] / self.reference[1]
        command_of = {op["id"]: op["command"] for op in self.ops}
        # Averaged per op, so that a cut last pass does not weigh its ops more.
        outcomes: dict[str, list[bool]] = {}
        for r in untraced:
            outcomes.setdefault(r["op"]["id"], []).append(r["status"] in ("ok", "unchecked"))
        # An op with a failed run counts at its CPU limit.  The limit is a set
        # figure, not a measured one, so it is not scaled.
        raw, scaled = self.per_op(False), self.per_op(False, True)
        for op_id, passed in outcomes.items():
            if not all(passed):
                raw[op_id] = scaled[op_id] = float(CPU_LIMIT_S[command_of[op_id]])
        undecided = total_verdicts = 0
        for r in untraced:
            if r["status"] in ("ok", "unchecked"):
                found_undecided, found_total = golden.verdict_counts(r["fields"])
                undecided += found_undecided
                total_verdicts += found_total
        metrics = {
            "setup_s": (statistics.median(cpu * REFERENCE_UNIT_S / unit
                                          for cpu, unit in zip(self.setup_cpus, self.setup_units)), "s",
                        f"median CPU of {len(self.setup_cpus)} worker starts to germnf.cli imported, "
                        f"each scaled by the reference around it; raw {statistics.median(self.setup_cpus):.4f} s"),
            "ops_per_s": (len(scaled) / sum(scaled.values()), "ops/s",
                          f"{len(scaled)} corpus ops over the sum of their scaled CPU seconds"),
        }
        lines = [f"  {'reference_unit_s':<22}{unit:>12.6f} s      CPU seconds per reference unit in the "
                 f"runs (set-up {statistics.mean(self.setup_units):.6f}); an op run is scaled by "
                 f"{REFERENCE_UNIT_S} / the one around it"]
        for index, command in enumerate(COMMANDS[self.workload], 1):
            ids = [op_id for op_id in scaled if command_of[op_id] == command]
            times = [scaled[op_id] for op_id in ids]
            metrics[f"cmd{index}_geomean_s"] = (
                _geomean(times), "s", f"geometric mean over {len(times)} {command} ops of their scaled CPU seconds"
            )
            lines.append(
                f"  {command.replace('-', '_') + '_s':<22}{statistics.median(times):>12.6f} s      "
                f"median of {len(times)} ops, max {max(times):.4f}; raw CPU median "
                f"{statistics.median(raw[op_id] for op_id in ids):.4f}, CPU limit {CPU_LIMIT_S[command]} s"
            )
        fail = sum(not all(v) for v in outcomes.values())
        metrics["ok_share"] = (statistics.mean(statistics.mean(v) for v in outcomes.values()), "ratio",
                               f"mean over {len(outcomes)} corpus ops of their share of op runs passed")
        metrics["peak_rss_mb"] = (self.peak_rss_kib / 1024, "MiB",
                                  "largest worker maximum RSS after an op that finished")
        lines.append(f"  {'fail_share':<22}{fail / len(outcomes):>12.6f} ratio  "
                     f"{fail} of {len(outcomes)} corpus ops failed in a run")
        share = f"{undecided / total_verdicts:>12.6f} ratio  {undecided} of {total_verdicts} verdict fields" \
            if total_verdicts else f"{'n/a':>12}        no verdict fields in this workload"
        lines.append(f"  {'undecided_share':<22}{share}")
        return metrics, lines

    def per_layer(self) -> dict:
        traced = [r for r in self.results if r["traced"] and r["trace"]]
        passes = sum(self.passes)
        sums = {name: [0, 0.0, 0.0] for name, _, _ in FUNCTIONS}
        gr_new = eigenvalues = 0
        for r in traced:
            for name, values in r["trace"]["functions"].items():
                for k in range(3):
                    sums[name][k] += values[k]
            gr_new += r["trace"]["gr_new"]
            eigenvalues += r["op"]["distinct_eigenvalues"]
        metrics = {}
        for name, (calls, total, self_s) in sums.items():
            metrics[f"{name}.calls"] = (calls / passes, "count")
            metrics[f"{name}.total_s"] = (total / passes, "s")
            metrics[f"{name}.self_s"] = (self_s / passes, "s")
        # A module's self time: its wrapped functions' self times, which
        # include the unwrapped code they call (see tracer.py).
        for module in MODULES:
            own = sum(v[2] for name, v in sums.items() if name.split(".")[0] == module)
            metrics[f"{module}.self_s"] = (own / passes, "s")
        metrics["exactnum.gr_new"] = (gr_new / passes, "count")
        metrics["exactnum.factor_int.per_mu"] = (
            sums["exactnum.factor_int"][0] / max(eigenvalues, 1), "count")
        metrics["resonance.relation_lattice.per_op"] = (
            sums["resonance.relation_lattice"][0] / max(len(traced), 1), "count")
        # CPU seconds of the ops that finished both traced and untraced.
        plain, traced_cpu = self.per_op(False), self.per_op(True)
        both = plain.keys() & traced_cpu.keys()
        metrics["trace.overhead"] = (
            sum(traced_cpu[i] for i in both) / sum(plain[i] for i in both), "ratio")
        return metrics

    def kind_shares(self) -> list[str]:
        """Per op kind and command: the wrapped functions holding at least a
        fifth of the time inside cli.run, with their shares of it."""
        groups: dict[str, list[dict]] = {}
        for r in self.results:
            if r["traced"] and r["trace"]:
                group = f"{r['op']['kind']}.{r['op']['command']}"
                groups.setdefault(group, []).append(r["trace"]["functions"])
        lines = []
        for group, traces in sorted(groups.items()):
            run_total = sum(t["cli.run"][1] for t in traces)
            totals = {name: sum(t[name][1] for t in traces) for name in traces[0] if name != "cli.run"}
            top = sorted(totals.items(), key=lambda kv: -kv[1])[:6]
            shares = ", ".join(f"{name} {total / run_total:.0%}" for name, total in top
                               if total >= 0.2 * run_total)
            lines.append(f"  {group:<34}{run_total / len(traces):>9.4f} s/op  {shares}")
        return lines

    def write_spans(self, seed: int) -> Path:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{self.workload}-seed{seed}.jsonl"
        names = [name for name, _, _ in FUNCTIONS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "function", "start_s", "end_s"],
                                 "functions": names}) + "\n")
            for r in self.results:
                if r["traced"]:
                    fh.write(json.dumps({"op": r["seq"], "id": r["op"]["id"], "status": r["status"]}) + "\n")
                    for span in (r["trace"] or {}).get("spans", []):
                        fh.write(json.dumps([r["seq"], *span]) + "\n")
        return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "germnf" / "cli.py").is_file():
        print(f"error: no germnf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        bench.setup()
        if args.trace:
            # Whole traced passes, so that per-layer figures are per pass.
            bench.run_pass(False)
            started = time.perf_counter()
            while True:
                bench.run_pass(True)
                elapsed = time.perf_counter() - started
                passes = sum(bench.passes)
                if elapsed + elapsed / passes > args.seconds:
                    break
        else:
            # One whole pass, then as many op runs as fit in --seconds.
            deadline = time.perf_counter() + args.seconds
            bench.run_pass(False)
            while time.perf_counter() < deadline and bench.run_pass(False, deadline):
                pass
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = bench.results
    counts = {s: sum(r["status"] == s for r in results)
              for s in ("ok", "unchecked", "differs", "raised", "over_limit")}
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(bench.passes)} op_runs={len(results)} python={platform.python_version()} "
          f"nproc={os.cpu_count()} germnf_src={_source_digest()} GERMNF_PRECISION_BITS=unset")
    e2e, lines = bench.end_to_end()
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<22}{value:>12.6f} {unit:<6} {note}")
    for line in lines:
        print(line)
    print("golden check: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    for r in results:
        if r["status"] not in ("ok", "unchecked"):
            print(f"  {r['status']}: {r['op']['id']}: {r['detail']}")
    if args.trace:
        metrics = bench.per_layer()
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52}{value:>16.6f} {unit}")
        print("total-time shares by op kind (traced passes):")
        for line in bench.kind_shares():
            print(line)
        print(f"spans: {bench.write_spans(args.seed).relative_to(ROOT)}")
    else:
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    attempted = {r["op"]["id"] for r in results}
    failed = {r["op"]["id"] for r in results if r["status"] in ("differs", "raised", "over_limit")}
    print(json.dumps({
        "correct": counts["differs"] + counts["raised"] == 0,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
