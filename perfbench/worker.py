"""Benchmark worker: runs germnf CLI ops for the runner (run.py), one at a time.

    python3 perfbench/worker.py <checkout root> <trace 0|1>

It speaks one JSON object per line on its standard streams.  Once
`germnf.cli` is imported from `<checkout root>/src` it prints
{"ready": true, "cpu_s": CPU seconds used so far}.  Each request
{"op": k, "argv": [...], "cpu_s": s} is run through `germnf.cli.run` and
answered with {"op": k, "exit": code, "wall_s": seconds, "cpu_s": CPU
seconds, "rss_kib": maximum RSS so far, "report": text, "stderr": tail,
"error": traceback or null}, plus the op's trace when tracing.  The worker
limits itself: its address space is capped at MEMORY_MIB for its whole
life, and before each op its CPU-time soft limit is set to the op's budget,
past which the kernel ends the process (SIGXCPU).  Only this process's own limits are touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# Address-space cap of every worker, for benchmark runs and for recording
# goldens alike.  An op that needs more fails with MemoryError.
MEMORY_MIB = 1024


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    root = Path(sys.argv[1]).resolve()
    trace = sys.argv[2] == "1"
    cap = MEMORY_MIB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    cpu_hard = resource.getrlimit(resource.RLIMIT_CPU)[1]

    # The protocol owns the real stdout; anything else printed goes to stderr.
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    src = root / "src"
    sys.path.insert(0, str(src))
    import germnf.cli

    if Path(germnf.__file__).resolve().parent != src / "germnf":
        print(f"germnf was imported from {germnf.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    channel.write(json.dumps({"ready": True, "cpu_s": _cpu_seconds()}) + "\n")
    channel.flush()

    for line in sys.stdin:
        request = json.loads(line)
        resource.setrlimit(
            resource.RLIMIT_CPU, (math.ceil(_cpu_seconds()) + request["cpu_s"], cpu_hard)
        )
        out, err = io.StringIO(), io.StringIO()
        code, error, fatal = None, None, False
        cpu_started = _cpu_seconds()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = germnf.cli.run(request["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except MemoryError:
            error, fatal = "MemoryError", True
        except Exception:  # an op that raises is a failed op, not a failed run
            error = traceback.format_exc(limit=4)
        wall = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu_started
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_hard, cpu_hard))
        reply = {
            "op": request["op"],
            "exit": code,
            "wall_s": wall,
            "cpu_s": cpu,
            "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "report": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "error": error,
        }
        if tracer:
            reply["trace"] = tracer.take()
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
        if fatal:
            return 3
    return 0


# ---------------------------------------------------------------------------
# runner side
# ---------------------------------------------------------------------------

HERE = Path(__file__).resolve().parent


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """The runner's environment without the knobs that change germnf's
    results or where it is imported from, and with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("GERMNF_PRECISION_BITS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """Runner-side handle on one worker process."""

    def __init__(self, root: Path, trace: bool):
        import subprocess

        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(root), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(), cwd=root,
        )
        self.pending = b""
        line = self._read_line(started + 120)
        ready = json.loads(line) if line else {}
        if not ready.get("ready"):
            self.kill()
            raise WorkerError("worker did not start; is germnf present under src/?")
        self.setup_cpu_s = ready["cpu_s"]

    def _read_line(self, deadline: float):
        """One protocol line, or None on end of stream or at the deadline."""
        import select

        fd = self.proc.stdout.fileno()
        while b"\n" not in self.pending:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self.pending += chunk
        line, self.pending = self.pending.split(b"\n", 1)
        return line

    def run(self, op: int, argv: list[str], cpu_s: int):
        """The worker's reply, or None when the op ended the worker or ran
        far past its CPU budget in wall time; the worker is then gone."""
        try:
            self.proc.stdin.write((json.dumps({"op": op, "argv": argv, "cpu_s": cpu_s}) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.kill()
            return None
        line = self._read_line(time.perf_counter() + 2 * cpu_s + 10)
        if line is None:
            self.kill()
            return None
        return json.loads(line)

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.stdin.close()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass


if __name__ == "__main__":
    sys.exit(main())
