"""What every workload shares: the run context, child processes, results."""

from __future__ import annotations

import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"


def child_env(with_program: bool) -> dict:
    """Environment for a child process: the program's ``src`` on the path
    only for processes that run the program."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)] if with_program else [str(ROOT)]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """*pid* and its descendants still alive, read from ``/proc``."""
    tree, pending = [], [pid]
    while pending:
        current = pending.pop()
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited meanwhile
        tree.append(current)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set size (``VmHWM``) of *pid*'s process tree."""
    kib = 0
    for current in process_tree(pid):
        try:
            with open(f"/proc/{current}/status") as handle:
                kib += next((int(line.split()[1]) for line in handle
                             if line.startswith("VmHWM:")), 0)
        except (FileNotFoundError, ProcessLookupError):
            continue
    return kib / 1024.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def stop_process(process: subprocess.Popen, grace: float = 20.0) -> None:
    """SIGTERM the process (a server drains on it), then SIGKILL its whole
    session if it lingers, and wait until the process has ended."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)  # stray workers, if any
    except (ProcessLookupError, PermissionError):
        pass
    process.wait(timeout=grace)
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


class RunContext:
    """One run of one workload: arguments, scratch space, set-up clock."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 started: float) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.seconds = int(seconds)
        self.trace = bool(trace)
        #: perf_counter() at the top of run.py: cold set-up is timed from here.
        self.started = started
        self.own_seconds = 0.0
        self.work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.tracer = Tracer() if trace else None
        self._processes: list[subprocess.Popen] = []

    @contextmanager
    def own(self):
        """The benchmark's own work before the measured phase (input
        generation, reference answers): excluded from ``setup_s``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.own_seconds += time.perf_counter() - t0

    def setup_seconds(self) -> float:
        """The program's time since the process started."""
        return time.perf_counter() - self.started - self.own_seconds

    @contextmanager
    def span(self, name: str):
        """A span around one call into the program (traced runs only)."""
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name) as row:
                yield row

    def prepare(self) -> Path:
        """Generate inputs and reference answers in a child process, so
        neither their time nor their memory counts as the program's."""
        with self.own():
            subprocess.run(
                [sys.executable, "-m", "perfbench.prepare", "--workload", self.workload,
                 "--seed", str(self.seed), "--out", str(self.work)],
                cwd=ROOT, env=child_env(with_program=False), check=True, timeout=170,
            )
        return self.work

    def spawn(self, argv: list[str], log_name: str, with_program: bool) -> subprocess.Popen:
        with open(self.work / log_name, "wb") as log:
            process = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(with_program), stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        self._processes.append(process)
        return process

    def stop(self, process: subprocess.Popen) -> None:
        stop_process(process)
        if process in self._processes:
            self._processes.remove(process)

    def log_tail(self, log_name: str, lines: int = 20) -> str:
        path = self.work / log_name
        if not path.exists():
            return ""
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])

    def write_trace(self, extra: "dict | None" = None) -> "Path | None":
        if self.tracer is None:
            return None
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{self.workload}-seed{self.seed}.json"
        self.tracer.dump(path, {"layer_self_s": self.tracer.layer_self_times(), **(extra or {})})
        return path

    def close(self) -> None:
        for process in list(self._processes):
            self.stop(process)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
