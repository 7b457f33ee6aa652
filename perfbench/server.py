"""Launch, watch and stop one ``repro serve`` process tree."""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence

from workloads import FIT_ITERATIONS, FIT_SEED

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: How long a boot (including the default artifact fit) may take.
BOOT_TIMEOUT_S = 90.0


def program_env(root: str, cache_dir: str) -> dict:
    """Environment of every program process: the checkout's sources, a
    cache root inside the work directory, no user presets or faults."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_MACHINES_DIR", None)
    env.pop("REPRO_RUNTIME_FAULT", None)
    return env


class Server:
    """``repro serve --port 0`` (or its traced twin) in a child process."""

    def __init__(self, root: str, workdir: str, serve_args: Sequence[str],
                 trace_dir: Optional[str] = None) -> None:
        self.root = root
        self.trace_dir = trace_dir
        os.makedirs(workdir, exist_ok=True)
        args: List[str] = [
            "serve", "--port", "0",
            "--iterations", str(FIT_ITERATIONS), "--seed", str(FIT_SEED),
            "--artifact-dir", os.path.join(workdir, "artifacts"),
            *serve_args,
        ]
        if trace_dir is None:
            self.argv = [sys.executable, "-m", "repro", *args]
        else:
            os.makedirs(trace_dir, exist_ok=True)
            self.argv = [
                sys.executable,
                os.path.join(root, "perfbench", "serve_traced.py"),
                trace_dir, "--", *args[1:],
            ]
        self.env = program_env(root, os.path.join(workdir, "cache"))
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []

    def _pump(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def start(self) -> None:
        """Launch and wait until the server listens."""
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                continue
            if line is None:
                break
            self.log.append(line)
            match = _LISTENING.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                self._await_ready(deadline)
                return
        self.stop()
        raise RuntimeError(
            "server did not start:\n" + "".join(self.log[-20:])
        )

    def _await_ready(self, deadline: float) -> None:
        """Wait for the first answer to ``GET /healthz``.

        The server prints its listening line before it installs its
        SIGTERM handler, so a stop right after that line can kill it
        undrained.  It answers only once its event loop runs again, by
        which time the handler is in place.
        """
        from client import Connection

        conn = Connection(self.host, self.port, timeout_s=BOOT_TIMEOUT_S)
        try:
            while True:
                try:
                    conn.request("GET", "/healthz")
                    return
                except OSError:
                    conn.close()
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.02)
        finally:
            conn.close()

    def pids(self) -> List[int]:
        """The server and every descendant process."""
        if self.proc is None:
            return []
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            try:
                for tid in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
            except OSError:
                continue
        return out

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the process tree [MiB]."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGTERM (the server drains), then wait; SIGKILL the tree if
        it does not exit in time.  Returns the exit code."""
        if self.proc is None:
            return 0
        family = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                for pid in [self.proc.pid, *family]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.wait(timeout=10)
        # The front end joins its workers before it exits; make sure.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_alive, family)):
            time.sleep(0.05)
        for pid in filter(_alive, family):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return self.proc.returncode


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().split(") ", 1)[1][:1] not in ("Z", "X")
    except OSError:
        return False
