"""The daemon under test: ``python -m repro serve`` as a child process.

:class:`Daemon` starts the real command-line daemon with a private
``--cache-dir``, captures its stderr to a file (so raw tracebacks are
counted, not lost) and waits until ``/healthz`` answers.  It reads the
process' peak resident set (``VmHWM``) on request, and :meth:`Daemon.close`
drains the daemon with SIGTERM and waits for it to exit.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Optional, Tuple

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")
_TRACEBACK = b"Traceback (most recent call last)"

#: Seconds a daemon may take to announce itself and answer ``/healthz``.
START_TIMEOUT = 60.0
#: Seconds a drained daemon may take to exit before it is killed.
STOP_TIMEOUT = 30.0


class Daemon:
    """One ``repro serve`` subprocess with its own cache directory."""

    def __init__(self, src: Path, workdir: Path, *, workers: int) -> None:
        self.src = src
        self.workdir = workdir
        self.workers = workers
        self.cache_dir = workdir / "cache"
        self.stderr_path = workdir / "daemon.stderr"
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        #: Seconds from spawn until ``/healthz`` answered 200.
        self.start_s = 0.0
        self.tracebacks = 0

    def start(self) -> "Daemon":
        self.workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(self.src))
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--workers", str(self.workers),
            "--cache-dir", str(self.cache_dir),
        ]
        began = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr, env=env,
                start_new_session=True,
            )
        try:
            self.port = self._await_port(began)
            self._await_healthy(began)
        except BaseException:
            self.close()
            raise
        self.start_s = time.perf_counter() - began
        return self

    def _await_port(self, began: float) -> int:
        while time.perf_counter() - began < START_TIMEOUT:
            match = _LISTENING.search(self.stderr_path.read_bytes())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            time.sleep(0.005)
        raise RuntimeError("daemon did not announce its port in time")

    def _await_healthy(self, began: float) -> None:
        while time.perf_counter() - began < START_TIMEOUT:
            conn = HTTPConnection(self.host, self.port, timeout=5.0)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("daemon did not become healthy in time")

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set so far (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match is None:
            raise RuntimeError("no VmHWM in the daemon's /proc status")
        return int(match.group(1)) / 1024.0

    def close(self) -> None:
        """Drain with SIGTERM and wait; kill it if it hangs, and kill any
        pool worker it left behind in its process group."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.stderr_path.exists():
            self.tracebacks = self.stderr_path.read_bytes().count(_TRACEBACK)
        self.proc = None
