"""Start, probe and stop a ``repro serve`` process for one benchmark run.

The server is its own process, started as ``python -m repro.cli serve
--engine packed`` on a checkpoint in a registry directory the benchmark
created inside the checkout, bound to an ephemeral port.  :meth:`stop`
sends SIGTERM and reaps the process (SIGKILL after a grace period); the
caller runs it on every exit path.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Any, Dict, Optional

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_URL_LINE = re.compile(r" on (http://[0-9.]+:\d+) \[engine=(\w+), backend=(\w+)")


class ServerProcess:
    def __init__(self, root: str, store: str, spec: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        env["REPRO_STORE"] = store
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.url: Optional[str] = None
        self.backend: Optional[str] = None
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--load", spec, "--store", store,
                "--port", "0", "--engine", "packed",
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self) -> None:
        """Block until the bound URL is printed and ``/healthz`` is green."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while self.url is None:
            self._check_alive()
            with open(self.log_path, "r", errors="replace") as handle:
                match = _URL_LINE.search(handle.read())
            if match:
                self.url, self.backend = match.group(1), match.group(3)
            elif time.monotonic() > deadline:
                raise RuntimeError("server printed no URL in time")
            else:
                time.sleep(0.005)
        while True:
            self._check_alive()
            try:
                if self.get("/healthz").get("status") == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server /healthz never went green")
            time.sleep(0.005)

    def get(self, path: str) -> Dict[str, Any]:
        with urllib.request.urlopen(self.url + path, timeout=10) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        return vm_hwm_mb(self.process.pid)

    def _check_alive(self) -> None:
        if self.process.poll() is not None:
            with open(self.log_path, "r", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise RuntimeError(
                f"server exited with code {self.process.returncode}:\n{tail}"
            )

    def stop(self) -> None:
        """SIGTERM, wait, SIGKILL if needed; always reaps the process."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


def vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")
