"""Minimal stdlib HTTP client, server processes and outside-in collectors.

Everything the benchmark needs to talk to ``repro serve`` from outside:
a keep-alive JSON connection, booting and stopping server processes, a
strict parser for the ``/metrics`` exposition, and the ``/proc`` reading
for peak RSS.  Nothing here imports the program under test.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class RequestFailed(Exception):
    """A request that got no usable answer (non-2xx, timeout, dropped)."""


class Connection:
    """One persistent HTTP/1.1 connection to a local server."""

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT_S) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: object = None) -> Tuple[int, object]:
        """Send one request; returns ``(status, JSON document or text)``.

        A transport failure closes the connection (the next request opens
        a fresh one) and raises :class:`RequestFailed`.
        """
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {exc!r}") from exc
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def ok(self, method: str, path: str, body: object = None) -> object:
        """Like :meth:`request` but a non-2xx status raises :class:`RequestFailed`."""
        status, document = self.request(method, path, body)
        if not 200 <= status < 300:
            raise RequestFailed(f"{method} {path}: HTTP {status}: {document}")
        return document

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def request_once(port: int, method: str, path: str, body: object = None) -> object:
    """One request on a fresh connection; a non-2xx status raises."""
    conn = Connection(port)
    try:
        return conn.ok(method, path, body)
    finally:
        conn.close()


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process (optionally through the traced launcher)."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        name: str,
        serve_args: Sequence[str],
        spans_path: Optional[Path] = None,
    ) -> None:
        self.name = name
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # a fixed hash seed fixes set and dict iteration order in the server,
        # so one stream seed replays the same work and the same op counts
        env["PYTHONHASHSEED"] = "0"
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            launcher = Path(__file__).resolve().parent / "launch.py"
            command = [sys.executable, str(launcher), "--spans", str(spans_path)]
        command += ["serve", "--port", str(self.port), *serve_args]
        self.log_path = workdir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=str(root), env=env, stdout=self._log, stderr=subprocess.STDOUT
        )

    @property
    def url(self) -> str:
        return f"127.0.0.1:{self.port}"

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        probe = Connection(self.port, timeout=2.0)
        try:
            while time.monotonic() < deadline:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"{self.name} exited with {self.process.returncode}; "
                        f"see {self.log_path}"
                    )
                try:
                    status, _ = probe.request("GET", "/v1/healthz")
                    if status == 200:
                        return
                except RequestFailed:
                    pass
                time.sleep(0.02)
        finally:
            probe.close()
        raise RuntimeError(f"{self.name} not healthy after {BOOT_TIMEOUT_S}s")

    def vm_hwm_kb(self) -> int:
        """Peak resident set size of the process so far (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError(f"no VmHWM for pid {self.process.pid}")
        return int(match.group(1))

    def stop(self) -> int:
        """SIGINT (clean shutdown, final checkpoint, span dump), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


# ----------------------------------------------------------------------
# /metrics
# ----------------------------------------------------------------------
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')

Sample = Tuple[str, Dict[str, str], float]


def parse_metrics(text: str) -> List[Sample]:
    """Strict parse of a Prometheus text exposition; any odd line raises."""
    samples: List[Sample] = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"/metrics line {number} unparsable: {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels: Dict[str, str] = {}
        if raw_labels:
            consumed = 0
            for label in _LABEL.finditer(raw_labels):
                if label.start() != consumed:
                    raise ValueError(f"/metrics line {number} bad labels: {line!r}")
                labels[label.group(1)] = label.group(2)
                consumed = label.end()
            if consumed != len(raw_labels):
                raise ValueError(f"/metrics line {number} bad labels: {line!r}")
        samples.append((name, labels, float(raw_value)))
    return samples


class MetricsScrape:
    """One parsed ``/metrics`` document, filtered to one tenant."""

    def __init__(self, text: str, tenant: str) -> None:
        self.samples = [
            sample for sample in parse_metrics(text) if sample[1].get("tenant") == tenant
        ]

    def total(self, name: str, **match: str) -> float:
        """Sum of every sample of ``name`` whose labels include ``match``."""
        return sum(
            value
            for sample_name, labels, value in self.samples
            if sample_name == name and all(labels.get(k) == v for k, v in match.items())
        )

    def buckets(self, name: str, **match: str) -> Dict[float, float]:
        """Cumulative histogram buckets of ``name`` summed over matching series."""
        out: Dict[float, float] = {}
        for sample_name, labels, value in self.samples:
            if sample_name != name + "_bucket":
                continue
            if not all(labels.get(k) == v for k, v in match.items()):
                continue
            bound = float(labels["le"])
            out[bound] = out.get(bound, 0.0) + value
        return out


def histogram_delta_quantile(
    before: Dict[float, float], after: Dict[float, float], q: float
) -> float:
    """Quantile of the samples observed between two cumulative bucket scrapes.

    Linear interpolation inside the winning bucket, as Prometheus does; the
    resolution is the bucket width (factor 2).
    """
    bounds = sorted(after)
    counts = [after[b] - before.get(b, 0.0) for b in bounds]
    total = counts[-1] if counts else 0.0
    if total <= 0:
        return 0.0
    rank = q * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, count in zip(bounds, counts):
        if count >= rank:
            if bound == float("inf"):
                return previous_bound
            span = count - previous_count
            fraction = (rank - previous_count) / span if span > 0 else 1.0
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound


def wal_bytes_per_record(data_dir: Path) -> Tuple[float, int]:
    """``(bytes per record, records)`` over the WAL segments left on disk.

    Active and retained segments (``*.log`` under ``data_dir``) are read
    whole; header lines (``#``) are paid for but not counted as records.
    """
    size = 0
    records = 0
    for path in data_dir.rglob("*.log"):
        raw = path.read_bytes()
        size += len(raw)
        records += sum(
            1 for line in raw.splitlines() if line.strip() and not line.startswith(b"#")
        )
    return (size / records if records else 0.0), records
