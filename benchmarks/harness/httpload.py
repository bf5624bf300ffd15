"""HTTP client side of the ``serve`` workload: the daemon subprocess, one
request with its phases timed, and the open-loop load generator.

The daemon answers ``Connection: close``, so a "connection" here is one
request in flight; the generator keeps at most ``CONNECTIONS`` (= ``nproc`` on
the reference box) in flight from one process.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

CONNECTIONS = 2
REQUEST_LIMIT_S = 10.0


class Daemon:
    """``python -m repro serve --catalog DIR --port 0 --ready-file F`` (all
    other flags default), started and stopped by the harness."""

    def __init__(self, catalog_dir: str, work_dir: str, src_dir: str):
        self.ready_file = os.path.join(work_dir, "ready.json")
        self.log_path = os.path.join(work_dir, "daemon.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        # One malloc arena: with glibc's per-thread arenas the daemon's VmHWM
        # depends on which worker thread ran which scan (83-100 MB over ten
        # identical runs; 76-80 MB with one arena).
        env["MALLOC_ARENA_MAX"] = "1"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--catalog", catalog_dir,
             "--port", "0", "--ready-file", self.ready_file],
            env=env, stdout=self._log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while not os.path.exists(self.ready_file):
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited with code %s (see %s)"
                                   % (self.process.returncode, self.log_path))
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon not ready after %.0f s" % timeout_s)
            time.sleep(0.005)
        with open(self.ready_file, "r", encoding="utf-8") as handle:
            self.port = int(json.load(handle)["port"])

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class Response:
    __slots__ = ("status", "cache", "data", "elapsed_s")

    def __init__(self, status, cache, data, elapsed_s):
        self.status, self.cache, self.data, self.elapsed_s = status, cache, data, elapsed_s

    def json(self):
        return json.loads(self.data.decode("utf-8"))


def request(recorder, port: int, method: str, path: str, body=None) -> Response:
    """One request; connect / send-until-first-byte / read are child spans."""
    payload = None
    headers = {}
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    start = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_LIMIT_S)
    try:
        with recorder.span("service.connect", "connect"):
            connection.connect()
        with recorder.span("service.request", "send+first-byte"):
            connection.request(method, path, body=payload, headers=headers)
            reply = connection.getresponse()
        with recorder.span("service.read", "read"):
            data = reply.read()
    finally:
        connection.close()
    return Response(reply.status, reply.getheader("X-Repro-Cache"), data,
                    time.perf_counter() - start)


class Sent:
    """One open-loop request: what was asked, when, and what came back."""

    __slots__ = ("kind", "expect", "due_s", "sent_s", "done_s", "response", "error")

    def __init__(self, kind, expect, due_s):
        self.kind, self.expect, self.due_s = kind, expect, due_s
        self.sent_s = self.done_s = None
        self.response = None
        self.error = None

    @property
    def latency_s(self) -> float:
        """From the time the request was *due*, so a stall counts against
        every request that had to wait behind it."""
        return self.done_s - self.due_s

    @property
    def late_s(self) -> float:
        return self.sent_s - self.due_s


def open_loop(recorder, port: int, schedule):
    """Send ``schedule`` — ``(due offset s, kind, method, path, body, expect)``
    in due order — on ``CONNECTIONS`` threads, each taking the next request,
    sleeping until it is due, and sending it whether or not the previous ones
    came back.  Returns the ``Sent`` records and the wall."""
    sent = [Sent(kind, expect, due) for due, kind, _m, _p, _b, expect in schedule]
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.01

    def connection_loop():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due, kind, method, path, body, _expect = schedule[index]
            record = sent[index]
            wait = origin + due - time.perf_counter()
            if wait > 0:
                with recorder.span("harness.idle", "until-due"):
                    time.sleep(wait)
            frame = (recorder.push("harness", kind, {"op": "open-%d" % index})
                     if recorder.enabled else None)
            record.sent_s = time.perf_counter() - origin
            try:
                record.response = request(recorder, port, method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                record.error = "%s: %s" % (type(exc).__name__, exc)
            finally:
                record.done_s = time.perf_counter() - origin
                if frame is not None:
                    recorder.pop(frame)

    threads = [threading.Thread(target=connection_loop, name="connection-%d" % index)
               for index in range(CONNECTIONS)]
    with recorder.span("harness.idle", "join-connections"):
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sent, time.perf_counter() - origin
