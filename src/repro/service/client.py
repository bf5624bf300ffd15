"""A thin stdlib (urllib) client for the trace-analytics daemon.

Used by the tests, the service benchmark, the CI smoke script and the
cookbook recipe — anywhere ``curl`` would be assumed otherwise.  Each call is
one HTTP request; non-2xx responses raise :class:`ServiceError` carrying the
daemon's JSON error body.
"""

from __future__ import annotations

import json
from typing import Dict, Optional
from urllib import error as urllib_error
from urllib import request as urllib_request

__all__ = ["ServiceClient", "ServiceError", "ServiceResponse"]


class ServiceError(Exception):
    """A non-2xx daemon response."""

    def __init__(self, status: int, body: Dict):
        super().__init__("HTTP %d: %s" % (status, body.get("error", body)))
        self.status = status
        self.body = body


class ServiceResponse:
    """Status + headers + body of one daemon response."""

    def __init__(self, status: int, headers: Dict[str, str], data: bytes):
        self.status = status
        self.headers = headers
        self.data = data

    @property
    def cache(self) -> Optional[str]:
        """The ``X-Repro-Cache`` disposition: ``hit``/``miss``/``coalesced``."""
        return self.headers.get("x-repro-cache")

    def json(self) -> Dict:
        return json.loads(self.data.decode("utf-8"))

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")


class ServiceClient:
    """Synchronous client bound to one daemon address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 120.0):
        self.base = "http://%s:%d" % (host, port)
        self.timeout = timeout

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> ServiceResponse:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = urllib_request.Request(self.base + path, data=payload,
                                     headers=headers, method=method)
        try:
            with urllib_request.urlopen(req, timeout=self.timeout) as response:
                data = response.read()
                response_headers = {key.lower(): value
                                    for key, value in response.headers.items()}
                return ServiceResponse(response.status, response_headers, data)
        except urllib_error.HTTPError as exc:
            data = exc.read()
            try:
                parsed = json.loads(data.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                parsed = {"error": data.decode("utf-8", "replace")}
            raise ServiceError(exc.code, parsed)

    def get(self, path: str) -> ServiceResponse:
        return self.request("GET", path)

    def post(self, path: str, body: Optional[Dict] = None) -> ServiceResponse:
        return self.request("POST", path, body or {})

    # -- convenience wrappers ---------------------------------------------
    def healthz(self) -> Dict:
        return self.get("/healthz").json()

    def stores(self) -> Dict:
        return self.get("/v1/stores").json()

    def characterize(self, name: str, **spec) -> ServiceResponse:
        return self.post("/v1/stores/%s/characterize" % name, spec)

    def query(self, name: str, **spec) -> ServiceResponse:
        return self.post("/v1/stores/%s/query" % name, spec)

    def replay(self, name: str, **scenario) -> ServiceResponse:
        return self.post("/v1/stores/%s/replay" % name, scenario)

    def append(self, name: str, jobs) -> Dict:
        records = [job.to_dict() if hasattr(job, "to_dict") else job
                   for job in jobs]
        return self.post("/v1/stores/%s/append" % name, {"jobs": records}).json()

    def notifications(self, clear: bool = False) -> Dict:
        return self.get("/v1/notifications%s" % ("?clear=1" if clear else "")).json()

    def metrics_text(self) -> str:
        return self.get("/metrics").text

    def metric(self, name: str) -> float:
        """Sum of one counter/gauge across label sets in ``/metrics``."""
        total = 0.0
        found = False
        for line in self.metrics_text().splitlines():
            if line.startswith("#"):
                continue
            head, _, value = line.rpartition(" ")
            if head == name or head.startswith(name + "{"):
                total += float(value)
                found = True
        if not found:
            raise KeyError("metric %r not exposed" % (name,))
        return total
