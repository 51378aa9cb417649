"""The synthesis service: a stdlib-only asyncio HTTP API over the fleet.

Submit a suite program plus a config, get a job id, poll or long-poll
progress, fetch the result::

    POST /jobs {"program": "sumi", "tenant": "alice",
                "config": {"m": 10, "max_iterations": 25, "seed": 1}}
        -> 202 {"id": "job-000001", "state": "queued", ...}
        -> 400 on a malformed submission (unknown program/config keys)
        -> 429 when the tenant is over quota ("budget_exhausted") or at
           its concurrency cap ("queue_full")
    GET  /jobs                  all job summaries
    GET  /jobs/<id>             one summary (404 unknown)
    GET  /jobs/<id>/result      full record (409 until terminal)
    GET  /jobs/<id>/events?since=N&wait=S
                                live pins.* span events streamed from
                                the worker; long-polls up to S seconds
                                when nothing new is available
    GET  /healthz /stats /tenants
    POST /admin/compact         force shared-store compaction

The server is deliberately boring HTTP/1.1 — ``asyncio.start_server``
plus hand-rolled request parsing, JSON bodies, one request per
connection — because the container bakes in only the standard library.
Everything interesting lives below it: the :class:`JobQueue` dispatcher,
the :class:`ServeFleet` of warm workers, and the :class:`TenantLedger`
(see :mod:`repro.serve.queue` / :mod:`repro.serve.tenants`).

Budget defaulting: a submission with no ``config.budget`` gets the
program's profile budget (:func:`repro.suite.resolved_budget`), the same
default ``scripts/run_bench.py`` applies — an unbudgeted lzw job must
not wedge a worker for an hour.  Admission then clamps that against the
tenant's remaining allowance.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..resil import Budget, resolve_budget
from ..resil.faults import FaultPlan, parse_fault_spec
from .jobs import BadRequest, Job, JobRequest, JobStore
from .queue import JobQueue, ServeFleet
from .tenants import AdmissionError, TenantLedger, TenantQuota

_MAX_BODY = 1 << 20
_MAX_WAIT_S = 30.0


@dataclass
class ServeConfig:
    """Service configuration (CLI flags map 1:1 onto these fields)."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 picks a free port; the bound port is ``ServeApp.port``."""
    workers: int = 2
    cache_dir: Optional[str] = None
    """Directory of the fleet-shared on-disk query-cache store (one
    ``<slug>.jsonl`` per program, per-pid worker shards, single-writer
    compaction).  ``None`` disables cross-job disk caching."""
    tenants: Dict[str, Any] = field(default_factory=dict)
    """Per-tenant quota specs (``repro.resil`` budget grammar, e.g.
    ``{"alice": "smt=5000;wall=600"}``) or :class:`TenantQuota` values."""
    default_quota: Optional[TenantQuota] = None
    """Quota for tenants not listed in ``tenants`` (default unbounded)."""
    faults: Optional[str] = None
    """Serve-level fault spec (``serve.worker_crash@0`` etc.), consulted
    parent-side at dispatch time.  Unlike run-level faults this is never
    read from the environment — chaos against the service itself is an
    explicit operator decision."""
    job_timeout: Optional[float] = None
    """Seconds a dispatched job may run before its worker is declared
    wedged, terminated, and respawned (the job is requeued)."""
    compact_every: int = 8
    max_attempts: int = 3
    poll_s: float = 0.02


class ServeApp:
    """The running service: HTTP front end + dispatcher + fleet."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.store = JobStore()
        self.ledger = TenantLedger(
            quotas={name: TenantQuota.from_spec(spec)
                    for name, spec in self.config.tenants.items()},
            default_quota=self.config.default_quota)
        plan: Optional[FaultPlan] = None
        if self.config.faults:
            plan = parse_fault_spec(self.config.faults)
        self.fleet = ServeFleet(
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
            fault_plan=plan,
            job_timeout=self.config.job_timeout)
        self.queue = JobQueue(
            self.store, self.fleet, self.ledger,
            max_attempts=self.config.max_attempts,
            compact_every=self.config.compact_every,
            poll_s=self.config.poll_s)
        self.port: Optional[int] = None
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._pump = asyncio.get_running_loop().create_task(self.queue.run())

    async def stop(self) -> None:
        self.queue.stop()
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
            self._pump = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.fleet.close()

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - the server must not die
            status, payload = 500, {"error": "internal",
                                    "detail": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  409: "Conflict", 429: "Too Many Requests",
                  500: "Internal Server Error"}.get(status, "OK")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader
                              ) -> Tuple[int, Any]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return 400, {"error": "bad_request", "detail": "empty request"}
        parts = request_line.split()
        if len(parts) != 3:
            return 400, {"error": "bad_request",
                         "detail": f"malformed request line {request_line!r}"}
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            if length > _MAX_BODY:
                return 400, {"error": "bad_request", "detail": "body too large"}
            body = await reader.readexactly(length)
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return await self._route(method, split.path, query, body)

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: bytes) -> Tuple[int, Any]:
        if path == "/healthz" and method == "GET":
            return 200, {"ok": True, "workers": self.fleet.stats()["ready"]}
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path == "/tenants" and method == "GET":
            return 200, self.ledger.snapshot()
        if path == "/jobs" and method == "POST":
            return self._submit(body)
        if path == "/jobs" and method == "GET":
            return 200, {"jobs": [j.summary() for j in self.store.all()]}
        if path == "/admin/compact" and method == "POST":
            return 200, {"compacted": self.queue.force_compact()}
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            job = self.store.get(job_id)
            if job is None:
                return 404, {"error": "not_found",
                             "detail": f"unknown job {job_id!r}"}
            if tail == "" and method == "GET":
                return 200, job.summary()
            if tail == "result" and method == "GET":
                return self._result(job)
            if tail == "events" and method == "GET":
                return await self._events(job, query)
        return 405, {"error": "method_not_allowed",
                     "detail": f"{method} {path}"}

    def _stats(self) -> Dict[str, Any]:
        out = self.queue.stats()
        out["jobs"] = self.store.counts()
        if self.started_at is not None:
            out["uptime_s"] = round(time.time() - self.started_at, 3)
        return out

    # -- handlers -----------------------------------------------------------

    def _submit(self, body: bytes) -> Tuple[int, Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "bad_request", "detail": "body is not JSON"}
        try:
            request = JobRequest.from_payload(payload)
            requested = self._requested_budget(request)
        except BadRequest as exc:
            return 400, {"error": "bad_request", "detail": str(exc)}
        try:
            effective = self.ledger.admit(request.tenant, requested)
        except AdmissionError as exc:
            return 429, {"error": exc.reason, "detail": exc.detail,
                         "tenant": request.tenant}
        job = self.store.create(request, effective)
        self.queue.submit(job)
        return 202, {"id": job.id, "state": job.state, "budget": job.budget}

    def _requested_budget(self, request: JobRequest) -> Optional[Budget]:
        """The pre-admission budget: the job's own spec, else the
        program's profile default (mirroring ``run_bench``)."""
        from ..suite import resolved_budget

        spec = request.config.get("budget")
        if spec is None:
            spec = resolved_budget(request.program)
        try:
            return resolve_budget(spec)
        except ValueError as exc:
            raise BadRequest(f"bad budget spec: {exc}")

    @staticmethod
    def _result(job: Job) -> Tuple[int, Any]:
        if not job.terminal:
            return 409, {"error": "not_finished", "id": job.id,
                         "state": job.state}
        out = job.summary()
        out["result"] = job.result
        return 200, out

    async def _events(self, job: Job,
                      query: Dict[str, str]) -> Tuple[int, Any]:
        try:
            since = max(0, int(query.get("since", "0")))
            wait_s = min(float(query.get("wait", "0")), _MAX_WAIT_S)
        except ValueError:
            return 400, {"error": "bad_request",
                         "detail": "since/wait must be numeric"}
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait_s
        while (len(job.events) <= since and not job.terminal
               and loop.time() < deadline):
            async with self.queue.changed:
                try:
                    await asyncio.wait_for(
                        self.queue.changed.wait(),
                        timeout=max(0.0, deadline - loop.time()))
                except asyncio.TimeoutError:
                    break
        events = job.events[since:]
        return 200, {"id": job.id, "state": job.state, "since": since,
                     "next": since + len(events), "events": events}
