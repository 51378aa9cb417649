"""Job records for the synthesis service.

A *job* is one ``run_pins`` invocation requested over the HTTP API:
submit a suite program (the benchmark bundles the program **and** its
inverse template) plus a config, get a job id back, poll or stream
progress, fetch the result.  The record shapes here are the service's
wire contract:

* :class:`JobRequest` — the validated submission payload;
* :class:`Job` — the server-side lifecycle record (state machine
  ``queued -> running -> done|failed``, with a re-dispatch back to
  ``queued`` when a worker dies mid-job);
* :func:`job_record` — the result payload a worker ships back, a
  superset of ``scripts/run_bench.py``'s per-benchmark bench record so
  service results and CLI bench records compare field-for-field
  (SyGuS-Comp-style standardized job records).

Determinism contract: the record's ``inverse_digest`` is
:meth:`repro.pins.algorithm.PinsResult.inverse_digest` — a job run
through the service is bit-identical to the same program run one-shot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..suite import BENCHMARK_MODULES

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TERMINAL = frozenset({DONE, FAILED})

DEFAULT_TENANT = "default"

_CONFIG_KEYS = frozenset({
    "m", "max_iterations", "seed", "jobs", "workers", "budget", "faults",
    "incremental", "absint", "fwdbwd", "static_pruning",
    "warm_contexts",
})
"""Job-config keys a submission may set.  A whitelist, not a
passthrough: the service owns query-cache placement (the fleet-shared
store) and tracing, so those PinsConfig knobs are not accepted."""


class BadRequest(ValueError):
    """A submission payload the service refuses (HTTP 400)."""


@dataclass
class JobRequest:
    """A validated submission: program name + per-job config + tenant."""

    program: str
    tenant: str = DEFAULT_TENANT
    config: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        if not isinstance(payload, dict):
            raise BadRequest("submission body must be a JSON object")
        program = payload.get("program")
        if not isinstance(program, str) or not program:
            raise BadRequest("missing 'program' (a suite benchmark name)")
        if program not in BENCHMARK_MODULES:
            raise BadRequest(
                f"unknown program {program!r}; registered programs: "
                + ", ".join(BENCHMARK_MODULES))
        tenant = payload.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise BadRequest("'tenant' must be a non-empty string")
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise BadRequest("'config' must be a JSON object")
        unknown = sorted(set(config) - _CONFIG_KEYS)
        if unknown:
            raise BadRequest(
                f"unsupported config keys {unknown}; allowed: "
                + ", ".join(sorted(_CONFIG_KEYS)))
        return cls(program=program, tenant=tenant, config=dict(config))

    def to_wire(self, budget: Optional[str]) -> Dict[str, Any]:
        """The dict shipped to a serve worker (admission-clamped budget)."""
        return {"program": self.program, "tenant": self.tenant,
                "config": dict(self.config), "budget": budget}


@dataclass
class Job:
    """Server-side lifecycle record for one submitted job."""

    id: str
    request: JobRequest
    state: str = QUEUED
    budget: Optional[str] = None
    """The admission-clamped effective budget spec (tenant quota applied
    on top of the requested/profile budget)."""
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker: Optional[int] = None
    attempts: int = 0
    """Dispatch count: > 1 means a worker died/hung mid-job and the job
    was re-dispatched (deterministic reruns make this result-invisible)."""
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    """Live-progress events streamed from the worker's ``repro.obs``
    spans (``pins.iteration`` and friends) plus service lifecycle marks."""

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def add_event(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def mark(self, name: str, **extra: Any) -> None:
        """Append a service-side lifecycle event (same shape as obs ones)."""
        event = {"ts": round(time.time() - self.submitted_at, 6),
                 "kind": "mark", "name": name, "span": "", "value": None}
        event.update(extra)
        self.events.append(event)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id,
            "program": self.request.program,
            "tenant": self.request.tenant,
            "state": self.state,
            "budget": self.budget,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": len(self.events),
        }
        if self.latency_s is not None:
            out["latency_s"] = round(self.latency_s, 4)
        if self.result is not None:
            out["status"] = self.result.get("status")
            out["solutions"] = self.result.get("solutions")
            out["inverse_digest"] = self.result.get("inverse_digest")
        if self.error is not None:
            out["error"] = self.error
        return out


class JobStore:
    """In-memory job registry with monotonic ids.

    Single-writer: only the service's event loop mutates jobs, so no
    locking is needed; HTTP handlers and the dispatcher run as tasks on
    the same loop.
    """

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._seq = 0

    def create(self, request: JobRequest, budget: Optional[str]) -> Job:
        self._seq += 1
        job = Job(id=f"job-{self._seq:06d}", request=request, budget=budget)
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def all(self) -> List[Job]:
        return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self._jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out


def job_record(result, elapsed: float, budget: Optional[str]) -> Dict[str, Any]:
    """The result payload for a finished run (bench-record superset).

    Field-compatible with ``scripts/run_bench.py``'s per-benchmark
    record (wall/status/iterations/paths/queries/cache/solutions/digest)
    plus the service extras: the pretty-printed inverses themselves and
    the run's ``resil.*`` / degradation counters, so a client — or the
    chaos tests — can see exactly which resilience paths fired without
    reaching into the worker process.
    """
    from ..lang.pretty import pretty_program

    stats = result.stats
    hits = stats.smt_cache_hits
    misses = stats.smt_cache_misses
    record: Dict[str, Any] = {
        "wall_time_s": round(elapsed, 4),
        "status": result.status,
        "iterations": stats.iterations,
        "paths": stats.paths_explored,
        "smt_queries": result.metrics.counter("smt.queries"),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "solutions": stats.num_solutions,
        "inverse_digest": result.inverse_digest(),
        "inverses": sorted(pretty_program(p)
                           for p in result.inverse_programs()),
    }
    if budget is not None:
        record["budget"] = budget
    if stats.budget_exhausted:
        record["budget_exhausted"] = stats.budget_exhausted
    counters = {name: value
                for name, value in sorted(result.metrics.counters.items())
                if name.startswith("resil.")}
    if counters:
        record["counters"] = counters
    return record
