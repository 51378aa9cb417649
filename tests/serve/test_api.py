"""API surface of the synthesis service: validation, lifecycle, events.

Covers the HTTP contract end to end — submission validation (400),
unknown jobs (404), result-before-terminal (409), the live event
stream, and the stats/tenants introspection endpoints — plus the pure
pieces (request validation, round-robin fairness) without a server.
"""

import pytest

from repro.serve import (BadRequest, JobRequest, JobStore, ServeConfig,
                         ServeError, ServerThread)
from repro.serve.queue import JobQueue

from .conftest import requires_fork

pytestmark = requires_fork


# -- pure units (no server) -------------------------------------------------


def test_request_validation_rejects_garbage():
    with pytest.raises(BadRequest):
        JobRequest.from_payload(None)
    with pytest.raises(BadRequest):
        JobRequest.from_payload({"config": {}})  # no program
    with pytest.raises(BadRequest):
        JobRequest.from_payload({"program": "not_a_benchmark"})
    with pytest.raises(BadRequest):
        JobRequest.from_payload({"program": "sumi", "tenant": ""})
    with pytest.raises(BadRequest):
        JobRequest.from_payload({"program": "sumi",
                                 "config": {"query_cache": "/tmp/x"}})
    with pytest.raises(BadRequest):
        JobRequest.from_payload({"program": "sumi",
                                 "config": {"regions": False}})


def test_request_validation_accepts_known_config_keys():
    request = JobRequest.from_payload(
        {"program": "sumi", "tenant": "alice",
         "config": {"m": 10, "seed": 1, "warm_contexts": False}})
    assert request.program == "sumi"
    assert request.tenant == "alice"
    assert request.to_wire("smt=5")["budget"] == "smt=5"


def test_round_robin_interleaves_tenants():
    """A tenant flooding the queue cannot starve another: dequeues
    alternate across tenants regardless of arrival order."""
    store = JobStore()
    queue = JobQueue(store, fleet=None, ledger=None)  # type: ignore[arg-type]
    for _ in range(3):
        queue.submit(store.create(JobRequest("sumi", tenant="flood"), None))
    queue.submit(store.create(JobRequest("sumi", tenant="quiet"), None))
    order = [queue._next_job().request.tenant for _ in range(4)]
    assert order[:2] in (["flood", "quiet"], ["quiet", "flood"])
    assert "quiet" in order[:2]


# -- live server ------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(workers=1)) as client:
        yield client


def test_health_and_stats(server):
    assert server.health()["ok"] is True
    stats = server.stats()
    assert stats["fleet"]["workers"] == 1
    assert "jobs" in stats and "queued" in stats


def test_submit_unknown_program_is_400(server):
    with pytest.raises(ServeError) as exc:
        server.submit("no_such_program")
    assert exc.value.status == 400
    assert exc.value.payload["error"] == "bad_request"


def test_submit_bad_config_key_is_400(server):
    with pytest.raises(ServeError) as exc:
        server.submit("sumi", config={"trace": "/tmp/t.jsonl"})
    assert exc.value.status == 400


def test_unknown_job_is_404(server):
    with pytest.raises(ServeError) as exc:
        server.status("job-999999")
    assert exc.value.status == 404


def test_job_lifecycle_events_and_result(server):
    job = server.submit("sumi", config={"m": 10, "max_iterations": 25,
                                        "seed": 1})
    assert job["state"] == "queued"
    # The profile default budget is applied when the config has none.
    assert "smt=" in job["budget"]

    # Result before terminal is a 409 (the job just entered the queue;
    # the window only closes if the run finishes within one roundtrip).
    try:
        server.result(job["id"])
    except ServeError as exc:
        assert exc.status == 409
        assert exc.payload["error"] == "not_finished"

    final = server.wait_for(job["id"], timeout=120)
    assert final["state"] == "done"
    record = final["result"]
    assert record["status"] == "stabilized"
    assert record["solutions"] >= 1
    assert len(record["inverses"]) == record["solutions"]
    assert record["inverse_digest"]

    # The event stream carries the service lifecycle marks and the
    # worker's live pins.* spans, with long-poll cursor semantics.
    events = server.events(job["id"])
    names = [e["name"] for e in events["events"]]
    assert "serve.queued" in names
    assert "serve.dispatched" in names
    assert any(n.startswith("pins.") for n in names)
    assert events["next"] == len(events["events"])
    tail = server.events(job["id"], since=events["next"], wait=0.1)
    assert tail["events"] == []
    assert tail["state"] == "done"


def test_jobs_listing_and_compact(server):
    listing = server.jobs()["jobs"]
    assert any(j["program"] == "sumi" for j in listing)
    # No cache_dir configured: compaction is a no-op, not an error.
    assert server.compact() == {"compacted": 0}


def test_compact_store_finds_shard_only_slugs(tmp_path):
    # A fresh store holds only per-pid worker shards — the base
    # <slug>.jsonl is first created *by* compaction, so discovery must
    # not depend on it already existing.
    from repro.perf.cache import QueryCache
    from repro.serve import compact_store

    cache = QueryCache(str(tmp_path / "sumi.jsonl"))
    cache.store("k1", "unsat", None, [])
    cache.close()
    assert not (tmp_path / "sumi.jsonl").exists()
    assert list(tmp_path.glob("sumi.jsonl.shard-*"))

    assert compact_store(str(tmp_path)) == 1
    assert (tmp_path / "sumi.jsonl").exists()
    assert not list(tmp_path.glob("sumi.jsonl.shard-*"))
    assert "k1" in (tmp_path / "sumi.jsonl").read_text()
