"""End-to-end daemon tests: HTTP endpoints, shared-scan admission, caching,
append invalidation, and drift notifications — through a real socket."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.engine import append_store
from repro.service import ServiceClient, ServiceError, ServiceThread


def _wait_for(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestBasicEndpoints:
    def test_healthz_and_store_listing(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["stores"] == ["cc", "fb"]
        stores = client.stores()["stores"]
        assert [store["catalog_name"] for store in stores] == ["cc", "fb"]
        assert all(store["store_uid"] for store in stores)

    def test_store_info_endpoint(self, client):
        info = client.store_info("fb")
        assert info["catalog_name"] == "fb"
        assert info["manifest_sequence"] == 0
        assert info["n_jobs"] > 0

    def test_unknown_store_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.store_info("nope")
        assert excinfo.value.status == 404
        assert excinfo.value.body["type"] == "unknown_store"

    def test_unknown_route_is_404_and_bad_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.get("/v1/bogus")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.post("/v1/stores/fb/query", {"where": ["input_bytes !!! 3"]})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.post("/v1/stores/fb/characterize", {"bogus_field": 1})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("spec", [
        {"agg": ["count:job_id"]}, {"agg": ["sum:workload"]},
        {"group_by": "workload", "agg": ["max:job_id"]}])
    def test_numeric_aggregate_over_string_column_is_400(self, client, spec):
        with pytest.raises(ServiceError) as excinfo:
            client.query("fb", **spec)
        assert excinfo.value.status == 400
        assert excinfo.value.body["type"] == "AnalysisError"
        assert repr(spec["agg"][0].split(":")[1]) in excinfo.value.body["error"]

    def test_group_by_body_keys_are_serialized_in_string_order(self, client):
        """Numeric keys read out in numeric order now; the canonical JSON body
        sorts keys as strings regardless, so cached bodies did not move."""
        body = client.query("fb", group_by="submit_hour", agg=["count"]).text
        groups = dict(json.loads(body, object_pairs_hook=list))["groups"]
        keys = [key for key, _value in groups]
        assert len(keys) > 11 and keys == sorted(keys)
        assert keys != sorted(keys, key=float)

    def test_malformed_content_length_is_400(self, service):
        import socket

        def raw_request(headers):
            with socket.create_connection(("127.0.0.1", service.port),
                                          timeout=10) as sock:
                sock.sendall(("GET /healthz HTTP/1.1\r\n%s\r\n\r\n"
                              % headers).encode("latin-1"))
                response = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            return response.split(b" ", 2)[1]

        assert raw_request("Content-Length: banana") == b"400"
        assert raw_request("Content-Length: -5") == b"400"

    def test_append_with_non_dict_job_record_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.post("/v1/stores/fb/append", {"jobs": [["not", "a", "dict"]]})
        assert excinfo.value.status == 400
        assert "jobs[0]" in excinfo.value.body["error"]
        assert "must be a JSON object" in excinfo.value.body["error"]

    @pytest.mark.parametrize("field, bad", [
        ("map_tasks", "x"), ("map_tasks", [1]), ("reduce_tasks", 2.5),
        ("input_bytes", -1), ("duration_s", "soon"), ("job_id", "")])
    def test_append_with_a_bad_record_is_400_schema_error(self, client, field, bad,
                                                          cc_service_trace):
        """A client error, not a 500 — and nothing was appended."""
        before = client.store_info("fb")["n_jobs"]
        records = [job.to_dict() for job in cc_service_trace.jobs[:3]]
        records[2][field] = bad
        with pytest.raises(ServiceError) as excinfo:
            client.post("/v1/stores/fb/append", {"jobs": records})
        assert excinfo.value.status == 400
        assert excinfo.value.body["type"] == "SchemaError"
        assert excinfo.value.body["error"].startswith("jobs[2]: ")
        assert client.store_info("fb")["n_jobs"] == before

    def test_broken_member_is_listed_in_place_not_a_500(self, client, catalog_dir):
        """One unopenable member must not take the whole listing down."""
        manifest_path = os.path.join(catalog_dir, "cc", "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 9
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        response = client.get("/v1/stores")
        assert response.status == 200
        broken, healthy = response.json()["stores"]
        assert sorted(broken) == ["catalog_name", "error", "type"]
        assert broken["catalog_name"] == "cc"
        assert broken["type"] == "TraceFormatError"
        assert "unsupported format version 9" in broken["error"]
        assert healthy["catalog_name"] == "fb" and healthy["n_jobs"] > 0
        assert client.healthz()["stores"] == ["cc", "fb"]
        # The broken member itself keeps refusing with a 400 ...
        with pytest.raises(ServiceError) as excinfo:
            client.store_info("cc")
        assert excinfo.value.status == 400
        assert excinfo.value.body["type"] == "TraceFormatError"
        # ... and the healthy one keeps serving.
        assert client.query("fb", agg=["count"]).json()["aggregates"]["count"] \
            == healthy["n_jobs"]

    def test_metrics_endpoint_is_prometheus_text(self, client):
        client.healthz()
        text = client.metrics_text()
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_service_uptime_seconds" in text
        assert "repro_cache_entries" in text


class TestCachedEndpoints:
    def test_characterize_hit_is_bit_identical(self, client):
        cold = client.characterize("fb", experiments=["table1", "figure1"])
        assert cold.cache == "miss"
        body = cold.json()
        assert body["manifest_sequence"] == 0
        assert [r["experiment_id"] for r in body["results"]] == \
            ["table1", "figure1"]
        warm = client.characterize("fb", experiments=["figure1", "table1"])
        assert warm.cache == "hit"
        assert warm.data == cold.data  # byte-for-byte, not merely equal JSON

    def test_query_endpoint_caches_and_reports_stats(self, client):
        spec = {"where": ["input_bytes > 1e9"], "agg": ["count", "sum:input_bytes"]}
        cold = client.query("fb", **spec)
        assert cold.cache == "miss"
        body = cold.json()
        assert body["aggregates"]["count"] >= 0
        assert body["stats"]["rows_scanned"] > 0
        warm = client.query("fb", **spec)
        assert warm.cache == "hit"
        assert warm.data == cold.data

    def test_query_group_by_and_rows_shapes(self, client):
        groups = client.query("fb", group_by="workload").json()["groups"]
        assert sum(value["count"] for value in groups.values()) == \
            client.store_info("fb")["n_jobs"]
        rows = client.query("fb", top_k="input_bytes:3").json()["rows"]
        assert len(rows) == 3
        assert rows[0]["input_bytes"] >= rows[1]["input_bytes"]

    def test_replay_endpoint_caches(self, client):
        cold = client.replay("cc", scheduler="fifo", cache="none", nodes=20)
        assert cold.cache == "miss"
        summary = cold.json()["summary"]
        assert summary["jobs"] > 0
        warm = client.replay("cc", scheduler="fifo", cache="none", nodes=20)
        assert warm.cache == "hit"
        assert warm.data == cold.data

    def test_caches_are_per_store(self, client):
        assert client.query("fb", agg=["count"]).cache == "miss"
        assert client.query("cc", agg=["count"]).cache == "miss"
        assert client.query("fb", agg=["count"]).cache == "hit"
        assert client.query("cc", agg=["count"]).cache == "hit"


class TestAppendInvalidation:
    def test_append_endpoint_invalidates_only_that_store(self, client,
                                                         cc_service_trace):
        assert client.characterize("fb", experiments=["figure1"]).cache == "miss"
        assert client.characterize("cc", experiments=["figure1"]).cache == "miss"
        appended = client.append("fb", cc_service_trace.jobs[:50])
        assert appended["appended"] == 50
        assert appended["manifest_sequence"] == 1
        fresh = client.characterize("fb", experiments=["figure1"])
        assert fresh.cache == "miss"  # fb entries dropped by the append
        assert fresh.json()["manifest_sequence"] == 1
        assert client.characterize("cc", experiments=["figure1"]).cache == "hit"

    def test_external_ingest_is_observed_lazily(self, service, client,
                                                cc_service_trace):
        assert client.query("fb", agg=["count"]).cache == "miss"
        assert client.query("fb", agg=["count"]).cache == "hit"
        # Simulate `repro engine ingest` run outside the daemon: the store
        # directory changes on disk with no endpoint involved.
        directory = os.path.join(service.service.catalog.directory, "fb")
        append_store(directory, cc_service_trace.jobs[:25])
        fresh = client.query("fb", agg=["count"])
        assert fresh.cache == "miss"
        assert fresh.json()["manifest_sequence"] == 1
        assert client.metric("repro_appends_observed_total") == 1
        assert client.metric("repro_cache_invalidations_total") >= 1

    def test_drift_subscription_fires_on_threshold(self, client,
                                                   cc_service_trace):
        subscription = client.subscribe_drift("fb", threshold=0.5)["subscription"]
        assert subscription["store"] == "fb"
        assert set(subscription["baseline_features"])  # non-empty vector
        listing = client.get("/v1/stores/fb/drift").json()["subscriptions"]
        assert [sub["subscription_id"] for sub in listing] == \
            [subscription["subscription_id"]]
        # A slug of CC-b jobs shifts the FB-2010 feature vector well past 0.5.
        client.append("fb", cc_service_trace.jobs[:200])
        assert _wait_for(lambda: client.notifications()["notifications"])
        notes = client.notifications(clear=True)["notifications"]
        assert notes[0]["store"] == "fb"
        assert notes[0]["distance"] >= 0.5
        assert notes[0]["subscription_id"] == subscription["subscription_id"]
        assert client.notifications()["notifications"] == []  # drained

    def test_bad_drift_threshold_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.subscribe_drift("fb", threshold=-1)
        assert excinfo.value.status == 400


class TestCatalogCompare:
    def test_get_compares_whole_catalog_and_caches(self, client):
        first = client.catalog_compare()
        assert first.status == 200
        assert first.cache == "miss"
        payload = first.json()
        assert sorted(m["name"] for m in payload["members"]) == ["cc", "fb"]
        assert {v["name"] for v in payload["members_versions"]} == {"cc", "fb"}
        assert len(payload["distances"]) == 1
        assert 0.0 <= payload["distances"][0]["distance"]
        second = client.catalog_compare()
        assert second.cache == "hit"
        assert second.data == first.data  # bit-identical replay

    def test_post_spec_members_pairs_and_suite(self, client):
        response = client.catalog_compare(members=["fb", "cc"],
                                          pairs=["cc,fb"], suite_size=1)
        assert response.status == 200
        payload = response.json()
        (pair,) = payload["pairs"]
        assert (pair["a"], pair["b"]) == ("cc", "fb")
        assert set(pair["deltas"])  # directional per-feature deltas
        assert len(payload["suite"]["selected"]) == 1
        assert set(payload["suite"]["assignment"]) == {"cc", "fb"}
        # Member order is normalized: the permuted spec replays from cache.
        assert client.catalog_compare(members=["cc", "fb"], pairs=["cc,fb"],
                                      suite_size=1).cache == "hit"

    def test_append_to_any_member_invalidates_compare(self, client,
                                                      cc_service_trace):
        before = client.catalog_compare()
        assert client.catalog_compare().cache == "hit"
        client.append("fb", cc_service_trace.jobs[:50])
        fresh = client.catalog_compare()
        assert fresh.cache == "miss"  # member versions are in the fingerprint
        versions = {v["name"]: v["manifest_sequence"]
                    for v in fresh.json()["members_versions"]}
        assert versions["fb"] == 1
        fb_jobs = {m["name"]: m["n_jobs"] for m in fresh.json()["members"]}
        old_jobs = {m["name"]: m["n_jobs"] for m in before.json()["members"]}
        assert fb_jobs["fb"] == old_jobs["fb"] + 50

    def test_bad_specs_and_methods(self, client):
        for body, fragment in [
                ({"members": ["fb"]}, "at least two member stores"),
                ({"members": ["fb", "fb"]}, "repeat a name"),
                ({"pairs": ["fb"]}, "pairs must be"),
                ({"suite_size": 0}, "suite"),
                ({"bogus": 1}, "unknown"),
        ]:
            with pytest.raises(ServiceError) as excinfo:
                client.post("/v1/catalog/compare", body)
            assert excinfo.value.status == 400, body
            assert fragment in excinfo.value.body["error"]
        with pytest.raises(ServiceError) as excinfo:
            client.catalog_compare(members=["fb", "nope"])
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.request("DELETE", "/v1/catalog/compare")
        assert excinfo.value.status == 405

    def test_compare_rides_shared_scan_admission(self, client):
        client.catalog_compare(suite_size=2)
        started = client.metric("repro_scans_started_total")
        # One profiling scan per member, not per (member, request).
        assert started == 2
        # A cached replay starts no further scans.
        assert client.catalog_compare(suite_size=2).cache == "hit"
        assert client.metric("repro_scans_started_total") == started


class TestRollingCheckpoints:
    """The one rolling-checkpoint policy, seen through the daemon's two scan
    lanes: a checkpoint of a *rewritten* store no longer validates, so the
    scan runs cold instead of failing and the checkpoint is replaced."""

    @pytest.mark.parametrize("lane", ["characterize", "profile"])
    def test_checkpoint_of_a_rewritten_store_is_replaced(self, client, catalog_dir,
                                                         cc_service_trace, lane):
        from repro.engine import ChunkedTraceStore

        def scanned():
            """What the lane's scan computed for ``fb`` (and, beside it, ``cc``)."""
            if lane == "characterize":
                responses = [client.characterize(name, experiments=["figure1"])
                             for name in ("fb", "cc")]
                return responses[0], [response.json()["results"][0]["rows"][0][1:]
                                      for response in responses]
            response = client.catalog_compare()
            jobs = {m["name"]: m["n_jobs"] for m in response.json()["members"]}
            return response, [jobs["fb"], jobs["cc"]]

        _response, (fb_before, cc_before) = scanned()
        assert fb_before != cc_before
        checkpoints = os.path.join(catalog_dir, ".service", "checkpoints")
        (file_name,) = [name for name in os.listdir(checkpoints)
                        if name.startswith("fb-") and name.endswith(".checkpoint.json")]
        assert ("profile" in file_name) == (lane == "profile")
        path = os.path.join(checkpoints, file_name)
        with open(path, "r", encoding="utf-8") as handle:
            old_uid = json.load(handle)["store_uid"]

        rewritten = ChunkedTraceStore.write(os.path.join(catalog_dir, "fb"),
                                            cc_service_trace, chunk_rows=512)
        assert rewritten.store_uid != old_uid
        again, (fb_after, cc_after) = scanned()
        assert again.status == 200 and again.cache == "miss"
        # ``cc`` holds the same trace: the cold scan of the new ``fb`` agrees.
        assert fb_after == cc_after == cc_before
        # ``fb`` never resumed: both of its scans ran cold.
        assert 'repro_scans_resumed_total{store="fb"}' not in client.metrics_text()
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["store_uid"] == rewritten.store_uid


class TestSharedScanAdmission:
    @pytest.fixture()
    def windowed_service(self, catalog_dir):
        # A generous batch window so concurrent requests reliably land in the
        # same admission batch.
        with open(os.devnull, "w") as sink:
            with ServiceThread(catalog_dir, batch_window_s=0.5,
                               log_stream=sink) as thread:
                yield thread

    def _fire_concurrently(self, port, specs):
        client = ServiceClient(port=port)
        results = [None] * len(specs)

        def run(index, spec):
            results[index] = client.characterize("fb", **spec)

        threads = [threading.Thread(target=run, args=(i, spec))
                   for i, spec in enumerate(specs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return client, results

    def test_identical_concurrent_requests_share_one_scan(self, windowed_service):
        client, results = self._fire_concurrently(
            windowed_service.port,
            [{"experiments": ["figure1"]}, {"experiments": ["figure1"]}])
        assert client.metric("repro_scans_started_total") == 1
        states = sorted(response.cache for response in results)
        assert states == ["coalesced", "miss"]
        assert results[0].data == results[1].data

    def test_different_experiments_batch_onto_one_scan(self, windowed_service):
        client, results = self._fire_concurrently(
            windowed_service.port,
            [{"experiments": ["figure1"]}, {"experiments": ["figure2"]},
             {"experiments": ["figure1", "figure2"]}])
        # Three distinct fingerprints -> three cache misses, but the admission
        # layer merged them into ONE decode of the store.
        assert client.metric("repro_scans_started_total") == 1
        ids = [[r["experiment_id"] for r in response.json()["results"]]
               for response in results]
        assert ids == [["figure1"], ["figure2"], ["figure1", "figure2"]]

    def test_requests_admitted_before_append_use_old_manifest(
            self, windowed_service, cc_service_trace):
        client = ServiceClient(port=windowed_service.port)
        n_before = client.store_info("fb")["n_jobs"]
        holder = {}

        def characterize():
            holder["response"] = client.characterize(
                "fb", experiments=["figure1"])

        worker = threading.Thread(target=characterize)
        worker.start()
        time.sleep(0.15)  # inside the 0.5 s batch window: scan not started yet
        client.append("fb", cc_service_trace.jobs[:50])
        worker.join()
        body = holder["response"].json()
        # The request was admitted at sequence 0 and completes against it,
        # even though the append committed before the scan ran.
        assert body["manifest_sequence"] == 0
        assert body["n_jobs"] == n_before
        fresh = client.characterize("fb", experiments=["figure1"])
        assert fresh.json()["manifest_sequence"] == 1
        assert fresh.json()["n_jobs"] == n_before + 50


class TestStructuredLogs:
    def test_each_request_emits_one_json_line(self, catalog_dir, tmp_path):
        log_path = tmp_path / "requests.log"
        with open(log_path, "w") as sink:
            with ServiceThread(catalog_dir, batch_window_s=0.02,
                               log_stream=sink) as thread:
                client = ServiceClient(port=thread.port)
                client.healthz()
                client.query("fb", agg=["count"])
        records = [json.loads(line) for line in
                   log_path.read_text().splitlines()]
        requests = [r for r in records if r["event"] == "request"]
        assert len(requests) == 2
        assert requests[0]["path"] == "/healthz"
        assert requests[0]["status"] == 200
        assert requests[1]["cache"] == "miss"
        assert requests[1]["duration_ms"] >= 0


class TestPlannerIntegration:
    def test_query_stats_carry_plan_and_scan_metric(self, client):
        body = client.query("fb", agg=["count"],
                            where=["input_bytes > 1e9"]).json()
        plan = body["stats"]["plan"]
        assert plan is not None
        assert plan["access_path"] in ("scan", "zone-scan")
        assert plan["used_index"] is False
        assert "repro_full_scans_total" in client.metrics_text()

    def test_indexed_store_probes_and_counts_metric(self, catalog_dir, client):
        from repro.engine import ChunkedTraceStore, build_indexes

        build_indexes(
            ChunkedTraceStore(os.path.join(catalog_dir, "fb"))).save()
        body = client.query("fb", agg=["count"],
                            where=["input_bytes > 1e9"]).json()
        plan = body["stats"]["plan"]
        assert plan["used_index"] is True
        assert plan["access_path"] == "index-count"
        assert body["stats"]["chunks_scanned"] == 0
        assert "repro_index_probes_total" in client.metrics_text()

    def test_store_info_exposes_indexes(self, catalog_dir, client):
        from repro.engine import ChunkedTraceStore, build_indexes

        assert client.store_info("fb")["indexes"] is None
        build_indexes(
            ChunkedTraceStore(os.path.join(catalog_dir, "fb"))).save()
        info = client.store_info("fb")
        assert info["indexes"]["fresh"] is True
        assert info["indexes"]["on_disk_bytes"] > 0

    def test_block_cache_serves_what_the_result_cache_misses(self, catalog_dir,
                                                             fb_service_trace):
        """Same key, another ``limit``: two result-cache misses, but the second
        finds the decoded blocks the first one admitted."""
        from repro.engine import ChunkedTraceStore, build_indexes

        store = ChunkedTraceStore.write(os.path.join(catalog_dir, "fb3"), fb_service_trace,
                                        chunk_rows=128)
        build_indexes(store).save()
        where = ["input_bytes == %r" % fb_service_trace.jobs[7].input_bytes]
        with open(os.devnull, "w") as sink, \
                ServiceThread(catalog_dir, log_stream=sink) as thread:
            client = ServiceClient(port=thread.port)
            first = client.query("fb3", where=where, limit=5)
            hits = client.metric("repro_block_cache_hits_total")
            second = client.query("fb3", where=where, limit=6)
            assert (first.cache, second.cache) == ("miss", "miss")
            assert first.json()["stats"]["plan"]["access_path"] == "index-probe"
            assert first.json()["rows"] == second.json()["rows"] != []
            assert client.metric("repro_block_cache_hits_total") > hits
            assert 0 < client.metric("repro_block_cache_bytes") <= 64 * 1024 * 1024
            assert client.metric("repro_block_cache_entries") >= len(store.columns)
            for name in ("repro_block_cache_misses_total", "repro_block_cache_evictions_total"):
                assert client.metric(name) >= 0
            # the result cache's own names still mean the result cache
            assert client.metric("repro_cache_entries") == 2
