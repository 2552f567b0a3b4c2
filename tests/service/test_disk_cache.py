"""The persistent disk tier: survival, integrity, eviction, soundness.

The headline guarantee under test: a disk entry — stale, truncated,
bit-flipped or outright replaced — can cost a cache miss but can never
cost soundness, because the load path checks parse/schema/key/checksum
and the serving path still runs the independent checker gate.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.api import AnalysisConfig, AnalysisRequest, AnalysisResult, analyze
from repro.service import ResultCache
from repro.service.faults import FaultInjector, FaultPlan

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
PAIR = "var x, y; assume(y >= 1); while (x > 0) { x = x - y; }"


def _request(program=COUNTDOWN, **kwargs) -> AnalysisRequest:
    return AnalysisRequest(program=program, **kwargs)


def _computed(request):
    return analyze(request.program, config=request.config, name=request.name)


def _populated(tmp_path, program=COUNTDOWN, **cache_kwargs):
    cache = ResultCache(cache_dir=str(tmp_path), **cache_kwargs)
    request = _request(program)
    cache.store(request, _computed(request))
    return cache, request


class TestPersistence:
    def test_store_writes_one_file_per_key(self, tmp_path):
        cache, request = _populated(tmp_path)
        path = tmp_path / (request.cache_key() + ".json")
        assert path.exists()
        wrapper = json.loads(path.read_text())
        assert wrapper["key"] == request.cache_key()
        assert wrapper["schema"] == 1
        assert cache.stats().disk_stores == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        _populated(tmp_path)
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_fresh_instance_serves_a_revalidated_hit(self, tmp_path):
        _, request = _populated(tmp_path)
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert len(reborn) == 0  # lazy: nothing resident until looked up
        hit = reborn.lookup(request)
        assert hit is not None and hit.proved
        assert hit.provenance.cache == "hit"
        assert hit.provenance.revalidated is True
        stats = reborn.stats()
        assert stats.disk_hits == 1
        assert stats.revalidation_failures == 0
        # Promoted into memory: the next hit never touches the disk.
        reborn.lookup(request)
        assert reborn.stats().disk_hits == 1

    def test_disk_tier_off_by_default(self, tmp_path):
        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        assert cache.stats().disk_stores == 0
        assert cache.disk_keys() == []


class TestIntegrity:
    def test_truncated_entry_is_dropped_and_counted(self, tmp_path):
        cache, request = _populated(tmp_path)
        assert cache.corrupt_disk_entry(request.cache_key(), truncate=True)
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(request) is None
        stats = reborn.stats()
        assert stats.disk_drops == 1
        assert stats.disk_entries == 0  # the damaged file was deleted

    def test_bitflipped_entry_is_dropped_and_counted(self, tmp_path):
        cache, request = _populated(tmp_path)
        assert cache.corrupt_disk_entry(request.cache_key())
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(request) is None
        assert reborn.stats().disk_drops == 1

    def test_checksum_catches_a_tampered_payload(self, tmp_path):
        _, request = _populated(tmp_path)
        path = tmp_path / (request.cache_key() + ".json")
        wrapper = json.loads(path.read_text())
        wrapper["result"]["status"] = "nonterminating"  # forged verdict
        path.write_text(json.dumps(wrapper, sort_keys=True))
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(request) is None
        assert reborn.stats().disk_drops == 1

    def test_entry_under_the_wrong_key_is_refused(self, tmp_path):
        _, request = _populated(tmp_path)
        source = tmp_path / (request.cache_key() + ".json")
        other = _request(PAIR)
        target = tmp_path / (other.cache_key() + ".json")
        target.write_bytes(source.read_bytes())  # cross-wired entry
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(other) is None
        assert reborn.stats().disk_drops == 1

    def test_revalidation_failure_also_discards_the_disk_file(self, tmp_path):
        _, request = _populated(tmp_path)
        path = tmp_path / (request.cache_key() + ".json")
        wrapper = json.loads(path.read_text())
        # A well-formed, correctly checksummed entry whose certificate is
        # for the wrong program: only the checker gate can catch this.
        ranking = wrapper["result"]["ranking"]
        for component in ranking["components"]:
            for vector in component["coefficients"].values():
                vector[:] = ["-1"] * len(vector)  # x decreases ⇒ -x grows
        payload = json.dumps(wrapper["result"], sort_keys=True)
        import hashlib

        wrapper["sha256"] = hashlib.sha256(
            payload.encode("utf-8")
        ).hexdigest()
        path.write_text(json.dumps(wrapper, sort_keys=True))
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(request) is None
        stats = reborn.stats()
        assert stats.revalidation_failures == 1
        assert not path.exists()

    def test_fault_injector_corruption_is_caught_end_to_end(self, tmp_path):
        injector = FaultInjector(FaultPlan(seed=0, corrupt_cache=1.0))
        cache = ResultCache(
            cache_dir=str(tmp_path), fault_injector=injector
        )
        request = _request()
        cache.store(request, _computed(request))
        assert injector.log.corrupt_cache == 1
        reborn = ResultCache(cache_dir=str(tmp_path))
        assert reborn.lookup(request) is None
        assert reborn.stats().disk_drops == 1


class TestDiskEviction:
    def test_byte_bound_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path), max_disk_bytes=1)
        first = _request(COUNTDOWN)
        second = _request(PAIR)
        cache.store(first, _computed(first))
        cache.store(second, _computed(second))
        # The bound admits only the newest entry.
        assert cache.disk_keys() == [second.cache_key()]
        stats = cache.stats()
        assert stats.disk_evictions >= 1
        assert stats.disk_entries == 1

    def test_gauges_track_the_directory(self, tmp_path):
        cache, request = _populated(tmp_path)
        stats = cache.stats()
        assert stats.disk_entries == 1
        assert stats.disk_bytes == os.path.getsize(
            tmp_path / (request.cache_key() + ".json")
        )


#: A wire ``analyze`` request and its response, written before the
#: ``kernel`` and ``lp_mode`` config fields and the kernel and
#: ``pivots_saved`` statistics were removed.
KERNEL_ERA = json.loads(
    (Path(__file__).parent / "data" / "kernel_era_analyze.json").read_text()
)


class TestKernelEraPayloads:
    def test_wire_payload_still_round_trips(self):
        request = AnalysisRequest.from_dict(KERNEL_ERA["params"])
        assert request.config == AnalysisConfig()
        result = AnalysisResult.from_dict(KERNEL_ERA["result"])
        assert result.proved and result.certificate_checked
        assert result.lp_statistics.pivots == 2
        assert result.provenance.key == KERNEL_ERA["result"]["provenance"]["key"]
        assert AnalysisResult.from_json(result.to_json()) == result

    def test_payload_without_metrics_loads_empty(self):
        # The payload predates AnalysisResult.metrics (and still carries
        # the removed redundancy_lp_saved counter).
        assert "metrics" not in KERNEL_ERA["result"]
        assert "redundancy_lp_saved" in KERNEL_ERA["result"]["lp"]
        result = AnalysisResult.from_dict(KERNEL_ERA["result"])
        assert result.metrics == {}
        assert "redundancy_lp_saved" not in result.to_dict()["lp"]

    def test_disk_entry_under_the_old_key_simply_misses(self, tmp_path):
        # ``kernel`` and ``lp_mode`` left the config JSON, so the content
        # address moved.
        old_key = KERNEL_ERA["result"]["provenance"]["key"]
        document = KERNEL_ERA["result"]
        payload = json.dumps(document, sort_keys=True).encode("utf-8")
        wrapper = {
            "schema": 1,
            "key": old_key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "result": document,
        }
        (tmp_path / (old_key + ".json")).write_text(json.dumps(wrapper))
        request = AnalysisRequest.from_dict(KERNEL_ERA["params"])
        assert request.cache_key() != old_key
        cache = ResultCache(cache_dir=str(tmp_path))
        assert cache.lookup(request) is None
        assert cache.stats().disk_drops == 0
