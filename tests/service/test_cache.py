"""The content-addressed cache: hits, revalidation, eviction, soundness."""

import sys
import threading

import pytest

from repro.api import AnalysisConfig, AnalysisRequest, analyze
from repro.api.result import AnalysisResult, AnalysisStatus
from repro.service import ResultCache

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
PAIR = "var x, y; assume(y >= 1); while (x > 0) { x = x - y; }"
STRAIGHT = "var x; x = 1;"


def _request(program=COUNTDOWN, **kwargs) -> AnalysisRequest:
    return AnalysisRequest(program=program, **kwargs)


def _computed(request: AnalysisRequest) -> AnalysisResult:
    return analyze(request.program, config=request.config, name=request.name)


class TestMissStoreHit:
    def test_empty_cache_misses(self):
        cache = ResultCache()
        assert cache.lookup(_request()) is None
        assert cache.stats().misses == 1

    def test_store_then_hit_with_provenance(self):
        cache = ResultCache()
        request = _request(name="countdown")
        assert cache.store(request, _computed(request))
        hit = cache.lookup(request)
        assert hit is not None and hit.proved
        assert hit.provenance.cache == "hit"
        assert hit.provenance.key == request.cache_key()
        assert hit.provenance.revalidated is True
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.revalidations) == (1, 0, 1)
        assert stats.revalidation_failures == 0

    def test_hits_are_fresh_deserialisations(self):
        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        first = cache.lookup(request)
        first.message = "mutated by one caller"
        second = cache.lookup(request)
        assert second.message != "mutated by one caller"

    def test_whitespace_variant_shares_the_entry(self):
        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        assert cache.lookup(_request(COUNTDOWN + "  \r\n")) is not None

    def test_config_variant_misses(self):
        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        other = _request(config=AnalysisConfig(max_iterations=9))
        assert cache.lookup(other) is None

    def test_error_results_never_cached(self):
        cache = ResultCache()
        request = _request()
        failure = AnalysisResult(
            tool="termite",
            program="broken",
            status=AnalysisStatus.ERROR,
            error="boom",
        )
        assert not cache.store(request, failure)
        assert len(cache) == 0
        timeout = AnalysisResult(
            tool="termite",
            program="slow",
            status=AnalysisStatus.TIMEOUT,
            timed_out=True,
        )
        assert not cache.store(request, timeout)


class TestRevalidation:
    def test_problem_memoised_across_hits(self):
        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        cache.lookup(request)
        cache.lookup(request)
        stats = cache.stats()
        assert stats.revalidations == 2
        assert stats.problems_resident == 1

    def test_concurrent_first_hits_build_the_problem_once(self, monkeypatch):
        import repro.api.pipeline as pipeline

        cache = ResultCache()
        request = _request()
        cache.store(request, _computed(request))
        builds = []
        real_build = pipeline.Analysis._build_problem

        def counting(self):
            builds.append(1)
            return real_build(self)

        monkeypatch.setattr(pipeline.Analysis, "_build_problem", counting)
        served = []
        threads = [
            threading.Thread(target=lambda: served.append(cache.lookup(request)))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(served) == 8
        assert all(hit.provenance.revalidated for hit in served)
        assert len(builds) == 1
        assert cache.stats().revalidations == 8

    def test_corrupted_certificate_is_not_served(self):
        # Store countdown's proof under the *pair* program's key: the
        # checker must refuse to re-validate it, and the entry must die.
        cache = ResultCache()
        countdown = _request()
        pair = _request(PAIR)
        proof_of_wrong_program = _computed(countdown)
        cache.store(pair, proof_of_wrong_program)
        assert cache.lookup(pair) is None
        stats = cache.stats()
        assert stats.revalidation_failures == 1
        assert len(cache) == 0

    def test_acyclic_program_is_vacuously_revalidated(self):
        cache = ResultCache()
        request = _request(STRAIGHT)
        cache.store(request, _computed(request))
        hit = cache.lookup(request)
        assert hit is not None
        assert hit.provenance.revalidated is True

    def test_terminating_claim_without_ranking_is_refused(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        request = _request("var x; while (x > 0) { skip; }")
        bare = AnalysisResult(tool="termite", status=AnalysisStatus.TERMINATING)
        cache.store(request, bare)
        assert cache.disk_keys() == [request.cache_key()]
        assert cache.lookup(request) is None
        stats = cache.stats()
        assert (stats.revalidations, stats.revalidation_failures) == (0, 1)
        assert (stats.hits, stats.misses) == (0, 1)
        assert len(cache) == 0
        assert cache.disk_keys() == []

    def test_unproved_results_served_without_checking(self):
        cache = ResultCache()
        request = _request()
        unknown = AnalysisResult(
            tool="termite",
            program="program",
            status=AnalysisStatus.UNKNOWN,
        )
        cache.store(request, unknown)
        hit = cache.lookup(request)
        assert hit is not None
        assert hit.provenance.revalidated is False
        assert cache.stats().revalidations == 0

    def test_revalidation_can_be_disabled(self):
        cache = ResultCache(revalidate=False)
        request = _request()
        cache.store(request, _computed(request))
        hit = cache.lookup(request)
        assert hit is not None
        assert hit.provenance.revalidated is False
        assert cache.stats().revalidations == 0


class TestNonterminationRevalidation:
    NONTERM = "var x; while (x >= 0) { x = x + 1; }"

    def _nonterm_request(self) -> AnalysisRequest:
        return _request(
            self.NONTERM, config=AnalysisConfig(nonterm="only")
        )

    def test_lasso_replayed_on_every_hit(self):
        cache = ResultCache()
        request = self._nonterm_request()
        result = _computed(request)
        assert result.status is AnalysisStatus.NONTERMINATING
        cache.store(request, result)
        hit = cache.lookup(request)
        assert hit is not None and hit.disproved
        assert hit.lasso is not None
        assert hit.provenance.revalidated is True
        cache.lookup(request)
        stats = cache.stats()
        assert stats.revalidations == 2
        assert stats.revalidation_failures == 0
        # The entry's analysis is memoised, and a lasso replay needs the
        # automaton only: the problem is never built.
        entry = cache._entries[request.cache_key()]
        assert entry.analysis is not None
        assert not entry.analysis.problem_built
        assert stats.problems_resident == 0

    def test_corrupted_lasso_is_not_served(self):
        cache = ResultCache()
        request = self._nonterm_request()
        cache.store(request, _computed(request))
        entry = cache._entries[request.cache_key()]
        entry.result["lasso"]["cutpoint"] = "no_such_location"
        assert cache.lookup(request) is None
        stats = cache.stats()
        assert stats.revalidation_failures == 1
        assert len(cache) == 0

    def test_nonterminating_claim_without_lasso_is_refused(self):
        cache = ResultCache()
        request = self._nonterm_request()
        bare = AnalysisResult(
            tool="termite",
            program=self.NONTERM,
            status=AnalysisStatus.NONTERMINATING,
        )
        cache.store(request, bare)
        assert cache.lookup(request) is None
        stats = cache.stats()
        assert (stats.revalidations, stats.revalidation_failures) == (0, 1)

    def test_revalidation_can_be_disabled_for_lassos_too(self):
        cache = ResultCache(revalidate=False)
        request = self._nonterm_request()
        cache.store(request, _computed(request))
        hit = cache.lookup(request)
        assert hit is not None
        assert hit.provenance.revalidated is False
        assert cache.stats().revalidations == 0


class TestEviction:
    def test_lru_bound_holds(self):
        cache = ResultCache(max_entries=2, revalidate=False)
        requests = [
            _request(),
            _request(PAIR),
            _request(STRAIGHT),
        ]
        result = _computed(requests[0])
        for request in requests:
            cache.store(request, result)
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        assert requests[0] not in cache  # oldest evicted
        assert requests[1] in cache and requests[2] in cache

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(max_entries=2, revalidate=False)
        a, b, c = _request(), _request(PAIR), _request(STRAIGHT)
        result = _computed(a)
        cache.store(a, result)
        cache.store(b, result)
        cache.lookup(a)  # a is now most recent
        cache.store(c, result)
        assert a in cache and c in cache and b not in cache

    def test_clear(self):
        cache = ResultCache(revalidate=False)
        request = _request()
        cache.store(request, _computed(request))
        cache.clear()
        assert len(cache) == 0


class TestValidation:
    def test_max_entries_floor(self):
        assert ResultCache(max_entries=0).max_entries == 1

    def test_contains_uses_content_address(self):
        cache = ResultCache(revalidate=False)
        request = _request(name="a")
        cache.store(request, _computed(request))
        assert _request(name="b") in cache

    def test_stats_snapshot_is_detached(self):
        cache = ResultCache()
        snapshot = cache.stats()
        cache.lookup(_request())
        assert snapshot.misses == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
