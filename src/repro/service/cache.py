"""The content-addressed, checker-revalidated result cache.

Keys are :meth:`repro.api.request.AnalysisRequest.cache_key` — SHA-256
over the canonicalised program text, the canonical tool name and the
config's canonical JSON — so two requests share an entry exactly when
they ask for the identical analysis.  Values are stored as the result's
plain-JSON dictionary (the exact round-trip of
:class:`~repro.api.result.AnalysisResult`), which makes entries immune
to caller-side mutation: every lookup deserialises a fresh result.

**The revalidation guarantee.**  A cached ``TERMINATING`` or
``NONTERMINATING`` claim is never served on trust.  On every hit it is
audited by the same rule as the pipeline's ``certificate`` stage,
:meth:`repro.api.pipeline.Analysis.certify`, on the request's own
:class:`~repro.api.pipeline.Analysis`: a ranking function is
re-verified against the rebuilt termination problem by the independent
Farkas checker (which shares no code with the LP/SMT synthesis loop), a
lasso is replayed against the rebuilt automaton, and a claim with no
certificate at all is unauditable and refused.  A hit whose verdict is
not valid is **dropped and recounted as a miss** (and
``revalidation_failures`` is incremented), so a corrupted or stale entry
can cost throughput but never soundness.  One ``Analysis`` is memoised
per key, so steady-state revalidation costs one checker pass, not a
pipeline rebuild.

Results with nothing to audit (``unknown``, or a rankingless
``TERMINATING`` claim on an acyclic program) are served as hits with
``provenance.revalidated = False``.  Error and
timeout results are never cached at all — failures are assumed
transient.

**The disk tier.**  With a ``cache_dir`` the cache also persists every
store as one content-addressed file per key (``<cache_dir>/<key>.json``)
so a restarted server answers warm traffic immediately.  Writes are
crash-safe: the document goes to a temporary file in the same directory,
is ``fsync``\\ ed, then atomically ``os.replace``\\ d into place — a
``kill -9`` mid-write leaves either the old entry or the new one, never
a torn file.  Each file carries a SHA-256 checksum of its payload;
loads that fail to parse, fail the checksum, or disagree with their
filename key are **deleted and counted** (``disk_drops``), and a loaded
proved entry still passes the full checker gate above before it is ever
served — which is exactly why persistence is safe here: a stale,
corrupted or tampered disk entry costs a miss, never soundness.  The
tier is LRU-bounded by total bytes (oldest files evicted first) and
loaded lazily: restart cost is one ``listdir``, not a full read.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.request import AnalysisRequest
from repro.api.result import AnalysisResult, AnalysisStatus, Provenance

#: Default bound on resident entries (LRU eviction beyond it).
DEFAULT_MAX_ENTRIES = 4096

#: Default bound on the disk tier's total size (bytes).
DEFAULT_MAX_DISK_BYTES = 64 * 1024 * 1024

#: Schema tag written into every disk entry.
_DISK_SCHEMA = 1


@dataclass
class CacheStats:
    """Counters of one :class:`ResultCache` (all monotonic except sizes)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    revalidations: int = 0
    revalidation_failures: int = 0
    entries: int = 0
    problems_resident: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    disk_drops: int = 0
    disk_evictions: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "revalidations": self.revalidations,
            "revalidation_failures": self.revalidation_failures,
            "entries": self.entries,
            "problems_resident": self.problems_resident,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_drops": self.disk_drops,
            "disk_evictions": self.disk_evictions,
            "disk_entries": self.disk_entries,
            "disk_bytes": self.disk_bytes,
        }


@dataclass
class _Entry:
    result: dict
    # The request's Analysis, kept after the first revalidation so later
    # hits reuse its built problem (or automaton) and pay one checker
    # pass only.
    analysis: object = None


class ResultCache:
    """Thread-safe content-addressed cache of analysis results.

    *revalidate* disables the checker gate (used only by tests and
    explicitly flagged deployments; the default — re-check every proved
    hit — is the service's headline guarantee).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        revalidate: bool = True,
        cache_dir: Optional[str] = None,
        max_disk_bytes: int = DEFAULT_MAX_DISK_BYTES,
        fault_injector=None,
    ):
        self.max_entries = max(1, int(max_entries))
        self.revalidate = revalidate
        self.cache_dir = cache_dir
        self.max_disk_bytes = max(1, int(max_disk_bytes))
        self._fault_injector = fault_injector
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._stats = CacheStats()
        # key → file size, oldest first; built lazily on first disk use.
        self._disk_lock = threading.Lock()
        self._disk_index: Optional["OrderedDict[str, int]"] = None
        # Held while a hit builds its entry's problem or automaton, so
        # concurrent first hits on one key build it once: the others wait
        # and reuse it instead of each paying a build (all of them slower
        # for sharing the interpreter lock).
        self._build_lock = threading.Lock()
        if self.cache_dir is not None:
            os.makedirs(self.cache_dir, exist_ok=True)
        if revalidate:
            # Load the revalidation engines now, while the server starts:
            # imported lazily, they would land on the first cache hit's
            # latency instead.
            import repro.api.pipeline  # noqa: F401
            import repro.checking.checker  # noqa: F401
            import repro.checking.recurrence  # noqa: F401

    # -- statistics --------------------------------------------------------------

    def stats(self) -> CacheStats:
        if self.cache_dir is not None:
            with self._disk_lock:
                index = self._disk_index_locked()
                disk_entries = len(index)
                disk_bytes = sum(index.values())
        else:
            disk_entries = disk_bytes = 0
        with self._lock:
            self._stats.entries = len(self._entries)
            self._stats.problems_resident = sum(
                1
                for entry in self._entries.values()
                if entry.analysis is not None and entry.analysis.problem_built
            )
            self._stats.disk_entries = disk_entries
            self._stats.disk_bytes = disk_bytes
            return CacheStats(**self._stats.to_dict())

    # -- the read path -----------------------------------------------------------

    def lookup(self, request: AnalysisRequest) -> Optional[AnalysisResult]:
        """The cached result for *request*, revalidated, or ``None``.

        A returned result is a fresh deserialisation stamped with
        ``provenance = Provenance("hit", key, revalidated, pid)``.
        """
        key = request.cache_key()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None and self.cache_dir is not None:
            entry = self._disk_load(key)
        if entry is None:
            with self._lock:
                self._stats.misses += 1
            return None

        result = AnalysisResult.from_dict(entry.result)
        revalidated = False
        if self.revalidate and (result.proved or result.disproved):
            ok, revalidated = self._revalidate(request, entry, result)
            if not ok:
                with self._lock:
                    self._stats.revalidation_failures += 1
                    self._stats.misses += 1
                    self._entries.pop(key, None)
                self._disk_discard(key)
                return None
        with self._lock:
            self._stats.hits += 1
        result.provenance = Provenance(
            cache="hit",
            key=key,
            revalidated=revalidated,
            worker_pid=os.getpid(),
        )
        return result

    def _revalidate(
        self,
        request: AnalysisRequest,
        entry: _Entry,
        result: AnalysisResult,
    ) -> Tuple[bool, bool]:
        """Audit *result*'s claim; ``(serve it, was checked)``.

        The entry's memoised :class:`~repro.api.pipeline.Analysis`
        decides and runs the audit
        (:meth:`~repro.api.pipeline.Analysis.certify`).  ``serve it`` is
        False unless the verdict is valid: a refuted, inconclusive or
        missing certificate, or a claim that cannot even be rebuilt, is
        refused.  A claim with nothing to audit (a rankingless
        ``TERMINATING`` claim on an acyclic program) is served unchecked.
        ``revalidations`` counts checker passes, so a claim refused for a
        missing certificate counts only as a failure.
        """
        from repro.api.pipeline import Analysis

        try:
            if entry.analysis is None:
                # Concurrent first hits on one key build once: the others
                # wait here and reuse the build.  Only the build holds the
                # lock; the checker pass below runs outside it.
                with self._build_lock:
                    if entry.analysis is None:
                        analysis = Analysis(
                            request.program,
                            config=request.config,
                            name=request.name,
                        )
                        # What the audit reads: the problem for a ranking,
                        # the automaton alone for a lasso.
                        if result.proved:
                            analysis.problem()
                        else:
                            analysis.automaton()
                        with self._lock:
                            entry.analysis = analysis
            verdict = entry.analysis.certify(result)
        except Exception:
            return False, False
        if verdict is None:
            return True, False
        if not verdict.certificate_missing:
            with self._lock:
                self._stats.revalidations += 1
        return verdict.accepted, verdict.accepted

    # -- the write path ----------------------------------------------------------

    def store(self, request: AnalysisRequest, result: AnalysisResult) -> bool:
        """Cache *result* under *request*'s key.

        Error/timeout results are rejected (returns ``False``) — they are
        transient, and caching them would pin a flake forever.  The
        stored copy is provenance-free; provenance describes a serving,
        not a value.
        """
        if result.status in (AnalysisStatus.ERROR, AnalysisStatus.TIMEOUT):
            return False
        document = result.to_dict()
        document["provenance"] = None
        key = request.cache_key()
        with self._lock:
            self._entries[key] = _Entry(result=document)
            self._entries.move_to_end(key)
            self._stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        if self.cache_dir is not None:
            self._disk_store(key, document)
        return True

    # -- the disk tier -----------------------------------------------------------

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + ".json")

    def _disk_index_locked(self) -> "OrderedDict[str, int]":
        """The key → size map, oldest first.  Requires ``_disk_lock``."""
        if self._disk_index is None:
            found = []
            try:
                names = os.listdir(self.cache_dir)
            except OSError:
                names = []
            for name in names:
                if not name.endswith(".json"):
                    continue
                try:
                    status = os.stat(os.path.join(self.cache_dir, name))
                except OSError:
                    continue
                found.append((status.st_mtime, name[: -len(".json")],
                              status.st_size))
            found.sort()
            self._disk_index = OrderedDict(
                (key, size) for _, key, size in found
            )
        return self._disk_index

    def _disk_store(self, key: str, document: dict) -> None:
        """Persist one entry: write-to-temp, fsync, atomic rename."""
        payload = json.dumps(document, sort_keys=True)
        wrapper = json.dumps(
            {
                "schema": _DISK_SCHEMA,
                "key": key,
                "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
                "result": document,
            },
            sort_keys=True,
        ).encode("utf-8")
        path = self._disk_path(key)
        temp = os.path.join(
            self.cache_dir,
            ".%s.%d.%d.tmp"
            % (key, os.getpid(), threading.get_ident()),
        )
        try:
            with open(temp, "wb") as handle:
                handle.write(wrapper)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except OSError:
            # Disk trouble degrades persistence, never a response.
            try:
                os.unlink(temp)
            except OSError:
                pass
            return
        with self._disk_lock:
            index = self._disk_index_locked()
            index.pop(key, None)
            index[key] = len(wrapper)
            with self._lock:
                self._stats.disk_stores += 1
            while sum(index.values()) > self.max_disk_bytes and len(index) > 1:
                victim, _ = index.popitem(last=False)
                try:
                    os.unlink(self._disk_path(victim))
                except OSError:
                    pass
                with self._lock:
                    self._stats.disk_evictions += 1
        if self._fault_injector is not None:
            if self._fault_injector.decide("corrupt_cache"):
                self.corrupt_disk_entry(key)
            elif self._fault_injector.decide("truncate_cache"):
                self.corrupt_disk_entry(key, truncate=True)

    def _disk_load(self, key: str) -> Optional[_Entry]:
        """Promote a persisted entry into memory, or drop it if damaged.

        Integrity checks here (parse, schema, filename/key agreement,
        payload checksum) catch corruption and tampering; the checker
        gate in :meth:`lookup` still stands between a loaded *proved*
        entry and the caller.
        """
        path = self._disk_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        document = None
        try:
            wrapper = json.loads(raw.decode("utf-8"))
            if (
                isinstance(wrapper, dict)
                and wrapper.get("schema") == _DISK_SCHEMA
                and wrapper.get("key") == key
                and isinstance(wrapper.get("result"), dict)
            ):
                payload = json.dumps(wrapper["result"], sort_keys=True)
                digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
                if digest == wrapper.get("sha256"):
                    document = wrapper["result"]
        except (ValueError, UnicodeDecodeError):
            document = None
        if document is not None:
            try:
                AnalysisResult.from_dict(document)
            except Exception:
                document = None
        if document is None:
            self._disk_discard(key)
            with self._lock:
                self._stats.disk_drops += 1
            return None
        # Touch the file so restart-time LRU ordering tracks use.
        try:
            os.utime(path)
        except OSError:
            pass
        with self._disk_lock:
            index = self._disk_index_locked()
            size = index.pop(key, len(raw))
            index[key] = size
        entry = _Entry(result=document)
        with self._lock:
            self._stats.disk_hits += 1
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        return entry

    def _disk_discard(self, key: str) -> None:
        if self.cache_dir is None:
            return
        try:
            os.unlink(self._disk_path(key))
        except OSError:
            pass
        with self._disk_lock:
            if self._disk_index is not None:
                self._disk_index.pop(key, None)

    def corrupt_disk_entry(self, key: str, truncate: bool = False) -> bool:
        """Damage *key*'s disk file (fault injection and tests only).

        ``truncate`` cuts the document in half mid-JSON; otherwise
        garbage bytes are splatted into the middle of the document.
        Both must be caught by the load-path integrity checks.  Returns
        whether a file was hit.
        """
        if self.cache_dir is None:
            return False
        path = self._disk_path(key)
        try:
            size = os.path.getsize(path)
            if truncate:
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
            else:
                with open(path, "r+b") as handle:
                    handle.seek(max(0, size // 2))
                    handle.write(b"\xde\xad\xbe\xef")
        except OSError:
            return False
        return True

    def disk_keys(self) -> list:
        """The keys currently persisted (oldest first; for tests/bench)."""
        if self.cache_dir is None:
            return []
        with self._disk_lock:
            return list(self._disk_index_locked())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, request: AnalysisRequest) -> bool:
        with self._lock:
            return request.cache_key() in self._entries
