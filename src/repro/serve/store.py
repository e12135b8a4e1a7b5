"""Content-addressed verdict store: the service's ``repro-verdict/1``
result index.

The persistent cert store (:mod:`repro.psna.certstore`) caches
*certification* verdicts — the inner loop.  This store caches whole
*job results*: the JSON payload a verification request produced, keyed
by the request's content address (:func:`repro.serve.jobs.request_digest`
— canonical programs + parameters + semantics version).  An identical
query is answered straight from the index without ever spawning a
worker; that is the service's memcache story.

It shares the cert store's directory (``--store``, default the cert
store's resolved dir) and its on-disk design: the segments are a
:class:`repro.segmentlog.SegmentLog`, which owns their layout, crash
safety and compaction::

    verdict-<pid>-<n>.vseg   one header line, then one JSON object per
                             line: {"d": digest, "k": kind, "r": result}

Unlike the cert store, a service process is long-running and may be
killed at any point, so entries are **appended and flushed per line**
(the NDJSON stream discipline) instead of buffered until close — a
``kill -9`` loses at most a partial trailing line.  Concurrent service
instances sharing a directory each append to their own segment, and
compaction leaves alone a segment that a live instance is still
appending to.

Memory model (ROADMAP item 1): the store no longer pins every parsed
result in memory.  Load time builds a **digest → (segment, byte
offset) index** — a few dozen bytes per entry however large the
verdicts grow — and ``get`` re-reads one line by ``seek``.  When a
peer's compaction has merged the indexed segment away, ``get``
re-indexes from the current segments once and reads again.  In front
of that sits a **bounded LRU** of parsed results
(``lru_entries``, default :data:`DEFAULT_LRU_ENTRIES`; 0 disables),
so the hot, cache-dominated request mix never touches disk.  The
``lru_hits``/``lru_misses`` counters feed the service metrics as
``serve.store.lru_hits``/``serve.store.lru_misses``.  Responses are
byte-identical with the LRU on or off: either path yields the same
JSON-round-tripped result object (a test enforces this).

All methods are thread-safe: the HTTP front end, the drainer, and the
pool-result callbacks all touch one handle.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Optional

from ..psna.semantics import SEMANTICS_VERSION
from ..segmentlog import SegmentLog

VERDICT_SCHEMA = "repro-verdict/1"
SEGMENT_HEADER = "repro-verdict-store/1"

#: Default capacity of the parsed-result LRU (entries, not bytes —
#: verdict payloads are litmus rows / adequacy verdicts of a few KB).
DEFAULT_LRU_ENTRIES = 1024


def _parse_record(line: str) -> Optional[tuple[str, dict]]:
    """The digest and result of one record line, or ``None`` when the
    line is malformed."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    digest, result = record.get("d"), record.get("r")
    if isinstance(digest, str) and isinstance(result, dict):
        return digest, result
    return None


class VerdictStore:
    """One open handle on the on-disk verdict index."""

    def __init__(self, directory: str,
                 lru_entries: int = DEFAULT_LRU_ENTRIES) -> None:
        self.directory = directory
        #: digest -> (segment path, byte offset of the record line);
        #: a ``None`` path marks a diskless entry held in ``_resident``
        #: (unwritable store directory — degraded but functional).
        self._index: dict[str, tuple[Optional[str], int]] = {}
        self._resident: dict[str, dict] = {}
        self.lru_entries = max(0, lru_entries)
        self._lru: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.lru_hits = 0
        self.lru_misses = 0
        self._lock = threading.Lock()
        self._closed = False
        self._log = SegmentLog(directory, "verdict-", ".vseg",
                               f"{SEGMENT_HEADER} {SEMANTICS_VERSION}",
                               _parse_record)
        # Offsets only: the LRU starts cold and fills on demand.
        self._reindex()

    def _reindex(self) -> None:
        """Point the index at every record of the current segments."""
        for path, offset, (digest, _result) in self._log.scan():
            self._index[digest] = (path, offset)

    # -- LRU --------------------------------------------------------------

    def _lru_get(self, digest: str) -> Optional[dict]:
        if self.lru_entries <= 0:
            return None
        cached = self._lru.get(digest)
        if cached is not None:
            self._lru.move_to_end(digest)
        return cached

    def _lru_put(self, digest: str, result: dict) -> None:
        if self.lru_entries <= 0:
            return
        self._lru[digest] = result
        self._lru.move_to_end(digest)
        while len(self._lru) > self.lru_entries:
            self._lru.popitem(last=False)

    # -- lookup / update --------------------------------------------------

    def get(self, digest: str) -> Optional[dict]:
        """The stored result payload for ``digest``, or ``None``."""
        with self._lock:
            location = self._index.get(digest)
            if location is None:
                self.misses += 1
                return None
            cached = self._lru_get(digest)
            if cached is not None:
                self.lru_hits += 1
                self.hits += 1
                return cached
            self.lru_misses += 1
            path, offset = location
            record = self._log.read_at(path, offset) if path else None
            if record is None and path:
                # A peer's compaction merged the indexed segment into a
                # new one: find the record there.
                self._reindex()
                path, offset = self._index[digest]
                record = self._log.read_at(path, offset)
            result = record[1] if record is not None \
                else self._resident.get(digest)
            if result is None:
                # Segment vanished or rotted under us: an honest miss.
                self.misses += 1
                return None
            self.hits += 1
            self._lru_put(digest, result)
            return result

    def put(self, digest: str, kind: str, result: dict) -> bool:
        """Record one verdict; appended and flushed immediately.

        Returns whether the entry was new to this handle.
        """
        line = json.dumps({"d": digest, "k": kind, "r": result},
                          sort_keys=True, default=repr)
        with self._lock:
            if digest in self._index:
                return False
            self.writes += 1
            # The round trip pins the JSON-projected result (same bytes
            # a later disk read would parse), keeping warm/cold and
            # LRU-on/off responses identical.
            parsed = json.loads(line)["r"]
            try:
                self._index[digest] = self._log.append(line)
            except OSError:
                self._index[digest] = (None, -1)
                self._resident[digest] = parsed
            self._lru_put(digest, parsed)
            return True

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._log.close()

    def stats(self) -> dict:
        """The ``repro-verdict/1`` stats payload (also an endpoint body)."""
        with self._lock:
            consulted = self.hits + self.misses
            return {
                "schema": VERDICT_SCHEMA,
                "directory": self.directory,
                "semantics": SEMANTICS_VERSION,
                "entries": len(self._index),
                "segments": len(self._log.paths()),
                "size_bytes": self._log.size_bytes(),
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "hit_rate": self.hits / consulted if consulted else 0.0,
                "lru_entries": self.lru_entries,
                "lru_size": len(self._lru),
                "lru_hits": self.lru_hits,
                "lru_misses": self.lru_misses,
            }
