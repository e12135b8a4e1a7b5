"""Persistent, cross-run certification verdict store.

:class:`~repro.psna.machine.CertCache` memoizes certification verdicts
for one exploration; this module spills those verdicts to disk so they
survive the process and are shared by every CLI subcommand, the bench
suite, the fuzz nightly, and ``--jobs`` spawn workers.

Keying
    An entry is ``(canonical state digest, semantics version, PsConfig
    fingerprint)``.  The digest (:func:`cert_digest`) is a BLAKE2b hash
    of the *structural* certification key — the renaming-invariant
    object form from :func:`repro.psna.machine.certification_key`, with
    thread programs replaced by their deterministic ``repr`` — mixed
    with the config fingerprint (:func:`config_fingerprint`, every
    semantics-relevant ``PsConfig`` field).  The semantics version
    (:data:`repro.psna.semantics.SEMANTICS_VERSION`) lives in each
    segment file's header: a segment written under another semantics is
    ignored on load and reaped by ``gc``.  Only programs with a
    process-independent ``repr`` (``WhileThread``) are digested; other
    thread shapes bypass the store rather than risk an unstable key.

Layout (``.repro-cache/`` by default, ``REPRO_CACHE_DIR`` overrides;
set it to ``off`` to disable)::

    segment-<pid>-<n>.seg   one header line, then "<digest> <0|1>" lines
    history.jsonl           one JSON line per close / gc / clear event

The segments are a :class:`repro.segmentlog.SegmentLog`, which owns
their layout, crash safety and compaction.  Each handle queues its
verdicts and publishes them as one sealed segment at :meth:`close`
(``--jobs`` spawn workers ship theirs to the parent instead, through
:meth:`CertStore.drain` / :meth:`CertStore.absorb`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from hashlib import blake2b
from typing import Optional

from ..lang.interp import WhileThread
from ..segmentlog import COMPACT_SEGMENTS, SegmentLog  # noqa: F401
from .semantics import SEMANTICS_VERSION
from .thread import PsConfig

STORE_SCHEMA = "repro-certstore/1"
SEGMENT_HEADER = "repro-cert-store/1"
DEFAULT_DIR = ".repro-cache"
ENV_DIR = "REPRO_CACHE_DIR"

#: ``PsConfig`` fields that cannot change a certification verdict —
#: cache toggles and exploration bounds.  Everything else (including
#: fields future PRs add) lands in the fingerprint automatically, so a
#: new semantic knob invalidates old entries by construction.
_FINGERPRINT_SKIP = frozenset({
    "enable_cert_cache", "enable_key_cache", "certifying", "max_states",
    "max_depth",
})

_DIGEST_SIZE = 16  # bytes; 32 hex chars per entry line


def config_fingerprint(config: PsConfig) -> str:
    """Every semantics-relevant config field, stably ordered."""
    parts = []
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        if field.name in _FINGERPRINT_SKIP:
            continue
        parts.append(f"{field.name}={getattr(config, field.name)!r}")
    return ";".join(parts)


def stable_program_repr(program) -> Optional[str]:
    """A process-independent encoding of a thread program, or ``None``
    when the program's ``repr`` cannot be trusted across processes.

    ``WhileThread`` is a pure dataclass tree (statements, registers,
    values with deterministic reprs); arbitrary ``ThreadState``
    implementations may close over objects whose ``repr`` embeds memory
    addresses, which would make digests collide across runs — those
    thread shapes must bypass the store.
    """
    if isinstance(program, WhileThread):
        return repr(program)
    return None


def cert_digest(structural_key, fingerprint: str) -> Optional[str]:
    """The on-disk key for one certification verdict, or ``None`` when
    the pair has no stable cross-process encoding.

    ``structural_key`` is the structural form from
    :func:`repro.psna.machine.certification_key` (or the decoded
    integer encoding, which is identical by construction).
    """
    thread_key, promise_locs, memory_key = structural_key
    program = stable_program_repr(thread_key[0])
    if program is None:
        return None
    stable = ((program,) + thread_key[1:], promise_locs, memory_key)
    payload = f"{stable!r}\x00{fingerprint}"
    return blake2b(payload.encode("utf-8"),
                   digest_size=_DIGEST_SIZE).hexdigest()


def _parse_record(line: str) -> Optional[tuple[str, bool]]:
    """One ``<digest> <0|1>`` record line, or ``None`` when malformed."""
    fields = line.split(" ")
    if len(fields) != 2 or fields[1] not in ("0", "1"):
        return None
    digest = fields[0]
    if len(digest) != 2 * _DIGEST_SIZE \
            or not all(c in "0123456789abcdef" for c in digest):
        return None
    return digest, fields[1] == "1"


class CertStore:
    """One open handle on the on-disk store; see the module docstring.

    Lookups follow a per-*run* snapshot rule.  A run starts when the
    handle opens and again at every :meth:`end_run`; ``get`` consults
    only the snapshot its run started with — the entries loaded from
    disk plus the verdicts earlier runs of this handle queued — never
    the current run's own pending writes.  A CLI invocation is one run,
    so a sweep's store hits are identical whether its cases run
    serially or across ``--jobs`` workers (each worker opens the same
    on-disk snapshot).  The verification service makes every job one
    run, so later jobs in the same process reuse earlier jobs' verdicts.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.entries: dict[str, bool] = {}
        self.pending: dict[str, bool] = {}
        #: The verdicts the current run queued (also in ``pending``).
        self._run: dict[str, bool] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._closed = False
        #: Serializes :meth:`absorb` and :meth:`close`: the service
        #: absorbs each worker's shipment on that worker's drainer thread.
        self._lock = threading.Lock()
        self._log = SegmentLog(directory, "segment-", ".seg",
                               f"{SEGMENT_HEADER} {SEMANTICS_VERSION}",
                               _parse_record)
        for _path, _offset, (digest, verdict) in self._log.scan():
            self.entries[digest] = verdict

    # -- lookup / update --------------------------------------------------

    def get(self, digest: str) -> Optional[bool]:
        verdict = self.entries.get(digest)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def put(self, digest: str, verdict: bool) -> bool:
        """Queue a verdict for the close-time segment write; returns
        whether it was new to this handle."""
        if digest in self.entries or digest in self.pending:
            return False
        self.pending[digest] = verdict
        self._run[digest] = verdict
        self.writes += 1
        return True

    def end_run(self) -> None:
        """End the current run and start the next: the verdicts this run
        queued join the lookup snapshot.  They stay pending for the
        close-time segment write.  Costs one insert per verdict the run
        queued, whatever the store's size."""
        self.entries.update(self._run)
        self._run = {}

    def drain(self) -> dict:
        """Ship this handle's pending writes and counters (the spawn
        worker → parent handoff), resetting them locally."""
        shipped = {"entries": self.pending, "hits": self.hits,
                   "misses": self.misses, "writes": self.writes}
        self.pending = {}
        self._run = {}
        self.hits = self.misses = self.writes = 0
        return shipped

    def absorb(self, shipped: Optional[dict]) -> None:
        """Fold a worker's :meth:`drain` result into this handle."""
        if not shipped:
            return
        with self._lock:
            for digest, verdict in shipped["entries"].items():
                if digest not in self.entries \
                        and digest not in self.pending:
                    self.pending[digest] = verdict
            self.hits += shipped["hits"]
            self.misses += shipped["misses"]
            self.writes += shipped["writes"]

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Flush pending entries to a fresh segment, compact if the
        segment count has grown, and append a history line."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._log.write(
                f"{digest} {1 if verdict else 0}"
                for digest, verdict in sorted(self.pending.items()))
            self._log.close()
            if self.hits or self.misses or self.writes or self.pending:
                # Verdicts of ended runs sit in both dicts.
                entries = len(self.entries) + sum(
                    1 for digest in self.pending
                    if digest not in self.entries)
                self._history({"hits": self.hits, "misses": self.misses,
                               "writes": self.writes, "entries": entries})
            self.pending = {}
            self._run = {}

    def _history(self, record: dict) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(os.path.join(self.directory, "history.jsonl"),
                      "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass

    # -- maintenance (the ``repro cache`` subcommand) ---------------------

    def size_bytes(self) -> int:
        return self._log.size_bytes()

    def stats(self) -> dict:
        history = self.read_history()
        return {
            "schema": STORE_SCHEMA,
            "directory": self.directory,
            "semantics": SEMANTICS_VERSION,
            "entries": len(self.entries),
            "segments": len(self._log.paths()),
            "size_bytes": self.size_bytes(),
            "history": history[-50:],
        }

    def read_history(self) -> list[dict]:
        records: list[dict] = []
        try:
            with open(os.path.join(self.directory, "history.jsonl"),
                      "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # partial line from a crashed writer
                    if isinstance(record, dict):
                        records.append(record)
        except OSError:
            pass
        return records

    def clear(self) -> int:
        """Drop every segment; returns how many entries were removed."""
        removed = len(self.entries)
        self._log.clear()
        self.entries = {}
        self.pending = {}
        self._run = {}
        self._history({"event": "clear", "removed": removed})
        return removed

    def gc(self, max_mb: float) -> dict:
        """Reap stale-semantics segments, compact, and enforce the size
        cap (a cache over budget is dropped wholesale — every entry is
        recomputable)."""
        stale = self._log.compact()
        dropped = 0
        if self.size_bytes() > max_mb * 1024 * 1024:
            dropped = len(self.entries)
            self._log.clear()
            self.entries = {}
        result = {"event": "gc", "stale_segments": stale,
                  "dropped_entries": dropped,
                  "size_bytes": self.size_bytes()}
        self._history(result)
        return result


# ---------------------------------------------------------------------------
# Process-wide binding (the CLI / spawn-worker handle)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[CertStore] = None


def resolve_dir(env: Optional[str] = None) -> Optional[str]:
    """The store directory per ``REPRO_CACHE_DIR``, or ``None`` when the
    store is disabled (``off``/``none``/``0``/empty)."""
    value = os.environ.get(ENV_DIR) if env is None else env
    if value is None:
        return DEFAULT_DIR
    if value.strip().lower() in ("", "off", "none", "0"):
        return None
    return value


def open_default() -> Optional[CertStore]:
    directory = resolve_dir()
    return None if directory is None else CertStore(directory)


def bind(store: Optional[CertStore]) -> Optional[CertStore]:
    global _ACTIVE
    _ACTIVE = store
    return store


def active() -> Optional[CertStore]:
    return _ACTIVE


def unbind() -> None:
    global _ACTIVE
    _ACTIVE = None
