"""Interned integer encoding of canonical PS^na state keys.

The structural canonicalization in :mod:`repro.psna.machine`
(:func:`~repro.psna.machine.canonical_key` without a cache,
:func:`~repro.psna.machine.certification_key`) builds nested tuples of
strings, rank ints, and view tuples for every state.  Hashing those
object graphs — and the timestamp-keyed rank tables behind them —
dominates exploration time on dedup-heavy workloads.

This module replaces the graphs with small integers: every canonical
component (view, message, promise set, thread, memory, whole state)
becomes a flat tagged tuple whose children are *entry ids* — indices
into an :class:`Interner` table — so a whole ``MachineState`` key is a
single ``int`` and the exploration's ``seen`` set hashes machine-word
integers.  Timestamp ranks are computed by bisection over per-location
sorted stamp lists instead of a ``(loc, timestamp)``-keyed dict, which
keeps timestamp hashing off the hot path entirely.

The caches key on these ids only; the structural form is the reference
they are checked against.  The table is bidirectional:
:func:`decode_state` / :func:`decode_cert` reconstruct the exact
structural key, so the invariant monitor's key-divergence oracle and the
persistent cert store's digests keep operating on the rich structural
form.  ``decode(intern(x)) == structural(x)`` is an invariant checked by
the monitor (``cache.key-divergence``), by ``tests/test_perf_layer.py``
and by ``tests/test_certstore.py``.

Entry tags (first element of each interned tuple):

====== ======================================================= =========
tag    encodes                                                 decodes to
====== ======================================================= =========
``vb`` bottom view (``None``)                                  ``("bot",)``
``v``  view: ``(loc, rank)`` pairs                             ``("view", ...)``
``na`` non-atomic message                                      ``("na", loc, rank)``
``m``  message: loc, rank, value key, view id, attach rank     ``("msg", ...)``
``P``  promise set: sorted message ids                         sorted message keys
``R``  per-location release views: ``(loc, view-id)`` pairs    ``(loc, view key)`` pairs
``Y``  syscall trace (kept inline, already canonical)          the trace tuple
``prog`` a thread program object (interned by value)           the object itself
``t``  thread: program/view/promises/acq/rel/rel-views/budget  the 7-tuple
``M``  memory: sorted message ids                              sorted message keys
``S``  machine state: thread ids, memory, sc view, syscalls    the 4-tuple
``B``  bottom machine state                                    ``("⊥", syscalls)``
``C``  certification pair: thread, promise locs, memory        the 3-tuple
====== ======================================================= =========

Programs are interned *by value* (two interleavings reaching the same
continuation must share an id, or dedup would split) with an identity
fast path: the first structural hash of a program object memoizes its
entry id under ``id(program)``, and the object is pinned so the id
cannot be recycled.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .memory import Memory, NAMessage
from .thread import ThreadLts

__all__ = [
    "Interner",
    "intern_state",
    "intern_cert",
    "decode_state",
    "decode_cert",
]


class Interner:
    """Bidirectional entry↔id table for encoded canonical keys.

    Entries are immutable tagged tuples whose children are prior entry
    ids, so structural equality of keys reduces to ``int`` equality of
    ids.  The table is append-only and lives exactly as long as the
    caches that own it (one exploration run) — nothing is evicted.
    """

    __slots__ = ("_ids", "_objs", "_prog_ids", "_prog_pins", "_memory_memo")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._objs: list = []
        # Identity fast path for program objects: id(obj) -> entry id,
        # with ``_prog_pins`` holding strong references so a recycled
        # ``id()`` can never alias a dead program.
        self._prog_ids: dict[int, int] = {}
        self._prog_pins: list = []
        # Per-memory encode memo (``messages`` frozenset -> _MemEnc):
        # the rank tables and component ids depend only on the message
        # set, which recurs across the states and certification pairs
        # encoded against it.
        self._memory_memo: dict = {}

    def __len__(self) -> int:
        return len(self._objs)

    def intern(self, entry) -> int:
        """The entry's id, allocating one on first sight."""
        eid = self._ids.get(entry)
        if eid is None:
            eid = len(self._objs)
            self._ids[entry] = eid
            self._objs.append(entry)
        return eid

    def entry(self, eid: int):
        """The interned entry for an id (inverse of :meth:`intern`)."""
        return self._objs[eid]

    def intern_program(self, program) -> int:
        pid = self._prog_ids.get(id(program))
        if pid is None:
            pid = self.intern(("prog", program))
            self._prog_ids[id(program)] = pid
            self._prog_pins.append(program)
        return pid


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _loc_stamps(memory: Memory) -> dict[str, list]:
    """Per-location sorted timestamp lists — the bisect rank tables."""
    stamps: dict[str, list] = {}
    for message in memory.messages:
        lst = stamps.get(message.loc)
        if lst is None:
            stamps[message.loc] = [message.ts]
        else:
            insort(lst, message.ts)
    return stamps


class _MemEnc:
    """Encode memo for one message set: rank tables plus id caches.

    Ranks — and therefore every view/message/thread id — are functions
    of the memory's message set alone, and the same set is encoded over
    and over (every thread of a state, every certification launched
    from it).  The memo turns repeat encodings into single dict hits on
    objects whose hashes are already cached.
    """

    __slots__ = ("stamps", "view_ids", "msg_ids", "thread_ids", "mem_id")

    def __init__(self, stamps: dict[str, list]) -> None:
        self.stamps = stamps
        self.view_ids: dict = {}
        self.msg_ids: dict = {}
        self.thread_ids: dict = {}
        self.mem_id = -1


def _memory_enc(memory: Memory, interner: Interner) -> _MemEnc:
    enc = interner._memory_memo.get(memory.messages)
    if enc is None:
        enc = _MemEnc(_loc_stamps(memory))
        interner._memory_memo[memory.messages] = enc
    return enc


def _rank(stamps, loc, ts, default):
    lst = stamps.get(loc)
    if lst is None:
        return default
    index = bisect_left(lst, ts)
    if index < len(lst) and lst[index] == ts:
        return index
    return default


def _value_key(value):
    if isinstance(value, int):
        return (0, value)
    return (1, 0)  # undef — the only non-int value


def _view_id(view, enc: _MemEnc, interner) -> int:
    if view is None:
        return interner.intern(("vb",))
    vid = enc.view_ids.get(view)
    if vid is None:
        stamps = enc.stamps
        vid = interner.intern(("v",) + tuple(
            (loc, _rank(stamps, loc, ts, -1)) for loc, ts in view.items))
        enc.view_ids[view] = vid
    return vid


def _message_id(message, enc: _MemEnc, interner) -> int:
    mid = enc.msg_ids.get(message)
    if mid is not None:
        return mid
    stamps = enc.stamps
    if isinstance(message, NAMessage):
        entry = ("na", message.loc,
                 _rank(stamps, message.loc, message.ts, -3))
    else:
        attach = (-1 if message.attach is None
                  else _rank(stamps, message.loc, message.attach, -2))
        entry = ("m", message.loc,
                 _rank(stamps, message.loc, message.ts, -3),
                 _value_key(message.value),
                 _view_id(message.view, enc, interner),
                 attach)
    mid = interner.intern(entry)
    enc.msg_ids[message] = mid
    return mid


def _thread_id(thread: ThreadLts, enc: _MemEnc, interner) -> int:
    tid = enc.thread_ids.get(thread)
    if tid is not None:
        return tid
    promises = interner.intern(("P",) + tuple(sorted(
        _message_id(m, enc, interner) for m in thread.promises)))
    rel_views = interner.intern(("R",) + tuple(
        (loc, _view_id(view, enc, interner))
        for loc, view in thread.rel_views.items))
    tid = interner.intern((
        "t",
        interner.intern_program(thread.program),
        _view_id(thread.view, enc, interner),
        promises,
        _view_id(thread.acq_pending, enc, interner),
        _view_id(thread.rel_view, enc, interner),
        rel_views,
        thread.promise_budget))
    enc.thread_ids[thread] = tid
    return tid


def _memory_id(memory: Memory, enc: _MemEnc, interner) -> int:
    if enc.mem_id < 0:
        enc.mem_id = interner.intern(("M",) + tuple(sorted(
            _message_id(m, enc, interner) for m in memory.messages)))
    return enc.mem_id


def intern_state(state, interner: Interner) -> int:
    """The state's canonical key as a single interned id."""
    if state.bottom:
        return interner.intern(
            ("B", interner.intern(("Y", state.syscalls))))
    enc = _memory_enc(state.memory, interner)
    threads = tuple(_thread_id(thread, enc, interner)
                    for thread in state.threads)
    return interner.intern((
        "S", threads,
        _memory_id(state.memory, enc, interner),
        _view_id(state.sc_view, enc, interner),
        interner.intern(("Y", state.syscalls))))


def intern_cert(thread: ThreadLts, memory: Memory,
                interner: Interner) -> int:
    """The certification pair's canonical key as a single interned id."""
    enc = _memory_enc(memory, interner)
    return interner.intern((
        "C",
        _thread_id(thread, enc, interner),
        thread.promise_locs,
        _memory_id(memory, enc, interner)))


# ---------------------------------------------------------------------------
# Decoding — must reproduce the structural form byte for byte
# ---------------------------------------------------------------------------


def _decode_view(eid: int, interner: Interner):
    entry = interner.entry(eid)
    if entry[0] == "vb":
        return ("bot",)
    return ("view",) + entry[1:]


def _decode_message(eid: int, interner: Interner):
    entry = interner.entry(eid)
    if entry[0] == "na":
        return ("na", entry[1], entry[2])
    return ("msg", entry[1], entry[2], entry[3],
            _decode_view(entry[4], interner), entry[5])


def _decode_thread(eid: int, interner: Interner):
    (_, prog_id, view_id, promises_id, acq_id, rel_id, rel_views_id,
     budget) = interner.entry(eid)
    # Promise/memory ids are sorted numerically when encoded; the
    # structural form sorts the message keys, so re-sort after decoding.
    promises = tuple(sorted(
        _decode_message(mid, interner)
        for mid in interner.entry(promises_id)[1:]))
    rel_views = tuple(
        (loc, _decode_view(vid, interner))
        for loc, vid in interner.entry(rel_views_id)[1:])
    return (interner.entry(prog_id)[1],
            _decode_view(view_id, interner),
            promises,
            _decode_view(acq_id, interner),
            _decode_view(rel_id, interner),
            rel_views,
            budget)


def _decode_memory(eid: int, interner: Interner):
    return tuple(sorted(_decode_message(mid, interner)
                        for mid in interner.entry(eid)[1:]))


def decode_state(eid: int, interner: Interner):
    """The structural key :func:`~repro.psna.machine.canonical_key`
    (without a cache) gives for the state this id encodes."""
    entry = interner.entry(eid)
    if entry[0] == "B":
        return ("⊥", interner.entry(entry[1])[1])
    _, threads, memory_id, sc_id, syscalls_id = entry
    return (tuple(_decode_thread(tid, interner) for tid in threads),
            _decode_memory(memory_id, interner),
            _decode_view(sc_id, interner),
            interner.entry(syscalls_id)[1])


def decode_cert(eid: int, interner: Interner):
    """The structural key :func:`~repro.psna.machine.certification_key`
    gives for the pair this id encodes."""
    _, thread_id, promise_locs, memory_id = interner.entry(eid)
    return (_decode_thread(thread_id, interner), promise_locs,
            _decode_memory(memory_id, interner))
