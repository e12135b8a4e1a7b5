"""Fault injection for :mod:`repro.segmentlog`, through both stores.

Each case drives :class:`repro.psna.certstore.CertStore` and
:class:`repro.serve.store.VerdictStore` (with its LRU on and off)
through their public API, injects one fault at the segment log, and
asserts that every answer is the original verdict or a miss — never a
different value:

* truncation at every byte offset of a segment;
* death between the temp write and the rename, whose orphan temp file
  the next compaction reaps (and a live writer's, which it leaves);
* death mid-compaction, after the merged segment is published;
* two handles appending and compacting at once, in one process and
  across spawned processes;
* a stale semantics header;
* compaction itself, which must copy each record line verbatim.

A process death is a :class:`ProcessDeath` raised from the patched
``os`` call: a ``BaseException``, so the stores' ``except OSError``
cannot swallow it.  The test then drops the handle and opens a fresh
one, as a restarted process would.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import segmentlog
from repro.psna import certstore
from repro.psna.certstore import CertStore
from repro.psna.semantics import SEMANTICS_VERSION
from repro.segmentlog import COMPACT_SEGMENTS
from repro.serve import store
from repro.serve.store import DEFAULT_LRU_ENTRIES, VerdictStore


class CertView:
    """Verdicts are queued and published as one sealed segment at close."""

    id = "cert"
    prefix, suffix = "segment-", ".seg"
    header = f"{certstore.SEGMENT_HEADER} {SEMANTICS_VERSION}"
    appends = False

    def open(self, directory):
        return CertStore(directory)

    def put(self, handle, key):
        handle.put(key, self.value(key))

    def get(self, handle, key):
        handle.end_run()  # the handle's own queued verdicts join its run
        return handle.get(key)

    def close(self, handle):
        handle.close()

    @staticmethod
    def value(key):
        return int(key, 16) % 3 != 0

    @staticmethod
    def line_key(line):
        return line.split(" ")[0]


class VerdictView:
    """Verdicts are appended and flushed one line at a time."""

    prefix, suffix = "verdict-", ".vseg"
    header = f"{store.SEGMENT_HEADER} {SEMANTICS_VERSION}"
    appends = True

    def __init__(self, lru_entries):
        self.lru_entries = lru_entries
        self.id = "verdict" if lru_entries else "verdict-lru-off"

    def open(self, directory):
        return VerdictStore(directory, lru_entries=self.lru_entries)

    def put(self, handle, key):
        handle.put(key, "validate", self.value(key))

    def get(self, handle, key):
        return handle.get(key)

    def close(self, handle):
        handle.close()

    @staticmethod
    def value(key):
        return {"key": key, "valid": int(key, 16) % 3 != 0}

    @staticmethod
    def line_key(line):
        return json.loads(line)["d"]


VIEWS = [CertView(), VerdictView(DEFAULT_LRU_ENTRIES), VerdictView(0)]
VIEW_BY_ID = {view.id: view for view in VIEWS}
each_view = pytest.mark.parametrize("view", VIEWS, ids=lambda v: v.id)


class ProcessDeath(BaseException):
    """The process dies inside the segment log."""


class _DyingOs:
    """The segment log's ``os``: the call ``name`` dies once ``after``
    real calls have gone through."""

    def __init__(self, name, after):
        self._name, self._left = name, after

    def __getattr__(self, attr):
        real = getattr(os, attr)
        if attr != self._name:
            return real

        def dying(*args, **kwargs):
            if self._left == 0:
                raise ProcessDeath(attr)
            self._left -= 1
            return real(*args, **kwargs)
        return dying


def die_at(monkeypatch, name, after=0):
    monkeypatch.setattr(segmentlog, "os", _DyingOs(name, after))


def key(a, b=0):
    return f"{a:016x}{b:016x}"


def segments(view, directory):
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory)
                  if name.startswith(view.prefix)
                  and name.endswith(view.suffix))


def write_generation(view, directory, keys):
    handle = view.open(directory)
    for k in keys:
        view.put(handle, k)
    view.close(handle)


def present(view, handle, keys):
    """The keys ``handle`` answers; fails on any answer that is neither
    the key's verdict nor a miss."""
    found = set()
    for k in keys:
        answer = view.get(handle, k)
        assert answer is None or answer == view.value(k), (k, answer)
        if answer is not None:
            found.add(k)
    return found


@each_view
def test_truncation_at_every_byte(view, tmp_path):
    """Exactly the records whose line is complete before the cut load."""
    keys = [key(1, i) for i in range(5 if view.id == "cert" else 4)]
    write_generation(view, str(tmp_path / "source"), keys)
    [segment] = segments(view, str(tmp_path / "source"))
    with open(segment, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    assert lines[0].decode() == view.header + "\n"
    ends, end = [], len(lines[0])
    for line in lines[1:]:
        end += len(line)
        ends.append((view.line_key(line.decode()), end))
    cut_dir = tmp_path / "cut"
    cut_dir.mkdir()
    cut_path = cut_dir / os.path.basename(segment)
    for cut in range(len(data) + 1):
        cut_path.write_bytes(data[:cut])
        handle = view.open(str(cut_dir))
        complete = {k for k, end in ends if end <= cut}
        for _pass in range(2):  # from disk, then from the LRU if on
            assert present(view, handle, keys) == complete, cut


def temps(view, directory):
    return [name for name in os.listdir(directory)
            if name.startswith(view.prefix) and name.endswith(".tmp")]


@each_view
@pytest.mark.parametrize("phase", ["segment", "compaction"])
def test_death_between_temp_write_and_rename(view, phase, tmp_path,
                                             monkeypatch):
    """The earlier generation stays intact; the orphan temp file is
    ignored, and the next compaction reaps it."""
    directory = str(tmp_path / "store")
    earlier = [key(g) for g in range(
        1 if phase == "segment" else COMPACT_SEGMENTS)]
    for k in earlier:
        write_generation(view, directory, [k])
    doomed = key(99)
    handle = view.open(directory)
    # The handle's own segment is the first rename, the merged segment
    # of the compaction its close starts is the second.
    die_at(monkeypatch, "replace", after=0 if phase == "segment" else 1)
    with pytest.raises(ProcessDeath):
        view.put(handle, doomed)
        view.close(handle)
    monkeypatch.undo()
    del handle
    assert temps(view, directory)
    fresh = view.open(directory)
    found = present(view, fresh, earlier + [doomed])
    if phase == "segment":
        assert found == set(earlier)
        assert len(segments(view, directory)) == len(earlier)
    else:
        assert found == set(earlier + [doomed])
        assert len(segments(view, directory)) == len(earlier) + 1
    fresh._log.compact()
    assert temps(view, directory) == []
    assert present(view, view.open(directory), earlier + [doomed]) == found


class _HookedOs:
    """The segment log's ``os`` with the call ``name`` routed to
    ``hook``."""

    def __init__(self, name, hook):
        self._name, self._hook = name, hook

    def __getattr__(self, attr):
        return self._hook if attr == self._name else getattr(os, attr)


@each_view
def test_live_writers_temp_file_survives_compaction(view, tmp_path,
                                                    monkeypatch):
    """A peer compacting while a writer is between its temp write and
    the rename leaves the temp file alone."""
    directory = str(tmp_path / "store")
    earlier = [key(g) for g in range(3)]
    for k in earlier:
        write_generation(view, directory, [k])
    peer = view.open(directory)
    survived = []

    def compact_then_replace(src, dst):
        monkeypatch.undo()  # the peer's own rename is a real one
        assert temps(view, directory)
        peer._log.compact()
        survived.append(os.path.exists(src))
        os.replace(src, dst)

    monkeypatch.setattr(segmentlog, "os",
                        _HookedOs("replace", compact_then_replace))
    late = key(99)
    write_generation(view, directory, [late])
    assert survived == [True]
    assert len(segments(view, directory)) == 2  # merged + the writer's
    assert present(view, view.open(directory), earlier + [late]) \
        == set(earlier + [late])


@each_view
@pytest.mark.parametrize("unlinked", [0, 1, COMPACT_SEGMENTS])
def test_death_mid_compaction(view, unlinked, tmp_path, monkeypatch):
    """Death after the merged segment is published, before or while the
    inputs are unlinked: every verdict is still there."""
    directory = str(tmp_path / "store")
    keys = [key(g) for g in range(COMPACT_SEGMENTS + 1)]
    for k in keys[:-1]:
        write_generation(view, directory, [k])
    handle = view.open(directory)
    view.put(handle, keys[-1])
    die_at(monkeypatch, "unlink", after=unlinked)
    with pytest.raises(ProcessDeath):
        view.close(handle)
    monkeypatch.undo()
    del handle
    assert len(segments(view, directory)) == 1 + len(keys) - unlinked
    assert present(view, view.open(directory), keys) == set(keys)


@each_view
def test_live_handle_keeps_verdicts_across_peer_compaction(view, tmp_path):
    """A peer's compaction must not unlink the segment a live handle is
    still appending to: its verdicts would go to an unlinked file."""
    directory = str(tmp_path / "store")
    closed = [key(g) for g in range(COMPACT_SEGMENTS)]
    for k in closed:
        write_generation(view, directory, [k])
    x1, x2, peer_key = key(90, 1), key(90, 2), key(91)
    live = view.open(directory)
    view.put(live, x1)
    write_generation(view, directory, [peer_key])  # compacts
    assert len(segments(view, directory)) < COMPACT_SEGMENTS
    view.put(live, x2)
    assert present(view, live, closed + [x1, x2]) == set(closed + [x1, x2])
    everything = closed + [peer_key, x1, x2]
    found = present(view, view.open(directory), everything)
    assert set(closed + [peer_key]) <= found
    if view.appends:  # on disk as soon as put returns
        assert {x1, x2} <= found
    view.close(live)
    assert present(view, view.open(directory), everything) \
        == set(everything)


ROUNDS = 12
#: More processes than the two cores CI runners have.
WORKERS = (1, 2, 3)


def _churn(view_id, directory, worker, barrier):
    """One spawned process: a live handle that writes every round, and
    a short-lived handle per round whose close may compact."""
    view = VIEW_BY_ID[view_id]
    barrier.wait(timeout=60)
    live = view.open(directory)
    for r in range(ROUNDS):
        write_generation(view, directory, [key(worker, 2 * r)])
        view.put(live, key(worker, 2 * r + 1))
        # A handle opened during a compaction may miss, never differ.
        present(view, view.open(directory),
                [key(w, i) for w in WORKERS for i in range(2 * r + 2)])
    view.close(live)


@pytest.mark.parametrize("view", VIEWS[:2], ids=lambda v: v.id)
def test_spawned_processes_append_and_compact_at_once(view, tmp_path):
    directory = str(tmp_path / "store")
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(len(WORKERS))
    workers = [context.Process(target=_churn,
                               args=(view.id, directory, worker, barrier))
               for worker in WORKERS]
    for process in workers:
        process.start()
    for process in workers:
        process.join(timeout=120)
    assert [(p.is_alive(), p.exitcode) for p in workers] \
        == [(False, 0)] * len(WORKERS)
    everything = [key(w, i) for w in WORKERS for i in range(2 * ROUNDS)]
    assert present(view, view.open(directory), everything) \
        == set(everything)


@each_view
def test_stale_semantics_segment_is_ignored_and_reaped(view, tmp_path):
    directory = str(tmp_path / "store")
    old = key(77)
    write_generation(view, directory, [old])
    [stale] = segments(view, directory)
    with open(stale, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    lines[0] = view.header.split(" ")[0] + " psna-0\n"
    with open(stale, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    keys = [key(g) for g in range(COMPACT_SEGMENTS)]
    write_generation(view, directory, keys[:1])
    assert present(view, view.open(directory), [old] + keys) \
        == set(keys[:1])
    for k in keys[1:]:
        write_generation(view, directory, [k])  # the last one compacts
    assert not os.path.exists(stale)
    assert len(segments(view, directory)) == 1
    assert present(view, view.open(directory), [old] + keys) == set(keys)


def test_cert_gc_reaps_stale_segment(tmp_path):
    directory = str(tmp_path / "store")
    write_generation(CertView(), directory, [key(1)])
    stale = os.path.join(directory, "segment-1-stale.seg")
    with open(stale, "w", encoding="utf-8") as fh:
        fh.write(f"{certstore.SEGMENT_HEADER} psna-0\n{key(2)} 1\n")
    assert CertStore(directory).gc(max_mb=64.0)["stale_segments"] == 1
    assert not os.path.exists(stale)
    assert present(CertView(), CertStore(directory), [key(1), key(2)]) \
        == {key(1)}


@each_view
def test_compaction_copies_record_lines_sorted(view, tmp_path):
    """Seventeen segments compact into one whose record lines are the
    original lines, each key once, sorted by key; a corrupt line is
    dropped and every answer is unchanged."""
    directory = str(tmp_path / "store")
    late = view.open(directory)  # opens empty: its puts duplicate
    keys = [key(g, i) for g in range(COMPACT_SEGMENTS) for i in range(3)]
    for g in range(COMPACT_SEGMENTS):
        write_generation(view, directory, keys[3 * g:3 * g + 3])
    with open(segments(view, directory)[0], "a", encoding="utf-8") as fh:
        fh.write("{truncated garbage\n")
    original = []
    for path in segments(view, directory):
        with open(path, "rb") as fh:
            original += [line for line in fh.readlines()[1:]
                         if b"garbage" not in line]
    for k in keys[:3]:
        view.put(late, k)
    view.close(late)  # the seventeenth segment: compacts
    [merged] = segments(view, directory)
    with open(merged, "rb") as fh:
        lines = fh.readlines()
    assert lines[0] == f"{view.header}\n".encode()
    assert lines[1:] == sorted(original,
                               key=lambda b: view.line_key(b.decode()))
    for other in VIEWS:
        if other.prefix == view.prefix:
            handle = other.open(directory)
            for _pass in range(2):
                assert present(other, handle, keys) == set(keys)


def test_import_in_a_fresh_interpreter():
    """The primitive imports nothing from the stores that use it."""
    subprocess.run([sys.executable, "-c", "import repro.segmentlog"],
                   check=True, env={**os.environ,
                                    "PYTHONPATH": os.pathsep.join(sys.path)})
