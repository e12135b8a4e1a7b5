"""Append-only segment log: the on-disk format under both persistent
stores, :mod:`repro.psna.certstore` and :mod:`repro.serve.store`.  Each
store supplies its header line and a parser for its record format; this
module owns everything about the files.

A segment ``<prefix><pid>-<n><suffix>`` holds the header (format tag
and semantics version), then one record per line.  A segment with any
other header is stale: readers ignore it and compaction reaps it.  Only
a complete, newline-terminated line that the parser accepts is a
record, so truncation or garbage degrades to misses, never to a wrong
answer.

Crash safety: a segment is written to a ``.tmp`` file, which no reader
lists, and renamed into place.  The writer share-locks the temp file
from its creation, and compaction unlinks every temp file it can lock
exclusively, so the orphan of a writer that died before the rename goes
at the next compaction.  Each handle writes its own segments and
loading folds them all in name order, so concurrent writers merge.
:meth:`SegmentLog.append` flushes one line at a time, so a killed writer
loses at most its partial last line.  Compaction publishes the merged
segment before it unlinks any input, so a crash mid-compaction leaves
duplicates, which the fold absorbs.  An appending handle holds a shared
``flock`` on its segment from before the rename until
:meth:`SegmentLog.close`, and compaction merges only the segments it
can lock exclusively: it never unlinks a segment a live handle is still
appending to.  The kernel drops a killed process's lock.
"""

from __future__ import annotations

import fcntl
import os
import tempfile
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Optional

#: :meth:`SegmentLog.close` compacts once the log holds more segments
#: than this.
COMPACT_SEGMENTS = 16


#: A parsed record: the key it answers and the store's value.
Record = tuple[str, Any]


class SegmentLog:
    """One store's segments in ``directory``; see the module docstring.

    ``header`` is the store's full first line (without the newline).
    ``parse`` maps a record line to its ``(key, value)``, or to ``None``
    when the line is not a valid record.
    """

    def __init__(self, directory: str, prefix: str, suffix: str,
                 header: str,
                 parse: Callable[[str], Optional[Record]]) -> None:
        self.directory = directory
        self.prefix = prefix
        self.suffix = suffix
        self._header = f"{header}\n".encode("utf-8")
        self._parse = parse
        self._appender: Optional[BinaryIO] = None
        self._appender_path = ""

    # -- reading ----------------------------------------------------------

    def paths(self) -> list[str]:
        """Every segment file, in name order (the fold order)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(os.path.join(self.directory, name) for name in names
                      if name.startswith(self.prefix)
                      and name.endswith(self.suffix))

    def _record(self, raw: bytes) -> Optional[Record]:
        if not raw.endswith(b"\n"):  # a partial last line is no record
            return None
        return self._parse(raw[:-1].decode("utf-8", errors="replace"))

    def _records(self, fh: BinaryIO) -> Iterator[tuple[int, bytes, Record]]:
        """``(offset, raw line, record)`` of each record of an open
        segment whose header has been read, a line at a time."""
        offset = len(self._header)
        for raw in fh:
            record = self._record(raw)
            if record is not None:
                yield offset, raw, record
            offset += len(raw)

    def scan(self) -> Iterator[tuple[str, int, Record]]:
        """``(path, byte offset, record)`` for every record of every
        current segment, in fold order; unreadable segments are
        skipped."""
        for path in self.paths():
            try:
                with open(path, "rb") as fh:
                    if fh.readline() != self._header:
                        continue  # stale
                    for offset, _raw, record in self._records(fh):
                        yield path, offset, record
            except OSError:
                continue

    def read_at(self, path: str, offset: int) -> Optional[Record]:
        """The record at ``offset`` of ``path``, or ``None`` when the
        segment is gone or the line is incomplete or invalid."""
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                raw = fh.readline()
        except OSError:
            return None
        return self._record(raw)

    # -- writing ----------------------------------------------------------

    def _temp(self) -> tuple[BinaryIO, str]:
        """A new temp file, share-locked from creation, so compaction
        reaps it only once this handle has closed it (or died).  A
        compaction can unlink the file between its creation and the
        lock; then it is made again."""
        while True:
            fd, tmp = tempfile.mkstemp(prefix=self.prefix, suffix=".tmp",
                                       dir=self.directory)
            fh = os.fdopen(fd, "wb")
            fcntl.flock(fh, fcntl.LOCK_SH)
            try:
                if os.path.samestat(os.stat(tmp), os.fstat(fd)):
                    return fh, tmp
            except OSError:
                pass
            fh.close()

    def _publish(self, lines: list[bytes], append: bool = False) -> None:
        """Write the header and ``lines`` to a temp file and rename it
        into place; with ``append`` the file stays open, still
        share-locked, so compaction leaves it alone."""
        os.makedirs(self.directory, exist_ok=True)
        fh, tmp = self._temp()
        try:
            fh.write(self._header)
            fh.writelines(lines)
            fh.flush()
            unique = os.path.basename(tmp)[len(self.prefix):-len(".tmp")]
            path = os.path.join(
                self.directory,
                f"{self.prefix}{os.getpid()}-{unique}{self.suffix}")
            os.replace(tmp, path)
        except BaseException:
            fh.close()
            raise
        if append:
            self._appender, self._appender_path = fh, path
        else:
            fh.close()

    def write(self, lines: Iterable[str]) -> None:
        """Publish ``lines`` as one sealed segment (none when empty)."""
        data = [f"{line}\n".encode("utf-8") for line in lines]
        if data:
            self._publish(data)

    def append(self, line: str) -> tuple[str, int]:
        """Append one record line to this handle's own segment, flushed;
        returns its ``(path, byte offset)``.  The first append creates
        the segment.  Raises ``OSError`` when the directory is not
        writable."""
        if self._appender is None:
            self._publish([], append=True)
        offset = self._appender.tell()
        self._appender.write(f"{line}\n".encode("utf-8"))
        self._appender.flush()
        return self._appender_path, offset

    def close(self) -> None:
        """Close this handle's segment, releasing its lock, then compact
        if the log holds more than :data:`COMPACT_SEGMENTS` segments."""
        if self._appender is not None:
            try:
                self._appender.close()
            except OSError:
                pass
            self._appender = None
        if len(self.paths()) > COMPACT_SEGMENTS:
            self.compact()

    # -- maintenance ------------------------------------------------------

    def _reap_temps(self) -> None:
        """Unlink every temp file no live writer holds: one whose writer
        died between the temp write and the rename."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not (name.startswith(self.prefix) and name.endswith(".tmp")):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as fh:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    os.unlink(path)
            except OSError:
                continue  # a live writer holds it, or it is gone

    def compact(self) -> int:
        """Reap orphan temp files, merge every segment no live handle is
        appending to into one (nothing when no record survives), then
        unlink the inputs, stale ones included.  Returns how many stale
        segments went."""
        self._reap_temps()
        held: list[tuple[str, BinaryIO]] = []
        winners: dict[str, bytes] = {}
        stale = 0
        try:
            for path in self.paths():
                try:
                    fh = open(path, "rb")
                except OSError:
                    continue
                try:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    if fh.readline() != self._header:
                        stale += 1
                    else:
                        for _offset, raw, (key, _value) in self._records(fh):
                            winners[key] = raw
                except OSError:
                    # A live handle is appending to it, or it is
                    # unreadable: it stays where it is.
                    fh.close()
                    continue
                held.append((path, fh))
            if winners:
                try:
                    self._publish([winners[key] for key in sorted(winners)])
                except OSError:
                    return 0
            for path, _fh in held:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            return stale
        finally:
            for _path, fh in held:
                fh.close()

    def clear(self) -> None:
        """Unlink every segment."""
        for path in self.paths():
            try:
                os.unlink(path)
            except OSError:
                pass

    def size_bytes(self) -> int:
        total = 0
        for path in self.paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total
