"""Key/value caches backing the three cache tiers.

* api tier    -> DiskCache under <cache_dir>/api (optional expiry)
* task tier   -> the substrate files and their commit record
* runtime tier-> a dict inside the gateway instance, under its lock

A hit on the api tier costs one hash pass over the request (``cache_key``)
and one in-memory lookup: ``DiskCache`` keeps the bytes of every entry it
has indexed and opens no file to answer a hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Mapping, Optional


def cache_key(*parts: str | int | float | bool | None) -> str:
    """Deterministic key for identical inputs (order-sensitive).

    Each part enters one sha256 as its type name and byte length, then its
    bytes: a string as UTF-8, a number, bool or None as its ``repr``. So
    ``("ab", "c")`` and ``("a", "bc")`` differ, and ``0``, ``0.0`` and
    ``"0"`` differ. Any other type is refused rather than hashed by a repr
    that may not be stable.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        elif part is None or isinstance(part, (int, float)):
            data = repr(part).encode("ascii")
        else:
            raise TypeError(f"cache_key cannot hash a {type(part).__name__} part")
        digest.update(b"%s %d " % (type(part).__name__.encode("ascii"), len(data)))
        digest.update(data)
    return digest.hexdigest()


class DiskCache:
    """An append-only log of entries, in the manner of Bitcask (Sheehy and
    Smith 2010): segment files ``<uuid>.log`` plus an in-memory index of
    key -> (created, value bytes).

    Each instance appends to a segment of its own, created on its first
    ``set``, one line ``<key> <created> <value JSON>\\n`` per entry (a
    ``set`` of several entries writes their lines in one append), and
    never opens another file for writing. So any number of instances,
    threads or processes may share the directory, and a hard-linked copy
    of it is never changed by a run over the copy. Keys must hold no
    whitespace (``cache_key`` gives hex digests).

    The index holds the complete lines of every segment, with the value
    bytes read (or written) when the line was indexed: a hit decodes those
    bytes and opens no file. A torn last line (a writer that died
    mid-write) is never indexed. A miss re-reads only the segments that
    grew or appeared since the last read, from where the last read
    stopped, so an entry another instance wrote is still found. A key
    written more than once resolves to its latest ``created``; expiry is
    checked per entry.
    """

    def __init__(self, directory: str | Path, expiry_seconds: Optional[float] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.expiry_seconds = expiry_seconds
        self._lock = threading.Lock()
        self._index: dict[str, tuple[float, bytes]] = {}
        # Segments are named by their path string, as os.scandir gives it:
        # segment -> (size when last read, end of its last complete line)
        self._read: dict[str, tuple[int, int]] = {}
        self._segment: Optional[str] = None

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            entry = self._index.get(key)
            if entry is None or self._expired(entry[0]):
                self._refresh()
                entry = self._index.get(key)
        if entry is None or self._expired(entry[0]):
            return None
        try:
            return json.loads(entry[1])
        except ValueError:  # a corrupt entry
            return None

    def set(self, entries: Mapping[str, Any]) -> None:
        """Store each key -> value of ``entries``, all with one append."""
        encoded = [
            (key, json.dumps(value, ensure_ascii=False).encode("utf-8"))
            for key, value in entries.items()
        ]
        with self._lock:
            if self._segment is None:
                self._segment = os.path.join(self.directory, f"{uuid.uuid4().hex}.log")
                self._read[self._segment] = (0, 0)
            created = time.time()
            stamp = repr(created)
            lines = b"".join(f"{key} {stamp} ".encode("utf-8") + data + b"\n" for key, data in encoded)
            try:
                # Mode "a" creates the segment under the umask like any
                # other file; only this instance ever writes to it.
                with open(self._segment, "ab") as handle:
                    handle.write(lines)
            except BaseException:
                # The lines may be torn: later entries go to a new segment.
                self._segment = None
                raise
            size = self._read[self._segment][1] + len(lines)
            self._read[self._segment] = (size, size)
            for key, data in encoded:
                self._index_entry(key, created, data)

    def _expired(self, created: float) -> bool:
        return self.expiry_seconds is not None and time.time() - created > self.expiry_seconds

    def _index_entry(self, key: str, created: float, data: bytes) -> None:
        known = self._index.get(key)
        if known is None or created >= known[0]:
            self._index[key] = (created, data)

    def _refresh(self) -> None:
        """Index the complete lines that segments gained since last read."""
        with os.scandir(self.directory) as listing:
            found = sorted((e.path, e) for e in listing if e.name.endswith(".log"))
        for segment, entry in found:
            try:
                size = entry.stat().st_size
            except OSError:  # removed since the listing
                continue
            seen, start = self._read.get(segment, (0, 0))
            if size == seen:
                continue
            try:
                with open(segment, "rb") as handle:
                    handle.seek(start)
                    chunk = handle.read(size - start)
            except OSError:
                continue
            complete = chunk.rfind(b"\n") + 1
            pos = 0
            while pos < complete:
                stop = chunk.index(b"\n", pos)
                first = chunk.find(b" ", pos, stop)
                second = chunk.find(b" ", first + 1, stop) if first >= 0 else -1
                if second >= 0:
                    try:
                        key = chunk[pos:first].decode("utf-8")
                        created = float(chunk[first + 1 : second])
                    except ValueError:  # not a line this cache wrote
                        pass
                    else:
                        self._index_entry(key, created, chunk[second + 1 : stop])
                pos = stop + 1
            self._read[segment] = (start + len(chunk), start + complete)
