"""Key/value caches backing the three cache tiers.

* api tier    -> DiskCache under <cache_dir>/api (optional expiry)
* task tier   -> the substrate files and their commit record
* runtime tier-> a dict inside the gateway instance, under its lock
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Optional


def cache_key(*parts: Any) -> str:
    """Deterministic key for identical inputs (order-sensitive)."""
    blob = json.dumps(parts, ensure_ascii=False, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskCache:
    """An append-only log of entries, in the manner of Bitcask (Sheehy and
    Smith 2010): segment files ``<uuid>.log`` plus an in-memory index of
    key -> (created, segment, offset, length).

    Each instance appends to a segment of its own, created on its first
    ``set``, one line ``<key> <created> <value JSON>\\n`` per entry, and
    never opens another file for writing. So any number of instances,
    threads or processes may share the directory, and a hard-linked copy
    of it is never changed by a run over the copy. Keys must hold no
    whitespace (``cache_key`` gives hex digests).

    The index holds the complete lines of every segment: a torn last line
    (a writer that died mid-write) is never indexed. A miss re-reads only
    the segments that grew or appeared since the last read, so an entry
    another instance wrote is still found. A key written more than once
    resolves to its latest ``created``; expiry is checked per entry.
    """

    def __init__(self, directory: str | Path, expiry_seconds: Optional[float] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.expiry_seconds = expiry_seconds
        self._lock = threading.Lock()
        # Segments are named by their path string, as os.scandir gives it.
        self._index: dict[str, tuple[float, str, int, int]] = {}
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
        _, segment, offset, length = entry
        try:
            with open(segment, "rb") as handle:
                handle.seek(offset)
                return json.loads(handle.read(length))
        except (OSError, ValueError):  # removed, unreadable or corrupt
            return None

    def set(self, key: str, value: Any) -> None:
        data = json.dumps(value, ensure_ascii=False).encode("utf-8")
        with self._lock:
            if self._segment is None:
                self._segment = os.path.join(self.directory, f"{uuid.uuid4().hex}.log")
                self._read[self._segment] = (0, 0)
            created = time.time()
            head = f"{key} {created!r} ".encode("utf-8")
            end = self._read[self._segment][1]
            try:
                # Mode "a" creates the segment under the umask like any
                # other file; only this instance ever writes to it.
                with open(self._segment, "ab") as handle:
                    handle.write(head + data + b"\n")
            except BaseException:
                # The line may be torn: later entries go to a new segment.
                self._segment = None
                raise
            size = end + len(head) + len(data) + 1
            self._read[self._segment] = (size, size)
            self._index_entry(key, created, self._segment, end + len(head), len(data))

    def _expired(self, created: float) -> bool:
        return self.expiry_seconds is not None and time.time() - created > self.expiry_seconds

    def _index_entry(self, key: str, created: float, segment: str, offset: int, length: int) -> None:
        known = self._index.get(key)
        if known is None or created >= known[0]:
            self._index[key] = (created, segment, offset, length)

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
                        self._index_entry(key, created, segment, start + second + 1, stop - second - 1)
                pos = stop + 1
            self._read[segment] = (start + len(chunk), start + complete)
