"""Key/value caches backing the three cache tiers.

* api tier    -> DiskCache under <cache_dir>/api (optional expiry)
* task tier   -> the substrate files themselves plus checkpoints
* runtime tier-> MemoryCache inside the gateway instance
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Optional


def cache_key(*parts: Any) -> str:
    """Deterministic key for identical inputs (order-sensitive)."""
    blob = json.dumps(parts, ensure_ascii=False, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MemoryCache:
    """In-memory tier; safe for concurrent readers and writers."""

    def __init__(self):
        self._data: dict[str, Any] = {}
        self._lock = threading.RLock()

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            return self._data.get(key)

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class DiskCache:
    """One JSON file per entry; writes are atomic (tmp + replace)."""

    def __init__(self, directory: str | Path, expiry_seconds: Optional[float] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.expiry_seconds = expiry_seconds
        self._lock = threading.RLock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        with self._lock:
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):  # missing, unreadable or corrupt
                return None
        if self.expiry_seconds is not None:
            if time.time() - doc.get("created", 0) > self.expiry_seconds:
                return None
        return doc.get("value")

    def set(self, key: str, value: Any) -> None:
        path = self._path(key)
        doc = {"created": time.time(), "value": value}
        with self._lock:
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
            tmp.replace(path)

    def clear(self) -> int:
        removed = 0
        with self._lock:
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
