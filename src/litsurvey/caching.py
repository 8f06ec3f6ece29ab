"""Key/value caches backing the three cache tiers.

* api tier    -> DiskCache under <cache_dir>/api (optional expiry)
* task tier   -> the substrate files and their commit record
* runtime tier-> a dict inside the gateway instance, under its lock
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from pathlib import Path
from typing import Any, Optional


def cache_key(*parts: Any) -> str:
    """Deterministic key for identical inputs (order-sensitive)."""
    blob = json.dumps(parts, ensure_ascii=False, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskCache:
    """One JSON file per entry. Each write goes to a temporary file of its
    own in the same directory and is renamed over the entry, so readers see
    a whole entry or none, and any number of instances, threads or
    processes may share the directory without a lock."""

    def __init__(self, directory: str | Path, expiry_seconds: Optional[float] = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.expiry_seconds = expiry_seconds

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        try:
            doc = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):  # missing, unreadable or corrupt
            return None
        if self.expiry_seconds is not None:
            if time.time() - doc.get("created", 0) > self.expiry_seconds:
                return None
        return doc.get("value")

    def set(self, key: str, value: Any) -> None:
        doc = {"created": time.time(), "value": value}
        # A name no other writer uses; mode "x" creates it under the umask.
        tmp = self.directory / f"{key}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, ensure_ascii=False))
            os.replace(tmp, self._path(key))
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
