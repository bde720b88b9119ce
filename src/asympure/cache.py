"""Append-friendly JSON-lines result cache for the command-line front end.

One record per line: {"key": <canonical parameter string>, "version": <tag>,
"value": <result payload with integers as decimal strings>}.  Later records
for the same key win.  Desk-scale volumes only; no database.

Each record is appended by a single write on an O_APPEND descriptor, so an
interrupted writer can only leave a torn final line.  A line is malformed if
it is not JSON or its record's key is not a string or its value not an
object.  Loading skips a malformed final line with a warning naming
file:line, and the next put cuts it off (or ends a final line left without
its newline) before appending; a malformed line anywhere else is corruption
and raises ValueError naming file:line.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

CACHE_VERSION = "1"

logger = logging.getLogger(__name__)


class ResultCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        # (file size as loaded, length to cut the file to, bytes to put
        # before the next record) when the file does not end in a whole line.
        self._repair: tuple[int, int, bytes] | None = None
        if not self.path.exists():
            return
        malformed = None  # (line number, offset, error) of the latest bad line
        offset = 0
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                if malformed is not None:
                    bad, _, exc = malformed
                    raise ValueError(f"{self.path}:{bad}: corrupt cache record ({exc})") from exc
                try:
                    record = json.loads(line.decode("utf-8"))
                    if record.get("version") == CACHE_VERSION:
                        key, value = record["key"], record["value"]
                        if not isinstance(key, str) or not isinstance(value, dict):
                            raise ValueError("key is not a string or value is not an object")
                        self._records[key] = value
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    malformed = (number, start, exc)
        if malformed is not None:
            bad, start, exc = malformed
            logger.warning("%s:%d: skipping torn final cache record (%s)", self.path, bad, exc)
            self._repair = (offset, start, b"")
        elif offset and not line.endswith(b"\n"):
            self._repair = (offset, offset, b"\n")

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    def put(self, key: str, value: dict) -> None:
        self._records[key] = value
        record = {"key": key, "version": CACHE_VERSION, "value": value}
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if self._repair is not None:
                size, cut, prefix = self._repair
                self._repair = None
                # Repair the tail only if nobody has appended since loading.
                if os.fstat(fd).st_size == size:
                    os.ftruncate(fd, cut)
                    data = prefix + data
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"{self.path}: short write of a cache record ({written} of {len(data)} bytes)")

    def items(self) -> list[tuple[str, dict]]:
        return list(self._records.items())
