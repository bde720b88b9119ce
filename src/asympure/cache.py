"""Append-friendly JSON-lines result cache for the command-line front end.

One JSON record per line, keys sorted: {"key": <name:field=value,...>,
"value": <payload>, "version": <tag>}, each appended by one O_APPEND write.
A line is malformed if it is not JSON, its key not a string or its value not
an object.  A call checks the final line: a malformed one, which only a killed
writer leaves, is skipped with a warning naming file:line and cut by the next
put, which also ends an unterminated final line.  get decodes only the last
line starting `{"key": <key>, ` (another first field is a miss) and raises
ValueError naming file:line if it is malformed.  `verify --cache` checks all.
A missing file is an empty cache, and an empty path, which names no file, is a
FileNotFoundError; the file is read once, when the cache is made.
With DEBUG on, get and put each log one record, with the fields key, hit and
bytes (the record's line; 0 on a miss).
"""

import errno
import json
import logging
import os
from pathlib import Path

CACHE_VERSION = "1"

logger = logging.getLogger(__name__)


class ResultCache:
    def __init__(self, path: str | Path):
        if path == "":  # names no file, as open('') says; Path('') would be '.'
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):  # no file there: an empty cache
            data = b""
        # the file's size, and the lines the next put appends to: each ended, none torn
        self._size, self._data = len(data), data + b"\n" if data and not data.endswith(b"\n") else data
        end = len(data)  # the end of data.rstrip(), found without copying data
        while end and data[end - 1] in b" \t\n\r\x0b\x0c":
            end -= 1
        last = data.rfind(b"\n", 0, end) + 1  # the final non-blank line
        try:
            if data[last:].strip():
                self._record(last)
        except ValueError as exc:
            logger.warning("%s:%d: skipping torn final cache record (%s)",
                           self.path, data.count(b"\n", 0, last) + 1, exc.__cause__)
            self._data = data[:last]

    def _record(self, start: int) -> tuple[str, dict] | None:
        """(key, value) of the line at offset start, None for another version."""
        try:
            record = json.loads(self._data[start:self._data.index(b"\n", start)].decode("utf-8"))
            if record.get("version") != CACHE_VERSION:
                return None
            found, value = record["key"], record["value"]
            if not isinstance(found, str) or not isinstance(value, dict):
                raise ValueError("key is not a string or value is not an object")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            number = self._data.count(b"\n", 0, start) + 1
            raise ValueError(f"{self.path}:{number}: corrupt cache record ({exc})") from exc
        return found, value

    def get(self, key: str) -> dict | None:
        prefix = b'{"key": ' + json.dumps(key).encode() + b", "
        start = len(self._data)
        while (start := self._data.rfind(prefix, 0, start)) >= 0:
            at_line_start = self._data[start - 1:start] in (b"", b"\n")  # not a nested object
            if at_line_start and (record := self._record(start)) and record[0] == key:
                break  # the key may differ only on a line that repeats "key"
        hit = start >= 0
        if logger.isEnabledFor(logging.DEBUG):
            size = self._data.index(b"\n", start) + 1 - start if hit else 0
            logger.debug("get %s: %s", key, f"hit, {size} bytes" if hit else "miss",
                         extra={"key": key, "hit": hit, "bytes": size})
        return record[1] if hit else None

    def put(self, key: str, value: dict) -> None:
        record = {"key": key, "version": CACHE_VERSION, "value": value}
        line = data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # Cut a torn final line, or end an unterminated one, if nobody has appended since.
            if len(self._data) != self._size == os.fstat(fd).st_size:
                cut = min(self._size, len(self._data))
                os.ftruncate(fd, cut)
                data = self._data[cut:] + line
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(f"{self.path}: short write of a cache record ({written} of {len(data)} bytes)")
        self._data += line
        self._size = len(self._data)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("put %s: %d bytes", key, len(line),
                         extra={"key": key, "hit": False, "bytes": len(line)})

    def items(self) -> list[tuple[str, dict]]:
        """The last record per key, after checking every line: the full audit."""
        records, start = {}, 0
        for line in self._data.split(b"\n"):
            if line.strip() and (record := self._record(start)):
                records[record[0]] = record[1]
            start += len(line) + 1
        return list(records.items())
