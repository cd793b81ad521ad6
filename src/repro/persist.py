"""Crash-safe file persistence: atomic files and one append-only JSONL log.

Results files and journal manifests go through :func:`atomic_write_text`:
the payload is written to a temporary file in the same directory (so
``os.replace`` stays on one filesystem and is atomic), fsynced, then
swapped in, so a crash leaves the old file or the new one, never a
truncated one.

Every append-only log — the campaign ``runs.jsonl``, the broker's journal
segments, the planner's outcome memos, the verify fuzzer's journal and
``srcfi compare``'s ``pairs.jsonl`` — is a :class:`JsonlLog`, one JSON
object per line encoded only by :func:`encode_entry`.  A crash mid-append
leaves an unterminated final line: :func:`read_jsonl` drops it,
:class:`JsonlLog` trims it (:func:`trim_partial_tail`) before its next
append so no entry fuses onto it, and any *other* bad line is a
:class:`CorruptLineError` naming the line.  A log flushes every entry;
the writer picks its fsync points (:meth:`JsonlLog.sync`, and on close).
:func:`open_manifest` pins a journal directory to one fingerprint.
"""

from __future__ import annotations

import json
import os
import tempfile

MANIFEST_NAME = "manifest.json"


class JournalError(RuntimeError):
    """Raised for fingerprint mismatches and malformed journal files."""


class CorruptLineError(JournalError):
    """A JSONL line that is neither valid nor a crash-torn tail."""

    def __init__(self, path: str, line: int, reason: str) -> None:
        super().__init__(f"corrupt journal line {line} in {path!r}: {reason}")
        self.line = line


def atomic_write_text(path: str, text: str) -> None:
    """Write *text* to *path* so readers see either the old or the new file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, payload: object, *, indent: int | None = None) -> None:
    """Serialise *payload* and atomically write it to *path*."""
    atomic_write_text(path, json.dumps(payload, indent=indent))


def encode_entry(entry: dict) -> str:
    """One log entry as its line: the only encoding, so merged and serial
    journals match byte for byte."""
    return json.dumps(entry) + "\n"


def trim_partial_tail(path: str | os.PathLike) -> None:
    """Truncate an unterminated final line left by a crash mid-append.

    No-op for missing files, empty files and files whose last byte is a
    newline.  Otherwise truncates back to just after the last newline
    (to zero bytes when the whole file is one partial line), so the next
    append starts a fresh, well-formed record.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        data = handle.read()
    if not data or data.endswith(b"\n"):
        return
    keep = data.rfind(b"\n") + 1  # 0 when the whole file is one partial line
    with open(path, "r+b") as handle:
        handle.truncate(keep)


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Every entry of one log, in file order.

    A missing file reads as ``[]`` and blank lines are skipped.  An
    unterminated final line is what a kill mid-append leaves, so it is
    dropped whether or not it happens to decode (:class:`JsonlLog` trims
    it before the next append, and a reader must agree with that).  Any
    other line that is not a JSON object raises :class:`CorruptLineError`.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return []
    *lines, _torn_tail = text.split("\n")
    entries: list[dict] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            raise CorruptLineError(path, number, "not JSON") from None
        if not isinstance(entry, dict):
            raise CorruptLineError(path, number, "not a JSON object")
        entries.append(entry)
    return entries


class JsonlLog:
    """An append-only JSONL log: torn tail trimmed on open, each entry flushed."""

    def __init__(self, path: str | os.PathLike) -> None:
        trim_partial_tail(path)
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, entry: dict) -> None:
        self._handle.write(encode_entry(entry))
        self._handle.flush()

    def sync(self) -> None:
        """Make every appended entry durable."""
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        try:
            self.sync()
        finally:
            self._handle.close()

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_manifest(
    directory: str, fingerprint: dict, *, log_name: str, resume: bool
) -> bool:
    """Pin *directory* to *fingerprint*; True when continuing an old log.

    A directory without a manifest is fresh: the manifest is written
    (atomically) and the caller starts an empty log named *log_name*.  A
    non-empty log without a manifest belongs to no known campaign, so it
    is refused rather than appended to.  An existing manifest is only
    continued when *resume* is set — silently mixing two runs' entries
    would be worse than an error — and only when it matches *fingerprint*.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        log_path = os.path.join(directory, log_name)
        if os.path.exists(log_path) and os.path.getsize(log_path) > 0:
            raise JournalError(
                f"journal {directory!r} holds {log_name} but no {MANIFEST_NAME}; "
                "refusing to append to a log of unknown origin"
            )
        atomic_write_json(path, fingerprint)
        return False
    if not resume:
        raise JournalError(
            f"journal {directory!r} already exists; pass resume=True "
            "to continue it or point --journal-dir at a fresh directory"
        )
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    if stored != fingerprint:
        differing = sorted(key for key in stored.keys() | fingerprint.keys()
                           if stored.get(key) != fingerprint.get(key))
        raise JournalError(
            f"journal {directory!r} was written by a different campaign "
            f"({', '.join(differing)} differ); refusing to resume from it"
        )
    return True
