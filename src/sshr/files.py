"""The one write path for every output file, and the CRC32 footer that
seals corpus shards and checkpoints.

A file is written to ``<path>.tmp`` beside its target and then moved over
it with ``os.replace``, so a process killed mid-write leaves any earlier
file at ``path`` whole and no partial file under the target's name; a
write that raises removes the temporary file. There is no ``fsync``: the
guarantee covers a crashed process, not a lost machine.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager

from .errors import CorruptDataError


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def struct_crc(*chunks) -> bytes:
    """The u32 LE CRC32 of the chunks laid end to end; any bytes-like chunk
    (a memoryview, a contiguous array) is read in place, not copied."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return (crc & 0xFFFFFFFF).to_bytes(4, "little")


def unsealed(raw, what) -> memoryview:
    """The bytes of ``raw`` before its ``struct_crc`` footer, viewed in
    place; ``CorruptDataError`` naming ``what`` if the footer is missing or
    does not match."""
    if len(raw) < 4:
        raise CorruptDataError(f"{what}: too small to hold a checksum")
    payload = memoryview(raw)[:-4]
    if struct_crc(payload) != raw[-4:]:
        raise CorruptDataError(f"{what}: checksum mismatch")
    return payload


@contextmanager
def replacing(path, mode: str = "w"):
    """An open file (``mode`` "w" or "wb"; text is UTF-8, newlines
    untranslated) whose contents replace ``path`` when the block exits
    cleanly."""
    tmp = f"{path}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str):
    with replacing(path) as fh:
        fh.write(text)


def write_json(path, obj):
    """``obj`` as sorted, one-space-indented JSON plus a final newline."""
    write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")
